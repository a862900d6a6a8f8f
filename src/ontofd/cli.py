"""Command-line front end: discovery runs, reports, and error injection.

Exit codes: 0 on success, 1 for configuration problems (bad flags or flag
combinations), 2 for data problems (unreadable or malformed input files).
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .inference import kind_label
from .lattice import DiscoveryConfig, discover
from .ontology import Ontology, OntologyError, display_label, load_ontology
from .relation import (
    AttrSet,
    Relation,
    RelationError,
    StrippedPartition,
    load_relation,
    partition,
    relation_from_rows,
    strip,
)
from .verify import Inheritance, Ofd, Synonym, support


class CliConfigError(Exception):
    """Invalid flags or flag combinations."""


@dataclass
class RunConfig:
    input_path: str
    ontology_path: str
    mode: str = "syn"
    theta: int | None = None
    tau: float = 1.0
    max_level: int | None = None
    output_path: str | None = None
    report_format: str = "json"
    stats_path: str | None = None
    opt2: bool = True
    opt3: bool = True
    opt4: bool = True
    stripped: bool = True
    report_violations: bool = False
    inject_rate: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("syn", "inh", "both"):
            raise CliConfigError(f"unknown mode {self.mode!r}")
        if self.mode in ("inh", "both") and self.theta is None:
            raise CliConfigError("--theta is required for inheritance modes")
        if self.theta is not None and self.theta < 0:
            raise CliConfigError("--theta must be non-negative")
        if not 0.0 < self.tau <= 1.0:
            raise CliConfigError("--tau must be in (0, 1]")
        if self.report_format not in ("json", "text"):
            raise CliConfigError(f"unknown format {self.report_format!r}")
        if self.inject_rate is not None and not 0.0 <= self.inject_rate < 1.0:
            raise CliConfigError("--inject-errors rate must be in [0, 1)")


@dataclass(frozen=True)
class CellChange:
    """One injected perturbation: (row, column) with old and new value."""

    row: int
    column: int
    old: str
    new: str


@dataclass(frozen=True)
class ClassViolation:
    """One equivalence class that fails the exact check, split into the
    tuples consistent with the majority sense and the minority remainder."""

    representative: int
    majority_sense: str
    majority_tuples: tuple[int, ...]
    minority_tuples: tuple[int, ...]
    minority_values: tuple[str, ...]
    suggested_value: str


@dataclass(frozen=True)
class OfdViolationEntry:
    ofd: Ofd
    support: float
    violations: tuple[ClassViolation, ...]
    # Fraction of satisfying tuples whose consequent value differs from the
    # canonical value of their class yet is ontologically consistent with it.
    false_positive_savings: float


@dataclass(frozen=True)
class ViolationReport:
    entries: tuple[OfdViolationEntry, ...]


class _Omitting:
    """``values`` without the entries at the sorted positions ``gaps``.

    ``random.choice`` draws from it exactly as from the equivalent list,
    which is never built.
    """

    def __init__(self, values: Sequence[str], gaps: Sequence[int]):
        self.values = values
        self.gaps = gaps

    def __len__(self) -> int:
        return len(self.values) - len(self.gaps)

    def __getitem__(self, index: int) -> str:
        for gap in self.gaps:
            if gap > index:
                break
            index += 1
        return self.values[index]


class _SharedSenses:
    """Which of a column's sorted distinct values share a sense, with each
    value's senses looked up once."""

    def __init__(self, ontology: Ontology, values: Sequence[str]):
        self.senses = [ontology.names(v) for v in values]
        self.holders: dict[str, list[int]] = {}
        for i, senses in enumerate(self.senses):
            for sense in senses:
                self.holders.setdefault(sense, []).append(i)

    def positions(self, at: int) -> list[int]:
        """Sorted positions of the values sharing a sense with value ``at``,
        ``at`` included: every value has at least one sense."""
        return sorted({i for sense in self.senses[at] for i in self.holders[sense]})


def inject_errors(
    relation: Relation,
    rate: float,
    seed: int,
    *,
    columns: Sequence[int] | None = None,
    ontology: Ontology | None = None,
) -> tuple[Relation, list[CellChange]]:
    """Perturb ``ceil(rate * n)`` cells with values from other rows.

    Cells are drawn uniformly from the given columns (all columns by
    default).  When an ontology is supplied, replacement values that share no
    sense with the original are preferred, so the logged cells break sense
    agreement whenever the column offers such a value.  The same seed always
    produces the same perturbation.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
    n = relation.n
    count = math.ceil(rate * n)
    if count == 0:
        return relation, []
    rng = random.Random(seed)
    target_columns = list(columns) if columns is not None else list(range(len(relation.schema)))
    cells = [(row, col) for col in target_columns for row in range(n)]
    chosen = rng.sample(cells, min(count, len(cells)))
    rows = [list(row) for row in relation.rows]
    # Per column: the sorted distinct values, and the position of each.
    values = {col: sorted({row[col] for row in relation.rows}) for col in set(target_columns)}
    position = {col: {v: i for i, v in enumerate(vals)} for col, vals in values.items()}
    sharing: dict[int, _SharedSenses] = {}
    log: list[CellChange] = []
    for row, col in sorted(chosen):
        if n == 1:
            # No other row holds a value to draw.
            continue
        old = rows[row][col]
        vals = values[col]
        at = position[col][old]
        # Draw from the values that share no sense with ``old``, else from
        # any value but ``old``, else ``old`` itself, which then fills the
        # other rows too.
        pool: Sequence[str] = vals
        if len(vals) > 1:
            pool = _Omitting(vals, [at])
        if ontology is not None:
            if col not in sharing:
                sharing[col] = _SharedSenses(ontology, vals)
            breaking = _Omitting(vals, sharing[col].positions(at))
            if len(breaking):
                pool = breaking
        new = rng.choice(pool)
        rows[row][col] = new
        log.append(CellChange(row, col, old, new))
    return relation_from_rows(relation.schema, rows), log


def report_violations(
    relation: Relation,
    ontology: Ontology,
    ofds: Sequence[Ofd],
) -> ViolationReport:
    """Violating classes with repair suggestions, per dependency.

    For every class failing the exact check, tuples consistent with the
    majority sense (or ancestor) keep their values; the minority tuples get
    the consequent value of the smallest-id majority tuple as the suggested
    repair.  A class fails the exact check exactly when its majority split
    leaves a non-empty minority.  Dependencies that hold exactly produce no
    violations but still get the savings statistic.
    """
    entries: list[OfdViolationEntry] = []
    parts: dict[AttrSet, StrippedPartition] = {}
    for ofd in ofds:
        part = parts.get(ofd.lhs)
        if part is None:
            part = parts[ofd.lhs] = strip(partition(relation, ofd.lhs))
        approx = support(relation, ontology, part, ofd.rhs, ofd.kind)
        violations: list[ClassViolation] = []
        satisfying_total = relation.n - part.covered_count
        unequal_total = 0
        for cls in approx.classes:
            members = cls.members
            satisfying_total += len(members)
            canonical = relation.rows[min(members)][ofd.rhs] if members else ""
            unequal_total += sum(
                1 for t in members if relation.rows[t][ofd.rhs] != canonical
            )
            if cls.others:
                minority_values = tuple(
                    relation.rows[t][ofd.rhs] for t in cls.others
                )
                violations.append(
                    ClassViolation(
                        representative=cls.representative,
                        majority_sense=display_label(cls.sense),
                        majority_tuples=members,
                        minority_tuples=cls.others,
                        minority_values=minority_values,
                        suggested_value=canonical,
                    )
                )
        savings = unequal_total / satisfying_total if satisfying_total else 0.0
        entries.append(
            OfdViolationEntry(ofd, approx.support, tuple(violations), savings)
        )
    return ViolationReport(tuple(entries))


def ofd_to_record(ofd: Ofd, schema: Sequence[str]) -> dict:
    record: dict = {
        "lhs": [schema[a] for a in ofd.lhs],
        "rhs": schema[ofd.rhs],
        "kind": kind_label(ofd.kind),
    }
    if isinstance(ofd.kind, Inheritance):
        record["theta"] = ofd.kind.theta
    record["support"] = ofd.support if ofd.support is not None else 1.0
    return record


def ofds_to_records(ofds: Sequence[Ofd], schema: Sequence[str]) -> list[dict]:
    records = [ofd_to_record(ofd, schema) for ofd in ofds]
    records.sort(key=lambda r: (len(r["lhs"]), r["lhs"], r["rhs"], r["kind"]))
    return records


def violation_report_to_records(report: ViolationReport, schema: Sequence[str]) -> list[dict]:
    out = []
    for entry in report.entries:
        out.append(
            {
                "ofd": ofd_to_record(entry.ofd, schema),
                "support": entry.support,
                "false_positive_savings": entry.false_positive_savings,
                "violations": [
                    {
                        "class_representative": v.representative,
                        "majority_sense": v.majority_sense,
                        "majority_tuples": list(v.majority_tuples),
                        "minority_tuples": list(v.minority_tuples),
                        "minority_values": list(v.minority_values),
                        "suggested_value": v.suggested_value,
                    }
                    for v in entry.violations
                ],
            }
        )
    return out


def _format_text(records: list[dict]) -> str:
    lines = []
    for r in records:
        theta = f" theta={r['theta']}" if "theta" in r else ""
        lines.append(
            f"[{', '.join(r['lhs'])}] -> {r['rhs']}"
            f" ({r['kind']}{theta}, support={r['support']:.6g})"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def run(cfg: RunConfig) -> int:
    """Load inputs, run discovery, and write the requested artifacts."""
    for path in (cfg.output_path, cfg.stats_path):
        if path is not None and not Path(path).parent.is_dir():
            print(f"error: directory of {path!r} does not exist", file=sys.stderr)
            return 2
    try:
        relation = load_relation(cfg.input_path)
        ontology = load_ontology(cfg.ontology_path)
    except (OSError, RelationError, OntologyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    inject_log: list[CellChange] = []
    if cfg.inject_rate is not None:
        relation, inject_log = inject_errors(
            relation, cfg.inject_rate, cfg.seed, ontology=ontology
        )

    kinds = []
    if cfg.mode in ("syn", "both"):
        kinds.append(Synonym())
    if cfg.mode in ("inh", "both"):
        kinds.append(Inheritance(cfg.theta or 0))

    base = [partition(relation, (a,)) for a in range(len(relation.schema))]
    all_ofds: list[Ofd] = []
    stats_rows: list[dict] = []
    for kind in kinds:
        disc_cfg = DiscoveryConfig(
            kind=kind,
            tau=cfg.tau,
            max_level=cfg.max_level,
            opt2=cfg.opt2,
            opt3=cfg.opt3,
            opt4=cfg.opt4,
            stripped=cfg.stripped,
        )
        result = discover(relation, ontology, disc_cfg, base_partitions=base)
        all_ofds.extend(result.ofds)
        for stats in result.per_level:
            stats_rows.append(
                {
                    "kind": kind_label(kind),
                    "level": stats.level,
                    "nodes": stats.nodes,
                    "pruned": stats.pruned,
                    "candidates": stats.candidates,
                    "ofds": stats.ofds,
                    "seconds": stats.seconds,
                }
            )

    try:
        _write_artifacts(cfg, relation, ontology, all_ofds, stats_rows, inject_log)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _write_artifacts(
    cfg: RunConfig,
    relation: Relation,
    ontology: Ontology,
    all_ofds: list[Ofd],
    stats_rows: list[dict],
    inject_log: list[CellChange],
) -> None:
    """Write the output, stats, injection log and violation report."""
    records = ofds_to_records(all_ofds, relation.schema)
    if cfg.report_format == "json":
        _write(cfg.output_path, json.dumps(records, indent=2) + "\n")
    else:
        _write(cfg.output_path, _format_text(records))

    if cfg.stats_path is not None:
        _write(cfg.stats_path, json.dumps(stats_rows, indent=2) + "\n")

    if cfg.inject_rate is not None and cfg.output_path is not None:
        log_records = [
            {"row": c.row, "column": relation.schema[c.column], "old": c.old, "new": c.new}
            for c in inject_log
        ]
        _write(cfg.output_path + ".inject-log.json", json.dumps(log_records, indent=2) + "\n")

    if cfg.report_violations:
        report = report_violations(relation, ontology, all_ofds)
        report_json = json.dumps(
            violation_report_to_records(report, relation.schema), indent=2
        ) + "\n"
        violations_path = None if cfg.output_path is None else cfg.output_path + ".violations.json"
        _write(violations_path, report_json)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ontofd",
        description="Discover synonym and inheritance dependencies from a CSV "
        "table and a JSON ontology.",
    )
    parser.add_argument("--input", required=True, help="CSV file with a header row")
    parser.add_argument("--ontology", required=True, help="ontology JSON file")
    parser.add_argument("--mode", choices=["syn", "inh", "both"], default="syn")
    parser.add_argument("--theta", type=int, default=None,
                        help="is-a distance bound (inheritance modes)")
    parser.add_argument("--tau", type=float, default=1.0,
                        help="minimum support, 1.0 = exact (default)")
    parser.add_argument("--max-level", type=int, default=None,
                        help="largest antecedent size to explore")
    parser.add_argument("--output", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--stats", default=None, help="write per-level stats JSON here")
    parser.add_argument("--no-opt2", action="store_true",
                        help="disable superset pruning of found dependencies")
    parser.add_argument("--no-opt3", action="store_true",
                        help="disable superkey shortcutting")
    parser.add_argument("--no-opt4", action="store_true",
                        help="disable the equal-values shortcut")
    parser.add_argument("--no-strip", action="store_true",
                        help="keep singleton classes and skip partition products")
    parser.add_argument("--report-violations", action="store_true")
    parser.add_argument("--inject-errors", type=float, default=None, metavar="RATE")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        input_path=args.input,
        ontology_path=args.ontology,
        mode=args.mode,
        theta=args.theta,
        tau=args.tau,
        max_level=args.max_level,
        output_path=args.output,
        report_format=args.format,
        stats_path=args.stats,
        opt2=not args.no_opt2,
        opt3=not args.no_opt3,
        opt4=not args.no_opt4,
        stripped=not args.no_strip,
        report_violations=args.report_violations,
        inject_rate=args.inject_errors,
        seed=args.seed,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
    except CliConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
