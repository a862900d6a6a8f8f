"""Command-line front end: discovery runs, reports, and error injection.

Exit codes: 0 on success, 1 for configuration problems (bad flags or flag
combinations), 2 for data problems (unreadable or malformed input files).
The report and the injection themselves live in ``ontofd.repair``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple, Sequence

from .inference import kind_label
from .lattice import DiscoveryConfig, discover
from .ontology import OntologyError, load_ontology
from .relation import Partition, RelationError, load_relation
from .repair import (
    CellChange,
    OfdViolationEntry,
    inject_errors,
    violation_entry,
)
from .verify import Inheritance, Ofd, Synonym


class CliConfigError(Exception):
    """Invalid flags or flag combinations."""


class _Run(NamedTuple):
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


class RunConfig(_Run):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in ("syn", "inh", "both"):
            raise CliConfigError(f"unknown mode {self.mode!r}")
        if self.mode in ("inh", "both") and self.theta is None:
            raise CliConfigError("--theta is required for inheritance modes")
        if self.theta is not None and self.theta < 0:
            raise CliConfigError("--theta must be non-negative")
        if not 0.0 < self.tau <= 1.0:
            raise CliConfigError("--tau must be in (0, 1]")
        if self.max_level is not None and self.max_level < 1:
            raise CliConfigError("--max-level must be at least 1")
        if self.report_format not in ("json", "text"):
            raise CliConfigError(f"unknown format {self.report_format!r}")
        if self.inject_rate is not None and not 0.0 <= self.inject_rate < 1.0:
            raise CliConfigError("--inject-errors rate must be in [0, 1)")
        if self.report_violations and self.output_path is None:
            raise CliConfigError("--report-violations requires --output")
        if self.inject_rate is not None and self.output_path is None:
            raise CliConfigError("--inject-errors requires --output")
        written = [self.output_path, self.stats_path]
        if self.report_violations:
            written.append(f"{self.output_path}.violations.json")
        if self.inject_rate is not None:
            written.append(f"{self.output_path}.inject-log.json")
        paths = [os.path.realpath(p) for p in written if p is not None]
        read = {os.path.realpath(self.input_path), os.path.realpath(self.ontology_path)}
        if len(set(paths)) < len(paths) or read & set(paths):
            raise CliConfigError("written files must differ from each other and from the inputs")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` checks too


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


_STR = json.encoder.encode_basestring_ascii
# Line starts at each depth of an indented JSON document, two spaces a level.
_LINE = tuple("\n" + "  " * depth for depth in range(6))


def _json_list(items: list[str], depth: int) -> str:
    """Encoded ``items`` as an indented JSON list opened at ``depth``."""
    if not items:
        return "[]"
    inner = _LINE[depth + 1]
    return f"[{inner}{(',' + inner).join(items)}{_LINE[depth]}]"


def _ofd_field(key: str, value: object) -> str:
    """One field of an ofd record: a list of names, a name or a number."""
    if isinstance(value, list):
        text = _json_list(list(map(_STR, value)), 3)
    elif isinstance(value, str):
        text = _STR(value)
    else:
        text = repr(value)
    return f"{_STR(key)}: {text}"


def violation_record(entry: OfdViolationEntry, schema: Sequence[str]) -> str:
    """One record of the violations file, as ``json.dumps(records, indent=2)``
    writes it inside the list, built straight from the entry.

    A record holds ``ofd`` (the entry's ``ofd_to_record``), ``support``,
    ``false_positive_savings`` and ``violations``, one object per violating
    class.  Strings are escaped by ``json``'s own helper; supports and
    savings are finite ratios, written as ``json`` writes floats.
    ``json.dumps`` with ``indent`` runs its pure-Python encoder, which took
    about four times as long on a 1.6 MB report.
    """
    _, at1, at2, at3, at4, _ = _LINE
    ofd = f",{at3}".join(
        _ofd_field(key, value) for key, value in ofd_to_record(entry.ofd, schema).items()
    )
    classes = [
        f'{{{at4}"class_representative": {v.representative!r},'
        f'{at4}"majority_sense": {_STR(v.majority_sense)},'
        f'{at4}"majority_tuples": {_json_list(list(map(repr, v.majority_tuples)), 4)},'
        f'{at4}"minority_tuples": {_json_list(list(map(repr, v.minority_tuples)), 4)},'
        f'{at4}"minority_values": {_json_list(list(map(_STR, v.minority_values)), 4)},'
        f'{at4}"suggested_value": {_STR(v.suggested_value)}{at3}}}'
        for v in entry.violations
    ]
    return (
        f'{{{at2}"ofd": {{{at3}{ofd}{at2}}},'
        f'{at2}"support": {entry.support!r},'
        f'{at2}"false_positive_savings": {entry.false_positive_savings!r},'
        f'{at2}"violations": {_json_list(classes, 2)}{at1}}}'
    )


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
        if path is not None and Path(path).is_dir():
            print(f"error: {path!r} is a directory", file=sys.stderr)
            return 2
    try:
        relation = load_relation(cfg.input_path)
        ontology = load_ontology(cfg.ontology_path)
    except (OSError, RelationError, OntologyError) as exc:
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
        kinds.append(Inheritance(cfg.theta))

    all_ofds: list[Ofd] = []
    stats_rows: list[dict] = []
    try:
        with (
            open(cfg.output_path + ".violations.json", "w", encoding="utf-8")
            if cfg.report_violations else nullcontext()
        ) as report_file:
            head = "["

            def report(ofd: Ofd, part: Partition) -> None:
                # Each record is written as its dependency is found, from the
                # partition discovery holds; the calls come in the file's order.
                nonlocal head
                entry = violation_entry(relation, ontology, ofd, part)
                report_file.write(head + _LINE[1] + violation_record(entry, relation.schema))
                head = ","

            for kind in kinds:
                disc_cfg = DiscoveryConfig(
                    kind, cfg.tau, cfg.max_level, cfg.opt2, cfg.opt3, cfg.opt4, cfg.stripped
                )
                result = discover(
                    relation, ontology, disc_cfg,
                    on_ofd=report if cfg.report_violations else None,
                )
                all_ofds.extend(result.ofds)
                label = kind_label(kind)
                stats_rows.extend({"kind": label, **row._asdict()} for row in result.per_level)
            if cfg.report_violations:
                report_file.write("[]\n" if head == "[" else "\n]\n")

        records = ofds_to_records(all_ofds, relation.schema)
        if cfg.report_format == "json":
            _write(cfg.output_path, json.dumps(records, indent=2) + "\n")
        else:
            _write(cfg.output_path, _format_text(records))
        if cfg.stats_path is not None:
            _write(cfg.stats_path, json.dumps(stats_rows, indent=2) + "\n")
        if cfg.inject_rate is not None:
            log_records = [
                {"row": c.row, "column": relation.schema[c.column], "old": c.old, "new": c.new}
                for c in inject_log
            ]
            _write(cfg.output_path + ".inject-log.json", json.dumps(log_records, indent=2) + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """Flags whose ``dest`` is a ``RunConfig`` field; an absent flag is left
    out of the namespace, so ``RunConfig`` holds every default."""
    parser = _Parser(
        prog="ontofd",
        description="Discover synonym and inheritance dependencies from a CSV "
        "table and a JSON ontology.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--input", required=True, dest="input_path", metavar="INPUT",
                        help="CSV file with a header row")
    parser.add_argument("--ontology", required=True, dest="ontology_path",
                        metavar="ONTOLOGY", help="ontology JSON file")
    parser.add_argument("--mode", choices=["syn", "inh", "both"])
    parser.add_argument("--theta", type=int, help="is-a distance bound (inheritance modes)")
    parser.add_argument("--tau", type=float, help="minimum support, 1.0 = exact (default)")
    parser.add_argument("--max-level", type=int, help="largest antecedent size to explore")
    parser.add_argument("--output", dest="output_path", metavar="OUTPUT",
                        help="output path (default stdout)")
    parser.add_argument("--format", choices=["json", "text"], dest="report_format")
    parser.add_argument("--stats", dest="stats_path", metavar="STATS",
                        help="write per-level stats JSON here")
    parser.add_argument("--no-opt2", action="store_false", dest="opt2",
                        help="disable superset pruning of found dependencies")
    parser.add_argument("--no-opt3", action="store_false", dest="opt3",
                        help="disable superkey shortcutting")
    parser.add_argument("--no-opt4", action="store_false", dest="opt4",
                        help="disable the equal-values shortcut")
    parser.add_argument("--no-strip", action="store_false", dest="stripped",
                        help="keep singleton classes in the partitions")
    parser.add_argument("--report-violations", action="store_true")
    parser.add_argument("--inject-errors", type=float, dest="inject_rate", metavar="RATE")
    parser.add_argument("--seed", type=int)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        cfg = RunConfig(**vars(build_parser().parse_args(argv)))
    except CliConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
