"""Data cleaning on top of discovery: violation reports and error injection.

``report_violations`` splits every class that breaks a dependency into the
tuples agreeing on its majority sense and a minority, and suggests a repair
for the minority.  It works on the relation's dictionary-encoded columns:
each distinct antecedent's stripped partition is built once from codes, and
values are compared by code.  ``inject_errors`` perturbs cells to plant
violations for recall experiments.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import countOf
from typing import Sequence

from .ontology import Ontology, display_label
from .relation import AttrSet, Partition, Relation, partition, refine
from .verify import Ofd, support


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
    target_columns = list(columns) if columns is not None else list(range(len(relation.schema)))
    if count == 0 or n == 1 or not target_columns:
        # With one row, no other row holds a value to draw.
        return relation, []
    rng = random.Random(seed)
    cells = [(row, col) for col in target_columns for row in range(n)]
    chosen = rng.sample(cells, min(count, len(cells)))
    table = [list(map(c.values.__getitem__, c.codes)) for c in relation.columns]
    # Per column: the sorted distinct values, and the position of each.
    values = {col: sorted(relation.columns[col].values) for col in set(target_columns)}
    position = {col: {v: i for i, v in enumerate(vals)} for col, vals in values.items()}
    sharing: dict[int, _SharedSenses] = {}
    log: list[CellChange] = []
    for row, col in sorted(chosen):
        old = table[col][row]
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
        table[col][row] = new
        log.append(CellChange(row, col, old, new))
    return Relation(relation.schema, zip(*table)), log


def _antecedent_partition(
    relation: Relation, lhs: AttrSet, parts: dict[AttrSet, Partition]
) -> Partition:
    """Stripped partition over ``lhs``, cached in ``parts`` with its prefixes.

    ``parts`` starts with the class of all tuples under ``()``; an
    antecedent refines its prefix's partition by the codes of its last
    attribute.
    """
    part = parts.get(lhs)
    if part is None:
        part = refine(_antecedent_partition(relation, lhs[:-1], parts), relation, lhs[-1])
        parts[lhs] = part
    return part


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
    parts = {(): partition(relation, ())}
    for ofd in ofds:
        part = _antecedent_partition(relation, ofd.lhs, parts)
        approx = support(relation, ontology, part, ofd.rhs, ofd.kind)
        column = relation.columns[ofd.rhs]
        codes, values = column.codes, column.values
        violations: list[ClassViolation] = []
        satisfying_total = relation.n - part.covered_count
        unequal_total = 0
        for cls in approx.classes:
            # Every value has a sense, so a class's majority is never empty;
            # members are sorted, so the first is the smallest id.
            members = cls.members
            canonical = codes[members[0]]
            satisfying_total += len(members)
            unequal_total += len(members) - countOf(map(codes.__getitem__, members), canonical)
            if cls.others:
                violations.append(
                    ClassViolation(
                        representative=cls.representative,
                        majority_sense=display_label(cls.sense),
                        majority_tuples=members,
                        minority_tuples=cls.others,
                        minority_values=tuple(values[codes[t]] for t in cls.others),
                        suggested_value=values[canonical],
                    )
                )
        savings = unequal_total / satisfying_total if satisfying_total else 0.0
        entries.append(
            OfdViolationEntry(ofd, approx.support, tuple(violations), savings)
        )
    return ViolationReport(tuple(entries))
