"""Data cleaning on top of discovery: violation reports and error injection.

``report_violations`` splits every class that breaks a dependency into the
tuples agreeing on its majority sense and a minority, and suggests a repair
for the minority.  It works on the relation's dictionary-encoded columns
and compares values by code; one pass over an antecedent's partition builds
a dependency's entry.  ``inject_errors`` perturbs cells to plant
violations for recall experiments.  Both read a column's senses from its
``sense_table``: the report under the dependency's kind, injection under
``Synonym``.
"""
from __future__ import annotations

import math
import random
from operator import countOf
from typing import NamedTuple, Sequence

from .ontology import Ontology, display_label
from .relation import Partition, Relation, partition, strip
from .verify import Ofd, Synonym, check_attr, class_splits, sense_table


class CellChange(NamedTuple):
    """One injected perturbation: (row, column) with old and new value."""

    row: int
    column: int
    old: str
    new: str


class ClassViolation(NamedTuple):
    """One equivalence class that fails the exact check, split into the
    tuples consistent with the majority sense and the minority remainder."""

    representative: int
    majority_sense: str
    majority_tuples: tuple[int, ...]
    minority_tuples: tuple[int, ...]
    minority_values: tuple[str, ...]
    suggested_value: str


class OfdViolationEntry(NamedTuple):
    ofd: Ofd
    support: float
    violations: tuple[ClassViolation, ...]
    # Fraction of satisfying tuples whose consequent value differs from the
    # canonical value of their class yet is ontologically consistent with it.
    false_positive_savings: float


class ViolationReport(NamedTuple):
    entries: tuple[OfdViolationEntry, ...]


def inject_errors(
    relation: Relation,
    rate: float,
    seed: int,
    *,
    columns: Sequence[int] | None = None,
    ontology: Ontology | None = None,
) -> tuple[Relation, list[CellChange]]:
    """Perturb ``ceil(rate * n)`` cells with values from other rows.

    Cells are drawn uniformly from the given columns, distinct attribute
    indexes (all columns by default).  When an ontology is supplied,
    replacement values that share no sense with the original are preferred,
    so the logged cells break sense agreement whenever the column offers such
    a value; senses come from the column's synonym ``SenseTable``, which is
    cached on ``relation``.  The same seed always gives the same perturbation.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
    n = relation.n
    count = math.ceil(rate * n)
    width = len(relation.schema)
    target_columns = list(range(width)) if columns is None else list(columns)
    if len(set(target_columns) & set(range(width))) != len(target_columns):
        raise ValueError(f"columns must be distinct attribute indexes in range({width})")
    if count == 0 or n == 1 or not target_columns:
        # With one row, no other row holds a value to draw.
        return relation, []
    rng = random.Random(seed)
    cells = [(row, col) for col in target_columns for row in range(n)]
    chosen = rng.sample(cells, min(count, len(cells)))
    table = [list(map(c.values.__getitem__, c.codes)) for c in relation.columns]
    # Per column: the sorted distinct values, and the position of each.
    values = {col: sorted(relation.columns[col].values) for col in target_columns}
    position = {col: {v: i for i, v in enumerate(vals)} for col, vals in values.items()}
    # Per column, built on first use: the positions of the values holding
    # each sense id of the column's synonym table.
    holders: dict[int, dict[int, list[int]]] = {}
    log: list[CellChange] = []
    for row, col in sorted(chosen):
        old = table[col][row]
        vals = values[col]
        at = position[col][old]
        # Draw from the values that share no sense with ``old``, else from
        # any value but ``old``, else ``old`` itself, which then fills the
        # other rows too.  ``gaps`` holds the sorted positions left out of
        # the draw, and the drawn index steps past each gap not above it.
        gaps = [at] if len(vals) > 1 else []
        if ontology is not None:
            synonyms = sense_table(relation, ontology, col, Synonym())
            if col not in holders:
                holders[col] = by_sense = {}
                for v, senses in zip(synonyms.values, synonyms.senses):
                    for sense in senses:
                        by_sense.setdefault(sense, []).append(position[col][v])
            # Every value has a sense, so ``at`` is among the positions.
            held = synonyms.senses[synonyms.codes[row]]
            breaking = sorted({i for sense in held for i in holders[col][sense]})
            if len(breaking) < len(vals):
                gaps = breaking
        index = rng.choice(range(len(vals) - len(gaps)))
        for gap in gaps:
            if gap > index:
                break
            index += 1
        new = vals[index]
        table[col][row] = new
        log.append(CellChange(row, col, old, new))
    return Relation(relation.schema, zip(*table)), log


def violation_entry(
    relation: Relation, ontology: Ontology, ofd: Ofd, part: Partition
) -> OfdViolationEntry:
    """The report entry of ``ofd`` from ``part``, its antecedent's partition.

    ``part`` may keep or drop its one-tuple classes: such a class agrees
    with itself and adds the same to every total either way.
    """
    table = sense_table(relation, ontology, ofd.rhs, ofd.kind)
    codes, values = table.codes, table.values
    violations: list[ClassViolation] = []
    satisfied = relation.n - part.covered_count
    unequal = 0
    for cls, sense, members, others in class_splits(table, part.classes):
        # Every value has a sense, so a class's majority is never empty;
        # members keep the class order, so the first is the smallest id.
        canonical = codes[members[0]]
        satisfied += len(members)
        unequal += len(members) - countOf(map(codes.__getitem__, members), canonical)
        if others:
            violations.append(
                ClassViolation(
                    representative=cls[0],
                    majority_sense=display_label(table.names[sense]),
                    majority_tuples=members,
                    minority_tuples=others,
                    minority_values=tuple(values[codes[t]] for t in others),
                    suggested_value=values[canonical],
                )
            )
    support = 1.0 if relation.n == 0 else satisfied / relation.n
    savings = unequal / satisfied if satisfied else 0.0
    return OfdViolationEntry(ofd, support, tuple(violations), savings)


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
    violations but still get the savings statistic.  Each antecedent's
    stripped partition is built here; ``discover`` can instead hand its own
    to ``violation_entry`` (see its ``on_ofd`` hook).
    """
    entries: list[OfdViolationEntry] = []
    for ofd in ofds:
        part = strip(partition(relation, ofd.lhs))
        check_attr(relation, part, ofd.rhs)
        entries.append(violation_entry(relation, ontology, ofd, part))
    return ViolationReport(tuple(entries))
