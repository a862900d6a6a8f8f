"""Brute-force reference implementations used to check the engine.

Everything here recomputes results from first principles: partitions by
naive grouping, class checks by literal set intersection, discovery by
enumerating and minimizing every candidate, support by exhaustive subset
search, and closure by saturating the three inference rules over all
subsets of the queried attribute set.  None of it shares code paths with
the library beyond the ontology's basic lookups and ``ofd_to_record``.
``reference_verify``, ``reference_support``, ``reference_report_violations``
and ``reference_inject_errors`` keep the string-based algorithms the
library used before it encoded columns, as the outcomes the encoded
versions must reproduce exactly.
"""
from __future__ import annotations

import math
import random
from itertools import combinations

from ontofd.cli import ofd_to_record
from ontofd.ontology import Ontology, display_label
from ontofd.relation import Partition, Relation, relation_from_rows
from ontofd.repair import CellChange, ClassViolation, OfdViolationEntry, ViolationReport
from ontofd.verify import (
    ClassMajority,
    Inheritance,
    OfdKind,
    SupportOutcome,
    Synonym,
    VerifyOutcome,
    ViolatingClass,
)


def naive_partition(rows, attrs):
    """Group 0-based row ids by their projection onto attrs (dict grouping)."""
    groups = {}
    for i, row in enumerate(rows):
        groups.setdefault(tuple(row[a] for a in attrs), []).append(i)
    return list(groups.values())


def senses_of(ontology: Ontology, value: str, kind: OfdKind):
    if isinstance(kind, Synonym):
        return set(ontology.names(value))
    return set(ontology.theta_ancestors(value, kind.theta))


def reference_ancestor_distances(ontology: Ontology, class_id: str) -> dict[str, int]:
    """Minimal is-a distances above ``class_id``, relaxed along every parent
    edge until none shortens."""
    distances = {class_id: 0}
    changed = True
    while changed:
        changed = False
        for current, distance in list(distances.items()):
            for parent in ontology.classes[current].parents:
                if distances.get(parent, distance + 2) > distance + 1:
                    distances[parent] = distance + 1
                    changed = True
    return distances


def class_satisfies(ontology: Ontology, values, kind: OfdKind) -> bool:
    """Literal definition: non-empty intersection over the distinct values."""
    distinct = set(values)
    sense_sets = [senses_of(ontology, v, kind) for v in distinct]
    common = set.intersection(*sense_sets)
    return bool(common)


def ofd_holds(relation: Relation, ontology: Ontology, lhs, rhs, kind: OfdKind) -> bool:
    """Check lhs -> rhs over the full relation, class by class."""
    rows = relation.rows
    for cls in naive_partition(rows, tuple(lhs)):
        values = [rows[t][rhs] for t in cls]
        if not class_satisfies(ontology, values, kind):
            return False
    return True


def brute_discover(relation: Relation, ontology: Ontology, kind: OfdKind,
                   max_lhs: int | None = None):
    """Every valid candidate with an inclusion-minimal antecedent.

    Candidates are non-empty antecedents not containing the consequent.
    Returns a set of (frozenset(lhs), rhs) pairs.
    """
    n_attrs = len(relation.schema)
    limit = n_attrs - 1 if max_lhs is None else min(max_lhs, n_attrs - 1)
    valid = {}
    for size in range(1, limit + 1):
        for lhs in combinations(range(n_attrs), size):
            for rhs in range(n_attrs):
                if rhs in lhs:
                    continue
                valid[(frozenset(lhs), rhs)] = ofd_holds(relation, ontology, lhs, rhs, kind)
    minimal = set()
    for (lhs, rhs), ok in valid.items():
        if not ok:
            continue
        has_smaller = any(
            valid.get((frozenset(sub), rhs), False)
            for k in range(1, len(lhs))
            for sub in combinations(sorted(lhs), k)
        )
        if not has_smaller:
            minimal.add((lhs, rhs))
    return minimal


def brute_discover_approx(relation: Relation, ontology: Ontology, kind: OfdKind,
                          tau: float):
    """Every candidate with support >= tau and an inclusion-minimal
    antecedent, mapped to its support.

    Supports come from ``reference_support`` over naive grouping.
    """
    n_attrs = len(relation.schema)
    valid = {}
    for size in range(1, n_attrs):
        for lhs in combinations(range(n_attrs), size):
            part = Partition(lhs, tuple(tuple(c) for c in naive_partition(relation.rows, lhs)))
            for rhs in range(n_attrs):
                if rhs not in lhs:
                    sup = reference_support(relation, ontology, part, rhs, kind).support
                    if sup >= tau:
                        valid[(frozenset(lhs), rhs)] = sup
    return {
        (lhs, rhs): sup for (lhs, rhs), sup in valid.items()
        if not any((lhs - {b}, rhs) in valid for b in lhs)
    }


def subset_satisfies(relation: Relation, ontology: Ontology, tuple_ids, lhs, rhs,
                     kind: OfdKind) -> bool:
    rows = relation.rows
    groups = {}
    for t in tuple_ids:
        groups.setdefault(tuple(rows[t][a] for a in lhs), []).append(t)
    for cls in groups.values():
        values = [rows[t][rhs] for t in cls]
        if not class_satisfies(ontology, values, kind):
            return False
    return True


def exhaustive_support(relation: Relation, ontology: Ontology, lhs, rhs,
                       kind: OfdKind) -> float:
    """Size of the largest satisfying sub-instance, over the row count.

    Enumerates subsets from largest to smallest; intended for tables of at
    most a dozen rows.
    """
    n = relation.n
    if n == 0:
        return 1.0
    all_ids = list(range(n))
    for size in range(n, -1, -1):
        for subset in combinations(all_ids, size):
            if subset_satisfies(relation, ontology, subset, lhs, rhs, kind):
                return size / n
    return 0.0


def saturation_closure(deps, x, n_attrs):
    """Attributes derivable from x by Identity, Decomposition, Composition.

    Tracks, for every subset V of x, the union of all derivable consequents
    (unions of derivable consequents are themselves derivable by composing a
    pair with equal antecedents), then reads off the single attributes.
    Dependencies whose antecedent is not contained in x can never shrink
    back into x under composition, so they are irrelevant.
    """
    x = frozenset(x)
    subsets = []
    for k in range(len(x) + 1):
        subsets.extend(frozenset(c) for c in combinations(sorted(x), k))
    derivable = {v: set(v) for v in subsets}  # Identity
    for lhs, rhs in deps:
        lhs = frozenset(lhs)
        if lhs <= x:
            derivable[lhs] |= set(rhs)  # the dependency itself (plus Identity)
    changed = True
    while changed:
        changed = False
        for v1 in subsets:
            for v2 in subsets:
                union = v1 | v2
                merged = derivable[v1] | derivable[v2]
                if not merged <= derivable[union]:  # Composition
                    derivable[union] |= merged
                    changed = True
    return frozenset(derivable[x])


def brute_minimal_keys(relation: Relation):
    """Inclusion-minimal non-empty attribute sets on which no two rows agree."""
    n_attrs = len(relation.schema)
    superkeys = [
        attrs
        for size in range(1, n_attrs + 1)
        for attrs in combinations(range(n_attrs), size)
        if all(len(c) == 1 for c in naive_partition(relation.rows, attrs))
    ]
    return [k for k in superkeys if not any(set(o) < set(k) for o in superkeys)]


def reference_verify(relation, ontology, part, a, kind, equal_fast_path=True):
    """Exact check over cell strings: the distinct values of each class must
    share a sense; every class that fails is a witness."""
    rows = relation.rows
    satisfied = relation.n - part.covered_count
    witnesses = []
    for cls in part.classes:
        first = rows[cls[0]][a]
        if equal_fast_path and all(rows[t][a] == first for t in cls):
            satisfied += len(cls)
            continue
        distinct = list(dict.fromkeys(rows[t][a] for t in cls))
        counts = {}
        for value in distinct:
            for sense in senses_of(ontology, value, kind):
                counts[sense] = counts.get(sense, 0) + 1
        if counts and max(counts.values()) == len(distinct):
            satisfied += len(cls)
        else:
            witnesses.append(ViolatingClass(cls[0], tuple(distinct)))
    support = 1.0 if relation.n == 0 else satisfied / relation.n
    return VerifyOutcome(not witnesses, support, tuple(witnesses))


def reference_support(relation, ontology, part, a, kind, equal_fast_path=True):
    """Support over cell strings: each class keeps the tuples of its most
    common sense, ties broken by the smallest class id."""
    rows = relation.rows
    satisfied = relation.n - part.covered_count
    majorities = []
    for cls in part.classes:
        first = rows[cls[0]][a]
        if equal_fast_path and all(rows[t][a] == first for t in cls):
            sense = min(senses_of(ontology, first, kind))
            satisfied += len(cls)
            majorities.append(ClassMajority(cls[0], sense, tuple(cls), ()))
            continue
        counts = {}
        for t in cls:
            for sense in senses_of(ontology, rows[t][a], kind):
                counts[sense] = counts.get(sense, 0) + 1
        best = max(counts.values())
        best_sense = min(s for s, c in counts.items() if c == best)
        members = tuple(t for t in cls if best_sense in senses_of(ontology, rows[t][a], kind))
        others = tuple(t for t in cls if best_sense not in senses_of(ontology, rows[t][a], kind))
        satisfied += best
        majorities.append(ClassMajority(cls[0], best_sense, members, others))
    support = 1.0 if relation.n == 0 else satisfied / relation.n
    return SupportOutcome(support, satisfied, tuple(majorities))


def reference_report_violations(relation, ontology, ofds):
    """The violation report over cell strings: a string-grouped stripped
    partition per dependency, majority splits from ``reference_support``,
    and savings counted by comparing cell strings."""
    rows = relation.rows
    entries = []
    for ofd in ofds:
        classes = [c for c in naive_partition(rows, ofd.lhs) if len(c) >= 2]
        part = Partition(ofd.lhs, tuple(tuple(c) for c in classes))
        approx = reference_support(relation, ontology, part, ofd.rhs, ofd.kind)
        violations = []
        satisfying_total = relation.n - part.covered_count
        unequal_total = 0
        for cls in approx.classes:
            satisfying_total += len(cls.members)
            canonical = rows[min(cls.members)][ofd.rhs] if cls.members else ""
            unequal_total += sum(1 for t in cls.members if rows[t][ofd.rhs] != canonical)
            if cls.others:
                violations.append(ClassViolation(
                    representative=cls.representative,
                    majority_sense=display_label(cls.sense),
                    majority_tuples=cls.members,
                    minority_tuples=cls.others,
                    minority_values=tuple(rows[t][ofd.rhs] for t in cls.others),
                    suggested_value=canonical,
                ))
        savings = unequal_total / satisfying_total if satisfying_total else 0.0
        entries.append(OfdViolationEntry(ofd, approx.support, tuple(violations), savings))
    return ViolationReport(tuple(entries))


def violation_report_to_records(report, schema):
    """The violations file's records, one dict per entry: the reference
    that the CLI's writer must reproduce as ``json.dumps(records, indent=2)``."""
    return [
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
        for entry in report.entries
    ]


def reference_inject_errors(relation, rate, seed, *, columns=None, ontology=None):
    """Error injection that rescans the column for every chosen cell."""
    n = relation.n
    count = math.ceil(rate * n)
    if count == 0:
        return relation, []
    rng = random.Random(seed)
    target_columns = list(columns) if columns is not None else list(range(len(relation.schema)))
    cells = [(row, col) for col in target_columns for row in range(n)]
    chosen = rng.sample(cells, min(count, len(cells)))
    original = relation.rows
    rows = [list(row) for row in original]
    log = []
    for row, col in sorted(chosen):
        old = rows[row][col]
        pool = sorted({original[r][col] for r in range(n) if r != row})
        if not pool:
            continue
        if ontology is not None:
            old_senses = ontology.names(old)
            breaking = [v for v in pool if not (ontology.names(v) & old_senses)]
        else:
            breaking = []
        pool = breaking or [v for v in pool if v != old] or pool
        new = rng.choice(pool)
        rows[row][col] = new
        log.append(CellChange(row, col, old, new))
    return relation_from_rows(relation.schema, rows), log
