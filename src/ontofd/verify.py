"""Dependency verification: sense agreement per equivalence class.

A candidate ``X -> A`` holds exactly when, inside every equivalence class of
the antecedent partition, the distinct consequent values share at least one
sense (synonym mode) or one common ancestor within ``theta`` is-a edges of
every value (inheritance mode).  The approximate variants compute, per class,
the largest tuple subset consistent with a single sense or ancestor, which
yields the support of the candidate over the whole table.

Checks run on dictionary-encoded columns: a ``SenseTable`` gives every
distinct cell string of a column an integer code and the set of its integer
sense ids, so a class is decided from its codes and their multiplicities.
``agreement`` is the one kernel behind both exact and approximate checks;
discovery calls it directly and it stops as soon as the answer is known.
The public ``verify*`` and ``support*`` functions scan every class and
build the witnesses and majority splits; ``class_splits`` is the one
majority split, shared by ``support`` and the violation report.

Most classes deep in the lattice hold two tuples, and those are decided in
closed form.  Every value has at least one sense, so a pair agrees when its
two sense sets intersect; otherwise each sense is held by exactly one of
the two tuples, the majority keeps one tuple, and the smallest-id tie-break
picks the smallest sense of the two values.  Only classes of three or more
tuples need a majority count.
"""
from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .ontology import ClassId, Ontology
from .relation import AttrSet, EncodedColumn, Partition, Relation


class Synonym(NamedTuple):
    """Consequent values must share a sense within each class."""


class _Theta(NamedTuple):
    theta: int


class Inheritance(_Theta):
    """Consequent values must share an ancestor within ``theta`` is-a edges."""

    __slots__ = ()

    def __new__(cls, theta: int) -> Inheritance:
        if theta < 0:
            raise ValueError("theta must be non-negative")
        return tuple.__new__(cls, (theta,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` checks too


OfdKind = Union[Synonym, Inheritance]


class _Rule(NamedTuple):
    lhs: AttrSet
    rhs: int
    kind: OfdKind
    support: float | None = None


class Ofd(_Rule):
    """A dependency lhs -> rhs of a given kind, with optional support."""

    __slots__ = ()

    def __new__(cls, lhs: AttrSet, rhs: int, kind: OfdKind, support: float | None = None) -> Ofd:
        if rhs in lhs:
            raise ValueError("trivial dependency: rhs appears in lhs")
        return tuple.__new__(cls, (lhs, rhs, kind, support))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` checks too


class ViolatingClass(NamedTuple):
    """An equivalence class whose distinct consequent values share no sense."""

    representative: int
    values: tuple[str, ...]


class ClassMajority(NamedTuple):
    """Largest single-sense tuple group of one equivalence class.

    ``members`` carry a value consistent with ``sense``; ``others`` are the
    remaining tuples of the class.  Ties between senses are broken by the
    lexicographically smallest class id.
    """

    representative: int
    sense: ClassId
    members: tuple[int, ...]
    others: tuple[int, ...]


class VerifyOutcome(NamedTuple):
    holds: bool
    support: float
    witnesses: tuple[ViolatingClass, ...]


class SupportOutcome(NamedTuple):
    support: float
    satisfied: int
    classes: tuple[ClassMajority, ...]


def check_attr(relation: Relation, part: Partition, a: int) -> None:
    """Reject a consequent that is no attribute of ``relation`` or lies in
    ``part``'s antecedent."""
    if not 0 <= a < len(relation.schema):
        raise ValueError(f"unknown attribute index {a}")
    if a in part.over:
        raise ValueError("consequent attribute may not appear in the antecedent")


class SenseTable:
    """Sense ids of one encoded column under one ontology and dependency kind.

    ``codes`` and ``values`` are the column's encoding; ``senses[code]`` holds
    the sense ids of ``values[code]`` (its names for synonym dependencies, its
    ``theta`` ancestors for inheritance ones) and ``names[id]`` the class id.
    Ids number the column's senses in sorted class-id order, so the smallest
    id of a set is also its smallest class id.  It is a plain class: a
    table is never compared, hashed or pickled.
    """

    def __init__(self, column: EncodedColumn, raw: Sequence[frozenset[ClassId]]):
        self.codes = column.codes
        self.values = column.values
        self.names: tuple[ClassId, ...] = tuple(sorted(set().union(*raw)))
        ids = {name: i for i, name in enumerate(self.names)}.__getitem__
        self.senses = tuple(frozenset(map(ids, r)) for r in raw)


def sense_table(relation: Relation, ontology: Ontology, a: int, kind: OfdKind) -> SenseTable:
    """The sense table of column ``a``, built on first use and then cached."""
    tables = relation.sense_tables.setdefault(ontology, {})
    table = tables.get((a, kind))
    if table is None:
        column = relation.columns[a]
        if isinstance(kind, Synonym):
            raw = [ontology.names(v) for v in column.values]
        else:
            raw = [ontology.theta_ancestors(v, kind.theta) for v in column.values]
        table = tables[a, kind] = SenseTable(column, raw)
    return table


def _majority(table: SenseTable, cls: Sequence[int]) -> tuple[int, int]:
    """Most tuples of ``cls`` that carry one sense, and that sense's id.

    Ties go to the smallest id, which is the smallest class id.  Senses are
    counted once per distinct code, weighted by the code's multiplicity.
    """
    senses = table.senses
    multiplicities: dict[int, int] = {}
    for code in map(table.codes.__getitem__, cls):
        multiplicities[code] = multiplicities.get(code, 0) + 1
    counts: dict[int, int] = {}
    for code, multiplicity in multiplicities.items():
        for sense in senses[code]:
            counts[sense] = counts.get(sense, 0) + multiplicity
    best = max(counts.values())
    return best, min(s for s, c in counts.items() if c == best)


def agreement(
    table: SenseTable,
    classes: Iterable[Sequence[int]],
    tau: float,
    equal_fast_path: bool,
) -> int | None:
    """Tuples whose consequent value keeps a sense shared within its class.

    A class whose distinct values share a sense keeps all of its tuples;
    any other class keeps its majority-sense tuples and loses the rest, so
    a pair of tuples without a shared sense loses exactly one.  A pair is
    decided by whether its two sense sets intersect; equal codes index the
    same non-empty set, so that test answers them at once.  With
    ``equal_fast_path`` any other class of one distinct code is accepted
    without a sense lookup.  Tuples outside ``classes`` always count.
    Returns ``n - lost``, or None as soon as ``(n - lost) / n`` drops below
    ``tau``: with ``tau`` 1 that is the first class without a shared sense.
    ``lost`` only grows and float division is monotone, so stopping early
    never rejects a candidate whose full support reaches ``tau``.
    """
    codes = table.codes.__getitem__
    senses = table.senses.__getitem__
    n = len(table.codes)
    lost = 0
    for cls in classes:
        if len(cls) == 2:
            if not senses(codes(cls[0])).isdisjoint(senses(codes(cls[1]))):
                continue
        else:
            distinct = set(map(codes, cls))
            if equal_fast_path and len(distinct) == 1:
                continue
            if frozenset.intersection(*map(senses, distinct)):
                continue
        if tau >= 1.0:
            return None
        # A pair without a shared sense keeps one tuple whichever sense wins.
        lost += 1 if len(cls) == 2 else len(cls) - _majority(table, cls)[0]
        if (n - lost) / n < tau:
            return None
    return n - lost


def class_splits(
    table: SenseTable, classes: Iterable[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...], tuple[int, ...]]]:
    """``(class, sense id, members, others)`` for every class, in order.

    ``members`` are the tuples carrying the majority sense, which is a
    sense the whole class shares when there is one; ``others`` are the
    rest.  Both keep the class's tuple order, and ties between senses go to
    the smallest id.
    """
    codes, senses = table.codes, table.senses
    for cls in classes:
        if len(cls) == 2:
            first, second = cls
            first_senses, second_senses = senses[codes[first]], senses[codes[second]]
            shared = first_senses & second_senses
        else:
            distinct = set(map(codes.__getitem__, cls))
            shared = frozenset.intersection(*map(senses.__getitem__, distinct))
        if shared:
            # Every tuple carries every shared sense, so all of them count
            # and the tie between those senses goes to the smallest id.
            yield cls, min(shared), cls, ()
        elif len(cls) == 2:
            # Each sense of the pair is held by one tuple, so all tie at one
            # and the smallest id wins; the tuple holding it is the member.
            sense = min(first_senses | second_senses)
            if sense in first_senses:
                yield cls, sense, (first,), (second,)
            else:
                yield cls, sense, (second,), (first,)
        else:
            sense = _majority(table, cls)[1]
            yield (
                cls,
                sense,
                tuple(t for t in cls if sense in senses[codes[t]]),
                tuple(t for t in cls if sense not in senses[codes[t]]),
            )


def verify(
    relation: Relation,
    ontology: Ontology,
    part: Partition,
    a: int,
    kind: OfdKind,
) -> VerifyOutcome:
    """Exact check of ``part -> a``, with every violating class as a witness."""
    check_attr(relation, part, a)
    table = sense_table(relation, ontology, a, kind)
    codes = table.codes.__getitem__
    failing = [cls for cls in part.classes if agreement(table, (cls,), 1.0, True) is None]
    witnesses = tuple(
        ViolatingClass(cls[0], tuple(table.values[c] for c in dict.fromkeys(map(codes, cls))))
        for cls in failing
    )
    n = relation.n
    support = 1.0 if n == 0 else (n - sum(map(len, failing))) / n
    return VerifyOutcome(not witnesses, support, witnesses)


def support(
    relation: Relation,
    ontology: Ontology,
    part: Partition,
    a: int,
    kind: OfdKind,
) -> SupportOutcome:
    """Support of ``part -> a`` with the majority split of every class."""
    check_attr(relation, part, a)
    table = sense_table(relation, ontology, a, kind)
    n = relation.n
    satisfied = n - part.covered_count
    majorities: list[ClassMajority] = []
    for cls, sense, members, others in class_splits(table, part.classes):
        satisfied += len(members)
        majorities.append(ClassMajority(cls[0], table.names[sense], members, others))
    support = 1.0 if n == 0 else satisfied / n
    return SupportOutcome(support, satisfied, tuple(majorities))


def verify_synonym(
    relation: Relation,
    ontology: Ontology,
    part: Partition,
    a: int,
) -> VerifyOutcome:
    """Exact synonym check: every class's distinct values share a sense."""
    return verify(relation, ontology, part, a, Synonym())


def verify_inheritance(
    relation: Relation,
    ontology: Ontology,
    part: Partition,
    a: int,
    theta: int,
) -> VerifyOutcome:
    """Exact inheritance check: a common ancestor within ``theta`` per class."""
    return verify(relation, ontology, part, a, Inheritance(theta))


def support_synonym(
    relation: Relation,
    ontology: Ontology,
    part: Partition,
    a: int,
) -> SupportOutcome:
    """Support of the synonym candidate: per-class majority-sense tuple counts."""
    return support(relation, ontology, part, a, Synonym())


def support_inheritance(
    relation: Relation,
    ontology: Ontology,
    part: Partition,
    a: int,
    theta: int,
) -> SupportOutcome:
    """Support of the inheritance candidate at the given ``theta``."""
    return support(relation, ontology, part, a, Inheritance(theta))
