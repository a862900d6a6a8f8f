"""Attribute-set closure, implication testing, and minimal covers.

Closure here is deliberately single-step: a dependency ``V -> Z`` contributes
``Z`` only when ``V`` is contained in the *queried* attribute set, never in
the growing result, because these dependencies do not compose transitively.
Each dependency can therefore fire at most once and the whole computation is
linear in the total size of the dependency set.
"""
from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .relation import AttrSet, attr_set
from .verify import Inheritance, OfdKind, Synonym

Dep = tuple[AttrSet, frozenset[int]]


class _Deps(NamedTuple):
    kind: OfdKind
    deps: tuple[Dep, ...]


class OfdSet(_Deps):
    """A homogeneous set of dependencies (all synonym, or all one theta)."""

    __slots__ = ()

    def __new__(cls, kind: OfdKind, deps: tuple[Dep, ...]) -> OfdSet:
        for lhs, rhs in deps:
            if not rhs:
                raise ValueError("dependency with empty consequent set")
        return super().__new__(cls, kind, deps)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` checks too


def ofd_set(kind: OfdKind, deps: Iterable[tuple[Iterable[int], Iterable[int]]]) -> OfdSet:
    """Build an :class:`OfdSet` from raw (lhs, rhs) index pairs."""
    return OfdSet(
        kind,
        tuple((attr_set(lhs), frozenset(rhs)) for lhs, rhs in deps),
    )


class Closure(NamedTuple):
    of: AttrSet
    attrs: frozenset[int]
    used_deps: tuple[int, ...]


def closure(m: OfdSet, x: AttrSet) -> Closure:
    """Attributes derivable from ``x`` under ``m`` (single-step, non-transitive)."""
    base = set(x)
    result = set(x)
    used: list[int] = []
    for index, (lhs, rhs) in enumerate(m.deps):
        if base.issuperset(lhs):
            result.update(rhs)
            used.append(index)
    return Closure(attr_set(x), frozenset(result), tuple(used))


def implies(m: OfdSet, lhs: AttrSet, rhs: int | Iterable[int]) -> bool:
    """True when every rhs attribute lies in the closure of lhs under m."""
    wanted = {rhs} if isinstance(rhs, int) else set(rhs)
    return wanted <= closure(m, lhs).attrs


def minimal_cover(m: OfdSet) -> OfdSet:
    """Equivalent dependency set with single-attribute consequents, no
    removable antecedent attributes, and no removable dependencies.

    Antecedent reduction runs before whole-dependency removal, each in input
    order; covers are not unique, only the three conditions are guaranteed.
    """
    deps: list[tuple[AttrSet, int]] = []
    for lhs, rhs in m.deps:
        for a in sorted(rhs):
            deps.append((lhs, a))

    def derivable(lhs: set[int], a: int, skip: int | None) -> bool:
        if a in lhs:
            return True
        return any(
            j != skip and other_a == a and set(other_lhs) <= lhs
            for j, (other_lhs, other_a) in enumerate(deps)
        )

    # Antecedent reduction, in one pass as ``derivable`` is monotone in the
    # antecedent: drop b from lhs while a stays derivable without it.  A
    # dependency never witnesses its own reduction (its lhs cannot fit in a
    # proper subset of itself), so no self-exclusion is needed here.
    for i, (lhs, a) in enumerate(deps):
        attrs = list(lhs)
        for b in list(attrs):
            if derivable(set(attrs) - {b}, a, skip=None):
                attrs.remove(b)
        deps[i] = (attr_set(attrs), a)

    # Dependency removal: drop lhs -> a when the remaining set already
    # derives a from lhs.
    i = 0
    while i < len(deps):
        lhs, a = deps[i]
        if derivable(set(lhs), a, skip=i):
            deps.pop(i)
        else:
            i += 1

    return OfdSet(m.kind, tuple((lhs, frozenset({a})) for lhs, a in deps))


def kind_from_label(label: str, theta: int | None = None) -> OfdKind:
    if label == "synonym":
        return Synonym()
    if label == "inheritance":
        if theta is None:
            raise ValueError("inheritance dependencies require theta")
        return Inheritance(theta)
    raise ValueError(f"unknown dependency kind {label!r}")


def kind_label(kind: OfdKind) -> str:
    return "synonym" if isinstance(kind, Synonym) else "inheritance"


def ofd_set_from_records(
    records: Sequence[Mapping], schema: Sequence[str], *, kind: OfdKind | None = None
) -> OfdSet:
    """Parse the JSON shape the CLI emits back into an :class:`OfdSet`.

    Records mixing synonym and inheritance kinds (or different thetas) are
    rejected: inference operates on homogeneous sets only.  An empty list
    names no kind, so it needs ``kind``; when ``kind`` is given, every
    record must be of that kind.
    """
    index = {name: i for i, name in enumerate(schema)}
    kinds: set[tuple[str, int | None]] = set()
    deps: list[tuple[list[int], list[int]]] = []
    for record in records:
        label = record["kind"]
        theta = record.get("theta")
        kinds.add((label, theta))
        try:
            lhs = [index[name] for name in record["lhs"]]
            rhs = [index[record["rhs"]]]
        except KeyError as exc:
            raise ValueError(f"unknown attribute name {exc.args[0]!r}") from None
        deps.append((lhs, rhs))
    if len(kinds) > 1:
        raise ValueError("mixed dependency kinds in one set")
    if kinds:
        found = kind_from_label(*kinds.pop())
        if kind is not None and found != kind:
            raise ValueError(f"records are of kind {found}, not {kind}")
        kind = found
    elif kind is None:
        raise ValueError("an empty record list needs a kind")
    return ofd_set(kind, deps)
