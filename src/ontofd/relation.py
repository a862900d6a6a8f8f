"""Tables, dictionary-encoded columns, attribute-set partitions, and
stripped-partition products.

All cells are strings.  Tuple ids are 0-based row positions in file order;
every equivalence class is stored as a sorted tuple of ids, and classes are
ordered by their representative (smallest id), which keeps partitions and
everything derived from them deterministic.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Sequence
from weakref import WeakKeyDictionary

AttrSet = tuple[int, ...]


class RelationError(ValueError):
    """Raised when tabular input is malformed."""


def attr_set(attrs: Iterable[int]) -> AttrSet:
    """Canonical attribute set: sorted, duplicate-free, non-negative indices."""
    result = tuple(sorted(set(attrs)))
    if result and result[0] < 0:
        raise ValueError("attribute indices must be non-negative")
    return result


class EncodedColumn:
    """One column as dictionary codes.

    ``codes[t]`` is the code of tuple ``t``'s cell and ``values[code]`` the
    cell string; codes number the distinct strings in order of first
    appearance.  ``sense_tables`` holds what ``ontofd.verify`` derives from
    the column, keyed weakly by ontology so the column never keeps one alive.
    """

    def __init__(self, cells: Iterable[str]):
        index: dict[str, int] = {}
        self.codes = tuple([index.setdefault(v, len(index)) for v in cells])
        self.values = tuple(index)
        self.sense_tables: WeakKeyDictionary = WeakKeyDictionary()


@dataclass(frozen=True)
class Relation:
    """Immutable table of string cells with a named schema."""

    schema: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if len(set(self.schema)) != len(self.schema):
            raise RelationError("duplicate attribute name in schema")
        width = len(self.schema)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise RelationError(f"row {i + 1} has {len(row)} cells, expected {width}")

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def columns(self) -> tuple[EncodedColumn, ...]:
        """Dictionary encoding of every column, built on first use."""
        return tuple(
            EncodedColumn(row[a] for row in self.rows) for a in range(len(self.schema))
        )

    def __getstate__(self) -> dict:
        # Pickle the table only: the encoding is a cache whose sense tables
        # hold weak references, and a copy rebuilds it on first use.
        return {"schema": self.schema, "rows": self.rows}

    def attr_index(self, name: str) -> int:
        try:
            return self.schema.index(name)
        except ValueError:
            raise RelationError(f"unknown attribute {name!r}") from None


@dataclass(frozen=True)
class Partition:
    """Equivalence classes of tuple ids that agree (string equality) on ``over``."""

    over: AttrSet
    classes: tuple[tuple[int, ...], ...]

    @property
    def covered_count(self) -> int:
        return sum(len(c) for c in self.classes)

    @property
    def is_superkey(self) -> bool:
        return all(len(c) == 1 for c in self.classes)


@dataclass(frozen=True)
class StrippedPartition:
    """A partition with its size-one classes removed.

    Singleton classes cannot violate any dependency over ``over``, so only
    classes of two or more tuples are kept; ``covered_count`` is the number
    of tuples they contain.
    """

    over: AttrSet
    classes: tuple[tuple[int, ...], ...]
    covered_count: int

    @property
    def is_superkey(self) -> bool:
        return not self.classes


def relation_from_rows(schema: Sequence[str], rows: Iterable[Sequence[str]]) -> Relation:
    return Relation(tuple(schema), tuple(tuple(row) for row in rows))


def load_relation(
    source: str | Path | IO[str],
    *,
    delimiter: str = ",",
    header: bool = True,
) -> Relation:
    """Load a delimited UTF-8 text file (RFC-4180-style quoting).

    With ``header`` the first row becomes the schema; otherwise attribute
    names ``A1..An`` are synthesized from the first data row's width.  A
    byte-order mark at the start of the input is dropped.  Bytes that are not
    UTF-8, an empty first row, and a field longer than the ``csv`` module's
    limit (131,072 characters by default) raise ``RelationError``.
    """
    try:
        if isinstance(source, (str, Path)):
            with open(source, encoding="utf-8", newline="") as handle:
                return _parse_rows(csv.reader(handle, delimiter=delimiter), header)
        return _parse_rows(csv.reader(source, delimiter=delimiter), header)
    except UnicodeDecodeError as exc:
        raise RelationError(f"input is not valid UTF-8: {exc.reason}") from None


def _parse_rows(reader, header: bool) -> Relation:
    try:
        rows = [tuple(row) for row in reader]
    except csv.Error as exc:
        raise RelationError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise RelationError("empty input")
    if not rows[0]:
        raise RelationError("the first row has no cells")
    if rows[0][0].startswith("\ufeff"):
        rows[0] = (rows[0][0][1:],) + rows[0][1:]
    if header:
        schema, data = rows[0], rows[1:]
    else:
        schema, data = tuple(f"A{i + 1}" for i in range(len(rows[0]))), rows
    if len(set(schema)) != len(schema):
        raise RelationError("duplicate attribute name in header")
    width = len(schema)
    for i, row in enumerate(data):
        if len(row) != width:
            raise RelationError(f"row {i + 1} has {len(row)} cells, expected {width}")
    return Relation(tuple(schema), tuple(data))


def partition(relation: Relation, attrs: AttrSet) -> Partition:
    """Group tuple ids by string equality over ``attrs``.

    A single attribute groups the column's dictionary codes; codes number
    the values in order of first appearance, so those classes already come
    ordered by their representative.
    """
    for a in attrs:
        if not 0 <= a < len(relation.schema):
            raise RelationError(f"unknown attribute index {a}")
    if len(attrs) == 1:
        column = relation.columns[attrs[0]]
        classes: list[list[int]] = [[] for _ in column.values]
        for t, code in enumerate(column.codes):
            classes[code].append(t)
    else:
        groups: dict[tuple[str, ...], list[int]] = {}
        for i, row in enumerate(relation.rows):
            key = tuple(row[a] for a in attrs)
            groups.setdefault(key, []).append(i)
        classes = sorted(groups.values(), key=lambda c: c[0])
    return Partition(attr_set(attrs), tuple(tuple(c) for c in classes))


def strip(part: Partition) -> StrippedPartition:
    """Drop singleton classes; they cannot violate any dependency."""
    kept = tuple(c for c in part.classes if len(c) >= 2)
    return StrippedPartition(part.over, kept, sum(len(c) for c in kept))


def _split(
    part: StrippedPartition, label: Sequence[int], over: AttrSet
) -> StrippedPartition:
    """Split every class of ``part`` by ``label[t]``.

    Groups of one tuple and tuples labelled -1 are dropped.  Classes are
    walked in tuple order, so every group comes out sorted.  A class of two
    tuples, the most common one deep in the lattice, needs no grouping: it
    stays whole when both labels are equal and not -1, and vanishes
    otherwise, since either tuple alone would be a dropped group of one.
    """
    out: list[tuple[int, ...]] = []
    for cls in part.classes:
        if len(cls) == 2:
            first = label[cls[0]]
            if first != -1 and first == label[cls[1]]:
                out.append(cls)
            continue
        groups: dict[int, list[int]] = {}
        for t in cls:
            groups.setdefault(label[t], []).append(t)
        groups.pop(-1, None)
        out.extend([tuple(g) for g in groups.values() if len(g) >= 2])
    out.sort(key=lambda c: c[0])
    return StrippedPartition(over, tuple(out), sum(map(len, out)))


def product(a: StrippedPartition, b: StrippedPartition) -> StrippedPartition:
    """Stripped partition over the union of attribute sets.

    Equals ``strip(partition(r, a.over | b.over))`` and runs in time linear
    in the covered tuple counts.
    """
    # Probe table: the index of each tuple's class in ``b``, -1 if it has
    # none.  Indexed by tuple id, a list stays cheaper per lookup than a
    # dict as tables grow.
    class_of = [-1] * (1 + max(map(max, a.classes + b.classes), default=-1))
    for index, cls in enumerate(b.classes):
        for t in cls:
            class_of[t] = index
    return _split(a, class_of, attr_set(a.over + b.over))


def refine(part: StrippedPartition, relation: Relation, a: int) -> StrippedPartition:
    """Stripped partition over ``part.over`` plus attribute ``a``.

    Equals ``product(part, strip(partition(relation, (a,))))``, but splits
    each class of ``part`` by the column's dictionary codes, so it reads
    only the tuples ``part`` covers.
    """
    return _split(part, relation.columns[a].codes, attr_set(part.over + (a,)))
