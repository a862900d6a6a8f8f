"""Tables, dictionary-encoded columns, and attribute-set partitions.

All cells are strings, stored only as dictionary-encoded columns.  Tuple
ids are 0-based row positions in file order; every equivalence class is
stored as a sorted tuple of ids, and classes are ordered by their
representative (smallest id), which keeps partitions and everything derived
from them deterministic.

Every partition is built by ``refine``, which splits classes by one column's
dictionary codes, starting from the single class of all tuples.
"""
from __future__ import annotations

import csv
from collections import defaultdict
from contextlib import nullcontext
from functools import cached_property
from itertools import chain, count, islice
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Sequence
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


class EncodedColumn(NamedTuple):
    """One column as dictionary codes.

    ``codes[t]`` is the code of tuple ``t``'s cell and ``values[code]`` the
    cell string; codes number the distinct strings in order of first
    appearance.
    """

    codes: tuple[int, ...]
    values: tuple[str, ...]


class _Table(NamedTuple):
    schema: tuple[str, ...]
    n: int
    columns: tuple[EncodedColumn, ...]


class Relation(_Table):
    """Immutable table of string cells with a named schema, stored as one
    ``EncodedColumn`` per attribute.  ``Relation(schema, rows)`` fills them in
    one pass over ``rows``, and only it checks names and row widths; empty
    rows at the end, as blank lines that end a CSV file give, are dropped."""

    def __new__(cls, schema: Iterable[str], rows: Iterable[Sequence[str]]) -> Relation:
        schema = tuple(schema)
        if len(set(schema)) != len(schema):
            raise RelationError("duplicate attribute name in schema")
        width = len(schema)
        # A value not seen before takes the next code.
        indexes = [defaultdict(count().__next__) for _ in schema]
        codes: list[list[int]] = [[] for _ in schema]
        n = 0
        rows = iter(rows)
        # One ``map`` encodes each column of a transposed batch.  Batches of
        # 256 rows stay in cache: 1M x 6 cells took 1.2 s, and 1.9 s at 4,096.
        while batch := list(islice(rows, 256)):
            for i, row in enumerate(batch, n + 1):
                if len(row) != width:
                    if row or any(batch[i - n:]) or any(rows):  # empty rows drop only at the end
                        raise RelationError(f"row {i} has {len(row)} cells, expected {width}")
                    del batch[i - n - 1:]
                    break
            for index, column, cells in zip(indexes, codes, zip(*batch)):
                column.extend(map(index.__getitem__, cells))
            n += len(batch)
        columns = tuple(EncodedColumn(tuple(c), tuple(i)) for c, i in zip(codes, indexes))
        return super().__new__(cls, schema, n, columns)

    def __reduce__(self):
        return Relation._make, (tuple(self),)

    @property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        """The cells as row tuples, decoded from the columns on every read."""
        cells = [map(c.values.__getitem__, c.codes) for c in self.columns]
        return tuple(zip(*cells)) or ((),) * self.n

    @cached_property
    def sense_tables(self) -> WeakKeyDictionary:
        """What ``ontofd.verify`` derives from the columns, keyed weakly by
        ontology so the relation never keeps one alive; neither compared nor
        pickled."""
        return WeakKeyDictionary()


class Partition(NamedTuple):
    """Equivalence classes of tuple ids that agree (string equality) on ``over``.

    A stripped partition leaves out the classes of one tuple, which cannot
    violate any dependency; ``covered_count`` counts the tuples it keeps.
    """

    over: AttrSet
    classes: tuple[tuple[int, ...], ...]

    @property
    def covered_count(self) -> int:
        return sum(len(c) for c in self.classes)

    @property
    def is_superkey(self) -> bool:
        # A stripped partition's first class, if any, decides it at once.
        classes = self.classes
        return not classes or len(classes[0]) == 1 and max(map(len, classes)) == 1


relation_from_rows = Relation


def load_relation(
    source: str | Path | IO[str],
    *,
    delimiter: str = ",",
    header: bool = True,
) -> Relation:
    """Load a delimited UTF-8 text file (RFC-4180-style quoting).

    With ``header`` the first row becomes the schema; otherwise attribute
    names ``A1..An`` are synthesized from the first data row's width.  A
    byte-order mark at the start of the input is dropped before parsing.
    Rows are encoded as they are parsed.  Bytes that are not UTF-8, an empty
    first row, a quote left open at the end of the input, text between a
    closing quote and the next delimiter, and a field longer than the
    ``csv`` module's limit (131,072 characters by default) raise
    ``RelationError``.
    """
    opened = isinstance(source, (str, Path))
    with open(source, encoding="utf-8", newline="") if opened else nullcontext(source) as text:
        lines = iter(text)
        try:
            first = next(lines, "").removeprefix("\ufeff")
            reader = csv.reader(
                chain([first] if first else [], lines), delimiter=delimiter, strict=True
            )
            names = next(reader, None)
            if not names:
                raise RelationError("the first row has no cells" if names == [] else "empty input")
            if header:
                return Relation(names, reader)
            return Relation([f"A{i + 1}" for i in range(len(names))], chain([names], reader))
        except UnicodeDecodeError as exc:
            raise RelationError(f"input is not valid UTF-8: {exc.reason}") from None
        except csv.Error as exc:
            raise RelationError(f"line {reader.line_num}: {exc}") from None


def partition(relation: Relation, attrs: AttrSet) -> Partition:
    """Group tuple ids by string equality over ``attrs``, one-tuple classes
    included: the class of all tuples refined by each attribute in turn."""
    for a in attrs:
        if not 0 <= a < len(relation.schema):
            raise RelationError(f"unknown attribute index {a}")
    part = Partition((), (tuple(range(relation.n)),) if relation.n else ())
    for a in attr_set(attrs):
        part = refine(part, relation, a, 1)
    return part


def strip(part: Partition) -> Partition:
    """Drop singleton classes; they cannot violate any dependency."""
    return Partition(part.over, tuple(c for c in part.classes if len(c) >= 2))


def refine(part: Partition, relation: Relation, a: int, least: int = 2) -> Partition:
    """Partition over ``part.over`` plus attribute ``a`` with the classes of
    at least ``least`` tuples: 2 strips it, 1 keeps the one-tuple classes.

    Splits each class of ``part`` by the column's dictionary codes, so it
    reads only the tuples ``part`` covers.  Classes are walked in tuple
    order, so every group comes out sorted.  Classes of up to three tuples,
    the most common ones deep in the lattice, need no grouping: each stays
    whole when its codes are equal, and otherwise keeps the one pair whose
    codes agree, if any.  Only classes of four or more tuples are grouped.
    Every split keeps only classes of two or more tuples; with ``least``
    1, each tuple of ``part`` that no kept class took is then added as a
    class of its own, in one step.
    """
    over = part.over
    # The lattice and ``partition`` always add an attribute above ``over``.
    over = over + (a,) if over and a > over[-1] else attr_set(over + (a,))
    codes = relation.columns[a].codes
    out: list[tuple[int, ...]] = []
    append = out.append
    for cls in part.classes:
        size = len(cls)
        if size == 2:
            x, y = cls
            if codes[x] == codes[y]:
                append(cls)
        elif size == 3:
            x, y, z = cls
            lx, ly, lz = codes[x], codes[y], codes[z]
            if lx == ly == lz:
                append(cls)
            elif lx == ly:
                append((x, y))
            elif lx == lz:
                append((x, z))
            elif ly == lz:
                append((y, z))
        elif size > 3:
            groups: dict[int, list[int]] = {}
            for t in cls:
                groups.setdefault(codes[t], []).append(t)
            for group in groups.values():
                if len(group) > 1:
                    append(tuple(group))
    if least == 1:
        # A one-tuple class of ``part`` is added as it is, so the partitions
        # refined from ``part`` share it rather than each holding a copy.
        kept = {t for cls in out for t in cls}
        out.extend(
            cls if len(cls) == 1 else (t,) for cls in part.classes for t in cls if t not in kept
        )
    out.sort(key=itemgetter(0))
    return Partition(over, tuple(out))
