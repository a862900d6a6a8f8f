"""Ontology store: sense classes, synonym sets, and the is-a hierarchy.

The ontology maps surface strings to the classes (senses) that list them as
synonyms, and answers upward is-a reachability queries with minimal edge
distances.  Values that do not appear in any synonym set resolve to a unique
implicit class derived from the string itself, so plain string equality is
always a degenerate case of sense agreement.
"""
from __future__ import annotations

import json
from collections import deque
from contextlib import nullcontext
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import IO, Iterable, Mapping, NamedTuple

ClassId = str

# Prefix for implicit (out-of-vocabulary) class ids; class ids of an
# ontology may not start with it.
_IMPLICIT = "\x00"


class OntologyError(ValueError):
    """Raised when an ontology document is malformed."""


class OntologyClass(NamedTuple):
    """One sense: an id, its synonym strings, and is-a parent links."""

    id: ClassId
    synonyms: frozenset[str]
    parents: frozenset[ClassId]


def implicit_class_id(value: str) -> ClassId:
    return _IMPLICIT + value


def is_implicit(class_id: ClassId) -> bool:
    return class_id.startswith(_IMPLICIT)


def display_label(class_id: ClassId) -> str:
    """Human-readable form of a class id (implicit ids show their value)."""
    return class_id[len(_IMPLICIT):] if is_implicit(class_id) else class_id


class Ontology:
    """Immutable collection of sense classes with a value -> senses index.

    All queries are read-only after construction, so an instance may be
    shared freely across threads.
    """

    def __init__(self, classes: Iterable[OntologyClass], *, case_insensitive: bool = False):
        self.case_insensitive = case_insensitive
        self._classes: dict[ClassId, OntologyClass] = {}
        for cls in classes:
            if cls.id in self._classes:
                raise OntologyError(f"duplicate class id {cls.id!r}")
            if is_implicit(cls.id):
                raise OntologyError(
                    f"class id {cls.id!r} starts with NUL, which is reserved"
                )
            if not cls.synonyms:
                raise OntologyError(f"class {cls.id!r} has an empty synonym list")
            if cls.id in cls.parents:
                raise OntologyError(f"class {cls.id!r} lists itself as a parent")
            self._classes[cls.id] = cls
        for cls in self._classes.values():
            for parent in cls.parents:
                if parent not in self._classes:
                    raise OntologyError(
                        f"class {cls.id!r} references unknown parent {parent!r}"
                    )
        try:
            TopologicalSorter({cls.id: cls.parents for cls in self._classes.values()}).prepare()
        except CycleError as exc:
            raise OntologyError(f"cycle in is-a edges involving {exc.args[1][0]!r}") from None
        index: dict[str, set[ClassId]] = {}
        for cls in self._classes.values():
            for synonym in cls.synonyms:
                index.setdefault(self.normalize(synonym), set()).add(cls.id)
        self._value_index = {value: frozenset(ids) for value, ids in index.items()}

    def normalize(self, value: str) -> str:
        return value.casefold() if self.case_insensitive else value

    def __len__(self) -> int:
        return len(self._classes)

    def __contains__(self, class_id: ClassId) -> bool:
        return class_id in self._classes

    @property
    def classes(self) -> Mapping[ClassId, OntologyClass]:
        return self._classes

    @property
    def value_index(self) -> Mapping[str, frozenset[ClassId]]:
        return self._value_index

    def names(self, value: str) -> frozenset[ClassId]:
        """Senses of a surface string; unknown strings get an implicit sense."""
        normalized = self.normalize(value)
        known = self._value_index.get(normalized)
        if known is not None:
            return known
        return frozenset({implicit_class_id(normalized)})

    def ancestor_closure(self, class_id: ClassId, theta: int | None = None) -> dict[ClassId, int]:
        """Classes reachable upward from ``class_id`` within ``theta`` is-a
        edges (all of them without a bound), with minimal distance.

        The class itself is included at distance 0.  Distances are minimal
        over all is-a paths, so the result is well defined on DAGs.  The
        breadth-first search takes classes in order of distance, so it stops
        at the first class ``theta`` edges up: every class still queued is at
        least that far.
        """
        if theta is not None and theta < 0:
            raise ValueError("theta must be non-negative")
        if is_implicit(class_id):
            return {class_id: 0}
        if class_id not in self._classes:
            raise OntologyError(f"unknown class id {class_id!r}")
        distances: dict[ClassId, int] = {class_id: 0}
        queue = deque([class_id])
        while queue:
            current = queue.popleft()
            next_distance = distances[current] + 1
            if theta is not None and next_distance > theta:
                break
            for parent in self._classes[current].parents:
                if parent not in distances:
                    distances[parent] = next_distance
                    queue.append(parent)
        return distances

    def theta_ancestors(self, value: str, theta: int) -> frozenset[ClassId]:
        """Classes within ``theta`` is-a edges above any sense of ``value``."""
        return frozenset().union(*(self.ancestor_closure(s, theta) for s in self.names(value)))


def _without_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a repeated key, which ``json`` would resolve to
    its last value, raises ``OntologyError``."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise OntologyError(f"ontology JSON has a repeated key {key!r} in one object")
        obj[key] = value
    return obj


def load_ontology(source: str | Path | IO[str], *, case_insensitive: bool = False) -> Ontology:
    """Load an ontology from a JSON document.

    Expected shape: ``{"classes": [{"id": ..., "synonyms": [...],
    "parents": [...]}, ...]}`` with ``parents`` optional; ``id`` must be a
    string, and ``synonyms`` and ``parents`` lists of strings.  Any other
    key, in the document or in a class, raises ``OntologyError``.  Synonym
    strings are trimmed of surrounding whitespace and may not be empty after
    trimming; cell values are never trimmed.  Bytes that are not UTF-8, and
    JSON that is malformed, repeats a key within one object, is nested
    deeper than the parser's recursion limit or holds an integer over
    Python's digit limit, raise ``OntologyError``.
    """
    try:
        opened = isinstance(source, (str, Path))
        with open(source, encoding="utf-8") if opened else nullcontext(source) as handle:
            document = json.load(handle, object_pairs_hook=_without_repeated_keys)
    except OntologyError:
        raise
    except UnicodeDecodeError as exc:
        raise OntologyError(f"ontology is not valid UTF-8: {exc.reason}") from None
    except RecursionError:
        raise OntologyError("ontology JSON is nested too deeply") from None
    except ValueError as exc:
        raise OntologyError(f"ontology is not valid JSON: {exc}") from None
    if not isinstance(document, dict) or not isinstance(document.get("classes", []), list):
        raise OntologyError("ontology document must be an object with a 'classes' list")
    for key in document:
        if key != "classes":
            raise OntologyError(f"ontology document has an unknown key {key!r}")
    classes = []
    for entry in document.get("classes", []):
        if not isinstance(entry, dict) or "id" not in entry:
            raise OntologyError("each class entry must be an object with an 'id'")
        class_id = entry["id"]
        if not isinstance(class_id, str):
            raise OntologyError(f"class id must be a string, not {class_id!r}")
        for key in entry:
            if key not in ("id", "synonyms", "parents"):
                raise OntologyError(f"class {class_id!r} has an unknown key {key!r}")
        for key in ("synonyms", "parents"):
            values = entry.get(key, [])
            if not isinstance(values, list):
                raise OntologyError(f"class {class_id!r}: {key!r} must be a list")
            if not all(isinstance(v, str) for v in values):
                raise OntologyError(f"class {class_id!r}: {key!r} must hold strings only")
        synonyms = frozenset(s.strip() for s in entry.get("synonyms", []))
        if "" in synonyms:
            raise OntologyError(f"class {class_id!r}: a synonym is empty after trimming")
        parents = frozenset(entry.get("parents", []))
        classes.append(OntologyClass(id=class_id, synonyms=synonyms, parents=parents))
    return Ontology(classes, case_insensitive=case_insensitive)
