"""Result records: none is a dataclass, and what every record keeps.

Every record is a named tuple, so that importing the package needs neither
``dataclasses`` nor ``inspect``; each keeps its fields, keyword
construction, equality, hash, ``repr``, pickling, immutability and
validation.
"""
from __future__ import annotations

import dataclasses
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ontofd
from ontofd.cli import CliConfigError, RunConfig
from ontofd.inference import Closure, OfdSet
from ontofd.lattice import DiscoveryConfig, DiscoveryResult, LevelStats
from ontofd.ontology import OntologyClass
from ontofd.relation import EncodedColumn, Partition, Relation, RelationError
from ontofd.repair import CellChange, ClassViolation, OfdViolationEntry, ViolationReport
from ontofd.verify import (
    ClassMajority,
    Inheritance,
    Ofd,
    SupportOutcome,
    Synonym,
    VerifyOutcome,
    ViolatingClass,
)

ENTRY = OfdViolationEntry(
    Ofd((0,), 1, Synonym(), 0.5), 0.5, (ClassViolation(0, "c", (0,), (1,), ("y",), "x"),), 0.0
)

# Each record's constructor keywords, in field order.  ``Relation`` is
# built from a schema and rows; its fields are listed in ``FIELDS``.
CASES = {
    "EncodedColumn": (EncodedColumn, dict(codes=(0, 1, 0), values=("a", "b"))),
    "Relation": (Relation, dict(schema=("a", "b"), rows=[("x", "y"), ("x", "z")])),
    "Partition": (Partition, dict(over=(0,), classes=((0, 1),))),
    "OntologyClass": (
        OntologyClass, dict(id="c", synonyms=frozenset({"x"}), parents=frozenset({"p"}))
    ),
    "ViolatingClass": (ViolatingClass, dict(representative=0, values=("x", "y"))),
    "ClassMajority": (
        ClassMajority, dict(representative=0, sense="c", members=(0, 2), others=(1,))
    ),
    "VerifyOutcome": (
        VerifyOutcome, dict(holds=False, support=0.5, witnesses=(ViolatingClass(0, ("x", "y")),))
    ),
    "SupportOutcome": (
        SupportOutcome,
        dict(support=0.75, satisfied=3, classes=(ClassMajority(0, "c", (0, 2), (1,)),)),
    ),
    "OfdSet": (OfdSet, dict(kind=Inheritance(2), deps=(((0,), frozenset({1})),))),
    "Closure": (Closure, dict(of=(0,), attrs=frozenset({0, 1}), used_deps=(0,))),
    "DiscoveryConfig": (
        DiscoveryConfig,
        dict(kind=Synonym(), tau=0.9, max_level=2, opt2=False, opt3=True, opt4=False,
             stripped=False),
    ),
    "DiscoveryResult": (
        DiscoveryResult, dict(ofds=[Ofd((0,), 1, Synonym())], per_level=[], keys_found=[(0,)])
    ),
    "CellChange": (CellChange, dict(row=1, column=0, old="x", new="y")),
    "OfdViolationEntry": (
        OfdViolationEntry,
        dict(ofd=ENTRY.ofd, support=0.5, violations=ENTRY.violations, false_positive_savings=0.0),
    ),
    "ViolationReport": (ViolationReport, dict(entries=(ENTRY,))),
    "Synonym": (Synonym, dict()),
    "Inheritance": (Inheritance, dict(theta=2)),
    "Ofd": (Ofd, dict(lhs=(0, 2), rhs=1, kind=Inheritance(2), support=0.5)),
    "LevelStats": (
        LevelStats,
        dict(level=1, nodes=15, pruned=2, candidates=30, key_resolved=4, ofds=3, seconds=0.5,
             product_seconds=0.25, report_seconds=0.0),
    ),
    "RunConfig": (
        RunConfig,
        dict(input_path="x", ontology_path="y", mode="both", theta=2, tau=0.5, max_level=3,
             output_path="o", report_format="text", stats_path="s", opt2=False, opt3=False,
             opt4=False, stripped=False, report_violations=True, inject_rate=0.1, seed=4),
    ),
}
FIELDS = {name: tuple(kwargs) for name, (_, kwargs) in CASES.items()}
FIELDS["Relation"] = ("schema", "n", "columns")
# The one record that holds lists, and so has no hash.
UNHASHABLE = {"DiscoveryResult"}


def test_import_adds_neither_dataclasses_nor_inspect():
    # Compared with the modules loaded before the import, so a site hook
    # that loads either module first cannot break the test.
    src = str(Path(ontofd.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        "import ontofd, ontofd.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout == "[]\n"


def test_no_record_is_a_dataclass():
    found = set()
    for path in sorted(Path(ontofd.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"ontofd.{path.stem}".removesuffix(".__init__"))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                if dataclasses.is_dataclass(value):
                    found.add(value.__name__)
    exported = {name for name in ontofd.__all__ if dataclasses.is_dataclass(getattr(ontofd, name))}
    assert found == set()
    assert exported == set()


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_record_semantics(name):
    cls, kwargs = CASES[name]
    record = cls(**kwargs)
    assert cls._fields == FIELDS[name]
    assert record == cls(*kwargs.values())
    if name != "Relation":
        assert all(getattr(record, key) == value for key, value in kwargs.items())
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record
    text = repr(record)
    assert text.startswith(f"{name}(")
    assert all(f"{field}={getattr(record, field)!r}" in text for field in FIELDS[name])
    if name not in UNHASHABLE:
        assert hash(record) == hash(cls(**kwargs)) == hash(copy)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_defaults_are_kept():
    assert DiscoveryConfig(Synonym()) == DiscoveryConfig(
        kind=Synonym(), tau=1.0, max_level=None, opt2=True, opt3=True, opt4=True, stripped=True
    )
    assert DiscoveryConfig(Synonym()).least == 2
    assert DiscoveryConfig(Synonym(), stripped=False).least == 1


def test_validation_errors_remain():
    cfg = DiscoveryConfig(Synonym())
    for bad in (dict(tau=0.0), dict(tau=1.5), dict(max_level=0), dict(kind="synonym")):
        with pytest.raises(ValueError):
            DiscoveryConfig(**{"kind": Synonym(), **bad})
        with pytest.raises(ValueError):
            cfg._replace(**bad)
    deps = (((0,), frozenset()),)
    with pytest.raises(ValueError, match="empty consequent"):
        OfdSet(Synonym(), deps)
    with pytest.raises(ValueError, match="empty consequent"):
        OfdSet(Synonym(), ())._replace(deps=deps)
    with pytest.raises(ValueError, match="non-negative"):
        Inheritance(-1)
    with pytest.raises(ValueError, match="non-negative"):
        Inheritance(2)._replace(theta=-1)
    with pytest.raises(ValueError, match="trivial"):
        Ofd((0, 1), 1, Synonym())
    with pytest.raises(ValueError, match="trivial"):
        Ofd((0,), 1, Synonym())._replace(lhs=(0, 1))
    run = RunConfig("x", "y")
    for bad in (dict(tau=0.0), dict(mode="x")):
        with pytest.raises(CliConfigError):
            RunConfig("x", "y", **bad)
        with pytest.raises(CliConfigError):
            run._replace(**bad)
    with pytest.raises(RelationError, match="duplicate"):
        Relation(("a", "a"), [])
    with pytest.raises(RelationError, match="row 2"):
        Relation(schema=("a",), rows=[("x",), ("x", "y")])
