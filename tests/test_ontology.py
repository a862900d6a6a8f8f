"""Ontology loading and sense queries."""
from __future__ import annotations

import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ontofd.lattice import DiscoveryConfig, discover
from ontofd.ontology import (
    Ontology,
    OntologyClass,
    OntologyError,
    implicit_class_id,
    is_implicit,
    load_ontology,
)
from ontofd.relation import relation_from_rows
from ontofd.repair import inject_errors, report_violations
from ontofd.verify import Inheritance, Ofd, Synonym

from conftest import DATA
from gen import layered_ontology, random_instance, random_ontology
from oracle import (
    brute_discover,
    reference_ancestor_distances,
    reference_inject_errors,
    reference_report_violations,
)


def make(classes_json: list[dict], **kwargs) -> Ontology:
    return load_ontology(io.StringIO(json.dumps({"classes": classes_json})), **kwargs)


JAGUAR = [
    {"id": "E1", "synonyms": ["car", "auto", "vehicle"]},
    {"id": "E2", "synonyms": ["jaguar", "jaguar land rover"], "parents": ["COMPANY"]},
    {"id": "E3", "synonyms": ["jaguar", "panthera onca"], "parents": ["FELINE"]},
    {"id": "COMPANY", "synonyms": ["company"]},
    {"id": "FELINE", "synonyms": ["feline"], "parents": ["MAMMAL"]},
    {"id": "MAMMAL", "synonyms": ["mammal"], "parents": ["ANIMAL"]},
    {"id": "ANIMAL", "synonyms": ["animal"]},
]


def test_names_polysemy():
    o = make(JAGUAR)
    assert o.names("jaguar") == {"E2", "E3"}
    assert o.names("car") == {"E1"}


def test_names_out_of_vocabulary_is_implicit_singleton():
    o = make(JAGUAR)
    got = o.names("zzz-not-in-ontology")
    assert got == {implicit_class_id("zzz-not-in-ontology")}
    assert all(is_implicit(c) for c in got)


def test_empty_ontology_still_answers_names():
    o = make([])
    assert len(o) == 0
    assert not o.value_index
    assert o.names("anything") == {implicit_class_id("anything")}


def test_load_errors_are_distinct():
    with pytest.raises(OntologyError, match="duplicate class id"):
        make([{"id": "A", "synonyms": ["x"]}, {"id": "A", "synonyms": ["y"]}])
    with pytest.raises(OntologyError, match="empty synonym list"):
        make([{"id": "A", "synonyms": []}])
    with pytest.raises(OntologyError, match="unknown parent"):
        make([{"id": "A", "synonyms": ["x"], "parents": ["missing"]}])
    # a long is-a chain loads, and closed into a loop it is rejected
    chain = [{"id": str(i), "synonyms": ["x"], "parents": [str(i + 1)]} for i in range(20_000)]
    chain[-1]["parents"] = []
    assert len(make(chain)) == 20_000
    chain[-1]["parents"] = ["0"]
    for cycle in (
        [{"id": "A", "synonyms": ["x"], "parents": ["B"]},
         {"id": "B", "synonyms": ["y"], "parents": ["A"]}],
        chain,
    ):
        with pytest.raises(OntologyError, match="cycle"):
            make(cycle)
    with pytest.raises(OntologyError, match="itself"):
        make([{"id": "A", "synonyms": ["x"], "parents": ["A"]}])
    # a string would otherwise be split into one synonym or parent per char
    with pytest.raises(OntologyError, match="'synonyms' must be a list"):
        make([{"id": "A", "synonyms": "abc"}])
    with pytest.raises(OntologyError, match="'parents' must be a list"):
        make([{"id": "A", "synonyms": ["x"], "parents": "B"}, {"id": "B", "synonyms": ["y"]}])
    # NUL-prefixed ids are the implicit classes of out-of-vocabulary values
    with pytest.raises(OntologyError, match="reserved"):
        make([{"id": implicit_class_id("x"), "synonyms": ["y"]}])
    with pytest.raises(OntologyError, match="reserved"):
        Ontology([OntologyClass(implicit_class_id("x"), frozenset({"x"}), frozenset())])
    # trimming would turn these into "", the sense of every empty cell
    for blank in ("", "  ", "\t\n"):
        with pytest.raises(OntologyError, match="empty after trimming"):
            make([{"id": "A", "synonyms": ["x", blank]}])
    # str() would turn these into the strings "['x']", "5" and "None"
    for entry, what in (
        ({"id": ["x"], "synonyms": ["a"]}, "class id"),
        ({"id": 5, "synonyms": ["a"]}, "class id"),
        ({"id": None, "synonyms": ["a"]}, "class id"),
        ({"id": "A", "synonyms": [5]}, "'synonyms'"),
        ({"id": "A", "synonyms": ["x", ["y"]]}, "'synonyms'"),
        ({"id": "A", "synonyms": ["x"], "parents": [None]}, "'parents'"),
    ):
        with pytest.raises(OntologyError, match=f"{what} must .*string"):
            make([entry, {"id": "5", "synonyms": ["z"]}])
    # the JSON parser would keep only the last of a repeated key, dropping
    # the synonyms ["a"] or every class of the first "classes" list
    for text, key in (
        ('{"classes": [{"id": "x", "synonyms": ["a"], "synonyms": ["b"]}]}', "synonyms"),
        ('{"classes": [{"id": "x", "synonyms": ["a"]}], "classes": []}', "classes"),
    ):
        with pytest.raises(OntologyError, match=f"repeated key '{key}'"):
            load_ontology(io.StringIO(text))
    # a misspelt key would otherwise be ignored, loading no classes or a
    # class with no is-a links
    for text, key in (
        ('{"clases": [{"id": "x", "synonyms": ["a"]}]}', "clases"),
        ('{"classes": [{"id": "x", "synonyms": ["a"], "parent": ["y"]},'
         ' {"id": "y", "synonyms": ["b"]}]}', "parent"),
    ):
        with pytest.raises(OntologyError, match=f"unknown key '{key}'"):
            load_ontology(io.StringIO(text))
    # the parser rejects an integer over the digit limit before any key is read
    with pytest.raises(OntologyError, match="not valid JSON"):
        load_ontology(io.StringIO('{"classes": [], "x": ' + "1" * 5000 + "}"))


def test_deeply_nested_document_is_rejected():
    text = '{"classes": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(OntologyError, match="nested too deeply"):
        load_ontology(io.StringIO(text))


def test_ancestor_chain_distances():
    o = make(JAGUAR)
    assert o.ancestor_closure("E3") == {"E3": 0, "FELINE": 1, "MAMMAL": 2, "ANIMAL": 3}
    assert o.ancestor_closure("ANIMAL") == {"ANIMAL": 0}


def test_ancestor_closure_dag_keeps_minimal_distance():
    # E has two parents which both reach G; frozen from a BFS walk of this DAG.
    o = make([
        {"id": "E", "synonyms": ["e"], "parents": ["P1", "P2"]},
        {"id": "P1", "synonyms": ["p1"], "parents": ["G"]},
        {"id": "P2", "synonyms": ["p2"], "parents": ["G"]},
        {"id": "G", "synonyms": ["g"]},
    ])
    assert o.ancestor_closure("E") == {"E": 0, "P1": 1, "P2": 1, "G": 2}


def test_ancestor_closure_unknown_id():
    o = make(JAGUAR)
    with pytest.raises(OntologyError, match="unknown class id"):
        o.ancestor_closure("nope")
    # implicit ids are their own closure
    imp = implicit_class_id("loose value")
    assert o.ancestor_closure(imp) == {imp: 0}


def test_theta_ancestors_medication_chain():
    o = make([
        {"id": "TYLENOL", "synonyms": ["tylenol"], "parents": ["ACETAMINOPHEN"]},
        {"id": "ACETAMINOPHEN", "synonyms": ["acetaminophen"], "parents": ["ANALGESIC"]},
        {"id": "ANALGESIC", "synonyms": ["analgesic"]},
    ])
    assert o.theta_ancestors("tylenol", 2) == {"TYLENOL", "ACETAMINOPHEN", "ANALGESIC"}
    assert o.theta_ancestors("tylenol", 1) == {"TYLENOL", "ACETAMINOPHEN"}


def test_theta_zero_collapses_to_names():
    o = make(JAGUAR)
    for value in ("jaguar", "car", "mammal", "unknown-string"):
        assert o.theta_ancestors(value, 0) == o.names(value)


def test_theta_ancestors_jaguar_one_step():
    # Frozen from a BFS walk: both senses plus their direct parents.
    o = make(JAGUAR)
    assert o.theta_ancestors("jaguar", 1) == {"E2", "E3", "COMPANY", "FELINE"}


def test_theta_monotone_and_index_consistency():
    rng = random.Random(11)
    for _ in range(20):
        o = random_ontology(rng)
        for cls in o.classes.values():
            for synonym in cls.synonyms:
                assert cls.id in o.names(synonym)
        for value, ids in o.value_index.items():
            for class_id in ids:
                assert value in {o.normalize(s) for s in o.classes[class_id].synonyms}
        for value in list(o.value_index)[:5]:
            for theta in range(3):
                assert o.theta_ancestors(value, theta) <= o.theta_ancestors(value, theta + 1)


def test_distance_triangle_along_parent_edges():
    rng = random.Random(12)
    for _ in range(20):
        o = random_ontology(rng)
        for cls in o.classes.values():
            child = o.ancestor_closure(cls.id)
            for parent in cls.parents:
                for ancestor, d in o.ancestor_closure(parent).items():
                    assert child[ancestor] <= d + 1


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6), st.integers(1, 7), st.integers(1, 3))
def test_bounded_ancestor_search_equals_the_filtered_closure(seed, layers, reach):
    # multi-parent DAGs whose parents may sit up to ``reach`` layers above,
    # so a class is often reached by paths of several lengths
    o = layered_ontology(random.Random(seed), layers=layers, max_width=6, reach=reach)
    full = {class_id: o.ancestor_closure(class_id) for class_id in o.classes}
    for class_id, distances in full.items():
        assert distances == reference_ancestor_distances(o, class_id)
        for theta in range(layers + 1):
            within = {c: d for c, d in distances.items() if d <= theta}
            assert o.ancestor_closure(class_id, theta) == within
    for value in o.value_index:
        for theta in range(layers + 1):
            assert o.theta_ancestors(value, theta) == {
                c for sense in o.names(value) for c, d in full[sense].items() if d <= theta
            }


def test_negative_theta_is_rejected():
    o = make(JAGUAR)
    for query in (
        lambda: o.theta_ancestors("jaguar", -1),
        lambda: o.ancestor_closure("E3", -1),
        lambda: o.ancestor_closure(implicit_class_id("x"), -1),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            query()


@pytest.mark.parametrize("build", [
    lambda: load_ontology(DATA / "clinical_ontology.json"),
    lambda: layered_ontology(random.Random(3), layers=5, max_width=8, reach=2),
], ids=["clinical", "layered"])
def test_queries_leave_the_ontology_unchanged(build):
    # an ontology is read-only after construction: no query stores anything
    o = build()

    def snapshot():
        return {k: len(v) if hasattr(v, "__len__") else v for k, v in vars(o).items()}

    before = snapshot()
    values = [s for cls in o.classes.values() for s in cls.synonyms] + ["no such value"]
    for value in values:
        for sense in o.names(value):
            o.ancestor_closure(sense)
        for theta in range(4):
            o.theta_ancestors(value, theta)
    assert snapshot() == before


def test_load_is_deterministic():
    doc = json.dumps({"classes": JAGUAR})
    a = load_ontology(io.StringIO(doc))
    b = load_ontology(io.StringIO(doc))
    assert a.value_index == b.value_index


def test_case_insensitive_flag_and_trimming():
    o = make([{"id": "A", "synonyms": ["  Foo ", "BAR"]}], case_insensitive=True)
    assert o.names("foo") == {"A"}
    assert o.names("bar") == {"A"}
    exact = make([{"id": "A", "synonyms": ["  Foo "]}])
    assert exact.names("Foo") == {"A"}
    assert exact.names("foo") != {"A"}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6))
def test_case_insensitive_ontology_end_to_end(seed):
    # cells and synonyms that differ from each other only in case share
    # their senses, while the partitions still tell the strings apart
    relation, ontology = random_instance(seed, max_attrs=4, max_rows=12)
    rng = random.Random(seed)
    ontology = Ontology([
        OntologyClass(cls.id, frozenset(
            s.upper() if rng.random() < 0.3 else s for s in cls.synonyms
        ), cls.parents)
        for cls in ontology.classes.values()
    ], case_insensitive=True)
    relation = relation_from_rows(relation.schema, [
        tuple(v.upper() if rng.random() < 0.4 else v for v in row) for row in relation.rows
    ])
    width = len(relation.schema)
    for kind in (Synonym(), Inheritance(seed % 3)):
        ofds = discover(relation, ontology, DiscoveryConfig(kind=kind)).ofds
        assert {(frozenset(o.lhs), o.rhs) for o in ofds} == brute_discover(relation, ontology, kind)
        ofds += [Ofd((a,), b, kind) for a in range(width) for b in range(width) if a != b]
        got = report_violations(relation, ontology, ofds)
        assert got == reference_report_violations(relation, ontology, ofds)
    for rate in (0.1, 0.5):
        got_table, got_log = inject_errors(relation, rate, seed, ontology=ontology)
        want_table, want_log = reference_inject_errors(relation, rate, seed, ontology=ontology)
        assert got_table.rows == want_table.rows and got_log == want_log
