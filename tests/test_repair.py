"""The violation report against its string-based reference and as streamed
from discovery."""
from __future__ import annotations

from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from ontofd.lattice import DiscoveryConfig, discover
from ontofd.ontology import Ontology
from ontofd.relation import relation_from_rows
from ontofd.repair import report_violations, violation_entry
from ontofd.verify import Inheritance, Ofd, Synonym

from oracle import reference_report_violations
from test_verify import SURFACE, ontologies

WIDTH = 4


@st.composite
def reported_instances(draw):
    ontology = draw(ontologies())
    # antecedent-like columns draw from fewer values, so classes of two or
    # more tuples are common at every antecedent size
    pools = [SURFACE[:2], SURFACE[:3], SURFACE, SURFACE]
    rows = draw(st.lists(
        st.tuples(*(st.sampled_from(pool) for pool in pools)), min_size=1, max_size=14
    ))
    relation = relation_from_rows([f"A{i}" for i in range(WIDTH)], rows)
    kind = draw(st.sampled_from([Synonym()] + [Inheritance(theta) for theta in range(4)]))
    n = relation.n
    tau = draw(st.sampled_from([1.0] + [k / n for k in range(1, n + 1)]))
    candidates = [
        (lhs, rhs)
        for size in (1, 2, 3)
        for lhs in combinations(range(WIDTH), size)
        for rhs in range(WIDTH)
        if rhs not in lhs
    ]
    extra = draw(st.lists(st.sampled_from(candidates), max_size=6))
    return relation, ontology, kind, tau, [Ofd(lhs, rhs, kind) for lhs, rhs in extra]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reported_instances())
def test_report_equals_string_reference(instance):
    # the discovered set at tau (1 or k / n) plus arbitrary candidates of
    # one to three antecedent attributes, valid or not; record equality
    # compares the support and savings floats with ==
    relation, ontology, kind, tau, extra = instance
    ofds = discover(relation, ontology, DiscoveryConfig(kind=kind, tau=tau)).ofds + extra
    got = report_violations(relation, ontology, ofds)
    assert got == reference_report_violations(relation, ontology, ofds)


@st.composite
def streamed_instances(draw):
    ontology = draw(ontologies())
    width = draw(st.integers(1, 4))
    pools = [SURFACE[:2], SURFACE[:3], SURFACE, SURFACE][:width]
    rows = draw(st.lists(st.tuples(*(st.sampled_from(pool) for pool in pools)), max_size=12))
    relation = relation_from_rows([f"A{i}" for i in range(width)], rows)
    kind = draw(st.sampled_from([Synonym()] + [Inheritance(theta) for theta in range(4)]))
    n = relation.n
    tau = draw(st.sampled_from([1.0] + [k / n for k in range(1, n + 1)]))
    return relation, ontology, kind, tau


EMPTY = relation_from_rows(["a", "b", "c"], [])
ONE_COLUMN = relation_from_rows(["a"], [("x",), ("y",), ("x",)])


@pytest.mark.parametrize("flags", list(product([True, False], repeat=4)))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(streamed_instances())
@example((EMPTY, Ontology([]), Synonym(), 1.0))
@example((EMPTY, Ontology([]), Inheritance(2), 1.0))
@example((ONE_COLUMN, Ontology([]), Inheritance(1), 2 / 3))
def test_entries_streamed_from_discovery_equal_the_report(flags, instance):
    # every pruning and stripping combination, since the hook hands over the
    # lattice's own partitions, stripped or not
    relation, ontology, kind, tau = instance
    opt2, opt3, opt4, stripped = flags
    cfg = DiscoveryConfig(kind, tau, opt2=opt2, opt3=opt3, opt4=opt4, stripped=stripped)
    streamed = []

    def on_ofd(ofd, part):
        assert part.over == ofd.lhs
        streamed.append(violation_entry(relation, ontology, ofd, part))

    result = discover(relation, ontology, cfg, on_ofd=on_ofd)
    assert [entry.ofd for entry in streamed] == result.ofds
    assert streamed == list(report_violations(relation, ontology, result.ofds).entries)


def test_report_rejects_an_unknown_consequent():
    relation = relation_from_rows(["a", "b"], [("x", "y"), ("x", "z")])
    for rhs in (-1, 2):
        with pytest.raises(ValueError, match="unknown attribute index"):
            report_violations(relation, Ontology([]), [Ofd((0,), rhs, Synonym())])
