"""The violation report against its string-based reference."""
from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings, strategies as st

from ontofd.lattice import DiscoveryConfig, discover
from ontofd.relation import relation_from_rows
from ontofd.repair import report_violations
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
    # one to three antecedent attributes, valid or not; dataclass equality
    # compares the support and savings floats with ==
    relation, ontology, kind, tau, extra = instance
    ofds = discover(relation, ontology, DiscoveryConfig(kind=kind, tau=tau)).ofds + extra
    got = report_violations(relation, ontology, ofds)
    assert got == reference_report_violations(relation, ontology, ofds)
