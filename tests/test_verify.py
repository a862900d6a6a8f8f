"""Exact and approximate candidate verification."""
from __future__ import annotations

import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ontofd.ontology import Ontology, OntologyClass
from ontofd.relation import attr_set, partition, relation_from_rows, strip
from ontofd.verify import (
    ClassMajority,
    Inheritance,
    Ofd,
    Synonym,
    agreement,
    sense_table,
    support,
    support_inheritance,
    support_synonym,
    verify,
    verify_inheritance,
    verify_synonym,
)

from conftest import CC, CTRY, DIAG, MED, SYMP
from gen import fd_instance, random_instance
from oracle import exhaustive_support, ofd_holds, reference_support, reference_verify


def stripped(relation, attrs):
    return strip(partition(relation, attr_set(attrs)))


def test_country_code_determines_country(clinical, clinical_ontology):
    out = verify_synonym(clinical, clinical_ontology, stripped(clinical, [CC]), CTRY)
    assert out.holds and out.support == 1.0 and not out.witnesses


def test_pairwise_overlap_is_not_enough(pairwise_overlap):
    relation, ontology = pairwise_overlap
    out = verify_synonym(relation, ontology, stripped(relation, [0]), 1)
    assert not out.holds
    assert out.witnesses[0].values == ("v", "w", "z")


def test_string_equal_classes_always_hold(clinical, clinical_ontology):
    out = verify_synonym(clinical, clinical_ontology, stripped(clinical, [SYMP]), DIAG)
    assert out.holds


def test_inheritance_needs_theta_two(clinical, clinical_ontology):
    part = stripped(clinical, [SYMP, DIAG])
    assert verify_inheritance(clinical, clinical_ontology, part, MED, 2).holds
    failed = verify_inheritance(clinical, clinical_ontology, part, MED, 1)
    assert not failed.holds
    # the nausea/migrane class breaks: tylenol sits two edges below analgesic
    assert failed.witnesses[0].representative == 3
    assert set(failed.witnesses[0].values) == {"analgesic", "tylenol", "acetaminophen"}


def test_non_transitive_triple(non_transitive):
    relation, ontology = non_transitive
    pid, ctry, cc, symp = range(4)
    assert verify_synonym(relation, ontology, stripped(relation, [ctry]), cc).holds
    assert verify_synonym(relation, ontology, stripped(relation, [cc]), symp).holds
    assert not verify_synonym(relation, ontology, stripped(relation, [ctry]), symp).holds


def test_theta_zero_equals_synonym_everywhere():
    for seed in range(30):
        relation, ontology = random_instance(seed)
        n_attrs = len(relation.schema)
        for size in (1, 2):
            for lhs in combinations(range(n_attrs), size):
                for rhs in range(n_attrs):
                    if rhs in lhs:
                        continue
                    part = stripped(relation, lhs)
                    syn = verify_synonym(relation, ontology, part, rhs)
                    inh = verify_inheritance(relation, ontology, part, rhs, 0)
                    assert (syn.holds, syn.support) == (inh.holds, inh.support)
                    s_syn = support_synonym(relation, ontology, part, rhs)
                    s_inh = support_inheritance(relation, ontology, part, rhs, 0)
                    assert s_syn.support == s_inh.support


def test_theta_monotone():
    for seed in range(20):
        relation, ontology = random_instance(seed)
        n_attrs = len(relation.schema)
        for lhs in combinations(range(n_attrs), 1):
            for rhs in range(n_attrs):
                if rhs in lhs:
                    continue
                part = stripped(relation, lhs)
                previous = False
                for theta in range(4):
                    holds = verify_inheritance(relation, ontology, part, rhs, theta).holds
                    assert holds or not previous
                    previous = holds


def test_fd_subsumption():
    for seed in range(50):
        relation, lhs, rhs = fd_instance(seed)
        ontology = Ontology([])
        assert verify_synonym(relation, ontology, stripped(relation, lhs), rhs).holds


def test_support_counts_tuples_not_values(clinical_ontology):
    # 5-tuple class, 4 values under one sense; frozen from the subset oracle.
    relation = relation_from_rows(
        ["k", "v"],
        [("x", "ibuprofen"), ("x", "advil"), ("x", "ibuprofen"),
         ("x", "advil"), ("x", "tylenol")],
    )
    out = support_synonym(relation, clinical_ontology, stripped(relation, [0]), 1)
    assert out.satisfied == 4 and out.support == 0.8
    assert exhaustive_support(relation, clinical_ontology, (0,), 1, Synonym()) == 0.8
    cls = out.classes[0]
    assert cls.sense == "ibuprofen"
    assert cls.members == (0, 1, 2, 3) and cls.others == (4,)


def test_support_of_exact_candidate_is_one(clinical, clinical_ontology):
    out = support_synonym(clinical, clinical_ontology, stripped(clinical, [CC]), CTRY)
    assert out.support == 1.0 and out.satisfied == clinical.n


def test_support_with_corrupted_cell(clinical, clinical_ontology):
    rows = [list(r) for r in clinical.rows]
    rows[4][CTRY] = "Canada"  # t5
    corrupted = relation_from_rows(clinical.schema, rows)
    out = support_synonym(corrupted, clinical_ontology, stripped(corrupted, [CC]), CTRY)
    assert out.satisfied == 6 and out.support == pytest.approx(6 / 7)
    assert exhaustive_support(corrupted, clinical_ontology, (CC,), CTRY, Synonym()) == pytest.approx(6 / 7)


def test_inheritance_support_planted_class(clinical_ontology):
    values = ["ibuprofen"] * 3 + ["naproxen"] * 3 + ["NSAID"] * 2 + ["tylenol", "morphine"]
    relation = relation_from_rows(["k", "v"], [("x", v) for v in values])
    out = support_inheritance(relation, clinical_ontology, stripped(relation, [0]), 1, 1)
    assert out.satisfied == 8 and out.support == 0.8
    assert out.classes[0].sense == "nsaid"
    assert exhaustive_support(
        relation, clinical_ontology, (0,), 1, Inheritance(1)
    ) == pytest.approx(0.8)


def test_support_matches_subset_oracle_on_small_instances():
    for seed in range(8):
        relation, ontology = random_instance(seed + 500, max_rows=9)
        n_attrs = len(relation.schema)
        for size in (1, 2):
            for lhs in combinations(range(n_attrs), size):
                for rhs in range(n_attrs):
                    if rhs in lhs:
                        continue
                    part = stripped(relation, lhs)
                    for kind in (Synonym(), Inheritance(seed % 3)):
                        if isinstance(kind, Synonym):
                            got = support_synonym(relation, ontology, part, rhs).support
                        else:
                            got = support_inheritance(relation, ontology, part, rhs, kind.theta).support
                        assert got == pytest.approx(
                            exhaustive_support(relation, ontology, lhs, rhs, kind)
                        )


def test_singletons_never_violate_and_count_toward_support():
    ontology = Ontology([])
    relation = relation_from_rows(
        ["k", "v"], [("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")]
    )
    part = stripped(relation, [0])
    assert part.classes == ()
    out = verify_synonym(relation, ontology, part, 1)
    assert out.holds and out.support == 1.0
    sup = support_synonym(relation, ontology, part, 1)
    assert sup.satisfied == 4


def test_majority_partitions_class_and_tiebreak():
    ontology = Ontology([
        OntologyClass("sa", frozenset({"x", "y"}), frozenset()),
        OntologyClass("sb", frozenset({"x", "y"}), frozenset()),
    ])
    relation = relation_from_rows(["k", "v"], [("g", "x"), ("g", "y"), ("g", "z")])
    out = support_synonym(relation, ontology, stripped(relation, [0]), 1)
    cls = out.classes[0]
    assert cls.sense == "sa"  # sa and sb tie at 2, smallest id wins
    assert set(cls.members) | set(cls.others) == {0, 1, 2}
    assert not set(cls.members) & set(cls.others)


def test_exact_check_uses_distinct_values(clinical_ontology):
    # two tuples share one value, a third carries a sense-mate: intersection
    # runs over distinct values, so repeats cannot mask a conflict
    relation = relation_from_rows(
        ["k", "v"], [("g", "ibuprofen"), ("g", "ibuprofen"), ("g", "morphine")]
    )
    out = verify_synonym(relation, clinical_ontology, stripped(relation, [0]), 1)
    assert not out.holds
    assert out.witnesses[0].values == ("ibuprofen", "morphine")


def test_verification_matches_definition_oracle():
    for seed in range(40):
        relation, ontology = random_instance(seed)
        n_attrs = len(relation.schema)
        kind = Synonym() if seed % 2 == 0 else Inheritance(seed % 3)
        for size in (1, 2):
            for lhs in combinations(range(n_attrs), size):
                for rhs in range(n_attrs):
                    if rhs in lhs:
                        continue
                    part = stripped(relation, lhs)
                    if isinstance(kind, Synonym):
                        got = verify_synonym(relation, ontology, part, rhs).holds
                    else:
                        got = verify_inheritance(relation, ontology, part, rhs, kind.theta).holds
                    assert got == ofd_holds(relation, ontology, lhs, rhs, kind)


def test_rejects_rhs_inside_antecedent(clinical, clinical_ontology):
    with pytest.raises(ValueError):
        verify_synonym(clinical, clinical_ontology, stripped(clinical, [CC]), CC)
    with pytest.raises(ValueError):
        Ofd((CC,), CC, Synonym())


def test_ofd_is_an_immutable_record():
    ofd = Ofd((0, 2), 1, Inheritance(2), 0.5)
    assert ofd == Ofd(lhs=(0, 2), rhs=1, kind=Inheritance(2), support=0.5)
    assert hash(ofd) == hash(Ofd((0, 2), 1, Inheritance(2), 0.5))
    assert ofd != Ofd((0, 2), 1, Inheritance(2)) and ofd != Ofd((0, 2), 1, Synonym(), 0.5)
    assert repr(ofd) == "Ofd(lhs=(0, 2), rhs=1, kind=Inheritance(theta=2), support=0.5)"
    assert Ofd((0,), 1, Synonym()).support is None
    assert Ofd(rhs=1, kind=Synonym(), lhs=(0,)) == Ofd((0,), 1, Synonym(), None)
    with pytest.raises(ValueError, match="trivial"):
        Ofd(lhs=(0, 1), rhs=1, kind=Synonym())
    with pytest.raises(AttributeError):
        ofd.support = 1.0
    assert Ofd._fields == ("lhs", "rhs", "kind", "support")
    assert ofd._replace(support=1.0) == Ofd((0, 2), 1, Inheritance(2), 1.0)
    with pytest.raises(ValueError, match="trivial"):
        ofd._replace(rhs=2)
    # ``_asdict`` does not recurse into the kind
    assert ofd._asdict() == {"lhs": (0, 2), "rhs": 1, "kind": Inheritance(2), "support": 0.5}
    assert ofd.kind._asdict() == {"theta": 2}
    copy = pickle.loads(pickle.dumps(ofd))
    assert copy == ofd and hash(copy) == hash(ofd)


def test_fast_path_flag_changes_nothing():
    for seed in range(15):
        relation, ontology = random_instance(seed)
        n_attrs = len(relation.schema)
        for lhs in combinations(range(n_attrs), 1):
            for rhs in range(n_attrs):
                if rhs in lhs:
                    continue
                part = stripped(relation, lhs)
                f = support_synonym(relation, ontology, part, rhs)
                s = reference_support(relation, ontology, part, rhs, Synonym(), False)
                assert (f.support, f.classes) == (s.support, s.classes)


def pair_relation(*pairs):
    """Two-tuple classes: pair ``i`` holds rows ``2i`` and ``2i + 1``."""
    return relation_from_rows(
        ["k", "v"], [(f"g{i}", v) for i, pair in enumerate(pairs) for v in pair]
    )


# Class ids sort against their synonyms' order: "x" has the larger id.
PAIR_ONTOLOGY = Ontology([
    OntologyClass("b", frozenset({"x"}), frozenset()),
    OntologyClass("a", frozenset({"y"}), frozenset()),
    OntologyClass("c", frozenset({"p", "q"}), frozenset()),
    OntologyClass("d", frozenset({"q", "r"}), frozenset()),
])


def test_pair_without_shared_sense_keeps_the_smallest_id_holder():
    # "a" is the smaller sense id and the second tuple holds it
    relation = pair_relation(("x", "y"))
    part = stripped(relation, [0])
    assert part.classes == ((0, 1),)
    for kind in (Synonym(), Inheritance(0)):
        out = support(relation, PAIR_ONTOLOGY, part, 1, kind)
        assert out.satisfied == 1 and out.support == 0.5
        assert out.classes == (ClassMajority(0, "a", (1,), (0,)),)
        assert out == reference_support(relation, PAIR_ONTOLOGY, part, 1, kind)
        assert not verify(relation, PAIR_ONTOLOGY, part, 1, kind).holds


def test_pair_of_polysemous_values_shares_a_sense():
    # "p" is only in c, "r" only in d, "q" in both
    for pair, sense in ((("p", "q"), "c"), (("r", "q"), "d"), (("q", "q"), "c")):
        relation = pair_relation(pair)
        part = stripped(relation, [0])
        assert verify(relation, PAIR_ONTOLOGY, part, 1, Synonym()).holds
        out = support(relation, PAIR_ONTOLOGY, part, 1, Synonym())
        assert out.classes == (ClassMajority(0, sense, (0, 1), ()),)
    relation = pair_relation(("p", "r"))
    out = support(relation, PAIR_ONTOLOGY, stripped(relation, [0]), 1, Synonym())
    assert out.classes == (ClassMajority(0, "c", (0,), (1,)),)


def test_equal_pair_without_the_fast_path():
    # a known value and one with only its implicit sense
    for value in ("x", "zz"):
        relation = pair_relation((value, value))
        part = stripped(relation, [0])
        table = sense_table(relation, PAIR_ONTOLOGY, 1, Synonym())
        assert agreement(table, part.classes, 1.0, False) == 2
        assert support(relation, PAIR_ONTOLOGY, part, 1, Synonym()).classes[0].others == ()


def test_pair_agreement_at_every_threshold():
    # four pairs, two of which lose one tuple each: 6 of 8 tuples agree
    relation = pair_relation(("x", "y"), ("p", "q"), ("zz", "x"), ("y", "y"))
    part = stripped(relation, [0])
    assert [len(c) for c in part.classes] == [2, 2, 2, 2]
    table = sense_table(relation, PAIR_ONTOLOGY, 1, Synonym())
    n = relation.n
    for fast in (True, False):
        for k in range(1, n + 1):
            got = agreement(table, part.classes, k / n, fast)
            assert got == (6 if k <= 6 else None), (fast, k)
    assert support(relation, PAIR_ONTOLOGY, part, 1, Synonym()).satisfied == 6


# Surface strings: "zz" is in no synonym set, and the others may land in
# several classes (polysemy).  Class ids are drawn in an order unrelated to
# their string order, so the smallest-id tie-break is exercised.
SURFACE = ["a", "b", "c", "d", "zz"]


@st.composite
def ontologies(draw):
    ids = draw(st.permutations(["m", "b", "x", "a", "q"]))[: draw(st.integers(1, 5))]
    return Ontology([
        OntologyClass(
            class_id,
            frozenset(draw(st.sets(st.sampled_from(SURFACE[:-1]), min_size=1, max_size=3))),
            frozenset(draw(st.sets(st.sampled_from(ids[:i]), max_size=2))) if i else frozenset(),
        )
        for i, class_id in enumerate(ids)
    ])


@st.composite
def checked_candidates(draw):
    ontology = draw(ontologies())
    # two to six key values over up to twelve rows make two-tuple classes
    # common next to larger ones
    keys = [f"k{i}" for i in range(draw(st.integers(2, 6)))]
    rows = draw(st.lists(
        st.tuples(st.sampled_from(keys), st.sampled_from(SURFACE)), max_size=12
    ))
    relation = relation_from_rows(["k", "v"], rows)
    full = partition(relation, draw(st.sampled_from([(0,), ()])))
    part = strip(full) if draw(st.booleans()) else full
    kind = draw(st.sampled_from([Synonym()] + [Inheritance(theta) for theta in range(4)]))
    return relation, ontology, part, kind, draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(checked_candidates())
def test_encoded_checks_equal_string_reference(candidate):
    relation, ontology, part, kind, fast = candidate
    args = (relation, ontology, part, 1, kind)
    # the reference's fast path, on or off, changes no exact result
    assert verify(*args) == reference_verify(*args, True) == reference_verify(*args, False)
    want = reference_support(*args, fast)
    assert support(*args) == want
    # the kernel at every threshold k / n, where the early abort is tightest
    n = relation.n
    table = sense_table(relation, ontology, 1, kind)
    for k in range(1, n + 1):
        got = agreement(table, part.classes, k / n, fast)
        assert got == (want.satisfied if want.support >= k / n else None)
