"""Level-wise discovery: completeness, minimality, pruning soundness."""
from __future__ import annotations

import functools
import itertools
import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ontofd.lattice import (
    DiscoveryConfig,
    DiscoveryResult,
    LatticeNode,
    calculate_next_level,
    compute_ofds,
    discover,
)
from ontofd.ontology import Ontology, OntologyClass
from ontofd.relation import attr_set, partition, refine, relation_from_rows, strip
from ontofd.verify import Inheritance, Synonym

from conftest import CC, CTRY, DIAG, ID, MED, SYMP
from gen import VOCAB, random_instance, random_ontology, synth_ontology, synth_relation
from oracle import brute_discover, brute_discover_approx, brute_minimal_keys
from test_verify import SURFACE, ontologies

# Frozen from the enumerate-and-minimize oracle over the clinical sample.
CLINICAL_SYNONYM = {
    (frozenset({ID}), CC), (frozenset({ID}), CTRY), (frozenset({ID}), SYMP),
    (frozenset({ID}), DIAG), (frozenset({ID}), MED),
    (frozenset({MED}), ID), (frozenset({MED}), CC), (frozenset({MED}), CTRY),
    (frozenset({MED}), SYMP), (frozenset({MED}), DIAG),
    (frozenset({CC}), CTRY), (frozenset({CTRY}), CC),
    (frozenset({SYMP}), DIAG), (frozenset({DIAG}), SYMP),
    (frozenset({CTRY, SYMP}), ID), (frozenset({CTRY, SYMP}), MED),
    (frozenset({CTRY, DIAG}), ID), (frozenset({CTRY, DIAG}), MED),
}

# Frozen likewise for theta = 2: the medication column is reachable from
# every single antecedent whose classes stay inside one drug family.
CLINICAL_INHERITANCE_2 = {
    (frozenset({ID}), CC), (frozenset({ID}), CTRY), (frozenset({ID}), SYMP),
    (frozenset({ID}), DIAG), (frozenset({ID}), MED),
    (frozenset({MED}), ID), (frozenset({MED}), CC), (frozenset({MED}), CTRY),
    (frozenset({MED}), SYMP), (frozenset({MED}), DIAG),
    (frozenset({CC}), CTRY), (frozenset({CC}), MED),
    (frozenset({CTRY}), CC), (frozenset({CTRY}), MED),
    (frozenset({SYMP}), DIAG), (frozenset({SYMP}), MED),
    (frozenset({DIAG}), SYMP), (frozenset({DIAG}), MED),
    (frozenset({CTRY, SYMP}), ID), (frozenset({CTRY, DIAG}), ID),
}


def as_pairs(result):
    return {(frozenset(o.lhs), o.rhs) for o in result.ofds}


def test_clinical_synonym_discovery(clinical, clinical_ontology):
    result = discover(clinical, clinical_ontology, DiscoveryConfig(kind=Synonym()))
    pairs = as_pairs(result)
    assert (frozenset({CC}), CTRY) in pairs
    assert (frozenset({CTRY}), CC) in pairs
    assert pairs == CLINICAL_SYNONYM
    assert pairs == brute_discover(clinical, clinical_ontology, Synonym())
    assert all(o.support == 1.0 for o in result.ofds)
    assert result.keys_found == [(ID,), (MED,), (CTRY, SYMP), (CTRY, DIAG)]


def test_clinical_inheritance_discovery(clinical, clinical_ontology):
    result = discover(clinical, clinical_ontology, DiscoveryConfig(kind=Inheritance(2)))
    pairs = as_pairs(result)
    assert pairs == CLINICAL_INHERITANCE_2
    assert pairs == brute_discover(clinical, clinical_ontology, Inheritance(2))
    # the medication column is already determined by the symptom alone, so
    # the two-attribute antecedent is not minimal and must not be emitted
    assert (frozenset({SYMP}), MED) in pairs
    assert (frozenset({SYMP, DIAG}), MED) not in pairs


def test_single_attribute_relation_has_no_candidates():
    relation = relation_from_rows(["only"], [("a",), ("a",), ("b",)])
    result = discover(relation, Ontology([]), DiscoveryConfig(kind=Synonym()))
    assert result.ofds == [] and result.per_level == []


def mask_of(attrs):
    return sum(1 << a for a in set(attrs))


def make_nodes(relation, cfg, attr_sets):
    """Live map of fresh nodes, by mask in the given order."""
    build = strip if cfg.stripped else lambda part: part
    return {
        mask_of(x): LatticeNode(attr_set(x), mask_of(x), build(partition(relation, attr_set(x))))
        for x in attr_sets
    }


def test_calculate_next_level_joins_prefix_blocks():
    relation = relation_from_rows(
        ["A", "B", "C", "D"], [("1", "2", "3", "4"), ("1", "2", "3", "5")]
    )
    cfg = DiscoveryConfig(kind=Synonym())
    singles = make_nodes(relation, cfg, [(0,), (1,), (2,)])
    level2 = calculate_next_level(singles, relation, cfg)
    assert [n.attrs for n in level2] == [(0, 1), (0, 2), (1, 2)]
    level3 = calculate_next_level({n.mask: n for n in level2}, relation, cfg)
    assert [n.attrs for n in level3] == [(0, 1, 2)]
    disjoint = make_nodes(relation, cfg, [(0, 1), (2, 3)])
    assert calculate_next_level(disjoint, relation, cfg) == []
    # a dead node is left out of the map: it is joined with nothing, and no
    # node above it is built
    pairs = make_nodes(relation, cfg, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    assert [n.attrs for n in calculate_next_level(pairs, relation, cfg)] == [(0, 1, 3), (0, 2, 3)]


def test_next_level_partitions_are_products(clinical):
    # make_nodes builds each node's (stripped or full) partition directly
    for stripped_flag in (True, False):
        cfg = DiscoveryConfig(kind=Synonym(), stripped=stripped_flag)
        singles = make_nodes(clinical, cfg, [(a,) for a in range(6)])
        for node in calculate_next_level(singles, clinical, cfg):
            assert node.part == make_nodes(clinical, cfg, [node.attrs])[node.mask].part


def test_candidate_set_removal_prunes_supersets(clinical, clinical_ontology):
    # CC -> CTRY holds, so CTRY leaves the candidate set of {CC, CTRY} and no
    # superset antecedent with consequent CTRY is ever emitted.
    result = discover(clinical, clinical_ontology, DiscoveryConfig(kind=Synonym()))
    pairs = as_pairs(result)
    for lhs, rhs in pairs:
        for other_lhs, other_rhs in pairs:
            if rhs == other_rhs and lhs != other_lhs:
                assert not lhs < other_lhs


def test_no_trivial_dependencies(clinical, clinical_ontology):
    result = discover(clinical, clinical_ontology, DiscoveryConfig(kind=Synonym()))
    assert all(o.rhs not in o.lhs for o in result.ofds)


def test_sense_dependency_does_not_carry_partitions():
    # A -> B holds through a shared sense, yet {A, B} -> C is minimal: TANE's
    # removal of R \ X from C+ after A -> B would lose it
    relation = relation_from_rows(
        ["A", "B", "C"], [("1", "USA", "x"), ("1", "America", "y"), ("2", "USA", "y")]
    )
    ontology = Ontology([OntologyClass("usa", frozenset({"USA", "America"}), frozenset())])
    got = as_pairs(discover(relation, ontology, DiscoveryConfig(kind=Synonym())))
    assert {(frozenset({0}), 1), (frozenset({0, 1}), 2)} <= got
    assert got == brute_discover(relation, ontology, Synonym())


def test_minimal_key_with_no_own_candidates_stays_alive():
    # B -> C and C -> B hold through senses, so C+({B, C}) keeps neither, but
    # {B, C} is a minimal key and {B, C} -> A is minimal
    relation = relation_from_rows(
        ["A", "B", "C"], [("x", "b1", "USA"), ("y", "b1", "America"), ("z", "b2", "USA")]
    )
    ontology = Ontology([
        OntologyClass("usa", frozenset({"USA", "America"}), frozenset()),
        OntologyClass("b", frozenset({"b1", "b2"}), frozenset()),
    ])
    result = discover(relation, ontology, DiscoveryConfig(kind=Synonym()))
    assert (frozenset({1, 2}), 0) in as_pairs(result)
    assert as_pairs(result) == brute_discover(relation, ontology, Synonym())
    assert result.keys_found == [(0,), (1, 2)]


def test_superkey_plan_skips_verification(clinical, clinical_ontology):
    # node {id, CC}: the antecedent {id} is a key, so candidate CC is
    # resolved without touching the ontology
    everything = mask_of(range(6))
    for opt3 in (True, False):
        cfg = DiscoveryConfig(kind=Synonym(), opt3=opt3)
        parents = {
            1 << a: LatticeNode((a,), 1 << a, strip(partition(clinical, (a,))), everything)
            for a in (ID, CC)
        }
        (node,) = calculate_next_level(parents, clinical, cfg)
        assert node.attrs == (ID, CC)
        assert node.key_parents == 1 << CC  # lhs {id} is a superkey, {CC} is not
        _, tested, key_resolved, live = compute_ofds(
            [node], parents, clinical, clinical_ontology, cfg, DiscoveryResult([], [], [])
        )
        assert tested == 2                  # both candidates are examined
        assert key_resolved == (1 if opt3 else 0)
        assert node.key_parents == 1 << CC
        # {CC} -> id does not hold, so id stays in C+ and the node stays live
        assert live == {node.mask: node}


def test_join_builds_candidates_and_key_parents_from_final_subsets():
    # Levels are built and tested as discover does.  The join must build
    # exactly the unions of two live nodes whose subsets one level down are
    # all live.  Each joined node's C+ must be the AND of its subsets'
    # candidate sets as compute_ofds left them, and key_parents must hold
    # each attribute whose subset without it is a superkey; both are found
    # here by scanning the live map.  The map compute_ofds returns must hold,
    # in level order, the nodes that the dead-node rule leaves alive.
    for seed, stripped_flag in itertools.product(range(30), (True, False)):
        relation, ontology = random_instance(seed + 7000, max_attrs=7, max_rows=14)
        kind = Synonym() if seed % 2 == 0 else Inheritance(seed % 3)
        tau = 1.0 if seed % 4 < 2 else 0.8
        cfg = DiscoveryConfig(
            kind=kind, tau=tau, opt2=seed % 5 != 1, opt3=seed % 5 != 2, stripped=stripped_flag
        )
        everything = mask_of(range(len(relation.schema)))
        whole = partition(relation, ())
        live = {
            1 << a: LatticeNode((a,), 1 << a, refine(whole, relation, a, cfg.least), everything)
            for a in range(len(relation.schema))
        }
        result = DiscoveryResult([], [], [])
        while live:
            level = calculate_next_level(live, relation, cfg)
            unions = {
                p.mask | q.mask for p, q in itertools.combinations(live.values(), 2)
                if (p.mask | q.mask).bit_count() == len(p.attrs) + 1
            }
            joinable = [
                m for m in unions
                if all(m ^ (1 << a) in live for a in range(m.bit_length()) if m >> a & 1)
            ]
            assert sorted(n.mask for n in level) == sorted(joinable), (seed, stripped_flag)
            for node in level:
                subsets = [p for p in live.values() if p.mask & node.mask == p.mask]
                assert len(subsets) == len(node.attrs)
                candidates = functools.reduce(operator.and_, (p.candidates for p in subsets))
                key_parents = sum(node.mask ^ p.mask for p in subsets if p.is_superkey)
                assert (node.candidates, node.key_parents) == (candidates, key_parents), (
                    seed, stripped_flag, node.attrs,
                )
            live = compute_ofds(level, live, relation, ontology, cfg, result)[3]
            alive = [
                n for n in level
                if not (cfg.opt2 and cfg.opt3 and n.is_superkey and n.key_parents
                        and not n.candidates & n.mask)
            ]
            assert list(live.items()) == [(n.mask, n) for n in alive], (seed, stripped_flag)


def test_discovery_equals_oracle_on_random_instances():
    for seed in range(60):
        relation, ontology = random_instance(seed + 2000)
        kind = Synonym() if seed % 2 == 0 else Inheritance(seed % 3)
        got = as_pairs(discover(relation, ontology, DiscoveryConfig(kind=kind)))
        assert got == brute_discover(relation, ontology, kind), (seed, kind)


def test_all_flag_combinations_agree():
    for seed in range(12):
        relation, ontology = random_instance(seed + 3000)
        kind = Synonym() if seed % 2 == 0 else Inheritance(seed % 3)
        reference = None
        for opt2, opt3, opt4, stripped_flag in itertools.product((True, False), repeat=4):
            cfg = DiscoveryConfig(
                kind=kind, opt2=opt2, opt3=opt3, opt4=opt4, stripped=stripped_flag
            )
            got = {(o.lhs, o.rhs, o.support) for o in discover(relation, ontology, cfg).ofds}
            if reference is None:
                reference = got
            assert got == reference


@st.composite
def lattice_instances(draw):
    ontology = draw(ontologies())
    # SURFACE holds polysemous values and one the ontology does not know;
    # the k values are unknown too and make keys more frequent
    values = SURFACE + ["k0", "k1", "k2"]
    pools = draw(st.lists(
        st.lists(st.sampled_from(values), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=8,
    ))
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, pools)), max_size=10))
    relation = relation_from_rows([f"A{i}" for i in range(len(pools))], rows)
    kind = draw(st.sampled_from([Synonym()] + [Inheritance(theta) for theta in range(4)]))
    return relation, ontology, kind


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lattice_instances())
@example((relation_from_rows(["a", "b", "c"], []), Ontology([]), Synonym()))
@example((relation_from_rows(["a"], [("x",), ("y",), ("x",)]), Ontology([]), Inheritance(1)))
def test_discovery_equals_brute_force(instance):
    relation, ontology, kind = instance
    result = discover(relation, ontology, DiscoveryConfig(kind=kind))
    assert as_pairs(result) == brute_discover(relation, ontology, kind)
    assert result.keys_found == sorted(brute_minimal_keys(relation), key=lambda k: (len(k), k))


def test_seventy_columns_at_level_one():
    # attributes past bit 63 must not wrap or collide in the lattice's masks
    rng = random.Random(70)
    ontology = random_ontology(rng)
    pools = [rng.sample(VOCAB, rng.randint(1, 4)) for _ in range(70)]
    rows = [[rng.choice(pool) for pool in pools] for _ in range(12)]
    for row in rows:
        row[69] = row[3]
        row[66] = row[1] + "-" + row[2]
    relation = relation_from_rows([f"A{i}" for i in range(70)], rows)
    for kind in (Synonym(), Inheritance(1)):
        result = discover(relation, ontology, DiscoveryConfig(kind=kind, max_level=1))
        got = as_pairs(result)
        assert got == brute_discover(relation, ontology, kind, max_lhs=1)
        assert {(frozenset({3}), 69), (frozenset({69}), 3), (frozenset({66}), 1)} <= got
        assert [s.nodes for s in result.per_level] == [70 * 69 // 2]


def test_approximate_threshold_semantics():
    rng = random.Random(5)
    for seed in range(15):
        relation, ontology = random_instance(seed + 4000)
        tau = rng.choice([0.6, 0.8, 0.9])
        result = discover(relation, ontology, DiscoveryConfig(kind=Synonym(), tau=tau))
        emitted = as_pairs(result)
        assert all(o.support is not None and o.support >= tau for o in result.ofds)
        # a non-emitted candidate either misses the threshold or is pruned by
        # an emitted subset antecedent
        from ontofd.verify import support_synonym

        n_attrs = len(relation.schema)
        for a in range(n_attrs):
            for b in range(n_attrs):
                if a == b:
                    continue
                lhs = frozenset({a})
                if (lhs, b) in emitted:
                    continue
                part = strip(partition(relation, (a,)))
                sup = support_synonym(relation, ontology, part, b).support
                assert sup < tau


def test_tau_one_via_support_path_equals_exact():
    # just-below-one threshold accepts exactly the support-1.0 candidates
    for seed in range(20):
        relation, ontology = random_instance(seed + 5000)
        kind = Synonym() if seed % 2 == 0 else Inheritance(seed % 3)
        exact = as_pairs(discover(relation, ontology, DiscoveryConfig(kind=kind, tau=1.0)))
        approx = as_pairs(
            discover(relation, ontology, DiscoveryConfig(kind=kind, tau=1.0 - 1e-9))
        )
        assert exact == approx


def test_max_level_truncates_and_reproduces_prefix():
    relation, ontology = random_instance(7)
    full = discover(relation, ontology, DiscoveryConfig(kind=Synonym()))
    summary = [(s.level, s.candidates, s.ofds) for s in full.per_level]
    for cap in range(1, len(relation.schema)):
        capped = discover(relation, ontology, DiscoveryConfig(kind=Synonym(), max_level=cap))
        assert [(s.level, s.candidates, s.ofds) for s in capped.per_level] == summary[:cap]
        assert all(len(o.lhs) <= cap for o in capped.ofds)


def test_output_ordering_is_deterministic(clinical, clinical_ontology):
    result = discover(clinical, clinical_ontology, DiscoveryConfig(kind=Synonym()))
    keys = [(len(o.lhs), o.lhs, o.rhs) for o in result.ofds]
    assert keys == sorted(keys)
    again = discover(clinical, clinical_ontology, DiscoveryConfig(kind=Synonym()))
    assert result.ofds == again.ofds


def test_config_validation():
    with pytest.raises(ValueError):
        DiscoveryConfig(kind=Synonym(), tau=0.0)
    with pytest.raises(ValueError):
        DiscoveryConfig(kind=Synonym(), tau=1.5)
    with pytest.raises(ValueError):
        DiscoveryConfig(kind=Synonym(), max_level=0)
    with pytest.raises(ValueError):
        DiscoveryConfig(kind="synonym")


def test_empty_table_discovers_vacuous_level_one():
    relation = relation_from_rows(["a", "b"], [])
    result = discover(relation, Ontology([]), DiscoveryConfig(kind=Synonym()))
    assert as_pairs(result) == {(frozenset({0}), 1), (frozenset({1}), 0)}
    assert all(o.support == 1.0 for o in result.ofds)


def test_compute_ofds_mechanics(clinical, clinical_ontology):
    cfg = DiscoveryConfig(kind=Synonym())
    n_attrs = len(clinical.schema)
    singles = {
        1 << a: LatticeNode((a,), 1 << a, strip(partition(clinical, (a,))), mask_of(range(n_attrs)))
        for a in range(n_attrs)
    }
    level2 = calculate_next_level(singles, clinical, cfg)
    result = DiscoveryResult([], [], [])
    emitted, tested, key_resolved, live2 = compute_ofds(
        level2, singles, clinical, clinical_ontology, cfg, result
    )
    # the keys {id} and {MED} each decide their five candidates unverified
    assert (tested, key_resolved) == (30, 10)
    assert result.ofds == emitted
    pairs = {(o.lhs, o.rhs) for o in emitted}
    assert ((CC,), CTRY) in pairs and ((CTRY,), CC) in pairs
    node_cc_ctry = next(n for n in level2 if n.attrs == (CC, CTRY))
    # both consequents found valid at this node leave its candidate set
    assert not node_cc_ctry.candidates >> CTRY & 1
    assert not node_cc_ctry.candidates >> CC & 1
    # downstream: {CC, SYMP} -> CTRY is not minimal and never gets tested
    level3 = calculate_next_level(live2, clinical, cfg)
    found_before = len(result.ofds)
    emitted3 = compute_ofds(level3, live2, clinical, clinical_ontology, cfg, result)[0]
    node3 = next(n for n in level3 if n.attrs == (CC, CTRY, SYMP))
    assert not node3.candidates >> CTRY & 1
    assert result.ofds[found_before:] == emitted3 and emitted3
    assert not any(o.rhs == CTRY for o in emitted3 if CC in o.lhs)


def test_keys_found_are_brute_force_minimal_keys():
    # the wider shape makes dead superkey nodes common
    for seed, (max_attrs, max_rows) in itertools.product(range(40), ((6, 12), (8, 14))):
        relation, ontology = random_instance(seed + 6000, max_attrs=max_attrs, max_rows=max_rows)
        want = sorted(brute_minimal_keys(relation), key=lambda k: (len(k), k))
        for stripped_flag in (True, False):
            cfg = DiscoveryConfig(kind=Synonym(), stripped=stripped_flag)
            assert discover(relation, ontology, cfg).keys_found == want, seed
        cap = 1 + seed % 3
        capped = discover(relation, ontology, DiscoveryConfig(kind=Synonym(), max_level=cap))
        assert capped.keys_found == [k for k in want if len(k) <= cap + 1], seed


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6), st.integers(0, 4), st.data())
def test_approximate_discovery_at_thresholds_k_over_n(seed, theta_or_syn, data):
    # the lattice's early abort must agree with full supports exactly at
    # every reachable support value k / n
    relation, ontology = random_instance(seed, max_attrs=4, max_rows=10)
    kind = Synonym() if theta_or_syn == 4 else Inheritance(theta_or_syn)
    k = data.draw(st.integers(1, relation.n))
    tau = k / relation.n
    got = discover(relation, ontology, DiscoveryConfig(kind=kind, tau=tau))
    want = brute_discover_approx(relation, ontology, kind, tau)
    assert {(frozenset(o.lhs), o.rhs): o.support for o in got.ofds} == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6), st.integers(0, 4), st.booleans(), st.data())
def test_dead_node_pruning_keeps_the_output(seed, theta_or_syn, approximate, data):
    # at up to 8 attributes and 14 rows superkeys, and with them dead nodes,
    # occur from the second level on; without superkey shortcutting the
    # full lattice is built
    relation, ontology = random_instance(seed, max_attrs=8, max_rows=14)
    kind = Synonym() if theta_or_syn == 4 else Inheritance(theta_or_syn)
    tau = data.draw(st.integers(1, relation.n)) / relation.n if approximate else 1.0

    def run(**flags):
        result = discover(relation, ontology, DiscoveryConfig(kind=kind, tau=tau, **flags))
        return [(o.lhs, o.rhs, o.support) for o in result.ofds], result.keys_found

    assert run() == run(opt3=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6), st.integers(0, 4), st.booleans(), st.data())
def test_flag_combinations_give_identical_output(seed, theta_or_syn, approximate, data):
    # --no-strip sends singleton classes to the kernel and --no-opt4 sends
    # equal pairs through the sense check; neither may change the ordered
    # output, the supports or the keys at tau 1 or any k / n
    relation, ontology = random_instance(seed, max_attrs=5, max_rows=12)
    kind = Synonym() if theta_or_syn == 4 else Inheritance(theta_or_syn)
    tau = data.draw(st.integers(1, relation.n)) / relation.n if approximate else 1.0
    outputs = []
    for opt2, opt3, opt4, stripped_flag in itertools.product((True, False), repeat=4):
        cfg = DiscoveryConfig(
            kind=kind, tau=tau, opt2=opt2, opt3=opt3, opt4=opt4, stripped=stripped_flag
        )
        result = discover(relation, ontology, cfg)
        outputs.append(([(o.lhs, o.rhs, o.support) for o in result.ofds], result.keys_found))
    assert all(out == outputs[0] for out in outputs)


def test_dead_node_pruning_counts():
    relation = synth_relation(random.Random(1), 400, n_attrs=14, senses_per_column=8)
    ontology = synth_ontology(n_senses=14 * 8)
    pruned = discover(relation, ontology, DiscoveryConfig(kind=Synonym()))
    assert sum(s.nodes for s in pruned.per_level) < 2**14 // 2
    assert sum(s.pruned for s in pruned.per_level) > 0
    for flags in ({"opt2": False}, {"opt3": False}):
        full = discover(relation, ontology, DiscoveryConfig(kind=Synonym(), **flags))
        assert sum(s.nodes for s in full.per_level) == 2**14 - 14 - 1
        assert all(s.pruned == 0 for s in full.per_level)
        assert full.ofds == pruned.ofds and full.keys_found == pruned.keys_found
