"""Closure, implication, and minimal covers."""
from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from ontofd.inference import (
    OfdSet,
    closure,
    implies,
    minimal_cover,
    ofd_set,
    ofd_set_from_records,
)
from ontofd.lattice import DiscoveryConfig, discover
from ontofd.verify import Inheritance, Synonym

from conftest import CC, CTRY, DIAG, MED
from gen import random_instance
from oracle import saturation_closure


def random_ofd_set(rng: random.Random, n_attrs: int, max_deps: int = 8):
    deps = []
    for _ in range(rng.randint(0, max_deps)):
        lhs = rng.sample(range(n_attrs), rng.randint(1, min(3, n_attrs)))
        rhs = rng.sample(range(n_attrs), rng.randint(1, 2))
        deps.append((tuple(lhs), tuple(rhs)))
    return ofd_set(Synonym(), deps), deps


def test_closure_clinical_example():
    m = ofd_set(Synonym(), [((CC,), (CTRY,)), ((CC, DIAG), (MED,))])
    result = closure(m, (CC, DIAG))
    assert result.attrs == {CC, CTRY, DIAG, MED}
    assert result.used_deps == (0, 1)


def test_closure_without_deps_is_identity():
    m = ofd_set(Synonym(), [])
    assert closure(m, (1, 3)).attrs == {1, 3}


def test_closure_is_not_transitive():
    m = ofd_set(Synonym(), [((0,), (1,)), ((1,), (2,))])
    assert closure(m, (0,)).attrs == {0, 1}


def test_implies():
    m = ofd_set(Synonym(), [((CC,), (CTRY,)), ((CC, DIAG), (MED,))])
    assert implies(m, (CC, DIAG), CTRY)
    assert implies(m, (CC, DIAG), {CTRY, MED})
    assert implies(m, (5, 9), {5, 9})  # identity
    assert not implies(ofd_set(Synonym(), [((0,), (1,))]), (2,), 1)


def test_minimal_cover_clinical_example():
    m = ofd_set(Synonym(), [
        ((CC,), (CTRY,)),
        ((CC, DIAG), (MED,)),
        ((CC, DIAG), (MED, CTRY)),
    ])
    cover = minimal_cover(m)
    assert set(cover.deps) == {
        ((CC,), frozenset({CTRY})),
        ((CC, DIAG), frozenset({MED})),
    }


def test_minimal_cover_idempotent_and_dedupes():
    m = ofd_set(Synonym(), [((0,), (1,)), ((0,), (1,))])
    cover = minimal_cover(m)
    assert cover.deps == (((0,), frozenset({1})),)
    assert minimal_cover(cover).deps == cover.deps


def test_closure_matches_saturation_oracle():
    rng = random.Random(31)
    for _ in range(200):
        n_attrs = rng.randint(2, 6)
        m, deps = random_ofd_set(rng, n_attrs)
        x = tuple(sorted(rng.sample(range(n_attrs), rng.randint(1, n_attrs))))
        assert closure(m, x).attrs == saturation_closure(deps, x, n_attrs)


def test_closure_monotone():
    rng = random.Random(32)
    for _ in range(50):
        n_attrs = rng.randint(2, 6)
        m, _ = random_ofd_set(rng, n_attrs)
        x = set(rng.sample(range(n_attrs), rng.randint(1, n_attrs)))
        y = x | set(rng.sample(range(n_attrs), rng.randint(0, n_attrs)))
        assert closure(m, tuple(x)).attrs <= closure(m, tuple(sorted(y))).attrs


def test_minimal_cover_conditions_hold():
    rng = random.Random(33)
    for _ in range(60):
        n_attrs = rng.randint(2, 6)
        m, _ = random_ofd_set(rng, n_attrs, max_deps=6)
        cover = minimal_cover(m)
        # 1: single-attribute consequents
        assert all(len(rhs) == 1 for _, rhs in cover.deps)
        # equivalence with the input on every attribute set
        for k in range(n_attrs + 1):
            for x in combinations(range(n_attrs), k):
                assert closure(m, x).attrs == closure(cover, x).attrs
        # 2: no antecedent attribute can be dropped
        for lhs, rhs in cover.deps:
            a = next(iter(rhs))
            for b in lhs:
                trimmed = tuple(v for v in lhs if v != b)
                assert a not in closure(cover, trimmed).attrs
        # 3: no dependency can be dropped
        for i, (lhs, rhs) in enumerate(cover.deps):
            rest = ofd_set(
                cover.kind,
                [(l, tuple(r)) for j, (l, r) in enumerate(cover.deps) if j != i],
            )
            assert not next(iter(rhs)) in closure(rest, lhs).attrs


def test_minimal_cover_preserves_implication():
    rng = random.Random(34)
    for _ in range(10):
        n_attrs = rng.randint(3, 6)
        m, _ = random_ofd_set(rng, n_attrs)
        cover = minimal_cover(m)
        for _ in range(50):
            lhs = tuple(sorted(rng.sample(range(n_attrs), rng.randint(1, n_attrs))))
            rhs = rng.randrange(n_attrs)
            assert implies(m, lhs, rhs) == implies(cover, lhs, rhs)


def test_discovery_output_is_a_minimal_cover_fixed_point(clinical, clinical_ontology):
    for kind in (Synonym(), Inheritance(2)):
        result = discover(clinical, clinical_ontology, DiscoveryConfig(kind=kind))
        m = ofd_set(kind, [(o.lhs, (o.rhs,)) for o in result.ofds])
        assert set(minimal_cover(m).deps) == set(m.deps)
    for seed in range(10):
        relation, ontology = random_instance(seed + 6000)
        result = discover(relation, ontology, DiscoveryConfig(kind=Synonym()))
        m = ofd_set(Synonym(), [(o.lhs, (o.rhs,)) for o in result.ofds])
        assert set(minimal_cover(m).deps) == set(m.deps)


def test_closure_scales_roughly_linearly():
    # Smoke check: doubling the dependency count must not blow up the cost.
    rng = random.Random(35)

    def make(count):
        return ofd_set(
            Synonym(),
            [(tuple(rng.sample(range(20), 3)), (rng.randrange(20),)) for _ in range(count)],
        )

    x = tuple(range(10))

    def elapsed(m):
        start = time.perf_counter()
        closure(m, x)
        return time.perf_counter() - start

    small, large = make(3000), make(6000)
    for _ in range(5):  # warmup
        elapsed(small)
    # Best of five per size, with the sizes alternating so that a slow phase
    # of the host slows both.
    best_small = best_large = float("inf")
    for _ in range(5):
        best_small = min(best_small, elapsed(small))
        best_large = min(best_large, elapsed(large))
    assert best_large <= 3 * best_small


def test_records_round_trip_rejects_mixed_kinds():
    schema = ["a", "b", "c"]
    records = [
        {"lhs": ["a"], "rhs": "b", "kind": "synonym", "support": 1.0},
        {"lhs": ["b"], "rhs": "c", "kind": "inheritance", "theta": 1, "support": 1.0},
    ]
    with pytest.raises(ValueError, match="mixed"):
        ofd_set_from_records(records, schema)
    single = ofd_set_from_records(records[:1], schema)
    assert single.deps == (((0,), frozenset({1})),)
    with pytest.raises(ValueError, match="unknown attribute"):
        ofd_set_from_records([{"lhs": ["zz"], "rhs": "b", "kind": "synonym"}], schema)


def test_records_parse_with_a_given_kind():
    schema = ["a", "b"]
    # an empty list carries no kind, so it takes the one given or none
    assert ofd_set_from_records([], schema, kind=Inheritance(2)) == OfdSet(Inheritance(2), ())
    with pytest.raises(ValueError, match="kind"):
        ofd_set_from_records([], schema)
    records = [{"lhs": ["a"], "rhs": "b", "kind": "inheritance", "theta": 1, "support": 1.0}]
    assert ofd_set_from_records(records, schema, kind=Inheritance(1)).kind == Inheritance(1)
    for other in (Synonym(), Inheritance(2)):
        with pytest.raises(ValueError, match="kind"):
            ofd_set_from_records(records, schema, kind=other)


def test_empty_rhs_rejected():
    with pytest.raises(ValueError):
        ofd_set(Synonym(), [((0,), ())])
