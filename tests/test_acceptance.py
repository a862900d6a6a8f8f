"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
from __future__ import annotations

import itertools
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

from ontofd.cli import inject_errors, main
from ontofd.inference import closure, minimal_cover, ofd_set
from ontofd.lattice import DiscoveryConfig, discover
from ontofd.ontology import Ontology
from ontofd.relation import Relation, attr_set, partition, relation_from_rows, strip
from ontofd.repair import report_violations
from ontofd.verify import (
    Inheritance,
    Ofd,
    Synonym,
    support_inheritance,
    support_synonym,
    verify_inheritance,
    verify_synonym,
)

from conftest import CC, CTRY, DATA, DIAG, MED, SYMP
from gen import (
    fd_instance,
    planted_instance,
    random_instance,
    synth_ontology,
    synth_relation,
)
from oracle import brute_discover, exhaustive_support, saturation_closure

SEEDS = range(100)


def instance_kind(seed: int):
    return Synonym() if seed % 2 == 0 else Inheritance(seed % 3)


def stripped(relation, attrs):
    return strip(partition(relation, attr_set(attrs)))


def test_criterion_1a_worked_clinical_examples(clinical, clinical_ontology):
    start = time.perf_counter()
    assert verify_synonym(clinical, clinical_ontology, stripped(clinical, [CC]), CTRY).holds
    part = stripped(clinical, [SYMP, DIAG])
    assert verify_inheritance(clinical, clinical_ontology, part, MED, 2).holds
    assert not verify_inheritance(clinical, clinical_ontology, part, MED, 1).holds
    assert time.perf_counter() - start < 1.0
    print("ACCEPTANCE 1a: PASS (clinical verify examples)")


def test_criterion_1b_pairwise_overlap_fails(pairwise_overlap):
    start = time.perf_counter()
    relation, ontology = pairwise_overlap
    assert not verify_synonym(relation, ontology, stripped(relation, [0]), 1).holds
    assert time.perf_counter() - start < 1.0
    print("ACCEPTANCE 1b: PASS (joint intersection, not pairwise)")


def test_criterion_1c_non_transitivity(non_transitive):
    start = time.perf_counter()
    relation, ontology = non_transitive
    _, ctry, cc, symp = range(4)
    assert verify_synonym(relation, ontology, stripped(relation, [ctry]), cc).holds
    assert verify_synonym(relation, ontology, stripped(relation, [cc]), symp).holds
    assert not verify_synonym(relation, ontology, stripped(relation, [ctry]), symp).holds
    assert time.perf_counter() - start < 1.0
    print("ACCEPTANCE 1c: PASS (non-transitivity fixture)")


def test_criterion_1d_closure_example():
    start = time.perf_counter()
    m = ofd_set(Synonym(), [((CC,), (CTRY,)), ((CC, DIAG), (MED,))])
    assert closure(m, (CC, DIAG)).attrs == {CC, CTRY, DIAG, MED}
    assert time.perf_counter() - start < 1.0
    print("ACCEPTANCE 1d: PASS (closure example)")


def test_criterion_1e_minimal_cover_example():
    start = time.perf_counter()
    m = ofd_set(Synonym(), [
        ((CC,), (CTRY,)),
        ((CC, DIAG), (MED,)),
        ((CC, DIAG), (MED, CTRY)),
    ])
    assert set(minimal_cover(m).deps) == {
        ((CC,), frozenset({CTRY})),
        ((CC, DIAG), frozenset({MED})),
    }
    assert time.perf_counter() - start < 1.0
    print("ACCEPTANCE 1e: PASS (minimal cover example)")


def test_criterion_2_discovery_equals_oracle():
    start = time.perf_counter()
    mismatches = 0
    for seed in SEEDS:
        relation, ontology = random_instance(seed)
        kind = instance_kind(seed)
        engine = {
            (frozenset(o.lhs), o.rhs)
            for o in discover(relation, ontology, DiscoveryConfig(kind=kind)).ofds
        }
        if engine != brute_discover(relation, ontology, kind):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed <= 60.0
    print(f"ACCEPTANCE 2: PASS (100 instances, 0 mismatches, {elapsed:.1f}s)")


def test_criterion_3_optimization_soundness():
    start = time.perf_counter()
    for seed in SEEDS:
        relation, ontology = random_instance(seed)
        kind = instance_kind(seed)
        reference = None
        for opt2, opt3, opt4, stripped_flag in itertools.product((True, False), repeat=4):
            cfg = DiscoveryConfig(
                kind=kind, opt2=opt2, opt3=opt3, opt4=opt4, stripped=stripped_flag
            )
            got = {
                (o.lhs, o.rhs, o.support)
                for o in discover(relation, ontology, cfg).ofds
            }
            if reference is None:
                reference = got
            assert got == reference, (seed, opt2, opt3, opt4, stripped_flag)
    print(f"ACCEPTANCE 3: PASS (16 flag combinations identical, "
          f"{time.perf_counter() - start:.1f}s)")


def test_criterion_4_theta_zero_degeneracy():
    for seed in SEEDS:
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
                    assert syn.holds == inh.holds
                    assert syn.support == inh.support
                    assert (
                        support_synonym(relation, ontology, part, rhs).support
                        == support_inheritance(relation, ontology, part, rhs, 0).support
                    )
    print("ACCEPTANCE 4: PASS (theta=0 equals synonym everywhere)")


def test_criterion_5_fd_subsumption():
    failures = 0
    for seed in range(50):
        relation, lhs, rhs = fd_instance(seed)
        out = verify_synonym(relation, Ontology([]), stripped(relation, lhs), rhs)
        if not out.holds:
            failures += 1
    assert failures == 0
    print("ACCEPTANCE 5: PASS (50 traditional FDs accepted, 0 failures)")


def test_criterion_6_approximate_support_correctness():
    for seed in range(10):
        relation, ontology = random_instance(seed + 100, max_rows=10)
        n_attrs = len(relation.schema)
        kind = instance_kind(seed)
        for size in range(1, n_attrs):
            for lhs in combinations(range(n_attrs), size):
                for rhs in range(n_attrs):
                    if rhs in lhs:
                        continue
                    part = stripped(relation, lhs)
                    if isinstance(kind, Synonym):
                        got = support_synonym(relation, ontology, part, rhs).support
                    else:
                        got = support_inheritance(
                            relation, ontology, part, rhs, kind.theta
                        ).support
                    want = exhaustive_support(relation, ontology, lhs, rhs, kind)
                    assert got == pytest.approx(want)
    # threshold 1.0 through the approximate path accepts exactly the
    # support-1.0 candidates and must reproduce exact discovery
    for seed in SEEDS:
        relation, ontology = random_instance(seed)
        kind = instance_kind(seed)
        exact = {
            (o.lhs, o.rhs)
            for o in discover(relation, ontology, DiscoveryConfig(kind=kind, tau=1.0)).ofds
        }
        approx = {
            (o.lhs, o.rhs)
            for o in discover(
                relation, ontology, DiscoveryConfig(kind=kind, tau=1.0 - 1e-9)
            ).ofds
        }
        assert exact == approx
    print("ACCEPTANCE 6: PASS (support oracle equality; tau=1.0 degeneracy)")


def test_criterion_7_closure_correctness_and_linearity():
    rng = random.Random(71)
    for _ in range(200):
        n_attrs = rng.randint(2, 6)
        deps = []
        for _ in range(rng.randint(0, 8)):
            lhs = tuple(rng.sample(range(n_attrs), rng.randint(1, min(3, n_attrs))))
            rhs = tuple(rng.sample(range(n_attrs), rng.randint(1, 2)))
            deps.append((lhs, rhs))
        m = ofd_set(Synonym(), deps)
        x = tuple(sorted(rng.sample(range(n_attrs), rng.randint(1, n_attrs))))
        assert closure(m, x).attrs == saturation_closure(deps, x, n_attrs)

    def make(count):
        return ofd_set(
            Synonym(),
            [(tuple(rng.sample(range(20), 3)), (rng.randrange(20),)) for _ in range(count)],
        )

    def elapsed(m):
        start = time.perf_counter()
        closure(m, tuple(range(10)))
        return time.perf_counter() - start

    sets = {count: make(count) for count in (3000, 6000)}
    for _ in range(5):  # warmup
        elapsed(sets[3000])
    # Best of five per size, with the sizes alternating as in criterion 8,
    # so that a slow phase of the host slows both.
    best = dict.fromkeys(sets, float("inf"))
    for _ in range(5):
        for count, m in sets.items():
            best[count] = min(best[count], elapsed(m))
    t_small, t_large = best[3000], best[6000]
    assert t_large <= 3 * t_small
    print(f"ACCEPTANCE 7: PASS (closure oracle; 2x deps -> {t_large / t_small:.2f}x time)")


def test_criterion_8_scaling_trend():
    start = time.perf_counter()
    ontology = synth_ontology()
    warmup = synth_relation(random.Random(1), 5000)
    discover(warmup, ontology, DiscoveryConfig(kind=Synonym()))
    tables = {n_rows: synth_relation(random.Random(42), n_rows) for n_rows in (50_000, 100_000)}
    # ``rows`` is decoded on every read, so each table is decoded once here.
    rows = {n_rows: table.rows for n_rows, table in tables.items()}
    times = dict.fromkeys(tables, float("inf"))
    # Best of five per size, as in criterion 7, with the sizes alternating
    # so that a slow phase of the host slows both; each sample gets a fresh
    # Relation, which encodes its columns again.
    for _ in range(5):
        for n_rows, table in tables.items():
            relation = Relation(table.schema, rows[n_rows])
            t0 = time.perf_counter()
            discover(relation, ontology, DiscoveryConfig(kind=Synonym()))
            times[n_rows] = min(times[n_rows], time.perf_counter() - t0)
    ratio = times[100_000] / times[50_000]
    total = time.perf_counter() - start
    assert ratio <= 2.5
    assert total <= 300.0
    print(f"ACCEPTANCE 8: PASS (100k/50k time ratio {ratio:.2f}, total {total:.0f}s)")


def test_criterion_9_error_injection_recall():
    recovered = total = 0
    for seed in range(10):
        relation, ontology, planted = planted_instance(seed)
        rhs_columns = [rhs for _, rhs in planted]
        dirty, _ = inject_errors(relation, 0.02, seed, columns=rhs_columns, ontology=ontology)
        result = discover(dirty, ontology, DiscoveryConfig(kind=Synonym(), tau=0.95))
        found = {(frozenset(o.lhs), o.rhs) for o in result.ofds}
        for lhs, rhs in planted:
            total += 1
            if any(f_lhs <= frozenset(lhs) and f_rhs == rhs for f_lhs, f_rhs in found):
                recovered += 1
    recall = recovered / total
    assert recall >= 0.7
    print(f"ACCEPTANCE 9: PASS (recall {recall:.2f} over 10 seeds)")


def test_criterion_10_cleaning_statistic(clinical_ontology):
    # two 4-tuple classes; in each, three values are synonyms of the first
    relation = relation_from_rows(
        ["CC", "CTRY"],
        [("US", "United States"), ("US", "America"), ("US", "USA"), ("US", "America"),
         ("IN", "India"), ("IN", "Bharat"), ("IN", "Bharat"), ("IN", "Bharat")],
    )
    report = report_violations(relation, clinical_ontology, [Ofd((0,), 1, Synonym())])
    savings = report.entries[0].false_positive_savings
    assert savings == pytest.approx(0.75, abs=0.01)
    print(f"ACCEPTANCE 10: PASS (false-positive savings {savings:.2f})")


def test_criterion_11_determinism(tmp_path):
    args = [
        "--input", str(DATA / "clinical.csv"),
        "--ontology", str(DATA / "clinical_ontology.json"),
        "--mode", "both", "--theta", "2", "--tau", "0.8",
        "--report-violations", "--inject-errors", "0.05", "--seed", "13",
    ]
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        assert main([*args, "--output", str(out)]) == 0
        outputs.append(out)
    first, second = outputs
    assert first.read_bytes() == second.read_bytes()
    assert (
        Path(str(first) + ".violations.json").read_bytes()
        == Path(str(second) + ".violations.json").read_bytes()
    )
    print("ACCEPTANCE 11: PASS (byte-identical outputs and reports)")
