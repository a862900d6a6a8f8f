"""Command-line runs, artifacts, violation reports, and error injection."""
from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ontofd
from ontofd.cli import (
    RunConfig,
    CliConfigError,
    build_parser,
    inject_errors,
    main,
    ofds_to_records,
    violation_record,
)
from ontofd.inference import ofd_set, ofd_set_from_records
from ontofd.lattice import DiscoveryConfig, LevelStats, discover
from ontofd.ontology import Ontology, OntologyClass, load_ontology
from ontofd.relation import Relation, load_relation, relation_from_rows
from ontofd.repair import (
    ClassViolation,
    OfdViolationEntry,
    ViolationReport,
    report_violations,
)
from ontofd.verify import Inheritance, Ofd, Synonym

from conftest import DATA
from gen import random_instance
from oracle import reference_inject_errors, violation_report_to_records

CLINICAL = str(DATA / "clinical.csv")
ONTOLOGY = str(DATA / "clinical_ontology.json")


def run_cli(tmp_path, *extra, out_name="out.json"):
    out = tmp_path / out_name
    code = main([
        "--input", CLINICAL, "--ontology", ONTOLOGY, "--output", str(out), *extra,
    ])
    return code, out


def test_synonym_run_emits_expected_record(tmp_path):
    code, out = run_cli(tmp_path, "--mode", "syn")
    assert code == 0
    records = json.loads(out.read_text())
    assert {"lhs": ["CC"], "rhs": "CTRY", "kind": "synonym", "support": 1.0} in records
    keys = [(len(r["lhs"]), r["lhs"], r["rhs"]) for r in records]
    assert keys == sorted(keys)


def test_inheritance_run_carries_theta(tmp_path):
    code, out = run_cli(tmp_path, "--mode", "inh", "--theta", "2")
    assert code == 0
    records = json.loads(out.read_text())
    assert {"lhs": ["SYMP"], "rhs": "MED", "kind": "inheritance",
            "theta": 2, "support": 1.0} in records
    assert all(r["kind"] == "inheritance" and r["theta"] == 2 for r in records)


def test_both_mode_runs_two_passes(tmp_path):
    code, out = run_cli(tmp_path, "--mode", "both", "--theta", "2")
    records = json.loads(out.read_text())
    kinds = {r["kind"] for r in records}
    assert code == 0 and kinds == {"synonym", "inheritance"}


def test_engine_never_reads_rows(tmp_path, monkeypatch):
    # The library works on the encoded columns alone; ``rows`` is a view
    # for callers outside it.
    def refuse(relation):
        raise AssertionError("Relation.rows was read")

    monkeypatch.setattr(Relation, "rows", property(refuse))
    code, out = run_cli(
        tmp_path, "--mode", "both", "--theta", "2", "--tau", "0.95", "--inject-errors", "0.05",
        "--report-violations", "--stats", str(tmp_path / "stats.json"),
    )
    log = json.loads(Path(f"{out}.inject-log.json").read_text())
    assert code == 0 and log and Path(f"{out}.violations.json").is_file()


def test_missing_ontology_exits_2_without_output(tmp_path):
    out = tmp_path / "never.json"
    code = main([
        "--input", CLINICAL, "--ontology", str(tmp_path / "missing.json"),
        "--output", str(out),
    ])
    assert code == 2 and not out.exists()


def test_config_errors_exit_1(tmp_path, capsys):
    assert main(["--input", "x", "--ontology", "y", "--mode", "inh"]) == 1
    assert main(["--input", "x", "--ontology", "y", "--tau", "0"]) == 1
    assert main(["--no-such-flag"]) == 1
    with pytest.raises(CliConfigError):
        RunConfig(input_path="x", ontology_path="y", mode="inh")
    capsys.readouterr()
    # the inputs do not exist: a level below 1 is rejected before any load
    for level in ("0", "-1"):
        code = main(["--input", "x", "--ontology", "y", "--max-level", level])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "--max-level" in err
    with pytest.raises(CliConfigError):
        RunConfig(input_path="x", ontology_path="y", max_level=0)


def test_report_without_output_is_a_config_error(capsys):
    # the report goes to <output>.violations.json; on stdout it would follow
    # the output records as a second JSON document. The inputs do not
    # exist, so the flags are rejected before any load.
    code = main(["--input", "x", "--ontology", "y", "--report-violations"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--output" in captured.err
    with pytest.raises(CliConfigError, match="--output"):
        RunConfig(input_path="x", ontology_path="y", report_violations=True)


def test_inject_errors_without_output_is_a_config_error(capsys):
    # the injection log goes to <output>.inject-log.json; without --output
    # the changed cells would be lost while the run exits 0. The inputs do
    # not exist, so the flags are rejected before any load.
    code = main(["--input", "x", "--ontology", "y", "--inject-errors", "0.1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--output" in captured.err and "--inject-errors" in captured.err
    with pytest.raises(CliConfigError, match="--output"):
        RunConfig(input_path="x", ontology_path="y", inject_rate=0.1)


def test_colliding_written_files_are_a_config_error(tmp_path, capsys):
    # a later write would replace an earlier one (the stats rows in place of
    # the dependencies) or an input file, while the run exits 0
    csv = tmp_path / "in.csv"
    onto = tmp_path / "onto.json"
    csv.write_bytes(Path(CLINICAL).read_bytes())
    onto.write_bytes(Path(ONTOLOGY).read_bytes())
    out = tmp_path / "out.json"
    (tmp_path / "sub").mkdir()
    collisions = [
        ["--output", out, "--stats", out],
        ["--output", out, "--stats", tmp_path / "sub" / ".." / "out.json"],
        ["--output", out, "--report-violations", "--stats", f"{out}.violations.json"],
        ["--output", out, "--inject-errors", "0.1", "--stats", f"{out}.inject-log.json"],
        ["--output", f"{out}.violations", "--report-violations", "--inject-errors", "0.1",
         "--stats", f"{out}.violations.inject-log.json"],
        ["--output", csv],
        ["--output", onto],
        ["--stats", csv],
        ["--output", tmp_path / "in", "--inject-errors", "0.1", "--report-violations",
         "--stats", tmp_path / "in.csv"],
    ]
    before = csv.read_bytes(), onto.read_bytes()
    for extra in collisions:
        argv = ["--input", str(csv), "--ontology", str(onto), *map(str, extra)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", extra
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, extra
        assert (csv.read_bytes(), onto.read_bytes()) == before, extra
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "onto.json", "sub"]
        with pytest.raises(CliConfigError):
            RunConfig(**vars(build_parser().parse_args(argv)))
    # names that only look alike are distinct files
    stats = tmp_path / "out.json.violations.json"
    assert main([
        "--input", str(csv), "--ontology", str(onto), "--output", str(out), "--stats", str(stats),
    ]) == 0
    assert isinstance(json.loads(out.read_text()), list) and stats.exists()


NO_FLAGS = {"--no-opt2": "opt2", "--no-opt3": "opt3", "--no-opt4": "opt4", "--no-strip": "stripped"}


def parsed_config(*argv):
    args = build_parser().parse_args(["--input", "x", "--ontology", "y", *argv])
    return RunConfig(**vars(args))


def test_flags_map_onto_run_config_fields():
    # every flag names its RunConfig field, and only RunConfig holds defaults
    every_flag = [
        "--input", "x", "--ontology", "y", "--mode", "both", "--theta", "2", "--tau", "0.5",
        "--max-level", "3", "--output", "o", "--format", "text", "--stats", "s", *NO_FLAGS,
        "--report-violations", "--inject-errors", "0.1", "--seed", "4",
    ]
    assert set(vars(build_parser().parse_args(every_flag))) == set(RunConfig._fields)
    assert parsed_config(*every_flag[4:]) == RunConfig(
        input_path="x", ontology_path="y", mode="both", theta=2, tau=0.5, max_level=3,
        output_path="o", report_format="text", stats_path="s", opt2=False, opt3=False,
        opt4=False, stripped=False, report_violations=True, inject_rate=0.1, seed=4,
    )
    assert parsed_config() == RunConfig("x", "y")
    for flag, field in NO_FLAGS.items():
        assert parsed_config(flag) == RunConfig("x", "y")._replace(**{field: False}), flag


def test_text_format(tmp_path):
    code, out = run_cli(tmp_path, "--mode", "syn", "--format", "text")
    assert code == 0
    assert "[CC] -> CTRY (synonym, support=1)" in out.read_text()


def test_stats_artifact(tmp_path):
    stats = tmp_path / "stats.json"
    code, _ = run_cli(tmp_path, "--mode", "syn", "--stats", str(stats))
    assert code == 0
    rows = json.loads(stats.read_text())
    fields = {"kind", "level", "nodes", "pruned", "candidates", "key_resolved", "ofds",
              "seconds", "product_seconds", "report_seconds"}
    assert rows and all(set(row) == fields for row in rows)
    # the report is built while discovery runs, and timed per level
    assert all(row["report_seconds"] == 0.0 for row in rows)
    # {id} and {MED} are keys, so the superkey shortcut decides candidates
    assert all(0 <= row["key_resolved"] <= row["candidates"] for row in rows)
    assert sum(row["key_resolved"] for row in rows) > 0
    # building a level's nodes is timed apart from testing its candidates
    assert all(row["product_seconds"] >= 0 and row["seconds"] >= 0 for row in rows)
    assert sum(row["product_seconds"] for row in rows) > 0
    assert [row["level"] for row in rows] == sorted(row["level"] for row in rows)
    # the clinical sample has 6 columns: 15 pairs, and the keys {id} and
    # {MED} make some superkey nodes dead from level 1 on
    assert rows[0]["nodes"] == 15
    assert all(0 <= row["pruned"] <= row["nodes"] for row in rows)
    assert sum(row["pruned"] for row in rows) > 0
    code, _ = run_cli(tmp_path, "--mode", "syn", "--no-opt3", "--stats", str(stats))
    full = json.loads(stats.read_text())
    assert [row["nodes"] for row in full] == [15, 20, 15, 6, 1]
    assert all(row["pruned"] == 0 and row["key_resolved"] == 0 for row in full)
    code, _ = run_cli(tmp_path, "--mode", "syn", "--report-violations", "--stats", str(stats))
    reported = json.loads(stats.read_text())
    assert code == 0 and all(set(row) == fields for row in reported)
    assert all(row["report_seconds"] >= 0 for row in reported)
    assert sum(row["report_seconds"] for row in reported) > 0


def test_stats_rows_are_the_level_stats(tmp_path):
    stats = tmp_path / "stats.json"
    code, _ = run_cli(tmp_path, "--mode", "both", "--theta", "2", "--stats", str(stats))
    rows = json.loads(stats.read_text())
    names = list(LevelStats._fields)
    assert names == ["level", "nodes", "pruned", "candidates", "key_resolved", "ofds",
                     "seconds", "product_seconds", "report_seconds"]
    assert code == 0 and rows and all(list(row) == ["kind", *names] for row in rows)
    # the counts are discovery's own, level by level; timings vary per run
    counts = names[:6]
    relation, ontology = load_relation(CLINICAL), load_ontology(ONTOLOGY)
    want = [
        {"kind": label, **{name: getattr(level, name) for name in counts}}
        for label, kind in (("synonym", Synonym()), ("inheritance", Inheritance(2)))
        for level in discover(relation, ontology, DiscoveryConfig(kind)).per_level
    ]
    assert [{key: row[key] for key in ["kind", *counts]} for row in rows] == want


def test_report_bytes_equal_under_every_ablation_flag(tmp_path):
    args = ["--mode", "both", "--theta", "2", "--tau", "0.8", "--report-violations"]
    reports = []
    for i, flags in enumerate([[], ["--no-opt2"], ["--no-opt3"], ["--no-opt4"], ["--no-strip"]]):
        code, out = run_cli(tmp_path, *args, *flags, out_name=f"{i}.json")
        assert code == 0
        reports.append(Path(f"{out}.violations.json").read_bytes())
    assert all(report == reports[0] for report in reports)
    # and they are the public report over the discovered set, in its order
    relation, ontology = load_relation(CLINICAL), load_ontology(ONTOLOGY)
    ofds = [
        ofd for kind in (Synonym(), Inheritance(2))
        for ofd in discover(relation, ontology, DiscoveryConfig(kind, 0.8)).ofds
    ]
    records = violation_report_to_records(
        report_violations(relation, ontology, ofds), relation.schema
    )
    assert len(records) > 1 and any(record["violations"] for record in records)
    assert reports[0] == (json.dumps(records, indent=2) + "\n").encode()


def test_report_of_a_run_that_discovers_nothing_is_an_empty_list(tmp_path):
    table, ontology = tmp_path / "t.csv", tmp_path / "o.json"
    table.write_text("a,b\n1,2\n1,3\n2,2\n")
    ontology.write_text('{"classes": []}')
    out = tmp_path / "out.json"
    code = main([
        "--input", str(table), "--ontology", str(ontology), "--output", str(out),
        "--report-violations",
    ])
    assert code == 0 and out.read_text() == "[]\n"
    assert Path(f"{out}.violations.json").read_bytes() == b"[]\n"


def test_report_of_exact_dependencies_lists_no_violations(tmp_path):
    code, out = run_cli(tmp_path, "--mode", "syn", "--report-violations")
    relation, ontology = load_relation(CLINICAL), load_ontology(ONTOLOGY)
    ofds = discover(relation, ontology, DiscoveryConfig(Synonym())).ofds
    records = violation_report_to_records(
        report_violations(relation, ontology, ofds), relation.schema
    )
    assert code == 0 and len(records) > 1
    assert all(record["violations"] == [] for record in records)
    assert Path(f"{out}.violations.json").read_text() == json.dumps(records, indent=2) + "\n"


def test_unwritable_violations_file_exits_2_with_one_line(tmp_path, capsys):
    # the file is opened before discovery, so the run stops there and
    # writes no output
    target = tmp_path / "out.json.violations.json"
    target.mkdir()
    code, _ = run_cli(tmp_path, "--mode", "syn", "--report-violations")
    err = capsys.readouterr().err
    assert code == 2 and list(tmp_path.iterdir()) == [target]
    assert err.startswith("error: ") and err.count("\n") == 1


def test_violations_file_is_open_before_the_second_kind_is_discovered(tmp_path, monkeypatch):
    # each record is written as discovery finds it, so the file exists
    # before any kind is discovered rather than after the last one
    import ontofd.cli

    real = ontofd.cli.discover
    violations = tmp_path / "out.json.violations.json"
    exists_at_start = []

    def recording(*args, **kwargs):
        exists_at_start.append(violations.exists())
        return real(*args, **kwargs)

    monkeypatch.setattr(ontofd.cli, "discover", recording)
    code, _ = run_cli(tmp_path, "--mode", "both", "--theta", "2", "--report-violations")
    assert code == 0 and exists_at_start == [True, True]


def test_report_makes_no_partition_of_its_own(tmp_path, monkeypatch):
    # the report reuses discovery's antecedent partitions, so it splits no
    # class that discovery did not
    import ontofd.lattice
    import ontofd.relation

    calls = Counter()
    real = ontofd.relation.refine

    def counted(*args):
        calls["split"] += 1
        return real(*args)

    # the lattice imports ``refine`` by name, so both bindings are counted
    monkeypatch.setattr(ontofd.lattice, "refine", counted)
    monkeypatch.setattr(ontofd.relation, "refine", counted)
    args = ["--mode", "both", "--theta", "2", "--tau", "0.8", "--inject-errors", "0.1"]
    splits = []
    for extra in ([], ["--report-violations"]):
        calls.clear()
        assert run_cli(tmp_path, *args, *extra)[0] == 0
        splits.append(calls["split"])
    assert splits[0] == splits[1] > 0


def test_round_trip_into_inference(tmp_path):
    code, out = run_cli(tmp_path, "--mode", "syn")
    records = json.loads(out.read_text())
    relation = load_relation(CLINICAL)
    parsed = ofd_set_from_records(records, relation.schema)
    assert len(parsed.deps) == len(records)
    back = {
        (tuple(record["lhs"]), record["rhs"]) for record in records
    }
    names = relation.schema
    again = {
        (tuple(names[a] for a in lhs), names[next(iter(rhs))]) for lhs, rhs in parsed.deps
    }
    assert back == again


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6), st.integers(0, 4), st.booleans(), st.data())
def test_records_parse_back_into_the_discovered_set(seed, theta_or_syn, approximate, data):
    relation, ontology = random_instance(seed, max_attrs=5, max_rows=12)
    # names whose sorted order differs from the column order, so the
    # records' name-sorted order differs from the discovered order
    schema = data.draw(st.permutations(["id", "b", "Z", "a2", "a10"]))[: len(relation.schema)]
    relation = relation_from_rows(schema, relation.rows)
    kind = Synonym() if theta_or_syn == 4 else Inheritance(theta_or_syn)
    tau = data.draw(st.integers(1, relation.n)) / relation.n if approximate else 1.0
    ofds = discover(relation, ontology, DiscoveryConfig(kind=kind, tau=tau)).ofds
    records = json.loads(json.dumps(ofds_to_records(ofds, schema), indent=2))
    parsed = ofd_set_from_records(records, schema, kind=kind)
    want = ofd_set(kind, [(o.lhs, (o.rhs,)) for o in ofds])
    assert Counter(parsed.deps) == Counter(want.deps)
    assert parsed.kind == want.kind
    # the records name their kind, unless there are none
    if ofds:
        assert ofd_set_from_records(records, schema) == parsed
    else:
        with pytest.raises(ValueError, match="kind"):
            ofd_set_from_records(records, schema)


def test_byte_identical_reruns(tmp_path):
    args = ["--mode", "both", "--theta", "2", "--tau", "0.8",
            "--report-violations", "--inject-errors", "0.1", "--seed", "7"]
    _, out1 = run_cli(tmp_path, *args, out_name="a.json")
    _, out2 = run_cli(tmp_path, *args, out_name="b.json")
    assert out1.read_bytes() == out2.read_bytes()
    assert (
        Path(str(out1) + ".violations.json").read_bytes()
        == Path(str(out2) + ".violations.json").read_bytes()
    )
    assert (
        Path(str(out1) + ".inject-log.json").read_bytes()
        == Path(str(out2) + ".inject-log.json").read_bytes()
    )


def test_inject_errors_counts_and_determinism():
    relation = relation_from_rows(
        ["a", "b"], [(str(i % 17), str(i % 23)) for i in range(1000)]
    )
    perturbed, log = inject_errors(relation, 0.02, seed=3)
    assert len(log) == 20
    assert all(relation.rows[c.row][c.column] == c.old for c in log)
    assert all(perturbed.rows[c.row][c.column] == c.new for c in log)
    again, log2 = inject_errors(relation, 0.02, seed=3)
    assert again.rows == perturbed.rows and log2 == log
    identity, empty = inject_errors(relation, 0.0, seed=3)
    assert identity.rows == relation.rows and empty == []


def test_inject_errors_prefers_sense_breaking():
    ontology = load_ontology(ONTOLOGY)
    rows = [("k", v) for v in ("United States", "America", "USA", "Canada") * 25]
    relation = relation_from_rows(["k", "v"], rows)
    _, log = inject_errors(relation, 0.1, seed=1, columns=[1], ontology=ontology)
    assert len(log) == 10
    for change in log:
        assert not (ontology.names(change.old) & ontology.names(change.new))


def test_inject_errors_rejects_bad_columns():
    # unchecked, -1 would perturb the last column but log column -1, 5 would
    # end in an IndexError, and a repeated index could pick one cell twice,
    # logging an injected value as the second change's ``old``
    relation = relation_from_rows(["a", "b", "c"], [(str(i), str(i % 3), "z") for i in range(6)])
    for columns in ([-1], [3], [5], [0, 0], [2, 1, 2]):
        for rate in (0.0, 0.5):
            with pytest.raises(ValueError, match="columns"):
                inject_errors(relation, rate, seed=0, columns=columns)
    _, log = inject_errors(relation, 0.5, seed=0, columns=[2, 0])
    assert len({(c.row, c.column) for c in log}) == len(log) == 3
    assert all(c.column in (0, 2) and relation.rows[c.row][c.column] == c.old for c in log)


@pytest.mark.parametrize("seed", range(6))
def test_inject_errors_matches_rescanning_reference(seed):
    relation, ontology = random_instance(seed + 7000, max_rows=40)
    # unique, repeated and constant columns: the pool drops a cell's own
    # value only when no other row holds it
    unique = relation_from_rows(
        ["id", "v", "c"], [(str(i), "x" if i % 3 else "y", "z") for i in range(30)]
    )
    single = relation_from_rows(["a"], [("only",)])
    for table in (relation, unique, single):
        for rate in (0.05, 0.2, 0.5, 0.9):
            for kwargs in ({}, {"ontology": ontology}, {"columns": [0], "ontology": ontology}):
                got_table, got_log = inject_errors(table, rate, seed, **kwargs)
                want_table, want_log = reference_inject_errors(table, rate, seed, **kwargs)
                assert got_table.rows == want_table.rows and got_log == want_log


class CountingOntology(Ontology):
    """Ontology that counts its ``names`` lookups."""

    calls = 0

    def names(self, value):
        self.calls += 1
        return super().names(value)


def test_inject_errors_looks_up_each_value_once():
    # a unique-valued column whose values share senses in overlapping
    # windows, plus a repeated column; the output must match the rescanning
    # reference with one lookup per distinct value of the two columns.  The
    # senses are cached on the relation, so each rate gets a fresh one.
    n = 300
    classes = [
        OntologyClass(f"s{k}", frozenset(str(i) for i in range(3 * k, min(3 * k + 4, n))),
                      frozenset())
        for k in range(n // 3)
    ]
    ontology = CountingOntology(classes)
    rows = [(str(i), str(i % 7)) for i in range(n)]
    for rate in (0.01, 0.1, 0.5):
        relation = relation_from_rows(["id", "k"], rows)
        ontology.calls = 0
        got_table, got_log = inject_errors(relation, rate, 5, ontology=ontology)
        calls = ontology.calls
        want_table, want_log = reference_inject_errors(relation, rate, 5, ontology=ontology)
        assert got_table.rows == want_table.rows and got_log == want_log
        assert calls <= n + 7, (rate, calls)


def test_violation_report_suggests_majority_value():
    ontology = load_ontology(ONTOLOGY)
    relation = relation_from_rows(
        ["CC", "CTRY"],
        [("US", "United States"), ("US", "America"), ("US", "USA"),
         ("US", "Canadaa"), ("IN", "India"), ("IN", "Bharat")],
    )
    report = report_violations(relation, ontology, [Ofd((0,), 1, Synonym())])
    entry = report.entries[0]
    assert entry.support == pytest.approx(5 / 6)
    violation = entry.violations[0]
    assert violation.minority_tuples == (3,)
    assert violation.minority_values == ("Canadaa",)
    assert violation.suggested_value == "United States"
    assert set(violation.majority_tuples) | set(violation.minority_tuples) == {0, 1, 2, 3}
    assert not set(violation.majority_tuples) & set(violation.minority_tuples)


def test_exact_ofd_yields_empty_violation_section(clinical, clinical_ontology):
    report = report_violations(
        clinical, clinical_ontology, [Ofd((1,), 2, Synonym())]
    )
    assert report.entries[0].violations == ()
    assert report.entries[0].support == 1.0


def test_savings_statistic_zero_for_equal_values(clinical, clinical_ontology):
    # SYMP -> DIAG holds with string-equal classes only
    report = report_violations(clinical, clinical_ontology, [Ofd((3,), 4, Synonym())])
    assert report.entries[0].false_positive_savings == 0.0


def test_violation_tuple_ids_reference_rows(clinical, clinical_ontology):
    ofds = [Ofd((1,), 2, Synonym()), Ofd((3,), 5, Inheritance(1))]
    report = report_violations(clinical, clinical_ontology, ofds)
    for entry in report.entries:
        for violation in entry.violations:
            for t in violation.majority_tuples + violation.minority_tuples:
                assert 0 <= t < clinical.n


def test_records_sorting_contract(clinical):
    ofds = [
        Ofd((1, 3), 5, Synonym(), 1.0),
        Ofd((1,), 2, Synonym(), 1.0),
        Ofd((0,), 2, Synonym(), 1.0),
        Ofd((0,), 1, Synonym(), 1.0),
    ]
    records = ofds_to_records(ofds, clinical.schema)
    assert [(len(r["lhs"]), r["lhs"], r["rhs"]) for r in records] == sorted(
        (len(r["lhs"]), r["lhs"], r["rhs"]) for r in records
    )


def test_stdout_output(capsys):
    code = main(["--input", CLINICAL, "--ontology", ONTOLOGY, "--mode", "syn"])
    assert code == 0
    records = json.loads(capsys.readouterr().out)
    assert isinstance(records, list) and records


@pytest.mark.parametrize("flag", ["--output", "--stats"])
def test_missing_output_directory_exits_2_before_discovery(tmp_path, capsys, monkeypatch, flag):
    import ontofd.cli

    def no_discovery(*args, **kwargs):
        raise AssertionError("discovery ran")

    monkeypatch.setattr(ontofd.cli, "discover", no_discovery)
    paths = {"--output": str(tmp_path / "out.json"), "--stats": str(tmp_path / "stats.json")}
    paths[flag] = str(tmp_path / "nonexistent" / "dir" / "out.json")
    code = main([
        "--input", CLINICAL, "--ontology", ONTOLOGY,
        "--output", paths["--output"], "--stats", paths["--stats"],
    ])
    err = capsys.readouterr().err
    assert code == 2 and list(tmp_path.iterdir()) == []
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--output", "--stats"])
def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys, monkeypatch, flag):
    # the parent exists but the path is a directory: the run stops before
    # discovery and writes neither file
    import ontofd.cli

    def no_discovery(*args, **kwargs):
        raise AssertionError("discovery ran")

    monkeypatch.setattr(ontofd.cli, "discover", no_discovery)
    target = tmp_path / "target"
    target.mkdir()
    paths = {"--output": str(tmp_path / "out.json"), "--stats": str(tmp_path / "stats.json")}
    paths[flag] = str(target)
    code = main([
        "--input", CLINICAL, "--ontology", ONTOLOGY,
        "--output", paths["--output"], "--stats", paths["--stats"],
    ])
    err = capsys.readouterr().err
    assert code == 2 and list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["input", "ontology"])
def test_invalid_utf8_exits_2_with_one_line(tmp_path, capsys, target):
    bad = tmp_path / "bad"
    bad.write_bytes(b"A,B\n\xff\xfe,x\n" if target == "input" else b'{"classes": ["\xff"]}')
    paths = {"input": CLINICAL, "ontology": ONTOLOGY, target: str(bad)}
    out = tmp_path / "never.json"
    code = main([
        "--input", paths["input"], "--ontology", paths["ontology"], "--output", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("target, content", [
    ("input", b"\n"),
    ("input", b"A,B\n" + b"x" * 131_073 + b",y\n"),
    ("ontology", b'{"classes": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
    ("ontology", b'{"classes": [{"id": ["x"], "synonyms": [5]}]}'),
    ("input", b"\xef\xbb\xbf\n"),
    ("ontology", b'{"classes": [], "x": ' + b"1" * 5000 + b"}"),
    ("input", b'A,B\n1,"x\n2,3\n'),
    ("input", b'A,B\n"1" ,2\n'),
    ("ontology", b'{"classes": [{"id": "x", "synonyms": ["a"], "synonyms": ["b"]}]}'),
    ("ontology", b'{"clases": [{"id": "x", "synonyms": ["a"]}]}'),
    ("ontology", b'{"classes": [{"id": "x", "synonyms": ["a"], "parent": ["y"]},'
                 b' {"id": "y", "synonyms": ["b"]}]}'),
], ids=["blank-header", "oversized-field", "deep-json", "non-string-id", "bom-blank-header",
        "huge-int", "open-quote", "text-after-quote", "repeated-key", "unknown-key",
        "unknown-class-key"])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, target, content):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    paths = {"input": CLINICAL, "ontology": ONTOLOGY, target: str(bad)}
    out = tmp_path / "never.json"
    code = main([
        "--input", paths["input"], "--ontology", paths["ontology"], "--output", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


def test_trailing_blank_lines_leave_the_output_as_it_is(tmp_path, capsys):
    args = ["--ontology", ONTOLOGY, "--mode", "both", "--theta", "2", "--tau", "0.8"]
    want = tmp_path / "want.json"
    assert main(["--input", CLINICAL, *args, "--output", str(want)]) == 0
    text = Path(CLINICAL).read_bytes()
    padded, out = tmp_path / "padded.csv", tmp_path / "out.json"
    for extra in (b"\n", b"\n\n"):
        padded.write_bytes(text + extra)
        assert main(["--input", str(padded), *args, "--output", str(out)]) == 0
        assert out.read_bytes() == want.read_bytes()
    # a blank line before more data is the row it stands in
    lines = text.splitlines(keepends=True)
    padded.write_bytes(b"".join(lines[:4] + [b"\n"] + lines[4:]))
    assert main(["--input", str(padded), *args]) == 2
    assert capsys.readouterr().err == "error: row 4 has 0 cells, expected 6\n"


NOT_UTF8 = [b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xe2\x82", b"\xf8\x88\x80\x80\x80"]
# A JSON member of a class object, which a repeated key copies.
MEMBER = re.compile(rb'"(?:id|synonyms|parents)": (?:"[^"]*"|\[[^\]]*\])')


def corrupt(rng: random.Random, data: bytes) -> bytes:
    """``data`` with one seeded corruption: a flipped byte, a cut, a stray
    quote, bytes that are not UTF-8, a repeated key (a JSON member, or a
    CSV header name) or a repeated line."""
    at = rng.randrange(len(data) + 1)
    choice = rng.randrange(6)
    if choice == 0 and at < len(data):
        return data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
    if choice == 1:
        return data[:at]
    if choice == 2:
        return data[:at] + b'"' + data[at:]
    if choice == 3:
        return data[:at] + rng.choice(NOT_UTF8) + data[at:]
    if choice == 4:
        members = list(MEMBER.finditer(data))
        if members:
            member = rng.choice(members)
            return data[:member.end()] + b", " + member.group() + data[member.end():]
        header, newline, rest = data.partition(b"\n")
        names = header.split(b",")
        names[rng.randrange(len(names))] = rng.choice(names)
        return b",".join(names) + newline + rest
    lines = data.split(b"\n")
    line = rng.randrange(len(lines))
    return b"\n".join(lines[:line + 1] + lines[line:])


def test_corrupted_inputs_exit_0_or_2_with_one_line(tmp_path, capsys):
    # 300 seeded corruptions of the clinical sample and its ontology, each
    # through a run that mines both kinds, injects errors and reports
    valid = {"csv": Path(CLINICAL).read_bytes(), "json": Path(ONTOLOGY).read_bytes()}
    codes = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        files = dict(valid)
        for _ in range(rng.randint(1, 3)):
            target = rng.choice(sorted(files))
            files[target] = corrupt(rng, files[target])
        for suffix, data in files.items():
            (tmp_path / f"in.{suffix}").write_bytes(data)
        code = main([
            "--input", str(tmp_path / "in.csv"), "--ontology", str(tmp_path / "in.json"),
            "--mode", "both", "--theta", "1", "--tau", "0.8", "--report-violations",
            "--inject-errors", "0.2", "--seed", str(seed), "--output", str(tmp_path / "out.json"),
        ])
        err = capsys.readouterr().err
        assert code in (0, 2), seed
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (seed, err)
        else:
            assert err == "", seed
        codes[code] += 1
    # both outcomes occur, so the corruptions reach the parsers and past them
    assert codes[0] >= 20 and codes[2] >= 20, codes


def test_written_files_do_not_depend_on_the_hash_seed(tmp_path):
    src = str(Path(ontofd.__file__).parents[1])
    written = []
    for hash_seed in ("0", "1", "2718"):
        out = tmp_path / f"out-{hash_seed}.json"
        subprocess.run(
            [sys.executable, "-m", "ontofd.cli", "--input", CLINICAL, "--ontology", ONTOLOGY,
             "--mode", "both", "--theta", "2", "--report-violations",
             "--inject-errors", "0.1", "--output", str(out)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed,
                 "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
            check=True, timeout=60,
        )
        written.append([
            Path(f"{out}{suffix}").read_bytes()
            for suffix in ("", ".violations.json", ".inject-log.json")
        ])
    assert written[0] == written[1] == written[2]
    assert all(written[0])


# Names and values with quotes, backslashes, control characters, non-ASCII
# and astral characters, and lone surrogates.
TEXT = st.text(st.characters(blacklist_categories=()), max_size=6)
RATIOS = st.sampled_from([0.0, 1.0]) | st.builds(
    lambda k, n: min(k, n) / n, st.integers(0, 50), st.integers(1, 50)
) | st.floats(0.0, 1.0)
TUPLE_IDS = st.lists(st.integers(0, 10**6), max_size=4).map(tuple)


@st.composite
def violation_reports(draw):
    schema = draw(st.lists(TEXT, min_size=2, max_size=5))
    attrs = st.integers(0, len(schema) - 1)
    kinds = st.just(Synonym()) | st.builds(Inheritance, st.integers(0, 5))
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        rhs = draw(attrs)
        lhs = draw(st.lists(attrs.filter(lambda a: a != rhs), min_size=1, max_size=3))
        ofd = Ofd(tuple(lhs), rhs, draw(kinds), draw(st.none() | RATIOS))
        violations = draw(st.lists(st.builds(
            ClassViolation, st.integers(0, 10**6), TEXT, TUPLE_IDS, TUPLE_IDS,
            st.lists(TEXT, max_size=3).map(tuple), TEXT,
        ), max_size=3))
        entries.append(OfdViolationEntry(ofd, draw(RATIOS), tuple(violations), draw(RATIOS)))
    return ViolationReport(tuple(entries)), schema


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(violation_reports())
@example((ViolationReport(()), ["a"]))
@example((ViolationReport((
    OfdViolationEntry(Ofd((0,), 1, Synonym(), None), 1.0, (), 0.0),
    OfdViolationEntry(Ofd((1, 0), 2, Inheritance(2), 2 / 3), 0.0, (
        ClassViolation(3, "\"\\\n\x00\x7f", (), (4,), ("\u2603\U0001d11e", "\ud834"), "\t"),
    ), 1 / 3),
)), ["\u00e9\"", "\\x", "\U0001f600\x1f"]))
def test_violations_writer_equals_indented_dumps_of_the_records(report_and_schema):
    report, schema = report_and_schema
    records = violation_report_to_records(report, schema)
    for entry, record in zip(report.entries, records, strict=True):
        assert "[\n  " + violation_record(entry, schema) + "\n]" == json.dumps([record], indent=2)
