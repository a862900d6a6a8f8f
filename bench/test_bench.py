"""Smoke test of the benchmark itself: every workload at tiny size.

Checks the printed result against the schema in ``BENCHMARK.json``, the
digest gate, the seed pool and the refusal to run outside a full checkout.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(capsys, *argv: str) -> dict:
    assert run.main([*argv, "--seconds", "0.2", "--tiny"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_matches_schema(workload, trace, capsys):
    result = _run(capsys, "--workload", workload, "--seed", "0", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0


def test_digest_mismatch_fails_every_operation(tmp_path, monkeypatch, capsys):
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    table["tiny"]["wide-keys"]["0"] = {"output": "0" * 64}
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(table), encoding="utf-8")
    monkeypatch.setattr(run, "DIGESTS", tampered)
    result = _run(capsys, "--workload", "wide-keys", "--seed", "0", "--trace", "0")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_rate"]["value"] == 0.0


def test_every_seed_has_a_digest():
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    assert run.data_seed(run.POOL_SEEDS + 3) == 3
    assert run.data_seed(run.HELD_OUT_SEED) == run.HELD_OUT_SEED
    seeds = {str(s) for s in [*range(run.POOL_SEEDS), run.HELD_OUT_SEED]}
    for size in ("full", "tiny"):
        assert sorted(table[size]) == sorted(NAMES)
        for name in NAMES:
            assert set(table[size][name]) == seeds


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.BENCH, tmp_path / "bench",
        ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
