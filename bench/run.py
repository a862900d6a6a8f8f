"""Seeded benchmark of ontofd discovery, end to end and layer by layer.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Runs from the repository root; it imports ``ontofd`` from ``src/`` and the
table generators from ``tests/gen.py``, and builds nothing.  The workloads
(see ``bench/README.md`` and ``BENCHMARK.json``) are a closed loop of one
operation at a time in this single process, with no threads: either one
``ontofd.discover`` call on freshly loaded inputs, or one ``ontofd.cli.main``
call.  Inputs are generated from the seed into ``bench/.cache`` before any
timing, once per seed.

Every operation's output is hashed and compared with the digest recorded in
``bench/digests.json`` at the commit that defined the benchmark
(``bench/record_digests.py``).
Digests exist for data seeds ``0..POOL_SEEDS-1`` and for ``HELD_OUT_SEED``;
any other ``--seed`` folds into the pool modulo ``POOL_SEEDS``.  Claims of a
gain must also be re-checked on ``--seed HELD_OUT_SEED``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics (medians over traced operations) plus the tracing
overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record, with
the environment stamp and the spans of the last traced operation, goes to
``bench/.out/<workload>-trace<0|1>.json``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import CLI_INJECT_RATE, CLI_THETA, TINY, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"
OUT = BENCH / ".out"
DIGESTS = BENCH / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

POOL_SEEDS = 16
HELD_OUT_SEED = 7919
# Set-up takes tens of milliseconds, so it is sampled this many times in
# fresh interpreters after every operation and the median reported.
SETUP_PROBES_PER_OP = 2

SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import ontofd
ontofd.load_relation(sys.argv[2])
ontofd.load_ontology(sys.argv[3])
print(time.perf_counter() - start)
"""


def data_seed(seed: int) -> int:
    return seed if seed == HELD_OUT_SEED else seed % POOL_SEEDS


def input_dir(workload, seed: int, tiny: bool) -> Path:
    """Cache directory of one workload's inputs, keyed by the generator source."""
    source = hashlib.sha1()
    for path in (BENCH / "workloads.py", ROOT / "tests" / "gen.py"):
        source.update(path.read_bytes())
    size = "tiny" if tiny else "full"
    return CACHE / f"{size}-{workload.name}-{seed}-{source.hexdigest()[:12]}"


def prepare_inputs(workload, seed: int, tiny: bool) -> Path:
    """Generate the inputs in a child process unless they are cached."""
    out = input_dir(workload, seed, tiny)
    if not (out / "data.csv").is_file() or not (out / "ontology.json").is_file():
        cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload.name,
               "--seed", str(seed), "--out", str(out)]
        subprocess.run(cmd + (["--tiny"] if tiny else []), check=True, timeout=170)
    return out


def measure_setup(inputs: Path) -> list[float]:
    """Seconds to import ontofd and load both input files, per fresh process."""
    times = []
    for _ in range(SETUP_PROBES_PER_OP):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC),
             str(inputs / "data.csv"), str(inputs / "ontology.json")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def result_digest(result) -> str:
    """Digest of the canonical records of a ``DiscoveryResult``, in order."""
    records = [
        [list(o.lhs), o.rhs, type(o.kind).__name__, getattr(o.kind, "theta", None), o.support]
        for o in result.ofds
    ]
    return _sha256(json.dumps(records).encode())


class Operation:
    """One timed operation of a workload on its generated inputs."""

    def __init__(self, workload, inputs: Path, seed: int, workdir: Path):
        # Import every module the operation uses up front, so the tracer
        # finds them all loaded.
        import ontofd
        import ontofd.cli

        self.ontofd = ontofd
        self.workload = workload
        self.csv = str(inputs / "data.csv")
        self.ontology = str(inputs / "ontology.json")
        self.output = workdir / "ofds.json"
        self.artifacts = [
            self.output,
            Path(f"{self.output}.violations.json"),
            Path(f"{self.output}.inject-log.json"),
        ]
        self.argv = [
            "--input", self.csv, "--ontology", self.ontology,
            "--mode", workload.mode, "--theta", str(CLI_THETA), "--tau", repr(workload.tau),
            "--inject-errors", repr(CLI_INJECT_RATE), "--seed", str(seed),
            "--report-violations", "--output", str(self.output),
        ]

    def run(self, tracer=None) -> tuple[float, dict[str, str], int, int | None]:
        """Seconds, output digests, bytes written and the traced root span."""
        if self.workload.cli:
            return self._run_cli(tracer)
        return self._run_discover(tracer)

    def _timed(self, tracer, call):
        if tracer is None:
            start = time.perf_counter()
            value = call()
            return time.perf_counter() - start, value, None
        with tracer.span("op") as root:
            value = call()
        span = tracer.spans[root]
        return span[2] - span[1], value, root

    def _run_discover(self, tracer):
        ontofd = self.ontofd
        relation = ontofd.load_relation(self.csv)
        ontology = ontofd.load_ontology(self.ontology)
        kind = ontofd.Synonym() if self.workload.mode == "syn" else ontofd.Inheritance(CLI_THETA)
        cfg = ontofd.DiscoveryConfig(kind=kind, tau=self.workload.tau)
        seconds, result, root = self._timed(
            tracer, lambda: ontofd.discover(relation, ontology, cfg)
        )
        return seconds, {"output": result_digest(result)}, 0, root

    def _run_cli(self, tracer):
        for path in self.artifacts:
            path.unlink(missing_ok=True)
        seconds, code, root = self._timed(tracer, lambda: self.ontofd.cli.main(self.argv))
        if code != 0:
            raise RuntimeError(f"cli.main exited with code {code}")
        digests = {
            "output": _sha256(self.artifacts[0].read_bytes()),
            "violations": _sha256(self.artifacts[1].read_bytes()),
        }
        written = sum(p.stat().st_size for p in self.artifacts if p.exists())
        return seconds, digests, written, root


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def expected_digests(name: str, seed: int, tiny: bool) -> dict[str, str] | None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get("tiny" if tiny else "full", {}).get(name, {}).get(str(seed))


def git_commit() -> str:
    """HEAD commit read from ``.git`` without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    source = hashlib.sha1()
    for path in sorted((SRC / "ontofd").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "commit": git_commit(),
        "source_sha1": source.hexdigest(),
    }


@dataclass
class Samples:
    """Everything one run measured."""

    walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    last_spans: list[list] = field(default_factory=list)


def measure(op: Operation, tracer, expected: dict[str, str], inputs: Path, args) -> Samples:
    """Run operations for ``args.seconds``.

    Without tracing, set-up probes follow every operation, so set-up is
    sampled over the same stretch of time as the operations.  With tracing,
    untraced and traced operations alternate.  A round that the previous
    one's length says would end past the deadline is not started, so a run
    stays within ``args.seconds`` after its first round.
    """
    samples = Samples()
    deadline = time.perf_counter() + args.seconds
    while True:
        began = time.perf_counter()
        for traced in ((False, True) if args.trace else (False,)):
            samples.attempted += 1
            tracer.reset()
            # Every operation starts from a collected heap.
            gc.collect()
            try:
                if traced:
                    with tracer.installed():
                        seconds, digests, written, root = op.run(tracer)
                else:
                    seconds, digests, written, root = op.run()
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                samples.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            if digests != expected:
                samples.errors.append(f"digest mismatch: {digests} != {expected}")
                continue
            if not traced:
                samples.walls.append(seconds)
                if not args.trace:
                    samples.setup.extend(measure_setup(inputs))
                continue
            samples.traced_walls.append(seconds)
            metrics = tracer.op_metrics(root, op.workload.cli)
            metrics["cli.output_bytes"] = written
            samples.layers.append(metrics)
            samples.last_spans = tracer.spans
        now = time.perf_counter()
        if now + (now - began) > deadline:
            return samples


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def run_workload(args) -> int:
    spec = load_spec()
    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    seed = data_seed(args.seed)
    expected = expected_digests(workload.name, seed, args.tiny)
    if expected is None:
        print(f"error: no recorded digest for {workload.name} seed {seed}", file=sys.stderr)
        return 2
    env = environment()
    inputs = prepare_inputs(workload, seed, args.tiny)
    sys.path.insert(0, str(SRC))
    workdir = CACHE / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        op = Operation(workload, inputs, seed, workdir)
        samples = measure(op, tracing.Tracer(workload.tau), expected, inputs, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = samples.errors
    failed = len(errors)
    error_rate = failed / samples.attempted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = _median(samples.walls)
    if args.trace:
        values = tracing.median_metrics(samples.layers) if samples.layers else {}
        traced_wall = _median(samples.traced_walls)
        if traced_wall and wall:
            values["trace.wall_s"] = traced_wall
            values["trace.overhead_pct"] = 100.0 * (traced_wall / wall - 1.0)
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "setup_s": _median(samples.setup),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": 1.0 - error_rate,
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        errors.append(f"metrics not measured: {missing}")
    result = {
        "correct": not errors,
        "attempted": samples.attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted
        },
    }

    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "data_seed": seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny, "env": env,
        "wall_samples": samples.walls, "traced_wall_samples": samples.traced_walls,
        "setup_samples": samples.setup, "errors": errors, "result": result,
        "spans": samples.last_spans,
    }
    (OUT / f"{workload.name}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")

    print(f"workload {workload.name}  seed {args.seed} (data seed {seed})  trace {args.trace}")
    if wall is not None:
        print(f"  wall_s       {wall:.4f} s   median of {len(samples.walls)},"
              f" max {max(samples.walls):.4f} s")
    if not args.trace and samples.setup:
        print(f"  setup_s      {values['setup_s']:.4f} s   median of {len(samples.setup)}")
        print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    if args.trace and "trace.coverage_pct" in values:
        print(f"  coverage     {values['trace.coverage_pct']:.2f} %   of traced wall time"
              f" in top-level spans (want >= 95)")
    print(f"  error_rate   {error_rate:.4f} ratio   {failed} of {samples.attempted} failed")
    for error in errors[:5]:
        print(f"  error: {error}")
    print("  env " + json.dumps(env))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        code = subprocess.run(cmd, timeout=900).returncode
        status = status or code
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of ontofd discovery.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    needed = [SRC / "ontofd" / "__init__.py", ROOT / "tests" / "gen.py", SPEC, DIGESTS]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: run from a full checkout; missing {', '.join(absent)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
