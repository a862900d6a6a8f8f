"""Record the output digests the benchmark checks every operation against.

Run once at the commit whose output is the reference, and again only when a
benchmark change alters the workloads (never to make a mismatch go away)::

    python3 bench/record_digests.py [--workload NAME ...]

It runs one operation per workload, size and data seed (the pool seeds and
the held-out seed) and merges the digests into ``bench/digests.json``.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from workloads import TINY, WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    seeds = [*range(run.POOL_SEEDS), run.HELD_OUT_SEED]
    workdir = run.CACHE / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for size, shapes in (("full", WORKLOADS), ("tiny", TINY)):
            for name in args.workload or sorted(shapes):
                workload = shapes[name]
                recorded = table.setdefault(size, {}).setdefault(name, {})
                for seed in seeds:
                    inputs = run.prepare_inputs(workload, seed, size == "tiny")
                    seconds, digests, _, _ = run.Operation(workload, inputs, seed, workdir).run()
                    recorded[str(seed)] = digests
                    print(f"{size} {name} seed {seed}: {seconds:.3f} s", flush=True)
                run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
