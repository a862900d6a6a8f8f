"""Seeded input generators for the benchmark workloads.

Every workload is a CSV table plus a JSON ontology written to disk before
any timing starts, so the program under test only ever sees files.  The two
library workloads reuse ``synth_relation`` / ``synth_ontology`` from
``tests/gen.py``; the CLI workload needs a deep multi-parent ontology with
planted inheritance dependencies, which ``tests/gen.py`` has no generator
for, so it lives here.

Run as a script to write one workload's inputs::

    python3 bench/workloads.py --workload wide-keys --seed 3 --out DIR
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape and the way the program is driven on it."""

    name: str
    rows: int
    columns: int
    # "syn" or "inh"; inheritance runs use theta 2.
    mode: str
    tau: float
    # True: one ``cli.main`` call per operation; False: one ``discover`` call.
    cli: bool


# Row counts are scaled down from the 1000 / 5000 rows the workloads are
# modelled on, so that one operation takes one to three seconds on a 2-core
# x86 container and every run has many samples to take a median over.  Each
# workload keeps its dominant layer at these sizes: lattice bookkeeping on
# wide-keys (fewer rows make verify cheaper and keys more frequent), support
# plus the report on cli-inh-report.
WORKLOADS = {
    "wide-keys": Workload("wide-keys", 400, 14, "syn", 1.0, cli=False),
    "cli-inh-report": Workload("cli-inh-report", 1000, 10, "inh", 0.95, cli=True),
}

# Tiny shapes for the benchmark's own smoke test.
TINY = {
    "wide-keys": Workload("wide-keys", 60, 6, "syn", 1.0, cli=False),
    "cli-inh-report": Workload("cli-inh-report", 120, 6, "inh", 0.95, cli=True),
}

CLI_THETA = 2
CLI_INJECT_RATE = 0.01
# Senses per column of the ``synth_relation`` workloads.
SENSES_PER_COLUMN = 8


def _gen():
    """``tests/gen.py``, imported from the checkout's tests directory."""
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import gen

    return gen


def _ontology_document(ontology) -> dict:
    return {
        "classes": [
            {"id": cls.id, "synonyms": sorted(cls.synonyms), "parents": sorted(cls.parents)}
            for cls in ontology.classes.values()
        ]
    }


def _synth(workload: Workload, seed: int):
    gen = _gen()
    rng = random.Random(seed)
    relation = gen.synth_relation(
        rng, workload.rows, n_attrs=workload.columns, senses_per_column=SENSES_PER_COLUMN
    )
    ontology = gen.synth_ontology(n_senses=max(60, workload.columns * SENSES_PER_COLUMN))
    return list(relation.schema), [list(row) for row in relation.rows], _ontology_document(ontology)


# Deep ontology: four is-a layers, each class with one or two parents in the
# layer directly above, and two surface forms per class.
DEEP_WIDTHS = (4, 8, 16, 32)
DEEP_FORMS = 2
# Antecedent values per planted column.  With 200 values, pairs of
# antecedent columns are near-keys well above tau, so the set of approximate
# dependencies, and with it the work per operation, varies little between
# seeds (40 values left many of them near the threshold).
PLANTED_KEYS = 200


def _deep_planted(workload: Workload, seed: int):
    """Planted inheritance dependencies ``L_i -> R_i`` over a deep DAG.

    Each antecedent value maps to a class on the second layer; its consequent
    cells are surface forms of that class or of a descendant at most two
    edges below it, so the mapped class is a common ancestor within theta 2
    of every consequent value in the group.
    """
    rng = random.Random(seed)
    layers: list[list[str]] = []
    parents: dict[str, list[str]] = {}
    for depth, width in enumerate(DEEP_WIDTHS):
        layer = [f"d{depth}c{j:02d}" for j in range(width)]
        for class_id in layer:
            above = layers[-1] if layers else []
            parents[class_id] = sorted(rng.sample(above, min(len(above), rng.choice([1, 2]))))
        layers.append(layer)
    children: dict[str, list[str]] = {c: [] for c in parents}
    for class_id, ps in parents.items():
        for p in ps:
            children[p].append(class_id)
    near: dict[str, list[str]] = {}
    for mid in layers[1]:
        below = {mid}
        for child in children[mid]:
            below.add(child)
            below.update(children[child])
        near[mid] = sorted(below)
    document = {
        "classes": [
            {
                "id": class_id,
                "synonyms": [f"{class_id}_f{k}" for k in range(DEEP_FORMS)],
                "parents": parents[class_id],
            }
            for class_id in parents
        ]
    }
    pairs = workload.columns // 2
    schema = [f"L{i}" for i in range(pairs)] + [f"R{i}" for i in range(pairs)]
    mid_of: list[dict[str, str]] = [{} for _ in range(pairs)]
    rows = []
    for _ in range(workload.rows):
        keys = [f"k{i}_{rng.randrange(PLANTED_KEYS)}" for i in range(pairs)]
        row = list(keys)
        for i, key in enumerate(keys):
            mid = mid_of[i].setdefault(key, rng.choice(layers[1]))
            target = rng.choice(near[mid])
            row.append(f"{target}_f{rng.randrange(DEEP_FORMS)}")
        rows.append(row)
    return schema, rows, document


def generate(workload: Workload, seed: int, out: Path) -> None:
    """Write ``data.csv`` and ``ontology.json`` for one workload and seed.

    Files are written under temporary names and renamed into place, so an
    interrupted run never leaves a half-written input behind.
    """
    if workload.cli:
        schema, rows, document = _deep_planted(workload, seed)
    else:
        schema, rows, document = _synth(workload, seed)
    out.mkdir(parents=True, exist_ok=True)
    tmp_csv = out / f"data.csv.{os.getpid()}.tmp"
    with open(tmp_csv, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(schema)
        writer.writerows(rows)
    tmp_json = out / f"ontology.json.{os.getpid()}.tmp"
    tmp_json.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp_json, out / "ontology.json")
    os.replace(tmp_csv, out / "data.csv")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    shapes = TINY if args.tiny else WORKLOADS
    generate(shapes[args.workload], args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
