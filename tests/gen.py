"""Seeded generators for random relations, ontologies, and planted data."""
from __future__ import annotations

import random

from ontofd.ontology import Ontology, OntologyClass
from ontofd.relation import Relation, relation_from_rows

# Shared surface vocabulary: ontology synonym sets and table cells draw from
# the same pool so that sense overlaps (and the occasional polysemous string)
# actually occur.
VOCAB = [f"w{i:02d}" for i in range(40)]


def random_ontology(rng: random.Random, max_classes: int = 30, max_depth: int = 4) -> Ontology:
    """Random is-a DAG of at most max_classes senses with bounded depth.

    Classes are assigned to depth layers; parents are drawn from strictly
    shallower layers, which guarantees acyclicity while still producing
    multi-parent (DAG) shapes.
    """
    n_classes = rng.randint(3, max_classes)
    depth_of = {}
    classes = []
    for i in range(n_classes):
        class_id = f"c{i:02d}"
        depth_of[class_id] = rng.randint(0, max_depth - 1)
        classes.append(class_id)
    ontology_classes = []
    for class_id in classes:
        shallower = [c for c in classes if depth_of[c] < depth_of[class_id]]
        parents = rng.sample(shallower, min(len(shallower), rng.choice([0, 1, 1, 2])))
        synonyms = rng.sample(VOCAB, rng.randint(1, 3))
        ontology_classes.append(
            OntologyClass(class_id, frozenset(synonyms), frozenset(parents))
        )
    return Ontology(ontology_classes)


def random_relation(rng: random.Random, max_attrs: int = 5, max_rows: int = 25) -> Relation:
    """Random table over the shared vocabulary with low-cardinality columns."""
    n_attrs = rng.randint(2, max_attrs)
    n_rows = rng.randint(2, max_rows)
    schema = [f"A{i}" for i in range(n_attrs)]
    column_pools = []
    for _ in range(n_attrs):
        pool_size = rng.randint(2, 5)
        pool = rng.sample(VOCAB, pool_size)
        if rng.random() < 0.3:
            pool.append(f"oov{rng.randint(0, 3)}")
        column_pools.append(pool)
    rows = [
        tuple(rng.choice(column_pools[a]) for a in range(n_attrs))
        for _ in range(n_rows)
    ]
    return relation_from_rows(schema, rows)


def random_instance(seed: int, max_attrs: int = 5, max_rows: int = 25,
                    max_classes: int = 30) -> tuple[Relation, Ontology]:
    rng = random.Random(seed)
    return (
        random_relation(rng, max_attrs=max_attrs, max_rows=max_rows),
        random_ontology(rng, max_classes=max_classes),
    )


def fd_instance(seed: int) -> tuple[Relation, tuple[int, ...], int]:
    """Relation where some X -> A holds by plain string equality."""
    rng = random.Random(seed)
    n_attrs = rng.randint(2, 5)
    n_rows = rng.randint(3, 20)
    attrs = list(range(n_attrs))
    rhs = rng.choice(attrs)
    lhs_pool = [a for a in attrs if a != rhs]
    lhs = tuple(sorted(rng.sample(lhs_pool, rng.randint(1, len(lhs_pool)))))
    mapping: dict[tuple[str, ...], str] = {}
    rows = []
    for _ in range(n_rows):
        row = [rng.choice(VOCAB) for _ in range(n_attrs)]
        key = tuple(row[a] for a in lhs)
        row[rhs] = mapping.setdefault(key, rng.choice(VOCAB))
        rows.append(tuple(row))
    return relation_from_rows([f"A{i}" for i in attrs], rows), lhs, rhs


def synth_ontology(n_senses: int = 60, forms_per_sense: int = 3) -> Ontology:
    """Flat synonym ontology for scaling runs: n_senses disjoint synonym sets."""
    classes = [
        OntologyClass(
            f"s{i:03d}",
            frozenset(f"s{i:03d}_f{j}" for j in range(forms_per_sense)),
            frozenset(),
        )
        for i in range(n_senses)
    ]
    return Ontology(classes)


def synth_relation(rng: random.Random, n_rows: int, n_attrs: int = 6,
                   senses_per_column: int = 4, forms_per_sense: int = 2) -> Relation:
    """Uniform random table whose cells are surface forms of the flat ontology.

    Column a draws senses from a fixed window of the sense space, so columns
    share structure run to run while remaining independent of each other.
    """
    schema = [f"A{i}" for i in range(n_attrs)]
    rows = []
    for _ in range(n_rows):
        row = []
        for a in range(n_attrs):
            sense = a * senses_per_column + rng.randrange(senses_per_column)
            row.append(f"s{sense:03d}_f{rng.randrange(forms_per_sense)}")
        rows.append(tuple(row))
    return relation_from_rows(schema, rows)


def planted_instance(seed: int, n_rows: int = 5000):
    """Table with five exact single-antecedent synonym dependencies planted.

    Columns L0..L4 determine R0..R4 respectively: each antecedent value is
    functionally mapped to a sense, and the consequent cell is a random
    surface form of that sense.  Returns (relation, ontology, planted pairs).
    """
    rng = random.Random(seed)
    ontology = synth_ontology(n_senses=60, forms_per_sense=3)
    schema = [f"L{i}" for i in range(5)] + [f"R{i}" for i in range(5)]
    sense_of: list[dict[str, int]] = [{} for _ in range(5)]
    rows = []
    for _ in range(n_rows):
        row = []
        for i in range(5):
            row.append(f"k{i}_{rng.randrange(40)}")
        for i in range(5):
            key = row[i]
            if key not in sense_of[i]:
                sense_of[i][key] = i * 12 + rng.randrange(12)
            sense = sense_of[i][key]
            row.append(f"s{sense:03d}_f{rng.randrange(3)}")
        rows.append(tuple(row))
    relation = relation_from_rows(schema, rows)
    planted = [((i,), 5 + i) for i in range(5)]
    return relation, ontology, planted


def layered_ontology(rng: random.Random, layers: int = 16, max_width: int = 400,
                     max_parents: int = 3, reach: int = 1) -> Ontology:
    """Deep multi-parent is-a DAG: layer ``d`` holds ``min(2**d, max_width)``
    classes, each with one to ``max_parents`` parents drawn from the ``reach``
    layers above it, so minimal distances differ from depth differences when
    ``reach`` exceeds 1.  Class ``L{d}_{i}`` has the synonym ``v{d}_{i}``;
    one class in five also has one of ten shared words, which gives those
    values several senses.
    """
    ids: list[list[str]] = []
    classes = []
    for d in range(layers):
        ids.append([f"L{d}_{i}" for i in range(min(2 ** d, max_width))])
        pool = [c for layer in ids[max(0, d - reach):d] for c in layer]
        for i, class_id in enumerate(ids[d]):
            parents = rng.sample(pool, min(len(pool), rng.randint(1, max_parents)))
            synonyms = {f"v{d}_{i}"}
            if rng.random() < 0.2:
                synonyms.add(f"shared{rng.randrange(10)}")
            classes.append(OntologyClass(class_id, frozenset(synonyms), frozenset(parents)))
    return Ontology(classes)
