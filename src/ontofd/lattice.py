"""Level-wise discovery of minimal dependencies over the attribute lattice.

Nodes at level ``l`` are attribute sets of size ``l``; the candidates tested
at a node ``X`` are ``(X \\ A) -> A`` for each ``A`` in ``X``, so antecedents
of size ``l - 1`` are decided while processing level ``l``.  The candidate
set ``C+(X)`` of a node is the intersection of its parents' candidate sets;
an attribute is dropped from it when the corresponding dependency is found to
hold, which silently prunes every non-minimal superset candidate downstream.
Verification of ``(X \\ A) -> A`` uses the parent node's partition, built
once per node by refining a parent's partition by the node's last attribute.

With both candidate-set pruning and superkey shortcutting on, a node that is
a superkey, has a superkey parent, and keeps none of its own attributes in
``C+`` is dead: no superset yields a minimal dependency or a minimal key, so
a node is generated only when every one of its subsets one level down is
alive (see ``compute_ofds``).

Reported levels count antecedent attributes: level 1 covers single-attribute
antecedents, and ``max_level`` caps the antecedent size.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Mapping, Sequence, Union

from .ontology import Ontology
from .relation import (
    AttrSet,
    Partition,
    Relation,
    StrippedPartition,
    partition,
    refine,
    strip,
)
from .verify import Inheritance, Ofd, OfdKind, Synonym, agreement, sense_table

NodePartition = Union[Partition, StrippedPartition]


@dataclass
class DiscoveryConfig:
    """Search parameters: dependency kind, support threshold, and pruning flags.

    ``tau`` is the minimum support; 1.0 requests exact dependencies.
    ``max_level`` caps the antecedent size.  The four flags disable
    individual prunings; they never change the discovered set, only the
    amount of verification work.
    """

    kind: OfdKind
    tau: float = 1.0
    max_level: int | None = None
    opt2: bool = True
    opt3: bool = True
    opt4: bool = True
    stripped: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.max_level is not None and self.max_level < 1:
            raise ValueError("max_level must be at least 1")
        if not isinstance(self.kind, (Synonym, Inheritance)):
            raise ValueError("kind must be Synonym or Inheritance")


@dataclass(frozen=True)
class LevelStats:
    """Work at one antecedent level.

    ``nodes`` counts the lattice nodes materialised at the level (attribute
    sets of size ``level + 1``) and ``pruned`` those of them found dead.
    ``key_resolved`` counts the candidates the superkey shortcut decided
    without a call to the kernel.  ``seconds`` is the time spent testing the
    level's candidates and ``product_seconds`` the time
    ``calculate_next_level`` spent building its nodes and their partitions.
    """

    level: int
    candidates: int
    ofds: int
    seconds: float
    nodes: int
    pruned: int
    product_seconds: float
    key_resolved: int


@dataclass
class LatticeNode:
    """One attribute set with its partition and surviving rhs candidates."""

    attrs: AttrSet
    part: NodePartition
    candidates: set[int] = field(default_factory=set)
    dead: bool = False

    @property
    def is_superkey(self) -> bool:
        return self.part.is_superkey


@dataclass(frozen=True)
class CandidatePlan:
    """How each candidate at a node gets resolved.

    ``lhs_of[a]`` is the node's attribute set without ``a``: the antecedent
    of candidate ``a`` and the key of that parent node.
    """

    test: tuple[int, ...]
    key_resolved: frozenset[int]
    equal_fast_path: bool
    lhs_of: Mapping[int, AttrSet]


@dataclass
class DiscoveryResult:
    ofds: list[Ofd]
    per_level: list[LevelStats]
    keys_found: list[AttrSet]


def _node_partition(relation: Relation, attrs: AttrSet, cfg: DiscoveryConfig) -> NodePartition:
    if cfg.stripped:
        return strip(partition(relation, attrs))
    return partition(relation, attrs)


def calculate_next_level(
    current: Sequence[LatticeNode], relation: Relation, cfg: DiscoveryConfig
) -> list[LatticeNode]:
    """Join pairs of live same-level nodes that share all but their last
    attribute, keeping a join only when all of its subsets are live.

    A joined node's stripped partition refines the left node's partition by
    the right node's last attribute; a superkey's partition already is the
    identity, so its children take it over unchanged.
    """
    live = {node.attrs for node in current if not node.dead}
    blocks: dict[AttrSet, list[LatticeNode]] = {}
    for node in current:
        if not node.dead:
            blocks.setdefault(node.attrs[:-1], []).append(node)
    next_nodes: list[LatticeNode] = []
    for block in blocks.values():
        block.sort(key=lambda n: n.attrs)
        for left, right in combinations(block, 2):
            attrs = left.attrs + right.attrs[-1:]
            # The two joined nodes are the subsets without one of the last
            # two attributes; the others must be looked up.
            if any(attrs[:i] + attrs[i + 1:] not in live for i in range(len(attrs) - 2)):
                continue
            if left.is_superkey:
                part: NodePartition = replace(left.part, over=attrs)
            elif cfg.stripped:
                part = refine(left.part, relation, attrs[-1])
            else:
                part = partition(relation, attrs)
            next_nodes.append(LatticeNode(attrs, part))
    next_nodes.sort(key=lambda n: n.attrs)
    return next_nodes


def apply_optimizations(
    node: LatticeNode,
    parents: Mapping[AttrSet, LatticeNode],
    cfg: DiscoveryConfig,
) -> CandidatePlan:
    """Resolution plan for the candidates of one node.

    With candidate-set pruning the node's ``C+`` becomes the intersection of
    its parents' candidate sets, and only candidates left in it are
    examined.  Trivial candidates never exist (the rhs is always drawn from
    the node itself, so the antecedent excludes it by construction).  A
    candidate whose antecedent is a superkey needs no verification; the
    remaining ones go through the verifier, optionally with the
    all-equal-values shortcut.
    """
    attrs = node.attrs
    lhs_of = {a: attrs[:i] + attrs[i + 1:] for i, a in enumerate(attrs)}
    if cfg.opt2:
        node.candidates = set.intersection(*(parents[lhs].candidates for lhs in lhs_of.values()))
        examine = sorted(set(attrs) & node.candidates)
    else:
        examine = list(attrs)
    key_resolved = set()
    if cfg.opt3:
        for a in examine:
            if parents[lhs_of[a]].is_superkey:
                key_resolved.add(a)
    return CandidatePlan(tuple(examine), frozenset(key_resolved), cfg.opt4, lhs_of)


@dataclass
class _Accumulator:
    """Mutable search state shared across levels."""

    ofds: list[Ofd] = field(default_factory=list)
    keys_found: list[AttrSet] = field(default_factory=list)
    # rhs -> antecedents of every candidate found valid so far; consulted for
    # minimality only when candidate-set pruning is disabled.
    valid_by_rhs: dict[int, list[frozenset[int]]] = field(default_factory=dict)
    candidates_tested: int = 0
    key_resolved: int = 0
    emitted: int = 0
    pruned: int = 0


def compute_ofds(
    level: Sequence[LatticeNode],
    parents: Mapping[AttrSet, LatticeNode],
    relation: Relation,
    ontology: Ontology,
    cfg: DiscoveryConfig,
    acc: _Accumulator,
) -> list[Ofd]:
    """Test the candidates of one level, prune the candidate sets, record the
    level's minimal keys, and mark the level's dead nodes.

    Being a superkey carries over to supersets, so a superkey node is a
    minimal key exactly when none of its parents is a superkey; every parent
    is in ``parents`` because a node is only generated from live subsets.

    With ``opt2`` and ``opt3`` on, a non-minimal superkey ``X`` (some parent
    ``X \\ B`` is a superkey) whose ``C+`` holds none of ``X`` is dead.  For
    any ``Z`` above ``X`` and ``A`` in ``Z``: if ``A`` is in ``X``, it is not
    in ``C+(Z)``, a subset of ``C+(X)``; otherwise ``Z \\ A`` contains the
    superkey ``X \\ B``, which determines ``A`` with support 1, so
    ``Z \\ A -> A`` is not minimal.  ``Z`` is no minimal key either.  TANE's
    stronger rules (dropping ``R \\ X`` from ``C+`` and deleting keys) are
    not used: they assume ``X \\ B -> B`` makes ``X \\ B`` and ``X`` group
    tuples alike, which sense agreement does not.
    """
    n = relation.n
    tables = [sense_table(relation, ontology, a, cfg.kind) for a in range(len(relation.schema))]
    prune = cfg.opt2 and cfg.opt3
    emitted: list[Ofd] = []
    for node in level:
        plan = apply_optimizations(node, parents, cfg)
        for a in plan.test:
            lhs = plan.lhs_of[a]
            acc.candidates_tested += 1
            if a in plan.key_resolved:
                acc.key_resolved += 1
                satisfied: int | None = n
            else:
                satisfied = agreement(
                    tables[a], parents[lhs].part.classes, cfg.tau, plan.equal_fast_path
                )
            if satisfied is None:
                continue
            sup = 1.0 if n == 0 else satisfied / n
            if cfg.opt2:
                emitted.append(Ofd(lhs, a, cfg.kind, sup))
                node.candidates.discard(a)
            else:
                lhs_set = frozenset(lhs)
                minimal = not any(
                    prior < lhs_set for prior in acc.valid_by_rhs.get(a, ())
                )
                acc.valid_by_rhs.setdefault(a, []).append(lhs_set)
                if minimal:
                    emitted.append(Ofd(lhs, a, cfg.kind, sup))
        if node.is_superkey:
            if not any(parents[lhs].is_superkey for lhs in plan.lhs_of.values()):
                acc.keys_found.append(node.attrs)
            elif prune and node.candidates.isdisjoint(node.attrs):
                node.dead = True
                acc.pruned += 1
    acc.ofds.extend(emitted)
    acc.emitted += len(emitted)
    return emitted


def discover(
    relation: Relation,
    ontology: Ontology,
    cfg: DiscoveryConfig,
    *,
    base_partitions: Sequence[Partition] | None = None,
) -> DiscoveryResult:
    """Complete, minimal set of dependencies holding with support >= tau.

    Antecedents are non-empty attribute sets; the consequent never appears in
    the antecedent.  Output is sorted by antecedent size, then antecedent,
    then consequent index.
    """
    n_attrs = len(relation.schema)
    if n_attrs == 0:
        raise ValueError("relation must have a non-empty schema")
    acc = _Accumulator()
    level: list[LatticeNode] = []
    for a in range(n_attrs):
        if base_partitions is not None:
            full = base_partitions[a]
            part: NodePartition = strip(full) if cfg.stripped else full
        else:
            part = _node_partition(relation, (a,), cfg)
        level.append(LatticeNode((a,), part, set(range(n_attrs))))
    acc.keys_found.extend(node.attrs for node in level if node.is_superkey)
    node_size = 1
    per_level: list[LevelStats] = []
    parents: dict[AttrSet, LatticeNode] = {}
    product_seconds = 0.0
    while level:
        if node_size >= 2:
            started = time.perf_counter()
            acc.candidates_tested = 0
            acc.key_resolved = 0
            acc.emitted = 0
            acc.pruned = 0
            compute_ofds(level, parents, relation, ontology, cfg, acc)
            per_level.append(
                LevelStats(
                    node_size - 1,
                    acc.candidates_tested,
                    acc.emitted,
                    time.perf_counter() - started,
                    len(level),
                    acc.pruned,
                    product_seconds,
                    acc.key_resolved,
                )
            )
        if cfg.max_level is not None and node_size > cfg.max_level:
            break
        parents = {node.attrs: node for node in level}
        started = time.perf_counter()
        level = calculate_next_level(level, relation, cfg)
        product_seconds = time.perf_counter() - started
        node_size += 1
    acc.ofds.sort(key=lambda o: (len(o.lhs), o.lhs, o.rhs))
    acc.keys_found.sort(key=lambda k: (len(k), k))
    return DiscoveryResult(acc.ofds, per_level, acc.keys_found)
