"""Level-wise discovery of minimal dependencies over the attribute lattice.

Nodes at level ``l`` are attribute sets of size ``l``; the candidates tested
at a node ``X`` are ``(X \\ A) -> A`` for each ``A`` in ``X``, so antecedents
of size ``l - 1`` are decided while processing level ``l``.  The candidate
set ``C+(X)`` of a node is the intersection of its parents' candidate sets;
an attribute is dropped from it when the corresponding dependency is found to
hold, which silently prunes every non-minimal superset candidate downstream.
Verification of ``(X \\ A) -> A`` uses the parent node's partition, built
once per node by refining a parent's partition by the node's last attribute
(level 1 refines the class of all tuples); ``DiscoveryConfig.least`` is the
smallest class kept, 2 for stripped partitions.

Attribute sets and candidate sets are ``int`` bitmasks, bit ``a`` standing
for attribute ``a``, as in TANE; Python ints are unbounded, so any width
works.  The parent of ``X`` without ``A`` is ``X ^ (1 << A)``.  A level is a
list of nodes in attribute-tuple order; its checks return the live ones in a
dict by mask, where the next join, checks and hook find parents.  Each node
also keeps its sorted attribute tuple, from which the emitted antecedents are
cut.  The next level is built from prefix blocks, the live nodes that share
all but their last attribute, keyed by ``mask ^ (1 << attrs[-1])``.

With both candidate-set pruning and superkey shortcutting on, a node that is
a superkey, has a superkey parent, and keeps none of its own attributes in
``C+`` is dead: no superset yields a minimal dependency or a minimal key, so
a node is generated only when every one of its subsets one level down is
alive, looked up among the live nodes by mask in the one walk that also
builds its ``C+`` and superkey parents (see ``compute_ofds`` and
``calculate_next_level``).

Reported levels count antecedent attributes: level 1 covers single-attribute
antecedents, and ``max_level`` caps the antecedent size.
"""
from __future__ import annotations

import time
from typing import Callable, Mapping, NamedTuple, Sequence

from .ontology import Ontology
from .relation import AttrSet, Partition, Relation, partition, refine
from .verify import Inheritance, Ofd, OfdKind, Synonym, agreement, sense_table


class _Search(NamedTuple):
    kind: OfdKind
    tau: float = 1.0
    max_level: int | None = None
    opt2: bool = True
    opt3: bool = True
    opt4: bool = True
    stripped: bool = True


class DiscoveryConfig(_Search):
    """Search parameters: dependency kind, support threshold, and pruning flags.

    ``tau`` is the minimum support; 1.0 requests exact dependencies.
    ``max_level`` caps the antecedent size.  The four flags disable
    individual prunings; they never change the discovered set, only the
    amount of verification work.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> DiscoveryConfig:
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.max_level is not None and self.max_level < 1:
            raise ValueError("max_level must be at least 1")
        if not isinstance(self.kind, (Synonym, Inheritance)):
            raise ValueError("kind must be Synonym or Inheritance")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` checks too

    @property
    def least(self) -> int:
        """Smallest class size kept in node partitions: 2 strips them."""
        return 2 if self.stripped else 1


class LevelStats(NamedTuple):
    """Work at one antecedent level.

    ``nodes`` counts the lattice nodes materialised at the level (attribute
    sets of size ``level + 1``) and ``pruned`` those left out of its live map.
    ``key_resolved`` counts the candidates the superkey shortcut decided
    without a call to the kernel.  ``seconds`` is the time spent testing the
    level's candidates and ``product_seconds`` the time
    ``calculate_next_level`` spent building its nodes: their partitions,
    ``C+`` sets and superkey-parent masks.
    ``report_seconds`` is the time ``discover``'s ``on_ofd`` hook took over
    the level's dependencies, 0.0 without a hook.
    """

    level: int
    nodes: int
    pruned: int
    candidates: int
    key_resolved: int
    ofds: int
    seconds: float
    product_seconds: float
    report_seconds: float


class LatticeNode:
    """One attribute set with its partition and surviving rhs candidates.

    ``attrs`` is the sorted attribute tuple and ``mask`` the same set as a
    bitmask; ``candidates`` is ``C+`` as a bitmask, and ``key_parents`` holds
    each attribute ``a`` of the node whose parent without ``a`` is a
    superkey.  ``calculate_next_level`` builds both masks; ``compute_ofds``
    then clears from ``candidates`` each consequent found to hold.
    ``is_superkey`` is read from the partition once, when the node is built;
    a node is live while its level's live map holds it.
    """

    __slots__ = ("attrs", "mask", "part", "candidates", "key_parents", "is_superkey")

    def __init__(self, attrs: AttrSet, mask: int, part: Partition,
                 candidates: int = 0, key_parents: int = 0):
        self.attrs = attrs
        self.mask = mask
        self.part = part
        self.candidates = candidates
        self.key_parents = key_parents
        self.is_superkey = part.is_superkey


class DiscoveryResult(NamedTuple):
    ofds: list[Ofd]
    per_level: list[LevelStats]
    keys_found: list[AttrSet]


def calculate_next_level(
    live: Mapping[int, LatticeNode], relation: Relation, cfg: DiscoveryConfig
) -> list[LatticeNode]:
    """Join pairs of live same-level nodes that share all but their last
    attribute, keeping a join only when all of its subsets are live.

    ``live`` maps each live node of a level by mask, in ``attrs`` order, and
    then so is the result: the prefix blocks come in prefix order and each
    block in order of its last attribute, so every join extends its left
    node in order.  ``compute_ofds`` returns that map once it is done with
    the level, so its candidate sets are final: a join's ``C+`` is the AND
    of its subsets' sets.  A joined node's partition refines the left node's
    partition by the right node's last attribute; a superkey's partition
    already is the identity, so its children take it over unchanged.
    """
    blocks: dict[int, list[LatticeNode]] = {}
    for node in live.values():
        blocks.setdefault(node.mask ^ (1 << node.attrs[-1]), []).append(node)
    next_nodes: list[LatticeNode] = []
    for block in blocks.values():
        for i in range(len(block) - 1):
            left = block[i]
            for right in block[i + 1:]:
                last = right.attrs[-1]
                attrs = left.attrs + (last,)
                mask = left.mask | (1 << last)
                candidates = -1
                key_parents = 0
                for a in attrs:
                    bit = 1 << a
                    subset = live.get(mask ^ bit)
                    if subset is None:
                        break
                    candidates &= subset.candidates
                    if subset.is_superkey:
                        key_parents |= bit
                else:  # every subset is live
                    if left.is_superkey:
                        part = Partition(attrs, left.part.classes)
                    else:
                        part = refine(left.part, relation, last, cfg.least)
                    next_nodes.append(LatticeNode(attrs, mask, part, candidates, key_parents))
    return next_nodes


def compute_ofds(
    level: Sequence[LatticeNode],
    parents: Mapping[int, LatticeNode],
    relation: Relation,
    ontology: Ontology,
    cfg: DiscoveryConfig,
    result: DiscoveryResult,
) -> tuple[list[Ofd], int, int, dict[int, LatticeNode]]:
    """Test the candidates of one level, prune the candidate sets, append
    the level's dependencies and minimal keys to ``result``, and collect the
    level's live nodes.

    Returns ``(emitted, tested, key_resolved, live)``: the level's
    dependencies in output order, the candidates tested, those of them the
    superkey shortcut decided, and the live map: the nodes not found dead,
    by mask in level order, which the next level reads as ``parents``.

    Only candidates left in ``C+`` are examined (all of them without
    ``opt2``; ``C+`` still decides minimality), and with ``opt3`` those in
    ``key_parents`` are resolved without verification.  Being a superkey
    carries over to supersets, so a superkey node is a minimal key exactly
    when its ``key_parents`` is empty; every parent is in ``parents``
    because a node is only generated from live subsets.

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
    tested = resolved = 0
    live: dict[int, LatticeNode] = {}
    for node in level:
        attrs = node.attrs
        mask = node.mask
        examine = node.candidates & mask if cfg.opt2 else mask
        key_resolved = examine & node.key_parents if cfg.opt3 else 0
        for i, a in enumerate(attrs):
            bit = 1 << a
            if not examine & bit:
                continue
            tested += 1
            if key_resolved & bit:
                resolved += 1
                satisfied: int | None = n
            else:
                satisfied = agreement(
                    tables[a], parents[mask ^ bit].part.classes, cfg.tau, cfg.opt4
                )
            # A valid candidate is minimal while ``a`` is still in ``C+``.
            if satisfied is None or not node.candidates & bit:
                continue
            sup = 1.0 if n == 0 else satisfied / n
            emitted.append(Ofd(attrs[:i] + attrs[i + 1:], a, cfg.kind, sup))
            node.candidates &= ~bit
        if node.is_superkey:
            if not node.key_parents:
                result.keys_found.append(attrs)
            elif prune and not node.candidates & mask:
                continue  # dead
        live[mask] = node
    # One level's antecedents are all one size, so the sorted levels join
    # in output order.
    emitted.sort(key=ofd_order)
    result.ofds.extend(emitted)
    return emitted, tested, resolved, live


def ofd_order(ofd: Ofd) -> tuple:
    """Sort key of discovered dependencies: antecedent size, antecedent,
    consequent index."""
    return len(ofd.lhs), ofd.lhs, ofd.rhs


def discover(
    relation: Relation,
    ontology: Ontology,
    cfg: DiscoveryConfig,
    *,
    on_ofd: Callable[[Ofd, Partition], object] | None = None,
) -> DiscoveryResult:
    """Complete, minimal set of dependencies holding with support >= tau.

    Antecedents are non-empty attribute sets; the consequent never appears in
    the antecedent.  Output is sorted by ``ofd_order``, and ``keys_found``
    by size, then attributes.

    One pass per antecedent size builds the next level's nodes, stops when
    there are none or the size passes ``max_level``, tests them with
    ``compute_ofds``, runs the hook and appends the level's ``LevelStats``.
    ``on_ofd(ofd, part)`` is called for each dependency as its level is
    found, with ``part`` the antecedent's partition (stripped unless
    ``cfg.stripped`` is off), so a caller can use it before the level is
    dropped.  Calls come in the order of ``result.ofds``.
    """
    n_attrs = len(relation.schema)
    if n_attrs == 0:
        raise ValueError("relation must have a non-empty schema")
    everything = (1 << n_attrs) - 1
    whole = partition(relation, ())
    parents = {
        1 << a: LatticeNode((a,), 1 << a, refine(whole, relation, a, cfg.least), everything)
        for a in range(n_attrs)
    }
    result = DiscoveryResult([], [], [node.attrs for node in parents.values() if node.is_superkey])
    # An antecedent has fewer attributes than the schema, so without a cap
    # the level past the last one comes out empty.
    for size in range(1, (cfg.max_level or n_attrs) + 1):
        started = time.perf_counter()
        level = calculate_next_level(parents, relation, cfg)
        product_seconds = time.perf_counter() - started
        if not level:
            break
        started = time.perf_counter()
        emitted, tested, key_resolved, live = compute_ofds(
            level, parents, relation, ontology, cfg, result
        )
        seconds = time.perf_counter() - started
        report_seconds = 0.0
        if on_ofd is not None:
            started = time.perf_counter()
            for ofd in emitted:
                on_ofd(ofd, parents[sum(1 << a for a in ofd.lhs)].part)
            report_seconds = time.perf_counter() - started
        result.per_level.append(LevelStats(
            size, len(level), len(level) - len(live), tested, key_resolved, len(emitted),
            seconds, product_seconds, report_seconds,
        ))
        parents = live
    return result
