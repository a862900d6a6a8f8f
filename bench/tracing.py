"""Spans around ontofd's public functions, recorded from outside the package.

The tracer replaces, in every loaded ``ontofd`` module, each reference to a
traced function with a wrapper that records a span (name, start, end,
parent) and, for some functions, counts taken from the arguments or the
result.  ``installed()`` puts the wrappers in and always restores the
originals, so untraced operations run the unmodified program.  Spans stay in
memory; the benchmark writes them out when the run ends.

Span names are ``<layer>.<what>``, where the layer is the ontofd module the
work belongs to: ``relation``, ``ontology``, ``verify``, ``lattice`` or
``cli``.  A function the program no longer has is skipped, so its metrics
read zero instead of the run failing.
"""
from __future__ import annotations

import itertools
import statistics
import sys
import time
import types
from contextlib import contextmanager

# (defining module, function, span name)
TARGETS = (
    ("ontofd.relation", "load_relation", "relation.load"),
    ("ontofd.relation", "partition", "relation.partition"),
    ("ontofd.relation", "strip", "relation.strip"),
    ("ontofd.relation", "product", "relation.product"),
    ("ontofd.ontology", "load_ontology", "ontology.load"),
    ("ontofd.verify", "verify", "verify.exact"),
    ("ontofd.verify", "support", "verify.support"),
    ("ontofd.lattice", "discover", "lattice.discover"),
    ("ontofd.lattice", "calculate_next_level", "lattice.next_level"),
    ("ontofd.cli", "inject_errors", "cli.inject"),
    ("ontofd.cli", "report_violations", "cli.report"),
    ("ontofd.cli", "ofds_to_records", "cli.serialize"),
    ("ontofd.cli", "violation_report_to_records", "cli.serialize"),
)

LAYERS = ("relation", "ontology", "verify", "lattice", "cli")


class Tracer:
    """Span and counter store for one benchmark run.

    ``tau`` is the workload's support threshold; an approximate check counts
    as holding when its support reaches it.
    """

    def __init__(self, tau: float):
        self.tau = tau
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counts of the previous operation."""
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._name_counters: list[tuple[itertools.count, itertools.count]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[1] = start
        span[2] = end

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield index
        finally:
            self._close(index, start, time.perf_counter())

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start, time.perf_counter())
            if after is not None:
                after(self, index, args, kwargs, result)
            return result

        return traced

    def _count_ontology(self, ontology) -> None:
        """Count ``names`` and ``theta_ancestors`` calls on one instance."""
        names_calls, theta_calls = itertools.count(), itertools.count()
        names = getattr(ontology, "names", None)
        theta = getattr(ontology, "theta_ancestors", None)
        if names is None or theta is None or not hasattr(ontology, "__dict__"):
            return

        def counted_names(value):
            next(names_calls)
            return names(value)

        def counted_theta(value, theta_bound):
            next(theta_calls)
            return theta(value, theta_bound)

        ontology.names = counted_names
        ontology.theta_ancestors = counted_theta
        self._name_counters.append((names_calls, theta_calls))

    # -- installing --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Route the program's calls through the wrappers while active."""
        patched: list[tuple[object, str, object]] = []
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "ontofd" or key.startswith("ontofd."))
        ]
        try:
            for module_name, attr, span_name in TARGETS:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(span_name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, key, value))
                            setattr(module, key, wrapper)
            cli = sys.modules.get("ontofd.cli")
            real_json = getattr(cli, "json", None)
            if isinstance(real_json, types.ModuleType):
                # The CLI encodes its output with json.dumps; give it a copy
                # of the json namespace whose dumps is traced.
                proxy = types.SimpleNamespace(**vars(real_json))
                proxy.dumps = self._wrap("cli.serialize", real_json.dumps)
                patched.append((cli, "json", real_json))
                cli.json = proxy
            yield self
        finally:
            for module, key, value in reversed(patched):
                setattr(module, key, value)

    # -- reading -----------------------------------------------------------

    def op_metrics(self, root: int, cli: bool) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``reset``.

        ``root`` is the index of the operation's root span; the coverage is
        the share of its duration that its direct children account for.  The
        ``cli.*`` phases are the root's direct children when the operation is
        a ``cli.main`` call, and zero otherwise.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[3]
            if parent >= 0:
                child_time[parent] += span[2] - span[1]
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        phase: dict[str, float] = {}
        self_time = {layer: 0.0 for layer in LAYERS}
        for i, (name, start, end, parent) in enumerate(spans):
            total[name] = total.get(name, 0.0) + (end - start)
            if parent == root:
                phase[name] = phase.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            if layer in self_time:
                self_time[layer] += (end - start) - child_time[i]
        root_span = self.spans[root]
        root_time = root_span[2] - root_span[1]
        names = sum(next(n) for n, _ in self._name_counters)
        theta = sum(next(t) for _, t in self._name_counters)
        counts = self.counts
        verified = counts.get("verified", 0)
        metrics = {
            "relation.load_s": total.get("relation.load", 0.0),
            "relation.partition_calls": calls.get("relation.partition", 0),
            "relation.partition_s": total.get("relation.partition", 0.0),
            "relation.product_calls": calls.get("relation.product", 0),
            "relation.product_s": total.get("relation.product", 0.0),
            "relation.product_tuples": counts.get("product_tuples", 0),
            "ontology.load_s": total.get("ontology.load", 0.0),
            "ontology.names_calls": names,
            "ontology.theta_ancestors_calls": theta,
            "verify.exact_calls": calls.get("verify.exact", 0),
            "verify.exact_s": total.get("verify.exact", 0.0),
            "verify.support_calls": calls.get("verify.support", 0),
            "verify.support_s": total.get("verify.support", 0.0),
            "verify.tuples_scanned": counts.get("tuples_scanned", 0),
            "verify.verified": verified,
            "verify.hold_ratio": counts.get("held", 0) / verified if verified else 0.0,
            "lattice.nodes": counts.get("nodes", 0),
            "lattice.candidates": counts.get("candidates", 0),
            "lattice.key_resolved": counts.get("candidates", 0) - verified,
            "lattice.ofds": counts.get("ofds", 0),
            "lattice.keys": counts.get("keys", 0),
            "lattice.levels": counts.get("levels", 0),
            "trace.spans": len(spans),
            "trace.coverage_pct": 100.0 * child_time[root] / root_time if root_time else 0.0,
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_time[layer]
        if not cli:
            phase = {}
        metrics.update({
            "cli.load_s": phase.get("relation.load", 0.0) + phase.get("ontology.load", 0.0),
            "cli.inject_s": phase.get("cli.inject", 0.0),
            "cli.discover_s": phase.get("lattice.discover", 0.0),
            "cli.report_s": phase.get("cli.report", 0.0),
            "cli.serialize_s": phase.get("cli.serialize", 0.0),
        })
        return metrics


def _part_arg(args, kwargs):
    return kwargs.get("part", args[2] if len(args) > 2 else None)


def _after_product(tracer: Tracer, index, args, kwargs, result) -> None:
    tracer._add("product_tuples", sum(getattr(p, "covered_count", 0) for p in args[:2]))


def _after_check(holds):
    def after(tracer: Tracer, index, args, kwargs, result) -> None:
        tracer._add("tuples_scanned", getattr(_part_arg(args, kwargs), "covered_count", 0))
        parent = tracer.spans[index][3]
        if parent >= 0 and tracer.spans[parent][0] == "lattice.discover":
            tracer._add("verified", 1)
            tracer._add("held", int(holds(tracer, result)))

    return after


def _after_discover(tracer: Tracer, index, args, kwargs, result) -> None:
    per_level = getattr(result, "per_level", ())
    tracer._add("candidates", sum(getattr(s, "candidates", 0) for s in per_level))
    tracer._add("levels", len(per_level))
    tracer._add("ofds", len(getattr(result, "ofds", ())))
    tracer._add("keys", len(getattr(result, "keys_found", ())))


def _after_next_level(tracer: Tracer, index, args, kwargs, result) -> None:
    tracer._add("nodes", len(result))


def _after_load_ontology(tracer: Tracer, index, args, kwargs, result) -> None:
    tracer._count_ontology(result)


_AFTER = {
    "relation.product": _after_product,
    "verify.exact": _after_check(lambda tracer, r: r.holds),
    "verify.support": _after_check(lambda tracer, r: r.support >= tracer.tau),
    "lattice.discover": _after_discover,
    "lattice.next_level": _after_next_level,
    "ontology.load": _after_load_ontology,
}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
