"""Span tracing around the public calls of each ``repro`` layer.

The benchmark never edits the program: :func:`instrument` replaces the
public entry points of each layer with thin wrappers for the duration of
one traced pass and restores the originals afterwards.  Each wrapper
records a span (name, start, end, parent) in memory; :func:`layer_metrics`
folds the spans into per-layer self times and work counts once the pass
is over.

Self time is a span's duration minus the durations of its direct child
spans, so the self times of every span under one root -- the root's own
self time being the unattributed remainder -- add up to the root's wall
time exactly.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: Layer span names, in report order.
LAYERS = (
    "experiments",
    "pipeline",
    "runtime",
    "replication",
    "placement",
    "workload",
    "cluster_sim.build",
    "cluster_sim.run",
    "cluster_sim.dispatch",
    "surrogate",
    "annealing",
    "dynamic",
    "serving",
)

ROOT = "pass"


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent]`` list per span; ``parent`` is
        #: the index of the enclosing span or ``-1``.
        self.spans: list[list] = []
        #: Work counts folded in by the wrappers (outermost spans only).
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def open(self, name: str) -> tuple[int, bool]:
        """Start a span; returns its index and whether it is the outermost
        active span of its name (counts are taken there, so a layer call
        nested in the same layer is not counted twice)."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        outermost = self._active[name] == 0
        self._active[name] += 1
        return index, outermost

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    @contextmanager
    def span(self, name: str):
        """A span around a ``with`` block; yields the span's index."""
        index, _ = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def self_times(self, root: int) -> tuple[dict[str, float], float]:
        """Per-name self time of every span under span *root*.

        Returns ``(self_time_by_name, root_duration)``; the root's own
        self time is reported under its name.
        """
        children = [0.0] * len(self.spans)
        inside = [False] * len(self.spans)
        inside[root] = True
        for index in range(root + 1, len(self.spans)):
            name, start, end, parent = self.spans[index]
            if parent < 0 or not inside[parent]:
                continue
            inside[index] = True
            children[parent] += end - start
        totals: Counter = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            if inside[index]:
                totals[name] += (end - start) - children[index]
        name, start, end, _ = self.spans[root]
        return dict(totals), end - start

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]


def _wrapper(tracer: Tracer, name: str, fn, on_result):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index, outermost = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if outermost and on_result is not None:
            on_result(tracer.counts, args, result)
        return result

    return traced


def _count(key: str, value=lambda args, result: 1):
    def fold(counts, args, result):
        counts[key] += value(args, result)

    return fold


def _layer_hooks():
    """``(owner, attribute, span name, count fold)`` for every wrapped call.

    ``owner`` is a class (its method is wrapped once, on the class that
    defines it) or a module function (rebound in every ``repro`` module
    that imported it).
    """
    from repro import pipeline
    from repro.analysis import surrogate
    from repro.annealing import SimulatedAnnealer
    from repro.cluster_sim import ENGINES
    from repro.cluster_sim.dispatch import Dispatcher
    from repro.cluster_sim.simulator import VoDClusterSimulator
    from repro.dynamic import migration
    from repro.dynamic.drift import DriftDetector
    from repro.dynamic.tracker import EwmaPopularityTracker
    from repro.experiments import fig4, fig5, fig6
    from repro.placement import slf
    from repro.replication import REPLICATOR_REGISTRY, zipf_interval
    from repro.runtime import ParallelRunner
    from repro.serving import ServingControlPlane
    from repro.workload import WorkloadGenerator

    def serving_counts(counts, args, result):
        snapshots = result.snapshots
        counts["serving.replans"] += sum(1 for s in snapshots if s.replanned)
        counts["serving.migrations"] += sum(
            1 for s in snapshots if s.migration_executed
        )

    hooks = [
        (fig4, "run_fig4", "experiments", None),
        (fig5, "run_fig5", "experiments", None),
        (fig6, "run_fig6", "experiments", None),
        (pipeline, "solve", "pipeline", None),
        (
            ParallelRunner, "run_trials", "runtime",
            _count("runtime.trials", lambda a, r: len(r)),
        ),
        (
            zipf_interval, "zipf_interval_replication", "replication",
            _count("replication.calls"),
        ),
        (
            slf, "smallest_load_first_placement", "placement",
            _count("placement.calls"),
        ),
        (
            WorkloadGenerator, "generate", "workload",
            _count("workload.requests", lambda a, r: r.num_requests),
        ),
        (VoDClusterSimulator, "__init__", "cluster_sim.build", None),
        (
            Dispatcher, "__init__", "cluster_sim.dispatch",
            _count("cluster_sim.dispatch.calls"),
        ),
        (
            surrogate, "evaluate_layouts", "surrogate",
            _count("surrogate.layouts", lambda a, r: len(a[0])),
        ),
        (
            SimulatedAnnealer, "run", "annealing",
            _count("annealing.steps", lambda a, r: r.steps),
        ),
        (
            migration, "plan_migration", "dynamic",
            _count("dynamic.replicas_copied", lambda a, r: r.replicas_copied),
        ),
        (EwmaPopularityTracker, "observe", "dynamic", None),
        (DriftDetector, "score", "dynamic", None),
        (DriftDetector, "drifted", "dynamic", None),
        (ServingControlPlane, "run", "serving", serving_counts),
    ]
    for cls in dict.fromkeys(REPLICATOR_REGISTRY.values()):
        hooks.append(
            (cls, "replicate", "replication", _count("replication.calls"))
        )
    for cls in dict.fromkeys(pipeline.PLACERS.values()):
        hooks.append((cls, "place", "placement", _count("placement.calls")))
    events = _count("cluster_sim.events", lambda a, r: r.num_events)
    for cls in dict.fromkeys(ENGINES.values()):
        hooks.append((cls, "run", "cluster_sim.run", events))
    return hooks


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer call of :func:`_layer_hooks` for a ``with`` block.

    A method is wrapped once, on the class that defines it; a module
    function is rebound in every loaded ``repro`` module that holds it, so
    call sites that imported the name directly are traced too.  The
    originals are restored on exit, whatever happens inside.
    """
    restore: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name, fold in _layer_hooks():
            if isinstance(owner, type):
                defining = next(c for c in owner.__mro__ if attr in c.__dict__)
                original = defining.__dict__[attr]
                if any(o is defining and a == attr for o, a, _ in restore):
                    continue
                setattr(defining, attr, _wrapper(tracer, name, original, fold))
                restore.append((defining, attr, original))
                continue
            original = getattr(owner, attr)
            traced = _wrapper(tracer, name, original, fold)
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] != "repro":
                    continue
                if getattr(module, attr, None) is original:
                    setattr(module, attr, traced)
                    restore.append((module, attr, original))
        yield tracer
    finally:
        for obj, attr, original in reversed(restore):
            setattr(obj, attr, original)


def layer_metrics(tracer: Tracer, root: int) -> dict[str, float]:
    """Per-layer self times and counts of the pass rooted at span *root*.

    Every layer is reported, with 0 for a layer the pass never entered.
    ``trace.unattributed_s`` is the root's own self time: the part of the
    pass no layer span covers, so that the self times add up to
    ``trace.wall_s``.
    """
    self_s, wall = tracer.self_times(root)
    counts = tracer.counts
    metrics: dict[str, float] = {
        f"{layer}.self_s": float(self_s.get(layer, 0.0)) for layer in LAYERS
    }
    for key in (
        "cluster_sim.events", "cluster_sim.dispatch.calls",
        "workload.requests", "replication.calls", "placement.calls",
        "runtime.trials", "surrogate.layouts", "annealing.steps",
        "dynamic.replicas_copied", "serving.replans",
    ):
        metrics[key] = int(counts.get(key, 0))
    metrics["cluster_sim.events_per_s"] = _rate(
        metrics["cluster_sim.events"], metrics["cluster_sim.run.self_s"]
    )
    metrics["annealing.steps_per_s"] = _rate(
        metrics["annealing.steps"], metrics["annealing.self_s"]
    )
    metrics["serving.migration_ratio"] = _rate(
        counts.get("serving.migrations", 0), metrics["serving.replans"]
    )
    metrics["trace.unattributed_s"] = float(self_s.get(ROOT, 0.0))
    metrics["trace.wall_s"] = float(wall)
    return metrics


def _rate(numerator: float, denominator: float) -> float:
    return float(numerator) / denominator if denominator > 0 else 0.0
