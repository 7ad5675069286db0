"""The benchmark's metric catalogue: names, units and regression bounds.

``END_TO_END`` is what a user of the program sees and is measured with
tracing off; ``PER_LAYER`` comes from a separate traced pass.  A per-layer
count is work done for a fixed input, so fewer is better: a change that
moves one did less (or more) work for the same result.  The root
``BENCHMARK.json`` lists the same metrics (a test keeps the two in step).
"""

from __future__ import annotations

#: Registered simulation engines timed on the oracle-sample trials.
ENGINE_NAMES = ("optimized", "vector", "reference", "audited")

END_TO_END = (
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    {
        "name": "checks_passed_share", "unit": "ratio", "better": "higher",
        "bound": 0.05,
    },
)

PER_LAYER = (
    {"name": "cluster_sim.run.self_s", "unit": "s", "better": "lower"},
    {"name": "cluster_sim.events", "unit": "count", "better": "lower"},
    {"name": "cluster_sim.events_per_s", "unit": "1/s", "better": "higher"},
    {"name": "cluster_sim.dispatch.self_s", "unit": "s", "better": "lower"},
    {"name": "cluster_sim.dispatch.calls", "unit": "count", "better": "lower"},
    {"name": "cluster_sim.build.self_s", "unit": "s", "better": "lower"},
    *(
        {"name": f"cluster_sim.engine.{engine}_s", "unit": "s", "better": "lower"}
        for engine in ENGINE_NAMES
    ),
    {"name": "workload.self_s", "unit": "s", "better": "lower"},
    {"name": "workload.requests", "unit": "count", "better": "lower"},
    {"name": "replication.self_s", "unit": "s", "better": "lower"},
    {"name": "replication.calls", "unit": "count", "better": "lower"},
    {"name": "placement.self_s", "unit": "s", "better": "lower"},
    {"name": "placement.calls", "unit": "count", "better": "lower"},
    {"name": "runtime.self_s", "unit": "s", "better": "lower"},
    {"name": "runtime.trials", "unit": "count", "better": "lower"},
    {"name": "pipeline.self_s", "unit": "s", "better": "lower"},
    {"name": "experiments.self_s", "unit": "s", "better": "lower"},
    {"name": "surrogate.self_s", "unit": "s", "better": "lower"},
    {"name": "surrogate.layouts", "unit": "count", "better": "lower"},
    {"name": "annealing.self_s", "unit": "s", "better": "lower"},
    {"name": "annealing.steps", "unit": "count", "better": "lower"},
    {"name": "annealing.steps_per_s", "unit": "1/s", "better": "higher"},
    {"name": "dynamic.self_s", "unit": "s", "better": "lower"},
    {"name": "dynamic.replicas_copied", "unit": "count", "better": "lower"},
    {"name": "serving.self_s", "unit": "s", "better": "lower"},
    {"name": "serving.replans", "unit": "count", "better": "lower"},
    {"name": "serving.migration_ratio", "unit": "ratio", "better": "higher"},
    {"name": "trace.wall_s", "unit": "s", "better": "lower"},
    {"name": "trace.unattributed_s", "unit": "s", "better": "lower"},
    {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
    {"name": "host.probe_s", "unit": "s", "better": "lower"},
)


def units(specs) -> dict[str, str]:
    return {spec["name"]: spec["unit"] for spec in specs}
