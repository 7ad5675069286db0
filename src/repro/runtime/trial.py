"""The unit of parallel work: one simulated peak period at one design point.

A :class:`TrialSpec` carries everything a worker process needs to rebuild
the trial from scratch: the experiment setup, the (already computed)
replica layout, the design point, and the *root* workload seed plus the
trial's run index.  The trace is regenerated inside the worker from
``SeedSequence(seed, spawn_key=(run_index,))`` — exactly the child that
``SeedSequence(seed).spawn(num_runs)[run_index]`` produces — so a sweep
partitioned over any number of processes is bit-identical to the serial
run, and any single trial can be re-simulated in isolation.

Workers memoize the simulator per configuration (``config_key``), so the
layout validation is paid once per design point per worker rather than
once per trial; the per-video replica index is cached on the layout
itself (``ReplicaLayout.holder_table``), so it is built once per layout.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from ..cluster_sim import (
    DEFAULT_ENGINE,
    ENGINES,
    VoDClusterSimulator,
    engine_run_kwargs,
    make_dispatcher_factory,
    make_simulator,
)
from ..cluster_sim.failures import (
    FailoverPolicy,
    FailureSpec,
    RereplicationPolicy,
)
from ..cluster_sim.metrics import SimulationResult
from ..cluster_sim.sharding import shard_spawn_key
from ..model.layout import ReplicaLayout
from ..workload import WorkloadGenerator
from ..workload.requests import RequestTrace
from .cache import code_version, content_key

__all__ = [
    "TrialSpec",
    "make_trials",
    "run_trial",
    "trial_cache_key",
    "trial_run_kwargs",
]


@dataclass(frozen=True)
class TrialSpec:
    """One independent simulation run of one experiment design point.

    ``setup`` is duck-typed (anything exposing ``cluster(degree)``,
    ``videos()``, ``popularity(theta)`` and ``peak_minutes`` works); the
    stock implementation is :class:`repro.experiments.PaperSetup`.
    """

    setup: object
    layout: ReplicaLayout = field(repr=False)
    theta: float
    degree: float
    arrival_rate_per_min: float
    seed: int
    run_index: int
    dispatcher: str = "static_rr"
    #: Lockstep engine executing the trial (see
    #: :data:`repro.cluster_sim.ENGINES`); all engines are
    #: ``same_outcome``-identical, so the engine only affects speed (and,
    #: for ``audited``, in-situ invariant checking).
    engine: str = DEFAULT_ENGINE
    backbone_mbps: float = 0.0
    horizon_min: float | None = None
    #: Chaos extension: per-run failure schedule recipe (built inside the
    #: worker with ``SeedSequence(seed, spawn_key=(0xFA11, run_index))``,
    #: so chaos randomness never perturbs the workload stream).
    failures: FailureSpec | None = None
    failover: FailoverPolicy | None = None
    rereplication: RereplicationPolicy | None = None
    failover_on_down: bool = False
    #: Scale-out extension: the run's shard count and this trial's shard.
    #: Shard 0 regenerates the plain run's trace (workload spawn key
    #: ``(run_index,)``); shard ``k >= 1`` draws from ``(run_index, k)``
    #: and chaos from ``(0xFA11, run_index, k)`` — see
    #: :mod:`repro.cluster_sim.sharding`.
    num_shards: int = 1
    shard_index: int = 0
    #: Content hash shared by all trials of one design point; fills in the
    #: worker-side simulator memo and the cache key.  Computed by
    #: :func:`make_trials`.
    config_key: str = ""

    def resolved_horizon_min(self) -> float:
        return float(
            self.horizon_min
            if self.horizon_min is not None
            else self.setup.peak_minutes
        )


def make_trials(
    setup,
    layout: ReplicaLayout,
    *,
    theta: float,
    degree: float,
    arrival_rate_per_min: float,
    seed: int,
    num_runs: int,
    dispatcher: str = "static_rr",
    backbone_mbps: float = 0.0,
    horizon_min: float | None = None,
    failures: FailureSpec | None = None,
    failover: FailoverPolicy | None = None,
    rereplication: RereplicationPolicy | None = None,
    failover_on_down: bool = False,
    num_shards: int = 1,
    engine: str = DEFAULT_ENGINE,
) -> list[TrialSpec]:
    """Build the trial specs of one design point.

    ``num_runs * num_shards`` specs, run-major (run 0's shards first) so
    consecutive groups of ``num_shards`` results merge into one run via
    :func:`repro.cluster_sim.sharding.merge_results`.

    The configuration hash binds the full setup, the layout contents, the
    design point, the dispatcher/backbone options, the shard count, and
    the code version — the cache-invalidation key of the ISSUE's
    contract.  The shard count is part of the hash (and the shard index
    part of :func:`trial_cache_key`), so a sharded run and an unsharded
    run of the same design point can never collide in the cache.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    base = TrialSpec(
        setup=setup,
        layout=layout,
        theta=float(theta),
        degree=float(degree),
        arrival_rate_per_min=float(arrival_rate_per_min),
        seed=int(seed),
        run_index=0,
        dispatcher=dispatcher,
        engine=engine,
        backbone_mbps=float(backbone_mbps),
        horizon_min=horizon_min,
        failures=failures,
        failover=failover,
        rereplication=rereplication,
        failover_on_down=bool(failover_on_down),
        num_shards=int(num_shards),
    )
    config_key = content_key(
        {
            "setup": base.setup,
            "layout": layout.rate_matrix,
            "theta": base.theta,
            "degree": base.degree,
            "arrival_rate_per_min": base.arrival_rate_per_min,
            "seed": base.seed,
            "dispatcher": base.dispatcher,
            "backbone_mbps": base.backbone_mbps,
            "horizon_min": base.horizon_min,
            "failures": base.failures,
            "failover": base.failover,
            "rereplication": base.rereplication,
            "failover_on_down": base.failover_on_down,
            "num_shards": base.num_shards,
            "engine": base.engine,
            "simulator": ENGINES[base.engine].__qualname__,
            "code_version": code_version(),
        }
    )
    return [
        replace(base, run_index=r, shard_index=k, config_key=config_key)
        for r in range(int(num_runs))
        for k in range(int(num_shards))
    ]


def trial_cache_key(spec: TrialSpec) -> str:
    """Cache key of one trial: design-point hash + run index + shard."""
    return hashlib.sha256(
        f"{spec.config_key}:{spec.run_index}:{spec.shard_index}".encode()
    ).hexdigest()


def trial_trace(spec: TrialSpec) -> RequestTrace:
    """Regenerate the trial's request trace (bit-identical to serial).

    Shard 0 draws the plain run's stream; shard ``k >= 1`` its own
    sub-stream (see :func:`repro.cluster_sim.sharding.shard_spawn_key`).
    """
    generator = WorkloadGenerator.poisson_zipf(
        spec.setup.popularity(spec.theta), spec.arrival_rate_per_min
    )
    child = np.random.SeedSequence(
        entropy=spec.seed,
        spawn_key=shard_spawn_key(spec.run_index, spec.shard_index),
    )
    return generator.generate(
        spec.resolved_horizon_min(), np.random.default_rng(child)
    )


#: Worker-local simulator memo, keyed by ``config_key`` (bounded FIFO).
_SIM_MEMO: dict[str, VoDClusterSimulator] = {}
_SIM_MEMO_MAX = 32


def _simulator_for(spec: TrialSpec) -> VoDClusterSimulator:
    simulator = _SIM_MEMO.get(spec.config_key) if spec.config_key else None
    if simulator is None:
        simulator = make_simulator(
            spec.engine,
            spec.setup.cluster(spec.degree),
            spec.setup.videos(),
            spec.layout,
            dispatcher_factory=make_dispatcher_factory(spec.dispatcher),
            backbone_mbps=spec.backbone_mbps,
        )
        if spec.config_key:
            if len(_SIM_MEMO) >= _SIM_MEMO_MAX:
                _SIM_MEMO.pop(next(iter(_SIM_MEMO)))
            _SIM_MEMO[spec.config_key] = simulator
    return simulator


def trial_run_kwargs(spec: TrialSpec) -> dict:
    """Chaos keyword arguments for ``run()``, built from the spec's recipe.

    The failure schedule is derived per run from
    ``SeedSequence(seed, spawn_key=(0xFA11, run_index[, shard]))`` — a
    stream disjoint from the workload's ``spawn_key=(run_index[, shard])``
    — so enabling chaos never perturbs the arrival process.
    """
    if spec.failures is None:
        return {}
    cluster = spec.setup.cluster(spec.degree)
    return {
        "failures": spec.failures.build(
            cluster.num_servers,
            spec.resolved_horizon_min(),
            seed=spec.seed,
            run_index=spec.run_index,
            shard=spec.shard_index,
        ),
        "failover_on_down": spec.failover_on_down,
        "failover": spec.failover,
        "rereplication": spec.rereplication,
    }


def run_trial(spec: TrialSpec) -> SimulationResult:
    """Simulate one trial (the function a pool worker executes)."""
    simulator = _simulator_for(spec)
    return simulator.run(
        trial_trace(spec),
        horizon_min=spec.resolved_horizon_min(),
        **trial_run_kwargs(spec),
        **engine_run_kwargs(spec.engine),
    )
