"""The one-call facade: replicate -> place -> (refine) -> simulate.

:func:`solve` chains the full experiment pipeline of the paper behind a
single :class:`PipelineConfig`, so a design point that used to take five
imports and manual seed plumbing is one call::

    from repro import PipelineConfig, solve

    result = solve(PipelineConfig(theta=0.75, replication_degree=1.2,
                                  arrival_rate_per_min=30.0))
    print(result.format())

Reproducibility contract: the facade derives its workload seed through
:func:`repro.experiments.workload_seed` — the same derivation
``simulate_combo`` uses — so ``solve()`` reproduces the experiment CLI's
Figure-4/5/6 numbers bit-identically for the same setup and design point.

Two refinement stages are optional:

* ``refine=True`` hill-climbs the placement's Eq. (2) imbalance
  (:func:`repro.placement.refine_placement`);
* ``anneal=True`` switches to the scalable-bit-rate setting (Sec. 5.4) and
  replaces replication+placement entirely with simulated-annealing chains
  over :class:`repro.annealing.ScalableBitRateProblem`.

Pass ``observer=`` (a :class:`repro.observe.Observer`) to record per-phase
wall time, per-server utilization timelines, SA level traces and sampled
simulator events; observed runs are bit-identical to unobserved ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis.stats import Summary, summarize
from .analysis.surrogate import SurrogateWorkload, evaluate_layouts
from .config_core import SimulationConfig
from .experiments.runner import workload_seed
from .observe.profile import timed
from .placement import (
    GreedyLeastLoadedPlacer,
    PopularityStripePlacer,
    RoundRobinPlacer,
    SmallestLoadFirstPlacer,
    refine_placement,
)
from .runtime import ParallelRunner, make_trials, use_runner
from .replication import REPLICATOR_REGISTRY

__all__ = ["PipelineConfig", "PipelineResult", "SurrogateScreen", "solve"]

#: Replication algorithms selectable by name in :class:`PipelineConfig` —
#: the shared registry in :mod:`repro.replication` (one source of truth
#: for the facade, the CLI and the surrogate screen).
REPLICATORS = REPLICATOR_REGISTRY

#: Placement algorithms selectable by name in :class:`PipelineConfig`.
PLACERS = {
    "slf": SmallestLoadFirstPlacer,
    "round_robin": RoundRobinPlacer,
    "greedy": GreedyLeastLoadedPlacer,
    "p2p_stripe": PopularityStripePlacer,
}


@dataclass(frozen=True)
class PipelineConfig(SimulationConfig):
    """Everything :func:`solve` needs for one design point.

    The simulation-facing knobs shared with the serving plane (theta,
    replication degree, dispatcher, **engine**, backbone, chaos stack,
    shards, setup) live on the common :class:`repro.config_core.
    SimulationConfig` base and are documented there; the fields below
    are the batch pipeline's own.

    Attributes
    ----------
    arrival_rate_per_min:
        Poisson request rate of the simulated peak period.
    num_runs:
        Independent simulation runs to average; ``None`` takes the setup's
        default (20 for the paper setup).
    replicator / placer:
        Algorithm names (see :data:`REPLICATORS` / :data:`PLACERS`).
    refine:
        Hill-climb the placement (Eq. 2 imbalance) before simulating.
    refine_max_steps:
        Step cap for the refinement pass.
    anneal:
        Use SA over the scalable-bit-rate problem *instead of* the
        replicator/placer pair (requires >= 2 allowed bit rates).
    anneal_chains / anneal_steps_per_level / anneal_max_levels / anneal_seed:
        SA chain count, per-level step budget, level cap, and chain seed.
    surrogate:
        Surrogate-guided sweep mode: instead of simulating the single
        replicator/placer design, screen ``screen_candidates`` candidate
        layouts with the analytical Erlang fixed-point surrogate
        (:mod:`repro.analysis.surrogate`), DES-simulate only the
        ``screen_top_k`` best-predicted survivors, and keep the winner.
        Incompatible with ``anneal`` (scalable rates are outside the
        Erlang model) and with ``shards > 1``.
    screen_candidates:
        Candidate layouts to score analytically: every replicator x
        placer combo, its Eq. (2)-refined variant, and random feasible
        layouts filling up the remainder.
    screen_top_k:
        Survivors of the analytical screen that get DES confirmation.
    screen_seed:
        Seed for the random candidate layouts of the screen.
    seed_salt:
        Extra salt folded into the workload seed.
    """

    arrival_rate_per_min: float = 30.0
    num_runs: int | None = None
    replicator: str = "zipf"
    placer: str = "slf"
    refine: bool = False
    refine_max_steps: int = 10_000
    anneal: bool = False
    anneal_chains: int = 2
    anneal_steps_per_level: int = 200
    anneal_max_levels: int = 60
    anneal_seed: int = 0
    surrogate: bool = False
    screen_candidates: int = 24
    screen_top_k: int = 3
    screen_seed: int = 0
    seed_salt: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.replicator not in REPLICATORS:
            raise ValueError(
                f"unknown replicator {self.replicator!r}; "
                f"choose from {sorted(REPLICATORS)}"
            )
        if self.placer not in PLACERS:
            raise ValueError(
                f"unknown placer {self.placer!r}; choose from {sorted(PLACERS)}"
            )
        if self.num_runs is not None and self.num_runs < 1:
            raise ValueError(f"num_runs must be >= 1, got {self.num_runs}")
        if self.surrogate:
            if self.anneal:
                raise ValueError(
                    "surrogate screening needs fixed-rate layouts; it is "
                    "incompatible with anneal=True (scalable bit rates)"
                )
            if self.shards > 1:
                raise ValueError(
                    "surrogate screening does not compose with shards > 1"
                )
            if self.screen_top_k < 1:
                raise ValueError(
                    f"screen_top_k must be >= 1, got {self.screen_top_k}"
                )
            if self.screen_candidates < self.screen_top_k:
                raise ValueError(
                    "screen_candidates must be >= screen_top_k, got "
                    f"{self.screen_candidates} < {self.screen_top_k}"
                )


@dataclass(frozen=True)
class SurrogateScreen:
    """Record of one surrogate-guided screening pass.

    ``predicted_rejections[i]`` is the analytical Erlang fixed-point
    prediction for candidate ``labels[i]``; ``survivors`` lists the
    top-K candidate indices that were DES-confirmed, ``confirmed``
    their simulated rejection summaries (same order), and ``chosen``
    the winning candidate's index.
    """

    labels: tuple = field(default=())
    predicted_rejections: np.ndarray = field(repr=False, default=None)
    survivors: tuple = field(default=())
    confirmed: tuple = field(repr=False, default=())
    chosen: int = 0
    diagnostics: object = field(repr=False, default=None)

    @property
    def num_candidates(self) -> int:
        return len(self.labels)

    @property
    def chosen_label(self) -> str:
        return self.labels[self.chosen]

    def format(self) -> str:
        lines = [
            f"screen        {self.num_candidates} candidates -> "
            f"{len(self.survivors)} DES-confirmed ({self.diagnostics})"
        ]
        confirmed = dict(zip(self.survivors, self.confirmed))
        order = sorted(
            range(self.num_candidates),
            key=lambda i: self.predicted_rejections[i],
        )
        for rank, index in enumerate(order):
            if index in confirmed:
                note = f"DES {confirmed[index].mean:.4f}"
                if index == self.chosen:
                    note += "  <- chosen"
            elif rank < 8:
                note = "screened out"
            else:
                continue  # keep the report short past the top ranks
            lines.append(
                f"  {self.labels[index]:<20} predicted "
                f"{self.predicted_rejections[index]:.4f}  {note}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class PipelineResult:
    """Everything one :func:`solve` call produced.

    ``replication``/``refinement``/``sa_result``/``screen`` are ``None``
    for the stages the configuration skipped.
    """

    config: PipelineConfig
    layout: object = field(repr=False)
    replication: object = field(repr=False, default=None)
    refinement: object = field(repr=False, default=None)
    sa_result: object = field(repr=False, default=None)
    screen: SurrogateScreen | None = field(repr=False, default=None)
    results: list = field(repr=False, default_factory=list)
    rejection: Summary | None = None
    imbalance_percent: Summary | None = None
    report: object = field(repr=False, default=None)

    def format(self) -> str:
        """Human-readable pipeline summary (the CLI's output)."""
        config = self.config
        lines = [
            (
                f"pipeline: theta={config.theta:g} "
                f"degree={config.replication_degree:g} "
                f"rate={config.arrival_rate_per_min:g}/min "
                f"({'sa' if config.anneal else config.replicator + '+' + config.placer}"
                f"{'+refine' if config.refine else ''}, "
                f"dispatcher={config.dispatcher}, engine={config.engine})"
            )
        ]
        if self.replication is not None:
            lines.append(
                f"  replication  {self.replication.total_replicas} replicas, "
                f"max weight {self.replication.max_weight():.4f}"
            )
        if self.refinement is not None:
            lines.append(
                f"  refinement   imbalance {self.refinement.initial_imbalance:.4f}"
                f" -> {self.refinement.final_imbalance:.4f} "
                f"({self.refinement.moves} moves, {self.refinement.swaps} swaps)"
            )
        if self.sa_result is not None:
            lines.append(
                f"  annealing    best cost {self.sa_result.best_cost:.6f} "
                f"({self.sa_result.levels} levels, {self.sa_result.steps:,} steps)"
            )
        if self.screen is not None:
            lines.extend("  " + line for line in self.screen.format().splitlines())
        if self.rejection is not None:
            lines.append(f"  rejection    {self.rejection}")
        if self.imbalance_percent is not None:
            lines.append(f"  L (%)        {self.imbalance_percent}")
        if self.report is not None:
            lines.extend("  " + line for line in self.report.format().splitlines())
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


def _design_layout(config: PipelineConfig, sink, observer):
    """Replication + placement (+ optional refinements) for the config."""
    setup = config.setup
    if config.anneal:
        # Scalable-rate setting: SA chains over the Eq. (1) objective
        # replace the replicate+place pair (Sec. 5.4).
        from .annealing import ScalableBitRateProblem, SimulatedAnnealer, run_chains

        problem = ScalableBitRateProblem(
            setup.problem(
                config.theta,
                config.replication_degree,
                arrival_rate_per_min=config.arrival_rate_per_min,
                scalable=True,
            )
        )
        annealer = SimulatedAnnealer(
            steps_per_level=config.anneal_steps_per_level,
            max_levels=config.anneal_max_levels,
        )
        with timed(sink, "anneal"):
            chains = run_chains(
                problem,
                annealer,
                num_chains=config.anneal_chains,
                seed=config.anneal_seed,
            )
            best = chains.best
            if observer is not None:
                observer.sa_run_finished(best)
        return problem.to_layout(best.best_state), None, None, best

    popularity = setup.popularity(config.theta)
    budget = setup.replica_budget(config.replication_degree)
    capacity = setup.capacity_replicas(config.replication_degree)
    with timed(sink, "replicate"):
        replication = REPLICATORS[config.replicator]().replicate(
            popularity.probabilities, setup.num_servers, budget
        )
    with timed(sink, "place"):
        layout = PLACERS[config.placer]().place(
            replication, capacity, bit_rate_mbps=setup.bit_rate_mbps
        )
    refinement = None
    if config.refine:
        with timed(sink, "refine"):
            refinement = refine_placement(
                layout,
                popularity.probabilities,
                capacity,
                max_steps=config.refine_max_steps,
            )
            layout = refinement.layout
    return layout, replication, refinement, None


def _screen_candidates(config: PipelineConfig):
    """Deterministic candidate layouts for the surrogate screen.

    Every replicator x placer combo, an Eq. (2)-refined variant of each,
    and seeded random feasible layouts (of the config's replicator)
    filling up to ``screen_candidates``.
    """
    from .placement import RandomFeasiblePlacer

    setup = config.setup
    popularity = setup.popularity(config.theta)
    budget = setup.replica_budget(config.replication_degree)
    capacity = setup.capacity_replicas(config.replication_degree)
    replications = {
        name: cls().replicate(popularity.probabilities, setup.num_servers, budget)
        for name, cls in REPLICATORS.items()
    }

    labels, layouts = [], []

    def add(label: str, layout) -> None:
        labels.append(label)
        layouts.append(layout)

    for rep_name, replication in replications.items():
        for placer_name, placer_cls in PLACERS.items():
            if len(labels) >= config.screen_candidates:
                break
            layout = placer_cls().place(
                replication, capacity, bit_rate_mbps=setup.bit_rate_mbps
            )
            add(f"{rep_name}+{placer_name}", layout)
    for label, layout in list(zip(labels, layouts)):
        if len(labels) >= config.screen_candidates:
            break
        refinement = refine_placement(
            layout,
            popularity.probabilities,
            capacity,
            max_steps=config.refine_max_steps,
        )
        add(f"{label}+refine", refinement.layout)
    base_replication = replications[config.replicator]
    index = 0
    while len(labels) < config.screen_candidates:
        rng = np.random.default_rng(
            np.random.SeedSequence((config.screen_seed, index))
        )
        add(
            f"{config.replicator}+random{index:02d}",
            RandomFeasiblePlacer(rng).place(
                base_replication, capacity, bit_rate_mbps=setup.bit_rate_mbps
            ),
        )
        index += 1
    return labels, layouts


def _screen_and_confirm(config: PipelineConfig, sink, runner):
    """Surrogate screen -> DES-confirm top-K -> keep the winner.

    Returns ``(layout, screen, results)`` where *results* are the
    winner's simulation runs (they double as the pipeline's results —
    the winner is never simulated twice).
    """
    setup = config.setup
    with timed(sink, "screen"):
        labels, layouts = _screen_candidates(config)
        workload = SurrogateWorkload.from_setup(
            setup, config.theta, config.arrival_rate_per_min
        )
        batch = evaluate_layouts(
            layouts,
            workload,
            setup.cluster(config.replication_degree),
            dispatcher=config.dispatcher,
        )
        survivors = tuple(
            int(i) for i in batch.ranking()[: config.screen_top_k]
        )

    num_runs = config.num_runs if config.num_runs is not None else setup.num_runs
    seed = workload_seed(
        setup.seed, config.arrival_rate_per_min, config.theta, config.seed_salt
    )
    confirmed_results = []
    with timed(sink, "confirm"):
        for index in survivors:
            trials = make_trials(
                setup,
                layouts[index],
                theta=config.theta,
                degree=config.replication_degree,
                arrival_rate_per_min=config.arrival_rate_per_min,
                seed=seed,
                num_runs=num_runs,
                dispatcher=config.dispatcher,
                backbone_mbps=config.backbone_mbps,
                horizon_min=setup.peak_minutes,
                failures=config.failures,
                failover=config.failover,
                rereplication=config.rereplication,
                failover_on_down=config.failover_on_down,
                engine=config.engine,
            )
            confirmed_results.append(runner.run_trials(trials))
    confirmed = tuple(
        summarize([r.rejection_rate for r in results])
        for results in confirmed_results
    )
    best = min(range(len(survivors)), key=lambda i: confirmed[i].mean)
    screen = SurrogateScreen(
        labels=tuple(labels),
        predicted_rejections=batch.rejection_rates,
        survivors=survivors,
        confirmed=confirmed,
        chosen=survivors[best],
        diagnostics=batch.diagnostics,
    )
    return layouts[screen.chosen], screen, confirmed_results[best]


def solve(
    config: PipelineConfig,
    *,
    observer=None,
    runner: ParallelRunner | None = None,
    layout=None,
) -> PipelineResult:
    """Run the full pipeline for one design point.

    Parameters
    ----------
    config:
        The design point and algorithm selection.
    observer:
        Optional :class:`repro.observe.Observer`.  When set, simulations
        run serially in-process (an observer cannot cross the worker-pool
        boundary) with full instrumentation; results are bit-identical to
        the unobserved pooled path.
    runner:
        Optional :class:`repro.runtime.ParallelRunner` to simulate
        through; a fresh serial runner is used otherwise.  Ignored for the
        simulation stage when ``observer`` is set (see above), but still
        accumulates the run report.
    layout:
        Optional pre-built :class:`repro.model.layout.ReplicaLayout` to
        simulate directly, skipping the replicate/place/refine design
        stage (``PipelineResult.replication``/``refinement`` come back
        ``None``).  This is how ``experiments.simulate_combo`` reuses one
        layout across an arrival-rate sweep.  Incompatible with
        ``surrogate`` and ``anneal`` modes, which design their own layouts.
    """
    if layout is not None and (config.surrogate or config.anneal):
        raise ValueError(
            "layout= overrides the design stage; it is incompatible with "
            "surrogate=True and anneal=True, which build their own layouts"
        )
    if runner is None:
        runner = ParallelRunner(jobs=1, observer=observer)
    report = runner.report
    sink = observer if observer is not None else report

    if config.surrogate:
        with use_runner(runner):
            layout, screen, results = _screen_and_confirm(config, sink, runner)
        if observer is not None:
            observer.fold_into_report(report)
        return PipelineResult(
            config=config,
            layout=layout,
            screen=screen,
            results=results,
            rejection=summarize([r.rejection_rate for r in results]),
            imbalance_percent=summarize(
                [r.load_imbalance_percent() for r in results]
            ),
            report=report,
        )

    with use_runner(runner):
        if layout is None:
            layout, replication, refinement, sa_result = _design_layout(
                config, sink, observer
            )
        else:
            replication = refinement = sa_result = None

        setup = config.setup
        num_runs = config.num_runs if config.num_runs is not None else setup.num_runs
        seed = workload_seed(
            setup.seed, config.arrival_rate_per_min, config.theta, config.seed_salt
        )
        trials = make_trials(
            setup,
            layout,
            theta=config.theta,
            degree=config.replication_degree,
            arrival_rate_per_min=config.arrival_rate_per_min,
            seed=seed,
            num_runs=num_runs,
            dispatcher=config.dispatcher,
            backbone_mbps=config.backbone_mbps,
            horizon_min=setup.peak_minutes,
            failures=config.failures,
            failover=config.failover,
            rereplication=config.rereplication,
            failover_on_down=config.failover_on_down,
            num_shards=config.shards,
            engine=config.engine,
        )
        if observer is not None:
            # Serial in-process simulation so the observer sees every run;
            # same trace regeneration and simulator as the pooled path.
            from .cluster_sim import (
                engine_run_kwargs,
                make_dispatcher_factory,
                make_simulator,
            )
            from .runtime.trial import trial_run_kwargs, trial_trace

            if config.engine == "reference":
                raise ValueError(
                    "observer= requires an engine with observation support; "
                    "the reference oracle loop has none (use optimized, "
                    "vector or audited)"
                )
            simulator = make_simulator(
                config.engine,
                setup.cluster(config.replication_degree),
                setup.videos(),
                layout,
                dispatcher_factory=make_dispatcher_factory(config.dispatcher),
                backbone_mbps=config.backbone_mbps,
            )
            import time

            start = time.perf_counter()
            with timed(sink, "simulate"):
                results = [
                    simulator.run(
                        trial_trace(spec),
                        horizon_min=spec.resolved_horizon_min(),
                        observer=observer,
                        **trial_run_kwargs(spec),
                        **engine_run_kwargs(config.engine),
                    )
                    for spec in trials
                ]
            for result in results:
                report.record_simulated(result)
            report.record_batch(time.perf_counter() - start)
        else:
            results = runner.run_trials(trials)

        if config.shards > 1:
            from .cluster_sim.sharding import merge_results

            # Per-shard phase timings: shard k's wall time summed over all
            # runs, so the RunReport/observer shows where the shard budget
            # went even when the shards ran in a worker pool.
            for k in range(config.shards):
                sink.record_phase(
                    f"shard{k}",
                    sum(
                        results[r * config.shards + k].wall_time_sec
                        for r in range(num_runs)
                    ),
                )
            with timed(sink, "merge"):
                results = [
                    merge_results(
                        results[r * config.shards : (r + 1) * config.shards]
                    )
                    for r in range(num_runs)
                ]

    if observer is not None:
        observer.fold_into_report(report)

    return PipelineResult(
        config=config,
        layout=layout,
        replication=replication,
        refinement=refinement,
        sa_result=sa_result,
        results=results,
        rejection=summarize([r.rejection_rate for r in results]),
        imbalance_percent=summarize([r.load_imbalance_percent() for r in results]),
        report=report,
    )
