"""The benchmark's three workloads: what they run, report and check.

Each workload is a batch job run serially in one process (a closed loop
of one client): the constructor builds its configuration from the seed
(the set-up that ``setup_s`` times), :meth:`run_pass` is one timed pass,
and :meth:`check` verifies the outputs outside the timed region.

* ``paper-figures`` -- Figures 4-6 of the paper at ``quick(num_runs=3)``:
  1,152 short trials of the M=200, N=8 system, so the fixed cost of each
  trial (trace, dispatcher tables, runner, ``solve``) is a large share.
* ``cache-scale`` -- two ``solve()`` calls at N=100, M=10k over 600-minute
  peaks, at 95% and 100% of saturation: long event streams.
* ``serve-days`` -- the serving control plane over 48 epochs (two diurnal
  days) with drift, re-planning, annealing polish, surrogate screening,
  elasticity, least-loaded dispatch and MTBF failures with failover.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace

from repro import pipeline
from repro.cluster_sim import (
    ENGINES,
    engine_run_kwargs,
    make_dispatcher_factory,
    make_simulator,
)
from repro.cluster_sim.failures import FailoverPolicy
from repro.experiments import PaperSetup, fig4, fig5, fig6
from repro.experiments.fig4 import FIG4_SUBPLOTS
from repro.experiments.runner import (
    build_layout,
    rejection_summary,
    workload_seed,
)
from repro.runtime import ParallelRunner, RunReport, make_trials, use_runner
from repro.runtime import trial as runtime_trial
from repro.serving import ServingConfig, ServingControlPlane, chain_batch_epochs

#: The paper setup's default seed (``PaperSetup.seed``).
DEFAULT_SEED = 20020818


@dataclass
class PassOutput:
    """What one pass produced: a digest of its simulated outputs, the load
    it actually ran, and the objects :meth:`Workload.check` inspects."""

    digest: str
    requests: int
    rejected: int
    load: dict
    payload: object = field(repr=False, default=None)

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.requests if self.requests else 0.0


@dataclass
class CheckTally:
    """Checked operations attempted and failed, with failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    engine_seconds: dict = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


@dataclass
class TallyReport(RunReport):
    """A run report that also totals simulated and rejected requests."""

    num_requests: int = 0
    num_rejected: int = 0

    def record_simulated(self, result) -> None:
        super().record_simulated(result)
        self.num_requests += result.num_requests
        self.num_rejected += result.num_rejected


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _result_summary(result) -> list:
    """The deterministic fields of a SimulationResult that a digest covers."""
    return [
        int(result.num_requests),
        int(result.num_rejected),
        int(result.num_events),
        [repr(float(x)) for x in result.server_time_avg_load_mbps],
    ]


def clear_simulator_memo() -> None:
    """Forget the runtime's per-process simulator memo.

    Trials reuse a simulator per design point within one process; a fresh
    user run starts with the memo empty, so every pass starts that way too
    (otherwise later passes would skip the simulator builds the first one
    paid for).
    """
    runtime_trial._SIM_MEMO.clear()


def engine_sample(setup, layout, *, theta, degree, rate, run_indices, tally,
                  label):
    """Re-run trials of one design point on every registered engine.

    Each static-round-robin trial's trace is regenerated exactly as
    ``solve`` does (same workload seed, same spawn key), simulated on
    every engine in
    ``ENGINES`` and compared ``same_outcome`` against ``reference``.
    Returns the reference results; per-engine run time is added to
    ``tally.engine_seconds``.
    """
    specs = make_trials(
        setup,
        layout,
        theta=theta,
        degree=degree,
        arrival_rate_per_min=rate,
        seed=workload_seed(setup.seed, rate, theta),
        num_runs=max(run_indices) + 1,
        horizon_min=setup.peak_minutes,
    )
    reference = []
    for run_index in run_indices:
        trace = runtime_trial.trial_trace(specs[run_index])
        results = {}
        for engine in ENGINES:
            simulator = make_simulator(
                engine,
                setup.cluster(degree),
                setup.videos(),
                layout,
                dispatcher_factory=make_dispatcher_factory("static_rr"),
            )
            start = time.perf_counter()
            results[engine] = simulator.run(
                trace,
                horizon_min=setup.peak_minutes,
                **engine_run_kwargs(engine),
            )
            tally.engine_seconds[engine] = (
                tally.engine_seconds.get(engine, 0.0)
                + time.perf_counter() - start
            )
        for engine, result in results.items():
            tally.expect(
                result.same_outcome(results["reference"]),
                f"{label} run {run_index}: engine {engine} differs from "
                "reference",
            )
        reference.append(results["reference"])
    return reference


class Workload:
    """Base: name, rationale, and the pass/check protocol."""

    name = ""
    why = ""

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = int(seed)

    def run_pass(self) -> PassOutput:
        raise NotImplementedError

    def check(self, outputs: list[PassOutput]) -> CheckTally:
        """Check the passes' outputs; every pass must give one digest.

        The oracle checks inspect the first pass, the one that keeps its
        payload (see ``run_passes`` in ``run.py``).
        """
        tally = CheckTally()
        for index, output in enumerate(outputs[1:], start=1):
            tally.expect(
                output.digest == outputs[0].digest,
                f"pass {index} digest {output.digest[:12]} != pass 0 "
                f"{outputs[0].digest[:12]}",
            )
        try:
            self._check(outputs[0], tally)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            tally.expect(False, f"check raised {type(exc).__name__}: {exc}")
        return tally

    def _check(self, output: PassOutput, tally: CheckTally) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
class PaperFigures(Workload):
    name = "paper-figures"
    why = (
        "Figs. 4-6 at quick(num_runs=3): 1,152 short trials of the paper's "
        "8-server, 200-video system, so per-trial fixed cost weighs heavily"
    )

    def __init__(self, seed: int = DEFAULT_SEED, *, smoke: bool = False) -> None:
        super().__init__(seed)
        setup = PaperSetup(seed=self.seed).quick(num_runs=3)
        if smoke:
            small = setup.scaled_down(num_runs=1)
            setup = replace(
                small,
                replication_degrees=(1.0, 1.2),
                arrival_rates_per_min=(
                    small.saturation_rate_per_min,
                    max(small.arrival_rates_per_min),
                ),
            )
        self.setup = setup

    def run_pass(self) -> PassOutput:
        setup = self.setup
        report = TallyReport()
        with use_runner(ParallelRunner(1, report=report)):
            figures = {
                "fig4": fig4.run_fig4(setup),
                "fig5": fig5.run_fig5(setup),
                "fig6": fig6.run_fig6(setup),
            }
        saturation = setup.saturation_rate_per_min
        fractions = [r / saturation for r in setup.arrival_rates_per_min]
        return PassOutput(
            digest=_digest(figures),
            requests=report.num_requests,
            rejected=report.num_rejected,
            load={
                "trials": report.num_trials,
                "offered_load_min": min(fractions),
                "offered_load_max": max(fractions),
                "offered_load_mean": sum(fractions) / len(fractions),
            },
            payload=figures["fig4"],
        )

    def _samples(self):
        """(fig 4 subplot, combo, theta, degree, rate) oracle samples: the
        paper system at saturation (lambda=40 at full size) and at the
        sweep's highest rate."""
        setup = self.setup
        rates = setup.arrival_rates_per_min
        saturation = setup.saturation_rate_per_min
        _, zipf_slf, _ = FIG4_SUBPLOTS[0]
        _, class_rr, _ = FIG4_SUBPLOTS[3]
        return (
            ("a", zipf_slf, setup.theta_high, 1.2, saturation),
            ("d", class_rr, setup.theta_low, 1.0, max(rates)),
        )

    def _check(self, output: PassOutput, tally: CheckTally) -> None:
        setup = self.setup
        fig4_result = output.payload
        for key, combo, theta, degree, rate in self._samples():
            layout = build_layout(setup, combo, theta, degree)
            reference = engine_sample(
                setup, layout, theta=theta, degree=degree, rate=rate,
                run_indices=range(setup.num_runs), tally=tally,
                label=f"fig4({key}) {combo.label} rate={rate:g}",
            )
            published = fig4_result["subplots"][key]["curves"][degree][
                list(setup.arrival_rates_per_min).index(rate)
            ]
            tally.expect(
                rejection_summary(reference).mean == published,
                f"fig4({key}) degree {degree} rate {rate:g}: published "
                f"{published!r} != reference mean",
            )


# ----------------------------------------------------------------------
class CacheScale(Workload):
    name = "cache-scale"
    why = (
        "two solve() calls at N=100, M=10k, 600-min peaks at 95% and 100% "
        "of saturation: long event streams at E17's size"
    )
    loads = (0.95, 1.0)
    theta = 0.9
    degree = 1.2

    def __init__(self, seed: int = DEFAULT_SEED, *, smoke: bool = False) -> None:
        super().__init__(seed)
        if smoke:
            setup = PaperSetup(
                num_servers=10, num_videos=500, num_runs=1, peak_minutes=90,
                seed=self.seed,
            )
        else:
            setup = PaperSetup(
                num_servers=100, num_videos=10_000, num_runs=2,
                peak_minutes=600, seed=self.seed,
            )
        self.setup = setup
        self.configs = [
            pipeline.PipelineConfig(
                setup=setup,
                theta=self.theta,
                replication_degree=self.degree,
                arrival_rate_per_min=round(load * setup.saturation_rate_per_min, 6),
                replicator="zipf",
                placer="slf",
                dispatcher="static_rr",
            )
            for load in self.loads
        ]

    def run_pass(self) -> PassOutput:
        solved = [
            pipeline.solve(config, runner=ParallelRunner(1))
            for config in self.configs
        ]
        results = [r for s in solved for r in s.results]
        return PassOutput(
            digest=_digest(
                [[_result_summary(r) for r in s.results] for s in solved]
            ),
            requests=sum(r.num_requests for r in results),
            rejected=sum(r.num_rejected for r in results),
            load={
                "trials": len(results),
                "offered_load": list(self.loads),
                "rejection_by_load": [s.rejection.mean for s in solved],
            },
            payload=solved,
        )

    def _check(self, output: PassOutput, tally: CheckTally) -> None:
        for load, solved in zip(self.loads, output.payload):
            config = solved.config
            (reference,) = engine_sample(
                self.setup, solved.layout, theta=config.theta,
                degree=config.replication_degree,
                rate=config.arrival_rate_per_min, run_indices=[0],
                tally=tally, label=f"load {load:g}",
            )
            tally.expect(
                solved.results[0].same_outcome(reference),
                f"load {load:g}: timed pass result differs from reference",
            )


# ----------------------------------------------------------------------
class ServeDays(Workload):
    name = "serve-days"
    why = (
        "the serve verb over 48 epochs (two days): drift, re-plans, SA "
        "polish, surrogate screen, elasticity, least-loaded dispatch, failures"
    )

    def __init__(self, seed: int = DEFAULT_SEED, *, smoke: bool = False) -> None:
        super().__init__(seed)
        if smoke:
            setup = PaperSetup(num_servers=4, num_videos=100, seed=self.seed)
            size = dict(
                epochs=6, day_epochs=3, base_rate_per_min=10.0,
                peak_rate_per_min=21.0, flash_epochs=(2,), move_budget=40,
            )
        else:
            setup = PaperSetup(num_servers=16, num_videos=1000, seed=self.seed)
            size = dict(
                epochs=48, day_epochs=24, base_rate_per_min=40.0,
                peak_rate_per_min=84.0, flash_epochs=(12, 36), move_budget=200,
            )
        self.setup = setup
        self.config = ServingConfig(
            setup=setup,
            drift="rankswap:25",
            drift_threshold=0.05,
            screen=True,
            anneal_polish=True,
            elastic=True,
            slo_rejection_rate=0.03,
            dispatcher="least_loaded",
            failures="mtbf:mtbf=900,mttr=30",
            failover=FailoverPolicy(),
            **size,
        )

    def run_pass(self) -> PassOutput:
        result = ServingControlPlane(self.config).run()
        saturation = self.setup.saturation_rate_per_min
        fractions = [s.offered_rate_per_min / saturation for s in result.snapshots]
        return PassOutput(
            digest=result.digest(),
            requests=sum(s.num_requests for s in result.snapshots),
            rejected=result.total_rejected,
            load={
                "epochs": result.epochs,
                "generated": result.total_generated,
                "offered_load_mean": sum(fractions) / len(fractions),
                "offered_load_max": max(fractions),
                "replans": sum(1 for s in result.snapshots if s.replanned),
                "migrations": result.replans,
                "adds": result.servers_added,
                "drains": result.servers_drained,
                "replicas_copied": result.total_replicas_copied,
            },
            payload=result,
        )

    def _check(self, output: PassOutput, tally: CheckTally) -> None:
        """The ``--serving`` fuzzer's per-epoch checks, plus a lockstep
        check of every engine on the first epochs of the frozen plane."""
        config = self.config
        result = output.payload
        for s in result.snapshots:
            tally.expect(
                s.num_admitted + s.num_rejected == s.num_requests,
                f"epoch {s.epoch}: admitted + rejected != requests",
            )
            tally.expect(
                s.num_requests + s.num_truncated == s.num_generated,
                f"epoch {s.epoch}: requests + truncated != generated",
            )
            tally.expect(
                s.replicas_copied <= config.move_budget,
                f"epoch {s.epoch}: copied {s.replicas_copied} > budget",
            )
            tally.expect(
                not (s.cold and s.migration_executed),
                f"epoch {s.epoch}: migration in a cold epoch",
            )
        actions = [s.epoch for s in result.snapshots if s.elasticity_action]
        for prev, cur in zip(actions, actions[1:]):
            tally.expect(
                cur - prev > config.cooldown_epochs,
                f"elastic actions at epochs {prev} and {cur} violate cooldown",
            )

        frozen = replace(config.frozen(), epochs=2)
        chains = {}
        for engine in ENGINES:
            start = time.perf_counter()
            chains[engine] = chain_batch_epochs(replace(frozen, engine=engine))
            tally.engine_seconds[engine] = time.perf_counter() - start
        for engine, chain in chains.items():
            for epoch, (got, want) in enumerate(zip(chain, chains["reference"])):
                tally.expect(
                    got.same_outcome(want),
                    f"frozen epoch {epoch}: engine {engine} differs from "
                    "reference",
                )


WORKLOADS = {cls.name: cls for cls in (PaperFigures, CacheScale, ServeDays)}
