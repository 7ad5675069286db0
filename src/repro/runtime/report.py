"""Run instrumentation: wall time, event throughput, cache effectiveness.

A :class:`RunReport` accumulates counters across every batch an experiment
pushes through the runner and renders them as the structured run report the
CLI prints after each experiment::

    run report: 384 trials (372 simulated, 12 cache hits, 3.1% hit rate)
      jobs=4  wall 9.84s  sim-time 31.20s (3.17x concurrency)
      events 1,203,511 simulated  122.3k events/s wall, 38.6k events/s per worker
      engine vector 384 runs  vector fallbacks 0/3072 servers

Field names follow the canonical result schema (DESIGN.md "Canonical
result-field schema"): counts are ``num_*``, durations ``*_sec``, rates
``*_rate``.  The pre-schema names (``trials``, ``simulated``, ...) were
deprecated aliases for one release window and have been removed (see
DESIGN.md "Deprecation windows").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster_sim.metrics import SimulationResult

__all__ = ["RunReport"]


def _si(value: float) -> str:
    """Compact thousands formatting (``38.6k``, ``1.2M``)."""
    for divisor, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= divisor:
            return f"{value / divisor:.1f}{suffix}"
    return f"{value:.1f}"


@dataclass
class RunReport:
    """Mutable counters describing one experiment run through the engine.

    Attributes
    ----------
    num_trials:
        Trials requested (cache hits + simulations).
    num_simulated:
        Trials actually simulated this run.
    num_cache_hits:
        Trials answered from the on-disk result cache.
    num_events:
        Simulator events processed by the simulated trials.
    sim_time_sec:
        Sum of per-trial simulator wall times (CPU-side work); with ``jobs``
        workers this exceeds ``wall_time_sec`` by up to a factor of ``jobs``.
    wall_time_sec:
        End-to-end engine time, including cache probes and pool overhead.
    num_sa_runs / num_sa_steps / sa_time_sec:
        Simulated-annealing chains recorded via :meth:`record_annealing`:
        run count, total Metropolis steps, and summed annealer wall time.
    num_audited_runs / num_audited_events / num_audit_violations:
        In-situ invariant audits recorded via :meth:`record_audit`: audited
        simulator runs, events those runs checked, and total violations.
    num_failures / num_recoveries / num_retries / num_failovers /
    num_lost_to_failure / num_rereplicated / num_streams_dropped:
        Availability accounting summed over every trial result (cache hits
        included — chaos outcomes are semantic, not engine cost).  All zero
        on failure-free runs, in which case the report omits the line.
    phase_seconds:
        Wall time folded in per named phase via :meth:`record_phase`
        (the :func:`repro.observe.timed` profiling hook).
    engine_paths / handoff_reasons:
        Simulated runs per event loop that actually executed, and per
        reason the ``vector`` engine handed a run to another loop (the
        results' ``engine_path`` / ``handoff_reason``).
    num_vector_fallbacks / num_vector_servers:
        Servers that took the ``vector`` engine's exact scalar replay,
        out of all servers of the runs on the ``vector`` path.
    """

    jobs: int = 1
    num_trials: int = 0
    num_simulated: int = 0
    num_cache_hits: int = 0
    num_events: int = 0
    sim_time_sec: float = 0.0
    wall_time_sec: float = 0.0
    num_sa_runs: int = 0
    num_sa_steps: int = 0
    sa_time_sec: float = 0.0
    num_audited_runs: int = 0
    num_audited_events: int = 0
    num_audit_violations: int = 0
    num_failures: int = 0
    num_recoveries: int = 0
    num_retries: int = 0
    num_failovers: int = 0
    num_lost_to_failure: int = 0
    num_rereplicated: int = 0
    num_streams_dropped: int = 0
    #: Sum of crash-to-repair minutes over all recoveries (for the mean).
    ttr_sum_min: float = 0.0
    phase_seconds: dict = field(default_factory=dict, repr=False)
    engine_paths: dict = field(default_factory=dict)
    handoff_reasons: dict = field(default_factory=dict)
    num_vector_fallbacks: int = 0
    num_vector_servers: int = 0
    batches: int = field(default=0, repr=False)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every counter (``jobs`` is preserved)."""
        self.num_trials = self.num_simulated = self.num_cache_hits = 0
        self.num_events = self.batches = 0
        self.sim_time_sec = self.wall_time_sec = 0.0
        self.num_sa_runs = self.num_sa_steps = 0
        self.sa_time_sec = 0.0
        self.num_audited_runs = self.num_audited_events = 0
        self.num_audit_violations = 0
        self.num_failures = self.num_recoveries = 0
        self.num_retries = self.num_failovers = 0
        self.num_lost_to_failure = self.num_rereplicated = 0
        self.num_streams_dropped = 0
        self.ttr_sum_min = 0.0
        self.phase_seconds = {}
        self.engine_paths = {}
        self.handoff_reasons = {}
        self.num_vector_fallbacks = self.num_vector_servers = 0

    def _record_availability(self, result: SimulationResult) -> None:
        if result.num_failures == 0 and result.streams_dropped == 0:
            return
        self.num_failures += result.num_failures
        self.num_recoveries += result.num_recoveries
        self.num_retries += result.num_retries
        self.num_failovers += result.num_failovers
        self.num_lost_to_failure += result.num_lost_to_failure
        self.num_rereplicated += result.num_rereplicated
        self.num_streams_dropped += result.streams_dropped
        self.ttr_sum_min += (
            result.mean_time_to_recovery_min * result.num_recoveries
        )

    def _record_engine(self, result: SimulationResult) -> None:
        for counts, key in (
            (self.engine_paths, result.engine_path),
            (self.handoff_reasons, result.handoff_reason),
        ):
            if key is not None:
                counts[key] = counts.get(key, 0) + 1
        if result.vector_fallbacks is not None:
            self.num_vector_fallbacks += result.vector_fallbacks
            self.num_vector_servers += result.num_servers

    def record_hit(self, result: SimulationResult) -> None:
        self.num_trials += 1
        self.num_cache_hits += 1
        # Cached events were paid for in an earlier run; availability
        # counters are outcomes, so they fold in either way.
        self._record_availability(result)

    def record_simulated(self, result: SimulationResult) -> None:
        self.num_trials += 1
        self.num_simulated += 1
        self.num_events += result.num_events
        self.sim_time_sec += result.wall_time_sec
        self._record_availability(result)
        self._record_engine(result)

    def record_batch(self, wall_sec: float) -> None:
        self.batches += 1
        self.wall_time_sec += wall_sec

    def record_phase(self, phase: str, seconds: float) -> None:
        """Fold wall time into a named phase (the ``timed()`` sink)."""
        self.phase_seconds[phase] = (
            self.phase_seconds.get(phase, 0.0) + float(seconds)
        )

    def record_annealing(self, result) -> None:
        """Fold one annealing run (anything with ``steps``/``wall_time_sec``).

        Duck-typed so :mod:`repro.annealing` stays import-independent of
        the runtime layer; :func:`repro.annealing.run_chains` calls this on
        the active runner's report for every chain.
        """
        self.num_sa_runs += 1
        self.num_sa_steps += int(result.steps)
        self.sa_time_sec += float(result.wall_time_sec)

    def record_audit(self, report) -> None:
        """Fold one audited run (anything shaped like an ``AuditReport``).

        Duck-typed for the same reason as :meth:`record_annealing`: the
        runtime layer never imports :mod:`repro.verify`.
        """
        self.num_audited_runs += 1
        self.num_audited_events += int(report.events_audited)
        self.num_audit_violations += int(report.num_violations)

    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        """Fraction of trials answered from cache (0 when no trials ran)."""
        return self.num_cache_hits / self.num_trials if self.num_trials else 0.0

    @property
    def events_per_sec(self) -> float:
        """Simulated events per second of engine wall time."""
        return self.num_events / self.wall_time_sec if self.wall_time_sec else 0.0

    @property
    def sa_steps_per_sec(self) -> float:
        """Metropolis steps per second of summed annealer wall time."""
        return self.num_sa_steps / self.sa_time_sec if self.sa_time_sec else 0.0

    @property
    def mean_time_to_recovery_min(self) -> float:
        """Mean crash-to-repair minutes over every recorded recovery."""
        return (
            self.ttr_sum_min / self.num_recoveries
            if self.num_recoveries
            else 0.0
        )

    @property
    def concurrency(self) -> float:
        """Achieved sim-time/wall-time ratio (~jobs under perfect scaling)."""
        return (
            self.sim_time_sec / self.wall_time_sec if self.wall_time_sec else 0.0
        )

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Render the structured run report (see module docstring)."""
        lines = [
            (
                f"run report: {self.num_trials} trials "
                f"({self.num_simulated} simulated, "
                f"{self.num_cache_hits} cache hits, "
                f"{self.cache_hit_rate:.1%} hit rate)"
            ),
            (
                f"  jobs={self.jobs}  wall {self.wall_time_sec:.2f}s  "
                f"sim-time {self.sim_time_sec:.2f}s "
                f"({self.concurrency:.2f}x concurrency)"
            ),
        ]
        per_worker = (
            self.num_events / self.sim_time_sec if self.sim_time_sec else 0.0
        )
        lines.append(
            f"  events {self.num_events:,} simulated  "
            f"{_si(self.events_per_sec)} events/s wall, "
            f"{_si(per_worker)} events/s per worker"
        )
        if self.engine_paths:
            line = "  engine " + ", ".join(
                f"{path} {runs}" for path, runs in self.engine_paths.items()
            ) + " runs"
            if self.handoff_reasons:
                line += " (handoff: " + ", ".join(
                    f"{reason} {runs}"
                    for reason, runs in self.handoff_reasons.items()
                ) + ")"
            if self.num_vector_servers:
                line += (
                    f"  vector fallbacks {self.num_vector_fallbacks}/"
                    f"{self.num_vector_servers} servers"
                )
            lines.append(line)
        if self.num_sa_runs:
            lines.append(
                f"  annealing {self.num_sa_runs} chains  "
                f"{self.num_sa_steps:,} steps  "
                f"{_si(self.sa_steps_per_sec)} steps/s"
            )
        if self.num_audited_runs:
            status = (
                "clean"
                if not self.num_audit_violations
                else f"{self.num_audit_violations} violations"
            )
            lines.append(
                f"  audit {self.num_audited_runs} runs  "
                f"{self.num_audited_events:,} events checked  {status}"
            )
        if self.num_failures or self.num_streams_dropped:
            lines.append(
                f"  chaos {self.num_failures} failures "
                f"({self.num_recoveries} recovered, "
                f"MTTR {self.mean_time_to_recovery_min:.1f} min)  "
                f"{self.num_streams_dropped} streams dropped  "
                f"{self.num_lost_to_failure} requests lost  "
                f"failover {self.num_failovers}/{self.num_retries} retries  "
                f"{self.num_rereplicated} re-replicated"
            )
        if self.phase_seconds:
            rendered = "  ".join(
                f"{phase} {seconds:.2f}s"
                for phase, seconds in self.phase_seconds.items()
            )
            lines.append(f"  phases  {rendered}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()
