"""Audited runs: one engine run plus an independent rebuild.

:func:`run_audited` runs an engine with a private
:class:`~repro.cluster_sim.log.AuditLog` armed — the kernel's event loop
or the ``vector`` engine's batched path; the result is bit-identical to an
unaudited run — and :func:`audit_log` then reconstructs, from the log and
the trace's numpy columns alone, every server's occupancy trajectory, load
integral, backbone occupancy and the admission/departure/drop
conservation tallies, which the auditors check.

Design notes
------------
* There is one event loop.  The log records only what the rebuild cannot
  derive: one decision code per arrival (rejected / admitted on server
  ``k`` / redirected to ``k``), ``(time, server, occupied Mb/s)`` per
  crash, ``(time, server)`` per repair, the failover-retry admissions and
  the last event time of the final horizon drain.  Unarmed, the loop pays
  one ``is None`` test per admission and per final-drain event.
* Monotonicity is audited where a past-dated event could be *introduced*
  (arrival ordering and hold signs, vectorized over the full trace).
* Everything else is *reconstructed* after the run from the log and the
  trace columns (:mod:`repro.cluster_sim.log`, shared with the observer):
  admission times, holds and rates come from the trace and the layout,
  crashes (rare) are replayed over the admission table, and each server's
  occupancy is its events folded in the kernel's order.  The rebuild is
  independent of ``StreamingServer``'s bookkeeping, so a broken
  ``release`` or ``fail`` in the loop shows up as a disagreement
  (``tests/test_verify_auditors.py``'s mutation tests).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..cluster_sim.log import (
    CRASH,
    AuditLog,
    RunEvents,
    admission_table,
    fold,
    server_folds,
)
from ..cluster_sim.metrics import SimulationResult
from .auditors import InvariantAuditor, Violation, standard_auditors

__all__ = ["Trajectory", "AuditReport", "audit_log", "run_audited"]

_EPS_MBPS = 1e-6


class Trajectory:
    """Shadow account of one audited run (consumed by auditor ``finish``)."""

    __slots__ = (
        "horizon_min",
        "arrivals_total",
        "admitted",
        "rejected",
        "departed",
        "dropped",
        "active_end",
        "redirected",
        "events_audited",
        "last_event_time",
        "shadow_used",
        "shadow_streams",
        "load_integral",
        "shadow_backbone",
        "backbone_capacity_mbps",
        "backbone_used_mbps",
        "rate_matrix",
        "crash_records",
        "repair_records",
        "admission_times",
        "admission_servers",
    )

    def __init__(self, num_servers: int, horizon_min: float) -> None:
        self.horizon_min = horizon_min
        self.arrivals_total = 0
        self.admitted = 0
        self.rejected = 0
        self.departed = 0
        self.dropped = 0
        self.active_end = 0
        self.redirected = 0
        self.events_audited = 0
        self.last_event_time = 0.0
        self.shadow_used = [0.0] * num_servers
        self.shadow_streams = [0] * num_servers
        self.load_integral = [0.0] * num_servers
        self.shadow_backbone = 0.0
        self.backbone_capacity_mbps = 0.0
        self.backbone_used_mbps = 0.0
        self.rate_matrix: np.ndarray | None = None
        #: (time, server, occupied Mb/s) per crash / (time, server) per
        #: repair, plus the merged admission (time, server) arrays — the
        #: raw material of the failure/availability auditors.
        self.crash_records: list = []
        self.repair_records: list = []
        self.admission_times: np.ndarray | None = None
        self.admission_servers: np.ndarray | None = None


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audited run: violations plus audit statistics."""

    violations: tuple[Violation, ...]
    events_audited: int
    checks: tuple[str, ...]
    auditor_names: tuple[str, ...]
    admitted: int
    rejected: int
    departed: int
    dropped: int
    active_end: int

    @property
    def ok(self) -> bool:
        """True when every enabled invariant held on every event."""
        return not self.violations

    @property
    def num_violations(self) -> int:
        return len(self.violations)

    def raise_if_failed(self) -> None:
        """Raise :class:`InvariantViolation` when any check failed."""
        if self.violations:
            from .auditors import InvariantViolation

            raise InvariantViolation(list(self.violations))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return (
            f"AuditReport({status}, events={self.events_audited}, "
            f"checks={'/'.join(self.checks)})"
        )


def _reconstruct(
    audit: Trajectory,
    violations: list[Violation],
    log: AuditLog,
    table,
    enabled: frozenset,
) -> None:
    """Rebuild every shadow account from the admission/crash tables."""
    t0, te, sid, rate, red, vid = table[:6]
    crash_records = log.crash_records
    servers = log.servers
    backbone = log.backbone
    num_servers = len(servers)
    H = audit.horizon_min

    # Crash effects: a stream admitted before a crash of its server whose
    # natural end lies past the crash was dropped at the crash instant.
    # Processing crashes in time order with an accumulating mask handles
    # repeated fail/recover cycles without tracking epochs explicitly.
    if crash_records:
        eff = te.copy()
        dropped = np.zeros(len(t0), dtype=bool)
        for time_min, server_id, used_at_crash in sorted(crash_records):
            hit = (
                (sid == server_id) & (t0 <= time_min) & (te > time_min)
                & ~dropped
            )
            if "accounting" in enabled:
                carried = float(rate[hit].sum())
                if abs(carried - used_at_crash) > _EPS_MBPS + 1e-9 * carried:
                    violations.append(
                        Violation(
                            "accounting",
                            time_min,
                            f"server {server_id} carried {used_at_crash:.9f} "
                            f"Mb/s at crash but its admitted streams sum to "
                            f"{carried:.9f}",
                        )
                    )
            eff[hit] = time_min
            dropped |= hit
        alive_end = ~dropped & (te > H)
        audit.departed = int((~dropped & (te <= H)).sum())
        audit.dropped = int(dropped.sum())
    else:
        eff = te
        alive_end = te > H
    audit.admitted = len(t0)
    audit.active_end = int(alive_end.sum())
    if not crash_records:
        audit.departed = audit.admitted - audit.active_end
    audit.redirected = int(red.sum())
    audit.load_integral = np.bincount(
        sid,
        weights=rate * (np.minimum(eff, H) - t0),
        minlength=num_servers,
    ).tolist()
    audit.shadow_backbone = (
        float(rate[red & alive_end].sum()) if backbone is not None else 0.0
    )
    audit.backbone_used_mbps = (
        backbone.used_mbps if backbone is not None else 0.0
    )

    if "placement" in enabled and len(t0) and audit.rate_matrix is not None:
        # Every direct admission must land on a replica holder: its
        # reconstructed rate (gathered from the layout's rate matrix, not
        # from the loop's bookkeeping) must be positive.  All-positive
        # rates (the overwhelmingly common case) short-circuits in one
        # reduction.
        if not float(rate.min()) > 0.0:
            misplaced = ~red & ~(rate > 0.0)
            for index in np.flatnonzero(misplaced):
                violations.append(
                    Violation(
                        "placement",
                        float(t0[index]),
                        f"video {int(vid[index])} admitted on server "
                        f"{int(sid[index])} which holds no replica",
                    )
                )

    check_bw = "bandwidth" in enabled
    check_cap = "stream_cap" in enabled
    check_acct = "accounting" in enabled
    if not ((check_bw or check_cap or check_acct) and len(t0)):
        return
    # Each server's occupancy replayed from the log in the kernel's order,
    # independent of StreamingServer's bookkeeping: its peak follows an
    # admission, its last value is the shadow account.
    events = RunEvents(log, table, H)
    for server, (mine, run, count) in zip(servers, server_folds(events)):
        k = server.server_id
        at = int(np.argmax(run)) if len(run) else 0
        peak = float(run[at]) if len(run) else 0.0
        if len(run):
            audit.shadow_used[k] = float(run[-1])
            audit.shadow_streams[k] = int(count[-1])
        if check_bw and peak > server.bandwidth_mbps * (1 + 1e-9) + _EPS_MBPS:
            violations.append(
                Violation(
                    "bandwidth",
                    float(events.time[mine][at]),
                    f"server {k} occupancy reconstructed at "
                    f"{peak:.9f} Mb/s exceeds its "
                    f"{server.bandwidth_mbps:.9f} Mb/s link",
                )
            )
        if check_acct and abs(peak - server.peak_load_mbps) > _EPS_MBPS + 1e-9 * peak:
            violations.append(
                Violation(
                    "accounting",
                    H,
                    f"server {k} reports peak "
                    f"{server.peak_load_mbps:.9f} Mb/s but "
                    f"reconstruction finds {peak:.9f}",
                )
            )
        streams = int(count.max()) if len(count) else 0
        if (
            check_cap
            and server.max_streams is not None
            and streams > server.max_streams
        ):
            violations.append(
                Violation(
                    "stream_cap",
                    H,
                    f"server {k} reached {streams} concurrent "
                    f"streams over its cap of {server.max_streams}",
                )
            )
    if check_bw and backbone is not None and bool(red.any()):
        capacity = backbone.capacity_mbps
        mine = np.append(red, False)[events.row] | (events.kind == CRASH)
        mine = np.flatnonzero(mine)
        mine = mine[np.lexsort((events.key[mine], events.time[mine]))]
        run, _ = fold(events, mine, backbone=True)
        at = int(np.argmax(run))
        if run[at] > capacity * (1 + 1e-9) + _EPS_MBPS:
            violations.append(
                Violation(
                    "bandwidth",
                    float(events.time[mine][at]),
                    f"backbone occupancy reconstructed at {run[at]:.9f} "
                    f"Mb/s exceeds its {capacity:.9f} Mb/s capacity",
                )
            )


def run_audited(
    simulator, trace, *, auditors: "list[InvariantAuditor] | None" = None,
    **run_kwargs,
) -> tuple[SimulationResult, AuditReport]:
    """Run *simulator* on *trace* (``run()``'s keywords) with auditing.

    Returns the (bit-identical to ``simulator.run``) result plus the
    :class:`AuditReport`.  Violations are collected, not raised — call
    :meth:`AuditReport.raise_if_failed` (as ``run(auditors=...)`` does) to
    escalate.  Any engine that fills the log can be audited: the kernel
    and the ``vector`` engine's batched path alike.
    """
    log = AuditLog()
    result = simulator._simulate(trace, log=log, **run_kwargs)
    return audit_log(
        log, result, standard_auditors() if auditors is None else auditors
    )


def audit_log(
    log: AuditLog, result: SimulationResult, auditors: list
) -> tuple[SimulationResult, AuditReport]:
    """Check one finished run from its filled log.

    A run of the kernel comes back relabelled ``engine_path="audited"``
    (the kernel with its log armed); other engines keep their path.
    """
    if result.engine_path == "optimized":
        result = replace(result, engine_path="audited")
    enabled = (
        frozenset().union(*(a.checks for a in auditors))
        if auditors
        else frozenset()
    )
    soa = log.soa
    times = soa.times
    holds = soa.holds
    servers = log.servers
    num_servers = len(servers)
    violations: list[Violation] = []

    # Event-time monotonicity, checked where violations can actually be
    # *introduced*: the loop schedules a departure at ``t + hold``, so a
    # past-dated event requires an out-of-order arrival or a negative hold
    # (both vectorized, one pass each over the full trace columns).
    if "monotonic" in enabled and soa.num_requests:
        if bool((times[1:] < times[:-1]).any()):
            where = int(np.argmax(times[1:] < times[:-1]))
            violations.append(
                Violation(
                    "monotonic",
                    float(times[where + 1]),
                    f"arrival {where + 1} at t={float(times[where + 1]):.9f} "
                    f"precedes arrival {where} at t={float(times[where]):.9f}",
                )
            )
        if float(holds.min()) < 0.0:
            where = int(np.argmin(holds))
            violations.append(
                Violation(
                    "monotonic",
                    float(times[where]),
                    f"arrival {where} has negative hold "
                    f"{float(holds[where]):.9f} min — its departure would "
                    f"precede its arrival",
                )
            )

    table = admission_table(log)
    t0, sid = table.t0, table.sid
    audit = Trajectory(num_servers, result.horizon_min)
    audit.arrivals_total = soa.num_requests
    # Every simulated arrival ends admitted (on arrival or by a failover
    # retry) or rejected, so the rejected tally is the complement of the
    # admissions.
    audit.rejected = soa.num_simulated - int(len(t0))
    audit.rate_matrix = log.rate_matrix
    audit.crash_records = log.crash_records
    audit.repair_records = log.repair_records
    audit.admission_times = t0
    audit.admission_servers = sid
    audit.backbone_capacity_mbps = (
        log.backbone.capacity_mbps if log.backbone is not None else 0.0
    )
    audit.last_event_time = log.last_event_time
    audit.events_audited = result.num_events
    _reconstruct(audit, violations, log, table, enabled)

    for auditor in auditors:
        violations.extend(auditor.finish(audit, servers, result))

    report = AuditReport(
        violations=tuple(violations),
        events_audited=result.num_events,
        checks=tuple(sorted(enabled)),
        auditor_names=tuple(a.name for a in auditors),
        admitted=audit.admitted,
        rejected=audit.rejected,
        departed=audit.departed,
        dropped=audit.dropped,
        active_end=audit.active_end,
    )
    return result, report
