"""The audited simulation loop: the optimized DES with shadow accounting.

:func:`run_audited` replays :meth:`VoDClusterSimulator.run`'s exact event
loop — same event ordering, same arithmetic, bit-identical
:class:`SimulationResult` — while recording an *independent* shadow
account from which per-server occupancy trajectories, load integrals,
backbone occupancy, and the admission/departure/drop conservation tallies
are reconstructed and checked at the end of the run.

Design notes
------------
* The plain ``run()`` is untouched when auditing is off: enabling is a
  single ``if auditors:`` dispatch per *run*, so the disabled overhead is
  zero by construction.
* When enabled, the per-event instrumentation is one byte per arrival — a
  decision code (rejected / admitted on server ``k`` / redirected to
  ``k``) stored into a preallocated buffer — plus one event-time
  watermark store per heap pop.  Monotonicity itself is audited at the
  points where a past-dated event can be *introduced* (arrival ordering
  and hold signs vectorized up front, failure/recovery pushes on the rare
  path) rather than per pop.  Everything else is
  *reconstructed* vectorized at end of run: admission times, hold times,
  and rates come from the trace's existing numpy arrays and the layout's
  rate matrix, crashes (rare) are replayed over the admission table, and
  every server's full occupancy trajectory is rebuilt with a single
  fused sort/scan.  The reconstruction is independent of
  ``StreamingServer``'s bookkeeping — a strictly stronger check than
  mirroring the loop's own arithmetic — and is what keeps the enabled
  overhead within the <10% budget measured by
  ``benchmarks/bench_hotpaths.py``.
* Bit-identical results are enforced, not assumed:
  ``tests/test_verify_auditors.py`` and the fuzzer cross-check the
  audited loop against both the plain optimized and the reference
  simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from ..cluster_sim.dispatch import Dispatcher, failover_order
from ..cluster_sim.events import EventKind
from ..cluster_sim.metrics import SimulationResult
from ..cluster_sim.redirection import BackboneLink
from ..cluster_sim.server import StreamingServer
from ..cluster_sim.soa import RequestSoA
from .auditors import InvariantAuditor, Violation, standard_auditors

__all__ = ["Trajectory", "AuditReport", "run_audited"]

_DEPARTURE = int(EventKind.DEPARTURE)
_FAILURE = int(EventKind.FAILURE)
_RECOVERY = int(EventKind.RECOVERY)
_RETRY = int(EventKind.RETRY)
_REPLICATE = int(EventKind.REPLICATE)
_EPS_MBPS = 1e-6
_INF = float("inf")

#: Decision codes stored per arrival (bytearray when 2 + 2N fits a byte).
_REJECTED = 1
_ADMIT_BASE = 2


class Trajectory:
    """Shadow account of one audited run (consumed by auditor ``finish``)."""

    __slots__ = (
        "horizon_min",
        "arrivals_total",
        "admitted",
        "rejected",
        "departed",
        "dropped",
        "stale",
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
        self.stale = 0
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


def _peak_time(
    starts: np.ndarray, ends: np.ndarray, deltas: np.ndarray
) -> tuple[float, float]:
    """Slow-path detailed sweep for one server: (peak, time of peak)."""
    times = np.concatenate((starts, ends))
    signed = np.concatenate((deltas, -deltas))
    order = np.lexsort((signed, times))
    running = np.cumsum(signed[order])
    at = int(np.argmax(running))
    return float(running[at]), float(times[order][at])


def _reconstruct(
    audit: Trajectory,
    violations: list[Violation],
    t0: np.ndarray,
    te: np.ndarray,
    sid: np.ndarray,
    rate: np.ndarray,
    red: np.ndarray,
    vid: np.ndarray,
    crash_records: list,
    servers: list[StreamingServer],
    backbones: "list[BackboneLink] | None",
    servers_per_pod: int,
    enabled: frozenset,
) -> None:
    """Rebuild every shadow account from the admission/crash tables."""
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
        audit.stale = int((dropped & (te <= H)).sum())
    else:
        eff = te
        alive_end = te > H
    audit.admitted = len(t0)
    audit.active_end = int(alive_end.sum())
    if not crash_records:
        audit.departed = audit.admitted - audit.active_end
    audit.redirected = int(red.sum())
    audit.shadow_used = np.bincount(
        sid, weights=rate * alive_end, minlength=num_servers
    ).tolist()
    audit.shadow_streams = (
        np.bincount(sid[alive_end], minlength=num_servers).astype(int).tolist()
    )
    audit.load_integral = np.bincount(
        sid,
        weights=rate * (np.minimum(eff, H) - t0),
        minlength=num_servers,
    ).tolist()
    # Backbone shadow accounts stay cluster-global (summed over pods);
    # the peak check below is the only per-pod reconstruction.
    audit.shadow_backbone = (
        float(rate[red & alive_end].sum()) if backbones is not None else 0.0
    )
    audit.backbone_used_mbps = (
        sum(b.used_mbps for b in backbones) if backbones is not None else 0.0
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
    # Stream-count peaks are only worth reconstructing when some server
    # actually has a cap to compare against.
    check_cap = "stream_cap" in enabled and any(
        s.max_streams is not None for s in servers
    )
    check_acct = "accounting" in enabled
    if (check_bw or check_cap or check_acct) and len(t0):
        # Reconstruct each server's peak occupancy without a full event
        # sort.  Occupancy only increases at admissions, so the peak is
        # attained right after some admission i:
        #
        #   occ(i) = sum(rate_j : start_j <= start_i) - sum(rate_j : end_j <= start_i)
        #
        # over the streams of i's server (``<=`` on the ends encodes the
        # simulator's departures-before-arrivals tie rule).  Starts are
        # already time-sorted (admission order), so grouping by server is
        # one O(n) stable integer sort; ends are sorted too unless watch
        # times or crashes perturb them (then one extra argsort).  The
        # prefix-sum buffers carry a leading zero so group bases are plain
        # gathers, with no conditional ``np.where`` edge handling.
        order_s = np.argsort(sid, kind="stable")  # radix: sid is uint8
        g_start = t0[order_s]
        counts = np.bincount(sid, minlength=num_servers)
        offsets = np.zeros(num_servers + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        n_adm = len(t0)
        cs0 = np.empty(n_adm + 1)
        cs0[0] = 0.0
        np.cumsum(rate[order_s], out=cs0[1:])
        if crash_records or bool((eff[1:] < eff[:-1]).any()):
            order_e = order_s[np.argsort(eff[order_s], kind="stable")]
            order_e = order_e[np.argsort(sid[order_e], kind="stable")]
            g_end = eff[order_e]
            ce0 = np.empty(n_adm + 1)
            ce0[0] = 0.0
            np.cumsum(rate[order_e], out=ce0[1:])
        else:
            # Ends share the starts' time order, so the grouped end array
            # and its prefix sums coincide with the start-side ones.
            g_end = te[order_s]
            ce0 = cs0
        # Absolute "streams ended at or before this admission" indices per
        # group; only the binary search itself is segment-local.
        idx = np.empty(n_adm, dtype=np.intp)
        searchsorted = np.searchsorted
        bounds = offsets.tolist()
        for k in range(num_servers):
            a = bounds[k]
            b = bounds[k + 1]
            if a < b:
                idx[a:b] = searchsorted(
                    g_end[a:b], g_start[a:b], side="right"
                )
        group_a = np.repeat(offsets[:-1], counts)
        idx += group_a
        # occ(i) = (cs0[i+1] - cs0[group start]) - (ce0[idx] - ce0[group start])
        if ce0 is cs0:
            occ = cs0[1:] - ce0[idx]
        else:
            occ = cs0[1:] - cs0[group_a] - ce0[idx] + ce0[group_a]
        peaks = np.zeros(num_servers)
        nonempty = np.flatnonzero(counts)
        peaks[nonempty] = np.maximum.reduceat(occ, offsets[nonempty])
        peaks_list = peaks.tolist()
        if check_cap:
            speaks = np.zeros(num_servers, dtype=np.int64)
            speaks[nonempty] = np.maximum.reduceat(
                np.arange(1, n_adm + 1) - idx, offsets[nonempty]
            )
            speaks_list = speaks.tolist()
        # Per-server verdicts in plain Python (cheaper than numpy verdict
        # arrays at these server counts); the detailed slow-path sweep only
        # runs when something actually tripped.  The reconstruction
        # accumulates in a different order than the loop, so allow
        # accumulation noise on top of the admission epsilon.
        for server in servers:
            k = server.server_id
            peak = peaks_list[k]
            if check_bw and peak > server.bandwidth_mbps * (1 + 1e-9) + _EPS_MBPS:
                mine = sid == k
                _, when = _peak_time(t0[mine], eff[mine], rate[mine])
                violations.append(
                    Violation(
                        "bandwidth",
                        when,
                        f"server {k} occupancy reconstructed at "
                        f"{peak:.9f} Mb/s exceeds its "
                        f"{server.bandwidth_mbps:.9f} Mb/s link",
                    )
                )
            if (
                check_acct
                and abs(peak - server.peak_load_mbps)
                > _EPS_MBPS + 1e-9 * peak
            ):
                violations.append(
                    Violation(
                        "accounting",
                        H,
                        f"server {k} reports peak "
                        f"{server.peak_load_mbps:.9f} Mb/s but "
                        f"reconstruction finds {peak:.9f}",
                    )
                )
            if (
                check_cap
                and server.max_streams is not None
                and speaks_list[k] > server.max_streams
            ):
                violations.append(
                    Violation(
                        "stream_cap",
                        H,
                        f"server {k} reached {int(speaks_list[k])} concurrent "
                        f"streams over its cap of {server.max_streams}",
                    )
                )
    if check_bw and backbones is not None and bool(red.any()):
        # Each pod's backbone is an independent link with the full
        # per-pod capacity, so the peak is reconstructed per pod (the
        # delegate's server block identifies the pod).
        capacity = backbones[0].capacity_mbps
        r_idx = np.flatnonzero(red)
        pod_of = sid[r_idx] // servers_per_pod
        for p in np.unique(pod_of):
            sel = r_idx[pod_of == p]
            peak, when = _peak_time(t0[sel], eff[sel], rate[sel])
            if peak > capacity * (1 + 1e-9) + _EPS_MBPS:
                label = (
                    "backbone"
                    if len(backbones) == 1
                    else f"pod {int(p)} backbone"
                )
                violations.append(
                    Violation(
                        "bandwidth",
                        when,
                        f"{label} occupancy reconstructed at {peak:.9f} "
                        f"Mb/s exceeds its {capacity:.9f} Mb/s capacity",
                    )
                )


def run_audited(
    simulator,
    trace,
    *,
    auditors: "list[InvariantAuditor] | None" = None,
    horizon_min: float | None = None,
    failures=None,
    failover_on_down: bool = False,
    failover=None,
    rereplication=None,
) -> tuple[SimulationResult, AuditReport]:
    """Run *simulator* on *trace* with in-situ invariant auditing.

    Returns the (bit-identical to ``simulator.run``) result plus the
    :class:`AuditReport`.  Violations are collected, not raised — call
    :meth:`AuditReport.raise_if_failed` (as ``run(auditors=...)`` does) to
    escalate.
    """
    import time as _time

    if auditors is None:
        auditors = standard_auditors()
    enabled = (
        frozenset().union(*(a.checks for a in auditors))
        if auditors
        else frozenset()
    )
    chk_monotonic = "monotonic" in enabled
    violations: list[Violation] = []

    start_wall = _time.perf_counter()
    if horizon_min is None:
        horizon_min = trace.duration_min if trace.num_requests else 1.0
    from .._validation import check_positive

    check_positive("horizon_min", horizon_min)
    horizon_min = float(horizon_min)

    servers = [
        StreamingServer(
            k,
            spec.bandwidth_mbps,
            max_streams=(
                simulator._stream_limits[k] if simulator._stream_limits else None
            ),
        )
        for k, spec in enumerate(simulator._cluster)
    ]
    num_servers = len(servers)
    dispatcher: Dispatcher = simulator._dispatcher_factory(simulator._layout)
    # Redirection pods: one independent BackboneLink per pod (P=1 is the
    # paper's single shared backbone; see the optimized loop).
    pods = simulator._redirection_pods
    if simulator._backbone_mbps > 0:
        backbones = [
            BackboneLink(simulator._backbone_mbps) for _ in range(pods)
        ]
        videos_per_pod = simulator._videos.num_videos // pods
        servers_per_pod = len(servers) // pods
        pod_servers = [
            servers[p * servers_per_pod : (p + 1) * servers_per_pod]
            for p in range(pods)
        ]
    else:
        backbones = None
        servers_per_pod = len(servers)
    heap: list = []
    seq = 0
    backbone_by_server = [0.0] * num_servers
    streams_dropped = 0
    events_processed = 0

    #: One record per crash: (time, server, occupied Mb/s at the crash);
    #: one per repair: (time, server).
    crash_records: list = []
    repair_records: list = []
    #: Retry admissions: (start, end, server, rate, video) side records,
    #: merged into the reconstruction tables after the loop.
    retry_admissions: list = []
    last_event = 0.0

    # Chaos gating mirrors the plain loops exactly.
    chaos = failures is not None and len(failures) > 0
    retry_policy = failover if chaos and failover is not None else None
    rerep = rereplication if chaos and rereplication is not None else None
    num_failures = num_recoveries = 0
    num_retries = num_failovers = 0
    num_lost_to_failure = num_rereplicated = 0
    down_since: dict[int, float] = {}
    downtime = [0.0] * num_servers
    ttr_sum = 0.0

    rate_rows = simulator._rate_rows
    static_rows = rate_rows
    if rerep is not None:
        rate_rows = [row[:] for row in rate_rows]
        lost_by_server: list[list[int]] = [[] for _ in servers]
        videos_of_server: list[list[int]] | None = None
    else:
        videos_of_server = None

    if failures is not None:
        failures.validate_servers(num_servers)
        for failure in failures:
            # Strict <: a failure at exactly the end of the peak is a
            # no-op rather than a mutation of post-horizon state.
            if failure.time_min < horizon_min:
                heappush(heap, (failure.time_min, _FAILURE, seq, failure))
                seq += 1

    dispatcher_holders = dispatcher.holders

    def failure_touched(video: int) -> bool:
        row = rate_rows[video]
        for s in dispatcher_holders(video):
            if row[s] <= 0.0 or not servers[s].is_up:
                return True
        return False

    def handle_rare(event: tuple, seq: int) -> int:
        """Apply one failure/recovery/retry/replicate event (audited)."""
        nonlocal streams_dropped, num_failures, num_recoveries
        nonlocal num_retries, num_failovers, num_lost_to_failure
        nonlocal num_rereplicated, videos_of_server, ttr_sum
        kind = event[1]
        if kind == _FAILURE:
            failure = event[3]
            server_id = failure.server
            num_failures += 1
            down_since[server_id] = event[0]
            crash_records.append(
                (event[0], server_id, servers[server_id].used_mbps)
            )
            streams_dropped += servers[server_id].fail(event[0])
            if backbones is not None and backbone_by_server[server_id] > 0:
                backbones[server_id // servers_per_pod].release(
                    backbone_by_server[server_id]
                )
                backbone_by_server[server_id] = 0.0
            if rerep is not None:
                if videos_of_server is None:
                    videos_of_server = [
                        [
                            v
                            for v in range(len(static_rows))
                            if static_rows[v][s] > 0.0
                        ]
                        for s in range(num_servers)
                    ]
                lost = lost_by_server[server_id]
                for v in videos_of_server[server_id]:
                    if rate_rows[v][server_id] > 0.0:
                        rate_rows[v][server_id] = 0.0
                        lost.append(v)
            recovery = failure.recovery_min
            if recovery < _INF:
                if chk_monotonic and recovery < event[0]:
                    violations.append(
                        Violation(
                            "monotonic",
                            recovery,
                            f"server {server_id} recovery at "
                            f"t={recovery:.9f} precedes its failure at "
                            f"t={event[0]:.9f}",
                        )
                    )
                heappush(heap, (recovery, _RECOVERY, seq, server_id))
                seq += 1
        elif kind == _RECOVERY:
            k = event[3]
            tr = event[0]
            servers[k].recover(tr)
            repair_records.append((tr, k))
            num_recoveries += 1
            delta = tr - down_since.pop(k)
            downtime[k] += delta
            ttr_sum += delta
            if rerep is not None and lost_by_server[k]:
                from ..dynamic.migration import plan_rereplication

                lost = lost_by_server[k]
                plan = plan_rereplication(
                    lost,
                    simulator._durations_list,
                    {v: static_rows[v][k] for v in lost},
                    migration_mbps=rerep.migration_mbps,
                )
                epoch = servers[k].epoch
                for v, offset in plan:
                    done = tr + offset
                    if done <= horizon_min:
                        heappush(heap, (done, _REPLICATE, seq, (k, v, epoch)))
                        seq += 1
        elif kind == _RETRY:
            video, hold, attempt, index = event[3]
            tr = event[0]
            row = rate_rows[video]
            saved = False
            for server_id in failover_order(
                dispatcher_holders(video), servers
            ):
                rate = row[server_id]
                if rate > 0.0:
                    server = servers[server_id]
                    if (
                        server.is_up
                        and server.used_mbps + rate
                        <= server.bandwidth_mbps + _EPS_MBPS
                        and (
                            server.max_streams is None
                            or server.active_streams < server.max_streams
                        )
                    ):
                        server.admit(tr, rate)
                        heappush(
                            heap,
                            (tr + hold, _DEPARTURE, seq,
                             (server_id, rate, False, server.epoch)),
                        )
                        seq += 1
                        num_failovers += 1
                        retry_admissions.append(
                            (tr, tr + hold, server_id, rate, video)
                        )
                        saved = True
                        break
            if not saved:
                if attempt < retry_policy.max_retries:
                    nxt = tr + retry_policy.delay_min(attempt)
                    if nxt <= horizon_min:
                        heappush(
                            heap,
                            (nxt, _RETRY, seq,
                             (video, hold, attempt + 1, index)),
                        )
                        seq += 1
                        num_retries += 1
                        return seq
                per_video_rejected[video] += 1
                decisions[index] = _REJECTED
                if failure_touched(video):
                    num_lost_to_failure += 1
        else:  # _REPLICATE
            k, v, epoch = event[3]
            if servers[k].epoch == epoch:
                rate_rows[v][k] = static_rows[v][k]
                lost_by_server[k].remove(v)
                num_rereplicated += 1
        return seq

    num_videos = simulator._videos.num_videos
    per_video_requests = [0] * num_videos
    per_video_rejected = [0] * num_videos

    # Shared struct-of-arrays request columns — the same preparation the
    # optimized loop runs, so the audited loop cannot drift on validation,
    # hold times or the horizon cut.  The full (untruncated) numpy columns
    # feed the monotonicity probes and the end-of-run reconstruction.
    soa = RequestSoA.from_trace(trace, simulator._durations, horizon_min)
    times = soa.times
    videos = soa.videos
    holds = soa.holds
    hold_list = soa.holds_list
    times_list = soa.times_list
    videos_list = soa.videos_list
    num_arrivals = soa.num_requests
    num_simulated = soa.num_simulated

    # Event-time monotonicity, checked where violations can actually be
    # *introduced* rather than per heap pop: the loop schedules a departure
    # at ``t + hold``, so a past-dated event requires an out-of-order
    # arrival or a negative hold (both vectorized, one pass each); the rare
    # failure/recovery pushes are probed in ``handle_rare``.  This covers
    # strictly more than a pop-time probe (which never saw the arrival
    # stream itself) at a per-event cost of one watermark store.
    if chk_monotonic and num_arrivals:
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

    # Per-arrival decision codes: 0 = not simulated (truncated), 1 =
    # rejected, 2+k = admitted on server k, 2+N+k = redirected to k.  A
    # bytearray store is the cheapest possible per-event instrumentation;
    # big clusters (codes past one byte) fall back to a plain list.
    if _ADMIT_BASE + 2 * num_servers <= 255:
        decisions: "bytearray | list" = bytearray(num_arrivals)
    else:  # pragma: no cover - clusters this large are not exercised
        decisions = [0] * num_arrivals
    redirect_base = _ADMIT_BASE + num_servers

    # rate_rows was bound above (the COW copy under re-replication).
    best_rates = simulator._best_rates_list
    candidates_of = dispatcher.candidates
    eps = _EPS_MBPS
    rejected_code = _REJECTED
    admit_base = _ADMIT_BASE

    # Horizon pre-truncation happened in the SoA cut; the loop runs the
    # simulated prefix only (mirrors the optimized loop exactly).
    num_truncated = soa.num_truncated
    for index in range(num_simulated):
        t = times_list[index]
        video = videos_list[index]

        while heap and heap[0][0] <= t:
            event = heappop(heap)
            events_processed += 1
            etime = last_event = event[0]
            if event[1] == _DEPARTURE:
                server_id, rate, redirected, epoch = event[3]
                server = servers[server_id]
                if server.epoch != epoch:
                    continue  # stream already dropped by a crash
                last = server._last_time_min
                if etime > last:
                    server._load_integral += server.used_mbps * (etime - last)
                    server._last_time_min = etime
                used = server.used_mbps - rate
                if used < 0.0:
                    if used < -eps:
                        raise RuntimeError(
                            f"server {server_id} bandwidth accounting "
                            "went negative"
                        )
                    used = 0.0
                server.used_mbps = used
                server.active_streams -= 1
                if redirected:
                    backbones[server_id // servers_per_pod].release(rate)
                    backbone_by_server[server_id] -= rate
            else:
                seq = handle_rare(event, seq)

        events_processed += 1
        per_video_requests[video] += 1
        if best_rates[video] <= 0.0:
            per_video_rejected[video] += 1
            decisions[index] = rejected_code
            continue
        end_time = t + hold_list[index]

        if failover_on_down:
            candidates = list(candidates_of(video, servers))
            if any(not servers[s].is_up for s in candidates):
                extra = [
                    s
                    for s in dispatcher.holders(video)
                    if s not in candidates
                ]
                extra.sort(key=lambda s: servers[s].utilization)
                candidates.extend(extra)
        else:
            candidates = candidates_of(video, servers)

        admitted = False
        row = rate_rows[video]
        for server_id in candidates:
            rate = row[server_id]
            if rate > 0.0:
                server = servers[server_id]
                if (
                    server.is_up
                    and server.used_mbps + rate
                    <= server.bandwidth_mbps + eps
                    and (
                        server.max_streams is None
                        or server.active_streams < server.max_streams
                    )
                ):
                    last = server._last_time_min
                    if t > last:
                        server._load_integral += server.used_mbps * (t - last)
                        server._last_time_min = t
                    used = server.used_mbps + rate
                    server.used_mbps = used
                    server.active_streams += 1
                    server.served_requests += 1
                    if used > server.peak_load_mbps:
                        server.peak_load_mbps = used
                    heappush(
                        heap,
                        (end_time, _DEPARTURE, seq,
                         (server_id, rate, False, server.epoch)),
                    )
                    seq += 1
                    admitted = True
                    decisions[index] = admit_base + server_id
                    break

        if not admitted and backbones is not None and (
            rerep is None or any(row[s] > 0.0 for s in dispatcher_holders(video))
        ):
            rate = best_rates[video]
            pod = video // videos_per_pod
            backbone = backbones[pod]
            if backbone.used_mbps + rate <= backbone.capacity_mbps + eps:
                delegate = None
                best_util = _INF
                for server in pod_servers[pod]:
                    if (
                        server.is_up
                        and server.used_mbps + rate
                        <= server.bandwidth_mbps + eps
                        and (
                            server.max_streams is None
                            or server.active_streams < server.max_streams
                        )
                    ):
                        util = server.used_mbps / server.bandwidth_mbps
                        if util < best_util:
                            delegate = server
                            best_util = util
                if delegate is not None:
                    delegate_id = delegate.server_id
                    backbone.acquire(rate)
                    backbone_by_server[delegate_id] += rate
                    last = delegate._last_time_min
                    if t > last:
                        delegate._load_integral += delegate.used_mbps * (t - last)
                        delegate._last_time_min = t
                    used = delegate.used_mbps + rate
                    delegate.used_mbps = used
                    delegate.active_streams += 1
                    delegate.served_requests += 1
                    if used > delegate.peak_load_mbps:
                        delegate.peak_load_mbps = used
                    heappush(
                        heap,
                        (end_time, _DEPARTURE, seq,
                         (delegate_id, rate, True, delegate.epoch)),
                    )
                    seq += 1
                    admitted = True
                    decisions[index] = redirect_base + delegate_id

        if not admitted:
            if retry_policy is not None and (
                retry_policy.retry_saturated or failure_touched(video)
            ):
                nxt = t + retry_policy.delay_min(0)
                if nxt <= horizon_min:
                    # Pending failover retry: the decision code stays 0
                    # until the RETRY event resolves (side record on
                    # admit, rejected code on budget exhaustion).
                    heappush(
                        heap,
                        (nxt, _RETRY, seq,
                         (video, hold_list[index], 1, index)),
                    )
                    seq += 1
                    num_retries += 1
                else:
                    per_video_rejected[video] += 1
                    decisions[index] = rejected_code
                    if failure_touched(video):
                        num_lost_to_failure += 1
            else:
                per_video_rejected[video] += 1
                decisions[index] = rejected_code
                if chaos and failure_touched(video):
                    num_lost_to_failure += 1

    # Apply remaining events inside the horizon, close the integrals.
    while heap and heap[0][0] <= horizon_min:
        event = heappop(heap)
        events_processed += 1
        etime = last_event = event[0]
        if event[1] == _DEPARTURE:
            server_id, rate, redirected, epoch = event[3]
            server = servers[server_id]
            if server.epoch != epoch:
                continue
            server.release(etime, rate)
            if redirected:
                backbones[server_id // servers_per_pod].release(rate)
                backbone_by_server[server_id] -= rate
        else:
            seq = handle_rare(event, seq)
    for server in servers:
        server.advance(horizon_min)
    # Servers still down at the horizon accrue downtime to its edge.
    for k, since in down_since.items():
        downtime[k] += horizon_min - since

    result = SimulationResult(
        num_requests=sum(per_video_requests),
        num_rejected=sum(per_video_rejected),
        per_video_requests=np.asarray(per_video_requests, dtype=np.int64),
        per_video_rejected=np.asarray(per_video_rejected, dtype=np.int64),
        server_time_avg_load_mbps=np.array(
            [s.time_avg_load_mbps(horizon_min) for s in servers]
        ),
        server_peak_load_mbps=np.array([s.peak_load_mbps for s in servers]),
        server_served=np.array([s.served_requests for s in servers]),
        server_bandwidth_mbps=simulator._cluster.bandwidth_mbps,
        horizon_min=horizon_min,
        num_redirected=(
            sum(b.redirected_streams for b in backbones)
            if backbones is not None
            else 0
        ),
        streams_dropped=streams_dropped,
        num_truncated=num_truncated,
        num_events=events_processed,
        num_failures=num_failures,
        num_recoveries=num_recoveries,
        num_retries=num_retries,
        num_failovers=num_failovers,
        num_lost_to_failure=num_lost_to_failure,
        num_rereplicated=num_rereplicated,
        mean_time_to_recovery_min=(
            ttr_sum / num_recoveries if num_recoveries else 0.0
        ),
        server_downtime_min=np.asarray(downtime),
        wall_time_sec=_time.perf_counter() - start_wall,
        engine_path="audited",
    )

    # Rebuild the admission table from the decision codes and the trace's
    # own arrays (no per-element Python conversion).
    simulated = num_arrivals - num_truncated
    if isinstance(decisions, bytearray):
        # uint8 keeps the downstream grouping argsort on the radix path.
        dec = np.frombuffer(decisions, dtype=np.uint8)[:simulated]
    else:  # pragma: no cover - big-cluster fallback
        dec = np.asarray(decisions[:simulated], dtype=np.int16)
    adm = np.flatnonzero(dec >= _ADMIT_BASE)
    codes = dec.take(adm)
    codes -= codes.dtype.type(_ADMIT_BASE)
    red = codes >= num_servers
    sid = np.where(red, codes - codes.dtype.type(num_servers), codes)
    vid = videos.take(adm)
    t0 = times.take(adm)
    te = t0 + holds.take(adm)
    # Per-admission delivered rates in one gather: column k of the cached
    # table is the layout rate on server k, column N + k the best-copy
    # rate a redirected stream carries over the backbone.  The table only
    # depends on the simulator's immutable layout, so it is built once.
    rate_table = getattr(simulator, "_audit_rate_table", None)
    if rate_table is None:
        rate_table = np.concatenate(
            (
                simulator._rate_matrix,
                np.broadcast_to(
                    simulator._best_rates[:, None],
                    simulator._rate_matrix.shape,
                ),
            ),
            axis=1,
        )
        simulator._audit_rate_table = rate_table
    rate = rate_table[vid, codes]

    if retry_admissions:
        # Fold failover-retry admissions into the reconstruction tables.
        # The tables must stay start-time sorted for the grouped
        # prefix-sum peak reconstruction; a stable merge sort restores
        # that after concatenation (retry starts interleave arrivals).
        r_t0 = np.array([r[0] for r in retry_admissions])
        r_te = np.array([r[1] for r in retry_admissions])
        r_sid = np.array([r[2] for r in retry_admissions], dtype=np.int64)
        r_rate = np.array([r[3] for r in retry_admissions])
        r_vid = np.array([r[4] for r in retry_admissions], dtype=vid.dtype)
        t0 = np.concatenate((t0, r_t0))
        te = np.concatenate((te, r_te))
        sid = np.concatenate((sid.astype(np.int64), r_sid))
        rate = np.concatenate((rate, r_rate))
        red = np.concatenate((red, np.zeros(len(r_t0), dtype=bool)))
        vid = np.concatenate((vid, r_vid))
        order = np.argsort(t0, kind="stable")
        t0 = t0[order]
        te = te[order]
        sid = sid[order]
        rate = rate[order]
        red = red[order]
        vid = vid[order]

    audit = Trajectory(num_servers, horizon_min)
    audit.arrivals_total = trace.num_requests
    # Every simulated arrival stores exactly one decision code — or, for
    # requests saved by a failover retry, one side record — so the
    # rejected tally is the complement of the admissions.
    audit.rejected = simulated - int(len(t0))
    audit.rate_matrix = simulator._rate_matrix
    audit.crash_records = crash_records
    audit.repair_records = repair_records
    audit.admission_times = t0
    audit.admission_servers = sid
    audit.backbone_capacity_mbps = simulator._backbone_mbps
    audit.last_event_time = last_event
    audit.events_audited = events_processed
    _reconstruct(
        audit,
        violations,
        t0,
        te,
        sid,
        rate,
        red,
        vid,
        crash_records,
        servers,
        backbones,
        servers_per_pod,
        enabled,
    )

    for auditor in auditors:
        violations.extend(auditor.finish(audit, servers, result))

    report = AuditReport(
        violations=tuple(violations),
        events_audited=events_processed,
        checks=tuple(sorted(enabled)),
        auditor_names=tuple(a.name for a in auditors),
        admitted=audit.admitted,
        rejected=audit.rejected,
        departed=audit.departed,
        dropped=audit.dropped,
        active_end=audit.active_end,
    )
    return result, report
