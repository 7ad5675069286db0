"""The VoD cluster simulator (Sec. 5's evaluation testbed).

Drives a request trace through the cluster:

1. Requests arrive in time order; each is dispatched to replica holders of
   the requested video by the configured policy (static round robin by
   default, per the paper's model).
2. Admission control: the request is admitted on the first candidate server
   with free outgoing bandwidth; otherwise it is rejected ("a request was
   rejected if required communication bandwidth was unavailable").
3. Admitted streams hold their bandwidth for the video's duration; a
   departure frees it (departures at time ``t`` are processed before
   arrivals at ``t``).
4. Metrics are integrated over a measurement horizon (the peak-period
   length): rejection rate, per-server time-averaged load, peak loads.

With ``backbone_mbps > 0`` the request-redirection extension is active: a
request all of whose replica holders are saturated may be served by *any*
server with free outgoing bandwidth at the additional cost of backbone
bandwidth for the stream's lifetime.

Implementation notes (hot path)
-------------------------------
``run()`` is the per-trial inner loop of every experiment, so it avoids
numpy scalar boxing entirely: arrival times, video ids, hold times, the
rate matrix rows and the per-video best rates are converted to plain
Python lists once per run (or once per simulator for the static tables),
heap events are bare ``(time, kind, seq, payload)`` tuples compared by
CPython's C tuple ordering, and the common DEPARTURE case plus the
admission accounting are inlined instead of dispatching through
:class:`StreamingServer` methods.  Under :class:`LeastLoadedDispatcher` an
arrival is placed by one pass over the video's holders (least-utilized
with room, ties to the lower id) instead of sorting ``candidates()``;
other dispatchers are asked for their candidate list as before.  The
clarity-first original lives on as
:class:`~repro.cluster_sim.reference.ReferenceClusterSimulator`; the two
are bit-identical field for field (see
``tests/test_simulator_equivalence.py`` and
``tests/test_least_loaded_parity.py``).  Audited and observed runs use
this same loop: ``run(auditors=..., observer=...)`` arms an
:class:`~repro.cluster_sim.log.AuditLog` that the loop fills behind ``if
log is not None`` guards, and the audit and the observer rebuild the run
from that log afterwards.  Wait-queue admission
(:mod:`.queueing`) arms a private :class:`WaitList` the same way; unarmed,
its only cost is one ``if waiting`` test per applied departure.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

import numpy as np

from .._validation import check_non_negative, check_positive
from ..model.cluster import ClusterSpec
from ..model.layout import ReplicaLayout
from ..model.video import VideoCollection
from ..workload.requests import RequestTrace
from .dispatch import (
    Dispatcher,
    LeastLoadedDispatcher,
    StaticRoundRobinDispatcher,
    failover_order,
)
from .events import EventKind
from .failures import FailoverPolicy, FailureSchedule, RereplicationPolicy
from .log import AuditLog
from .metrics import SimulationResult
from .redirection import BackboneLink
from .server import StreamingServer
from .soa import RequestSoA

__all__ = ["VoDClusterSimulator"]

#: Integer event kinds for bare-tuple heap entries (== EventKind values).
_DEPARTURE = int(EventKind.DEPARTURE)
_FAILURE = int(EventKind.FAILURE)
_RECOVERY = int(EventKind.RECOVERY)
_RETRY = int(EventKind.RETRY)
_DEFECTION = int(EventKind.DEFECTION)
_REPLICATE = int(EventKind.REPLICATE)

#: Admission slack (Mb/s); mirrors ``server._EPS_MBPS``.
_EPS_MBPS = 1e-6

_INF = float("inf")


class WaitList:
    """Wait-queue admission state, armed by :mod:`.queueing` (internal)."""

    __slots__ = ("patience_min", "num_queued", "waits")

    def __init__(self, patience_min: float) -> None:
        self.patience_min = patience_min
        self.num_queued = 0  # arrivals that joined the queue
        self.waits: list[float] = []  # start delay of each served waiter


class VoDClusterSimulator:
    """Simulates one cluster configuration over request traces.

    Parameters
    ----------
    cluster:
        Server capacities (outgoing bandwidth is the modelled bottleneck;
        storage feasibility is a property of the layout, validated once).
    videos:
        Video durations; the streamed bit rate of each video is read from
        the layout (supporting the scalable-rate setting).
    layout:
        The replica placement being evaluated.
    dispatcher_factory:
        Callable building a fresh :class:`Dispatcher` per run; defaults to
        the paper's static round robin.
    backbone_mbps:
        Internal-backbone capacity for the redirection extension; 0
        disables redirection (the paper's base admission control).
    stream_limits:
        Optional per-server concurrent-stream caps from the disk-subsystem
        model (:mod:`repro.storage`); ``None`` keeps the paper's
        network-only constraint.
    validate_layout:
        Validate the layout against cluster storage once at construction.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        videos: VideoCollection,
        layout: ReplicaLayout,
        *,
        dispatcher_factory=StaticRoundRobinDispatcher,
        backbone_mbps: float = 0.0,
        stream_limits: "np.ndarray | list[int] | None" = None,
        validate_layout: bool = True,
    ) -> None:
        if layout.num_videos != videos.num_videos:
            raise ValueError("layout and videos disagree on M")
        if layout.num_servers != cluster.num_servers:
            raise ValueError("layout and cluster disagree on N")
        if stream_limits is not None:
            stream_limits = [int(x) for x in stream_limits]
            if len(stream_limits) != cluster.num_servers:
                raise ValueError(
                    "stream_limits must have one entry per server"
                )
            if any(x < 0 for x in stream_limits):
                raise ValueError("stream_limits must be >= 0")
        self._stream_limits = stream_limits
        check_non_negative("backbone_mbps", backbone_mbps)
        if validate_layout:
            # Mixed per-replica rates are a valid runtime configuration
            # (the Sec. 4.3 scalable setting); storage/coverage still hold.
            layout.validate(cluster, videos, allow_mixed_rates=True)
        self._cluster = cluster
        self._videos = videos
        self._layout = layout
        self._dispatcher_factory = dispatcher_factory
        self._backbone_mbps = float(backbone_mbps)
        # Per-replica streamed rates; a stream plays at the rate of the
        # replica that serves it.  Redirected streams (backbone extension)
        # play the video's best available copy.
        self._rate_matrix = layout.rate_matrix
        self._best_rates = layout.video_bit_rates
        self._durations = videos.durations_min
        # Pure-Python lookup tables so the request loop never touches
        # numpy scalars: row lists of per-server rates and per-video
        # best-rate/duration floats.
        self._rate_rows: list[list[float]] = self._rate_matrix.tolist()
        self._best_rates_list: list[float] = self._best_rates.tolist()
        self._durations_list: list[float] = self._durations.tolist()

    # ------------------------------------------------------------------
    @property
    def layout(self) -> ReplicaLayout:
        return self._layout

    # ------------------------------------------------------------------
    def run(
        self,
        trace: RequestTrace,
        *,
        horizon_min: float | None = None,
        failures: FailureSchedule | None = None,
        failover_on_down: bool = False,
        failover: FailoverPolicy | None = None,
        rereplication: RereplicationPolicy | None = None,
        auditors=None,
        observer=None,
    ) -> SimulationResult:
        """Simulate one trace and return the collected metrics.

        Parameters
        ----------
        trace:
            The request trace (the peak-period workload).
        horizon_min:
            Measurement horizon for the time-averaged loads; defaults to
            the last arrival time.  Arrivals beyond the horizon are
            rejected from measurement (they are not simulated).
        failures:
            Optional server-outage schedule (availability extension).  A
            crash drops the server's active streams instantly.
        failover_on_down:
            When True, a request whose dispatched server(s) are *down*
            (not merely saturated) is retried on the video's remaining
            replica holders — the availability benefit replication buys.
            The paper's static model (False) simply rejects it.
        failover:
            Optional :class:`FailoverPolicy` (chaos extension).  A request
            rejected while failures touched its video — some holder down,
            or its replica lost and not yet re-copied — is retried across
            surviving holders after capped exponential backoff, up to the
            policy's retry budget; exhausted budgets (and retries that
            would land past the horizon) count as rejections.  Ignored
            without a non-empty ``failures`` schedule, so attaching a
            policy to a failure-free run changes nothing.
        rereplication:
            Optional :class:`RereplicationPolicy` (chaos extension).  A
            crash loses the server's replicas; after repair they are
            re-copied serially under the policy's migration-bandwidth
            cap, and the server can only serve a video again once its
            copy completes.  Ignored without failures.
        auditors:
            Optional list of :class:`repro.verify.InvariantAuditor`
            checkers.  When non-empty the run fills a private
            :class:`~repro.cluster_sim.log.AuditLog`, from which
            :mod:`repro.verify.audit` rebuilds occupancy independently
            after the run; any violation raises
            :class:`repro.verify.InvariantViolation`.  The result is
            bit-identical to an unaudited run; this kernel reports
            ``engine_path`` ``"audited"``.
        observer:
            Optional :class:`repro.observe.Observer` (duck-typed).  When
            it wants samples (``sample_interval_min > 0``) or traced
            events (``trace_event_every``) the run fills the same log,
            which ``observer.record_simulation`` parks for a replay on
            first read.  The event loop records nothing for it: result
            and ``engine_path`` are those of an unobserved run.
        """
        observed = observer is not None and (
            observer.sample_interval_min > 0 or observer.trace_event_every
        )
        log = AuditLog() if auditors or observed else None
        result = self._simulate(
            trace, horizon_min=horizon_min, failures=failures,
            failover_on_down=failover_on_down, failover=failover,
            rereplication=rereplication, log=log,
        )
        if auditors:
            # Lazy import: cluster_sim must stay importable without the
            # verify package (and vice versa).
            from ..verify.audit import audit_log

            result, report = audit_log(log, result, list(auditors))
            report.raise_if_failed()
        if observer is not None:
            observer.record_simulation(
                log=log,
                result=result,
                server_bandwidth_mbps=self._cluster.bandwidth_mbps.tolist(),
            )
        return result

    def _simulate(
        self,
        trace: RequestTrace,
        *,
        horizon_min: float | None = None,
        failures: FailureSchedule | None = None,
        failover_on_down: bool = False,
        failover: FailoverPolicy | None = None,
        rereplication: RereplicationPolicy | None = None,
        log: "AuditLog | None" = None,
        wait_list: "WaitList | None" = None,
    ) -> SimulationResult:
        """The event loop behind :meth:`run`; *log* and *wait_list* arm hooks."""
        start_wall = time.perf_counter()
        if horizon_min is None:
            horizon_min = trace.duration_min if trace.num_requests else 1.0
        check_positive("horizon_min", horizon_min)
        horizon_min = float(horizon_min)

        servers = self._new_servers()
        dispatcher: Dispatcher = self._dispatcher_factory(self._layout)
        # The paper's single shared backbone (None: redirection off).
        backbone = (
            BackboneLink(self._backbone_mbps)
            if self._backbone_mbps > 0
            else None
        )
        # Bare-tuple event heap: (time, kind, seq, payload).  seq is the
        # insertion-order tiebreak, so tuple comparison never reaches the
        # payload (identical ordering to EventQueue).
        heap: list = []
        seq = 0
        # Backbone bandwidth attributable to redirected streams per server,
        # so a crash can return the right amount in bulk.
        backbone_by_server = [0.0] * len(servers)
        streams_dropped = 0
        events_processed = 0

        # Chaos gating: with no (or an empty) failure schedule every new
        # mechanism is off and the hot loop below is byte-for-byte the
        # failure-free path — the bit-identity the BENCH chaos block gates.
        chaos = failures is not None and len(failures) > 0
        retry_policy = failover if chaos and failover is not None else None
        rerep = rereplication if chaos and rereplication is not None else None
        num_failures = num_recoveries = 0
        num_retries = num_failovers = 0
        num_lost_to_failure = num_rereplicated = 0
        down_since: dict[int, float] = {}
        downtime = [0.0] * len(servers)
        ttr_sum = 0.0

        rate_rows = self._rate_rows
        static_rows = rate_rows
        if rerep is not None:
            # Copy-on-write replica rates: a crash zeroes the server's
            # column entries (replicas lost), a completed re-copy restores
            # the static value.  Admitted streams therefore always carry
            # static rates.
            rate_rows = [row[:] for row in rate_rows]
            lost_by_server: list[list[int]] = [[] for _ in servers]
            videos_of_server: list[list[int]] | None = None

        if failures is not None:
            failures.validate_servers(len(servers))
            for failure in failures:
                # Strict <: a failure at exactly the end of the peak is a
                # no-op rather than a mutation of post-horizon state.
                if failure.time_min < horizon_min:
                    heappush(heap, (failure.time_min, _FAILURE, seq, failure))
                    seq += 1

        dispatcher_holders = dispatcher.holders

        def failure_touched(video: int) -> bool:
            """Whether a failure is implicated in rejecting *video* now."""
            row = rate_rows[video]
            for s in dispatcher_holders(video):
                if row[s] <= 0.0 or not servers[s].is_up:
                    return True
            return False

        def admit_on_holder(video: int, now: float, hold: float) -> int | None:
            """Start *video* on its least-utilized holder with room; its id."""
            nonlocal seq
            row = rate_rows[video]
            for server_id in failover_order(dispatcher_holders(video), servers):
                rate = row[server_id]
                server = servers[server_id]
                if rate > 0.0 and server.can_admit(rate):
                    server.admit(now, rate)
                    heappush(
                        heap,
                        (now + hold, _DEPARTURE, seq,
                         (server_id, rate, False, server.epoch)),
                    )
                    seq += 1
                    return server_id
            return None

        # Wait queue (armed by a WaitList only): arrival index -> (video,
        # arrival time, hold), oldest first.  Empty when unarmed, so every
        # departure pays one falsy ``if waiting`` test.
        waiting: dict[int, tuple[int, float, float]] = {}

        def serve_waiters(now: float) -> None:
            """Start waiters, oldest first, on holders with room at *now*."""
            for index, (video, arrival, hold) in list(waiting.items()):
                if admit_on_holder(video, now, hold) is not None:
                    del waiting[index]
                    wait_list.waits.append(now - arrival)

        def handle_rare(event: tuple) -> None:
            """Apply one failure/recovery/retry/defection/re-copy event."""
            nonlocal seq, streams_dropped, num_failures, num_recoveries
            nonlocal num_retries, num_failovers, num_lost_to_failure
            nonlocal num_rereplicated, videos_of_server, ttr_sum
            kind = event[1]
            if kind == _FAILURE:
                failure = event[3]
                k = failure.server
                num_failures += 1
                down_since[k] = event[0]
                if log is not None:
                    log.crash_records.append(
                        (event[0], k, servers[k].used_mbps)
                    )
                streams_dropped += servers[k].fail(event[0])
                if backbone is not None and backbone_by_server[k] > 0:
                    backbone.release(backbone_by_server[k])
                    backbone_by_server[k] = 0.0
                if rerep is not None:
                    if videos_of_server is None:
                        videos_of_server = [
                            [
                                v
                                for v in range(len(static_rows))
                                if static_rows[v][s] > 0.0
                            ]
                            for s in range(len(servers))
                        ]
                    lost = lost_by_server[k]
                    for v in videos_of_server[k]:
                        if rate_rows[v][k] > 0.0:
                            rate_rows[v][k] = 0.0
                            lost.append(v)
                recovery = failure.recovery_min
                if recovery < _INF:
                    heappush(heap, (recovery, _RECOVERY, seq, k))
                    seq += 1
            elif kind == _RECOVERY:
                k = event[3]
                tr = event[0]
                servers[k].recover(tr)
                if log is not None:
                    log.repair_records.append((tr, k))
                num_recoveries += 1
                delta = tr - down_since.pop(k)
                downtime[k] += delta
                ttr_sum += delta
                if rerep is not None and lost_by_server[k]:
                    from ..dynamic.migration import plan_rereplication

                    lost = lost_by_server[k]
                    plan = plan_rereplication(
                        lost,
                        self._durations_list,
                        {v: static_rows[v][k] for v in lost},
                        migration_mbps=rerep.migration_mbps,
                    )
                    epoch = servers[k].epoch
                    for v, offset in plan:
                        done = tr + offset
                        if done <= horizon_min:
                            heappush(
                                heap, (done, _REPLICATE, seq, (k, v, epoch))
                            )
                            seq += 1
            elif kind == _RETRY:
                video, hold, attempt, index = event[3]
                tr = event[0]
                server_id = admit_on_holder(video, tr, hold)
                if server_id is not None:
                    num_failovers += 1
                    if log is not None:
                        log.retry_admissions.append((tr, index, server_id))
                    return
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
                        return
                # Retry budget (or horizon) exhausted: a timeout is a
                # rejection.
                per_video_rejected[video] += 1
                if log is not None:
                    log.retry_rejections.append((tr, index))
                if failure_touched(video):
                    num_lost_to_failure += 1
            elif kind == _DEFECTION:
                # Patience ran out; the waiter may already have started.
                entry = waiting.pop(event[3], None)
                if entry is not None:
                    per_video_rejected[entry[0]] += 1
            else:  # _REPLICATE
                k, v, epoch = event[3]
                if servers[k].epoch == epoch:
                    rate_rows[v][k] = static_rows[v][k]
                    lost_by_server[k].remove(v)
                    num_rereplicated += 1
                # else: the server crashed again mid-copy; the replica
                # stays lost and will be re-planned at the next repair.

        num_videos = self._videos.num_videos
        per_video_requests = [0] * num_videos
        per_video_rejected = [0] * num_videos

        # Struct-of-arrays request columns: video-id validation, hold
        # times and the horizon cut are computed once, vectorized, and
        # shared verbatim with the reference loop.
        soa = RequestSoA.from_trace(trace, self._durations, horizon_min)
        times_list = soa.times_list
        videos_list = soa.videos_list
        hold_list = soa.holds_list
        num_simulated = soa.num_simulated
        num_truncated = soa.num_truncated
        if log is not None:
            # Decision codes (see AuditLog): a bytearray store is the
            # cheapest per-arrival record while 2N fits in one byte.
            log.decisions = decisions = (
                bytearray(num_simulated)
                if 2 * len(servers) <= 255
                else [0] * num_simulated
            )
            redirect_base = 1 + len(servers)

        # Hot-loop locals (attribute lookups hoisted out of the loop;
        # rate_rows was bound above — the COW copy under re-replication).
        best_rates = self._best_rates_list
        candidates_of = dispatcher.candidates
        least_loaded = type(dispatcher) is LeastLoadedDispatcher
        holders_of = self._layout.holder_table.holders
        eps = _EPS_MBPS

        # Arrivals past the horizon were pre-truncated by the SoA cut (an
        # arrival at exactly ``horizon_min`` is still simulated), so the
        # loop carries no per-arrival horizon branch.
        for index in range(num_simulated):
            t = times_list[index]
            video = videos_list[index]

            # Apply departures/failures/recoveries at or before t.  The
            # DEPARTURE case (release + integral update) is inlined; the
            # rare kinds go through handle_rare.
            while heap and heap[0][0] <= t:
                event = heappop(heap)
                events_processed += 1
                if event[1] == _DEPARTURE:
                    server_id, rate, redirected, epoch = event[3]
                    server = servers[server_id]
                    if server.epoch != epoch:
                        continue  # stream already dropped by a crash
                    etime = event[0]
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
                        backbone.release(rate)
                        backbone_by_server[server_id] -= rate
                    if waiting:
                        serve_waiters(etime)
                else:
                    handle_rare(event)

            events_processed += 1
            per_video_requests[video] += 1
            if best_rates[video] <= 0.0:
                # Video has no replica anywhere: nothing can serve it.
                per_video_rejected[video] += 1
                continue
            end_time = t + hold_list[index]

            row = rate_rows[video]
            server_id = None
            if least_loaded:
                # LeastLoadedDispatcher.candidates is the spec: every holder
                # sorted by utilization, admitted on the first with room.
                # That is the least-utilized holder with room, ties to the
                # lower id, so one pass with a strict < picks it unsorted.
                best_util = _INF
                for candidate in holders_of[video]:
                    rate = row[candidate]
                    if rate > 0.0:
                        server = servers[candidate]
                        if (
                            server.is_up
                            and server.used_mbps + rate
                            <= server.bandwidth_mbps + eps
                            and (
                                server.max_streams is None
                                or server.active_streams < server.max_streams
                            )
                        ):
                            # == StreamingServer.utilization
                            util = server.used_mbps / server.bandwidth_mbps
                            if util < best_util:
                                server_id = candidate
                                best_util = util
            else:
                if failover_on_down and chaos:
                    # Without failure events no server is ever down, so
                    # the scan below is a no-op — skip it to keep the
                    # failure-free path on the plain hot path (BENCH
                    # chaos budget).
                    candidates = list(candidates_of(video, servers))
                    if any(not servers[s].is_up for s in candidates):
                        # Replication's availability payoff: retry the
                        # remaining holders when the dispatched server has
                        # crashed.
                        extra = [
                            s
                            for s in dispatcher.holders(video)
                            if s not in candidates
                        ]
                        extra.sort(key=lambda s: servers[s].utilization)
                        candidates.extend(extra)
                else:
                    candidates = candidates_of(video, servers)
                for candidate in candidates:
                    rate = row[candidate]
                    if rate > 0.0:
                        server = servers[candidate]
                        if (
                            server.is_up
                            and server.used_mbps + rate
                            <= server.bandwidth_mbps + eps
                            and (
                                server.max_streams is None
                                or server.active_streams < server.max_streams
                            )
                        ):
                            server_id = candidate
                            break

            admitted = server_id is not None
            if admitted:
                # Inlined StreamingServer.admit.
                rate = row[server_id]
                server = servers[server_id]
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
                if log is not None:
                    decisions[index] = 1 + server_id

            if not admitted and backbone is not None and (
                rerep is None or any(row[s] > 0.0 for s in dispatcher_holders(video))
            ):
                # Redirection: any server with free outgoing bandwidth may
                # stream the video's best copy over the backbone — gated,
                # under re-replication, on some replica actually existing.
                rate = best_rates[video]
                if backbone.used_mbps + rate <= backbone.capacity_mbps + eps:
                    delegate = None
                    best_util = _INF
                    for server in servers:
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
                        if log is not None:
                            decisions[index] = redirect_base + delegate_id

            if not admitted:
                if retry_policy is not None and (
                    retry_policy.retry_saturated or failure_touched(video)
                ):
                    nxt = t + retry_policy.delay_min(0)
                    if nxt <= horizon_min:
                        # Failover retry: the request waits out a backoff
                        # and re-tries surviving holders; the verdict
                        # (served or rejected) lands when the RETRY event
                        # resolves, always within the horizon.
                        heappush(
                            heap,
                            (nxt, _RETRY, seq,
                             (video, hold_list[index], 1, index)),
                        )
                        seq += 1
                        num_retries += 1
                    else:
                        per_video_rejected[video] += 1
                        if failure_touched(video):
                            num_lost_to_failure += 1
                elif wait_list is not None:
                    # Wait for a departure; DEFECTION sorts after DEPARTURE,
                    # so a slot freed at the deadline still starts it.
                    waiting[index] = (video, t, hold_list[index])
                    wait_list.num_queued += 1
                    heappush(
                        heap,
                        (t + wait_list.patience_min, _DEFECTION, seq, index),
                    )
                    seq += 1
                else:
                    per_video_rejected[video] += 1
                    if chaos and failure_touched(video):
                        num_lost_to_failure += 1

        # Apply remaining events inside the horizon, close the integrals.
        while heap and heap[0][0] <= horizon_min:
            event = heappop(heap)
            events_processed += 1
            if log is not None:
                log.last_event_time = event[0]
            if event[1] == _DEPARTURE:
                server_id, rate, redirected, epoch = event[3]
                server = servers[server_id]
                if server.epoch != epoch:
                    continue
                server.release(event[0], rate)
                if redirected:
                    backbone.release(rate)
                    backbone_by_server[server_id] -= rate
                if waiting:
                    serve_waiters(event[0])
            else:
                handle_rare(event)
        # Requests still waiting at the horizon count as defected.
        for video, _arrival, _hold in waiting.values():
            per_video_rejected[video] += 1
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
            server_bandwidth_mbps=self._cluster.bandwidth_mbps,
            horizon_min=horizon_min,
            num_redirected=(
                backbone.redirected_streams if backbone is not None else 0
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
            wall_time_sec=time.perf_counter() - start_wall,
            engine_path="optimized",
        )
        if log is not None:
            self._close_log(log, soa, servers, backbone)
        return result

    def _new_servers(self) -> list[StreamingServer]:
        """Idle servers for one run."""
        limits = self._stream_limits
        return [
            StreamingServer(
                k, spec.bandwidth_mbps, max_streams=limits[k] if limits else None
            )
            for k, spec in enumerate(self._cluster)
        ]

    def _close_log(self, log: AuditLog, soa, servers, backbone) -> None:
        """Hand a filled log the run's columns, end state and rates."""
        log.soa = soa
        log.servers = servers
        log.backbone = backbone
        log.rate_matrix = self._rate_matrix
        log.best_rates = self._best_rates
