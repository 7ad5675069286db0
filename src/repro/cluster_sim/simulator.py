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
:class:`StreamingServer` methods.  The clarity-first original lives on as
:class:`~repro.cluster_sim.reference.ReferenceClusterSimulator`; the two
are bit-identical field for field (see
``tests/test_simulator_equivalence.py``).
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
from .dispatch import Dispatcher, StaticRoundRobinDispatcher, failover_order
from .events import EventKind
from .failures import FailoverPolicy, FailureSchedule, RereplicationPolicy
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
_REPLICATE = int(EventKind.REPLICATE)

#: Admission slack (Mb/s); mirrors ``server._EPS_MBPS``.
_EPS_MBPS = 1e-6

_INF = float("inf")


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
    redirection_pods:
        Number of independent backbone partitions (default 1, the
        paper's single shared link).  With ``P > 1`` the cluster is
        split into P contiguous pods — pod ``p`` owns videos
        ``[p*M/P, (p+1)*M/P)`` and servers ``[p*N/P, (p+1)*N/P)`` —
        each with its *own* ``backbone_mbps`` link, and a request may
        only be redirected to a server inside its video's pod.  This is
        exactly the K-shard block system, which is what makes the
        sharded backbone merge exact (see
        :func:`~repro.cluster_sim.sharding.unsharded_equivalent`).
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
        redirection_pods: int = 1,
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
        redirection_pods = int(redirection_pods)
        if redirection_pods < 1:
            raise ValueError("redirection_pods must be >= 1")
        if redirection_pods > 1:
            if videos.num_videos % redirection_pods:
                raise ValueError(
                    "redirection_pods must divide the number of videos"
                )
            if cluster.num_servers % redirection_pods:
                raise ValueError(
                    "redirection_pods must divide the number of servers"
                )
        self._redirection_pods = redirection_pods
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
            checkers.  When non-empty the run is delegated to the audited
            loop (bit-identical results, in-situ invariant checking) and
            any violation raises
            :class:`repro.verify.InvariantViolation`.  ``None``/empty
            keeps this plain hot loop — auditing off costs nothing.
        observer:
            Optional :class:`repro.observe.Observer` (duck-typed).  When
            set, per-server load/stream timelines are sampled every
            ``observer.sample_interval_min`` simulated minutes (the event
            heap is drained to each sample instant first, so snapshots are
            exact) and, with event tracing enabled, every N-th
            arrival/departure is recorded.  The returned result is
            bit-identical to an unobserved run; with ``observer=None`` the
            hot loop's only additions are two constant-false comparisons
            per arrival (see the ``observe`` block of
            ``BENCH_hotpaths.json``).  Ignored on the audited path.
        """
        if auditors:
            # Lazy import: cluster_sim must stay importable without the
            # verify package (and vice versa).
            from ..verify.audit import run_audited

            result, report = run_audited(
                self,
                trace,
                auditors=list(auditors),
                horizon_min=horizon_min,
                failures=failures,
                failover_on_down=failover_on_down,
                failover=failover,
                rereplication=rereplication,
            )
            report.raise_if_failed()
            return result
        start_wall = time.perf_counter()
        if horizon_min is None:
            horizon_min = trace.duration_min if trace.num_requests else 1.0
        check_positive("horizon_min", horizon_min)
        horizon_min = float(horizon_min)

        servers = [
            StreamingServer(
                k,
                spec.bandwidth_mbps,
                max_streams=(
                    self._stream_limits[k] if self._stream_limits else None
                ),
            )
            for k, spec in enumerate(self._cluster)
        ]
        dispatcher: Dispatcher = self._dispatcher_factory(self._layout)
        # Redirection pods: one independent BackboneLink per pod.  P=1 is
        # the paper's single shared backbone; the per-pod indices below
        # all reduce to 0 and the delegate scan covers every server, so
        # the P=1 path is semantically identical to the historical single
        # link (and the backbone-off hot path is untouched).
        pods = self._redirection_pods
        if self._backbone_mbps > 0:
            backbones = [
                BackboneLink(self._backbone_mbps) for _ in range(pods)
            ]
            videos_per_pod = self._videos.num_videos // pods
            servers_per_pod = len(servers) // pods
            pod_servers = [
                servers[p * servers_per_pod : (p + 1) * servers_per_pod]
                for p in range(pods)
            ]
        else:
            backbones = None
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

        def handle_rare(event: tuple, seq: int) -> int:
            """Apply one failure/recovery/retry/re-replication event."""
            nonlocal streams_dropped, num_failures, num_recoveries
            nonlocal num_retries, num_failovers, num_lost_to_failure
            nonlocal num_rereplicated, videos_of_server, ttr_sum
            kind = event[1]
            if kind == _FAILURE:
                failure = event[3]
                k = failure.server
                num_failures += 1
                down_since[k] = event[0]
                streams_dropped += servers[k].fail(event[0])
                if backbones is not None and backbone_by_server[k] > 0:
                    backbones[k // servers_per_pod].release(
                        backbone_by_server[k]
                    )
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
                video, hold, attempt = event[3]
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
                            saved = True
                            break
                if not saved:
                    if attempt < retry_policy.max_retries:
                        nxt = tr + retry_policy.delay_min(attempt)
                        if nxt <= horizon_min:
                            heappush(
                                heap,
                                (nxt, _RETRY, seq, (video, hold, attempt + 1)),
                            )
                            seq += 1
                            num_retries += 1
                            return seq
                    # Retry budget (or horizon) exhausted: a timeout is a
                    # rejection.
                    per_video_rejected[video] += 1
                    if failure_touched(video):
                        num_lost_to_failure += 1
            else:  # _REPLICATE
                k, v, epoch = event[3]
                if servers[k].epoch == epoch:
                    rate_rows[v][k] = static_rows[v][k]
                    lost_by_server[k].remove(v)
                    num_rereplicated += 1
                # else: the server crashed again mid-copy; the replica
                # stays lost and will be re-planned at the next repair.
            return seq

        num_videos = self._videos.num_videos
        per_video_requests = [0] * num_videos
        per_video_rejected = [0] * num_videos

        # Struct-of-arrays request columns: video-id validation, hold
        # times and the horizon cut are computed once, vectorized, and
        # shared verbatim with the reference and audited loops.
        soa = RequestSoA.from_trace(trace, self._durations, horizon_min)
        times_list = soa.times_list
        videos_list = soa.videos_list
        hold_list = soa.holds_list
        num_simulated = soa.num_simulated
        num_truncated = soa.num_truncated

        # Hot-loop locals (attribute lookups hoisted out of the loop;
        # rate_rows was bound above — the COW copy under re-replication).
        best_rates = self._best_rates_list
        candidates_of = dispatcher.candidates
        eps = _EPS_MBPS

        # Observation locals.  With observer=None (the default) both hot
        # guards degenerate to constant-false comparisons: ``t >=
        # next_sample`` with next_sample=inf and ``if trace_every`` with
        # trace_every=0 — the disabled-path budget gated by the
        # ``observe`` block of BENCH_hotpaths.json.
        next_sample = _INF
        trace_every = 0
        if observer is not None:
            interval = float(observer.sample_interval_min)
            if interval > 0.0:
                next_sample = interval
            trace_every = int(observer.trace_event_every)
            samples: list = []
            traced: list = []
            trace_arr_down = trace_dep_down = trace_every

            def _drain_events(limit: float) -> None:
                """Apply heap events at or before *limit* (sampling path).

                Semantics match the inlined drain of the arrival loop, so a
                sample snapshot is exact at its instant and the global
                event order is unchanged: events <= limit <= t are applied
                either way before the next arrival is admitted.  The
                departure branch mirrors the hot loop's inlined release —
                with periodic sampling most departures flow through here,
                so a method-call release would dominate the metrics-on
                overhead budget.
                """
                nonlocal seq, events_processed, trace_dep_down
                while heap and heap[0][0] <= limit:
                    event = heappop(heap)
                    events_processed += 1
                    if event[1] == _DEPARTURE:
                        dep_server, dep_rate, dep_redirected, dep_epoch = event[3]
                        server = servers[dep_server]
                        if server.epoch != dep_epoch:
                            continue
                        etime = event[0]
                        last = server._last_time_min
                        if etime > last:
                            server._load_integral += server.used_mbps * (
                                etime - last
                            )
                            server._last_time_min = etime
                        used = server.used_mbps - dep_rate
                        if used < 0.0:
                            if used < -eps:
                                raise RuntimeError(
                                    f"server {dep_server} bandwidth "
                                    "accounting went negative"
                                )
                            used = 0.0
                        server.used_mbps = used
                        server.active_streams -= 1
                        if dep_redirected:
                            backbones[dep_server // servers_per_pod].release(
                                dep_rate
                            )
                            backbone_by_server[dep_server] -= dep_rate
                        if trace_every:
                            trace_dep_down -= 1
                            if not trace_dep_down:
                                trace_dep_down = trace_every
                                traced.append(("departure", etime, dep_server))
                    else:
                        seq = handle_rare(event, seq)

            def _record_sample(at: float, arrivals_done: int) -> None:
                samples.append(
                    (
                        at,
                        [s.used_mbps for s in servers],
                        [s.active_streams for s in servers],
                        arrivals_done,
                        sum(per_video_rejected),
                        sum(b.redirected_streams for b in backbones)
                        if backbones is not None
                        else 0,
                        sum(b.used_mbps for b in backbones)
                        if backbones is not None
                        else 0.0,
                    )
                )

        # Arrivals past the horizon were pre-truncated by the SoA cut (an
        # arrival at exactly ``horizon_min`` is still simulated), so the
        # loop carries no per-arrival horizon branch.
        for index in range(num_simulated):
            t = times_list[index]
            if t >= next_sample:
                # Observation sampling (never taken when disabled): drain
                # events up to each boundary, snapshot, advance.
                while next_sample <= t:
                    _drain_events(next_sample)
                    _record_sample(next_sample, index)
                    next_sample += interval
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
                        backbones[server_id // servers_per_pod].release(rate)
                        backbone_by_server[server_id] -= rate
                    if trace_every:
                        trace_dep_down -= 1
                        if not trace_dep_down:
                            trace_dep_down = trace_every
                            traced.append(("departure", etime, server_id))
                else:
                    seq = handle_rare(event, seq)

            events_processed += 1
            per_video_requests[video] += 1
            if best_rates[video] <= 0.0:
                # Video has no replica anywhere: nothing can serve it.
                per_video_rejected[video] += 1
                if trace_every:
                    trace_arr_down -= 1
                    if not trace_arr_down:
                        trace_arr_down = trace_every
                        traced.append(("arrival", t, video, False))
                continue
            end_time = t + hold_list[index]

            if failover_on_down and chaos:
                # Without failure events no server is ever down, so the
                # scan below is a no-op — skip it to keep the failure-free
                # path on the plain hot path (BENCH chaos budget).
                candidates = list(candidates_of(video, servers))
                if any(not servers[s].is_up for s in candidates):
                    # Replication's availability payoff: retry the remaining
                    # holders when the dispatched server has crashed.
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
                        # Inlined StreamingServer.admit.
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
                        break

            if not admitted and backbones is not None and (
                rerep is None or any(row[s] > 0.0 for s in dispatcher_holders(video))
            ):
                # Redirection: any server in the video's pod with free
                # outgoing bandwidth may stream the video's best copy over
                # the pod's backbone — gated, under re-replication, on
                # some replica actually existing.
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
                            (nxt, _RETRY, seq, (video, hold_list[index], 1)),
                        )
                        seq += 1
                        num_retries += 1
                    else:
                        per_video_rejected[video] += 1
                        if failure_touched(video):
                            num_lost_to_failure += 1
                else:
                    per_video_rejected[video] += 1
                    if chaos and failure_touched(video):
                        num_lost_to_failure += 1
            if trace_every:
                trace_arr_down -= 1
                if not trace_arr_down:
                    trace_arr_down = trace_every
                    traced.append(("arrival", t, video, admitted))

        # Close out the observation timeline up to the horizon (sampling
        # drains preserve event order; the loop below sees the remainder).
        if next_sample <= horizon_min:
            arrivals_done = num_simulated
            while next_sample <= horizon_min:
                _drain_events(next_sample)
                _record_sample(next_sample, arrivals_done)
                next_sample += interval

        # Apply remaining events inside the horizon, close the integrals.
        while heap and heap[0][0] <= horizon_min:
            event = heappop(heap)
            events_processed += 1
            if event[1] == _DEPARTURE:
                server_id, rate, redirected, epoch = event[3]
                server = servers[server_id]
                if server.epoch != epoch:
                    continue
                server.release(event[0], rate)
                if redirected:
                    backbones[server_id // servers_per_pod].release(rate)
                    backbone_by_server[server_id] -= rate
                if trace_every:
                    trace_dep_down -= 1
                    if not trace_dep_down:
                        trace_dep_down = trace_every
                        traced.append(("departure", event[0], server_id))
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
            server_bandwidth_mbps=self._cluster.bandwidth_mbps,
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
            wall_time_sec=time.perf_counter() - start_wall,
            engine_path="optimized",
        )
        if observer is not None:
            observer.record_simulation(
                samples=samples,
                traced_events=traced,
                result=result,
                server_bandwidth_mbps=self._cluster.bandwidth_mbps.tolist(),
            )
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _least_utilized_with_room(
        servers: list[StreamingServer], rate: float
    ) -> int | None:
        """Least-utilized server that can carry one more stream, if any."""
        best: int | None = None
        best_util = _INF
        for server in servers:
            if server.can_admit(rate) and server.utilization < best_util:
                best = server.server_id
                best_util = server.utilization
        return best
