"""Reference (clarity-first) implementation of the cluster simulator.

:class:`ReferenceClusterSimulator` preserves the original straight-line
``run()`` of :class:`~repro.cluster_sim.simulator.VoDClusterSimulator` —
per-request numpy indexing, closure-based event handling, method-call
server accounting — as the executable specification of the simulator's
semantics.  The optimized simulator must produce bit-identical
:class:`SimulationResult` fields (everything except wall time) on every
workload; ``tests/test_simulator_equivalence.py`` enforces that over
randomized configurations crossing failures × redirection × stream limits
× watch-time traces, and ``benchmarks/bench_hotpaths.py`` re-checks it on
every benchmark run.

Keep this module boring: it exists to be obviously correct, not fast.
"""

from __future__ import annotations

import time

import numpy as np

from .._validation import check_positive
from .dispatch import Dispatcher, failover_order
from .events import EventKind, EventQueue
from .failures import FailoverPolicy, FailureSchedule, RereplicationPolicy
from .metrics import SimulationResult
from .redirection import BackboneLink
from .server import StreamingServer
from .simulator import VoDClusterSimulator
from .soa import RequestSoA
from ..workload.requests import RequestTrace

__all__ = ["ReferenceClusterSimulator"]


class ReferenceClusterSimulator(VoDClusterSimulator):
    """The pre-optimization simulator: same constructor, original ``run``."""

    def run(
        self,
        trace: RequestTrace,
        *,
        horizon_min: float | None = None,
        failures: FailureSchedule | None = None,
        failover_on_down: bool = False,
        failover: FailoverPolicy | None = None,
        rereplication: RereplicationPolicy | None = None,
    ) -> SimulationResult:
        """Simulate one trace exactly as the original implementation did."""
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
        # Redirection pods: one independent BackboneLink per pod (P=1 is
        # the paper's single shared backbone; see the optimized loop).
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
        events = EventQueue()
        # Backbone bandwidth attributable to redirected streams per server,
        # so a crash can return the right amount in bulk.
        backbone_by_server = np.zeros(len(servers))
        streams_dropped = 0
        events_processed = 0

        # Chaos gating mirrors the optimized loop: no (or an empty)
        # failure schedule turns every new mechanism off.
        chaos = failures is not None and len(failures) > 0
        retry_policy = failover if chaos and failover is not None else None
        rerep = rereplication if chaos and rereplication is not None else None
        num_failures = num_recoveries = 0
        num_retries = num_failovers = 0
        num_lost_to_failure = num_rereplicated = 0
        down_since: dict[int, float] = {}
        downtime = [0.0] * len(servers)
        ttr_sum = 0.0

        rate_matrix = self._rate_matrix
        if rerep is not None:
            # Copy-on-write replica rates (see the optimized loop).
            rate_matrix = self._rate_matrix.copy()
            lost_by_server: list[list[int]] = [[] for _ in servers]

        if failures is not None:
            failures.validate_servers(len(servers))
            for failure in failures:
                # Strict <: a failure at exactly the end of the peak is a
                # no-op rather than a mutation of post-horizon state.
                if failure.time_min < horizon_min:
                    events.push(failure.time_min, EventKind.FAILURE, failure)

        def failure_touched(video: int) -> bool:
            """Whether a failure is implicated in rejecting *video* now."""
            for s in dispatcher.holders(video):
                if float(rate_matrix[video, s]) <= 0.0 or not servers[s].is_up:
                    return True
            return False

        def handle(event) -> None:
            """Apply one departure/failure/recovery/retry/replicate event."""
            nonlocal streams_dropped, events_processed, num_failures
            nonlocal num_recoveries, num_retries, num_failovers
            nonlocal num_lost_to_failure, num_rereplicated, ttr_sum
            events_processed += 1
            if event.kind == EventKind.DEPARTURE:
                server_id, rate, redirected, epoch = event.payload
                server = servers[server_id]
                if server.epoch != epoch:
                    return  # stream already dropped by a crash
                server.release(event.time, rate)
                if redirected and backbones is not None:
                    backbones[server_id // servers_per_pod].release(rate)
                    backbone_by_server[server_id] -= rate
            elif event.kind == EventKind.FAILURE:
                failure = event.payload
                k = failure.server
                num_failures += 1
                down_since[k] = event.time
                streams_dropped += servers[k].fail(event.time)
                if backbones is not None and backbone_by_server[k] > 0:
                    backbones[k // servers_per_pod].release(
                        float(backbone_by_server[k])
                    )
                    backbone_by_server[k] = 0.0
                if rerep is not None:
                    lost = lost_by_server[k]
                    for v in np.flatnonzero(self._rate_matrix[:, k] > 0.0):
                        v = int(v)
                        if float(rate_matrix[v, k]) > 0.0:
                            rate_matrix[v, k] = 0.0
                            lost.append(v)
                if np.isfinite(failure.recovery_min):
                    events.push(failure.recovery_min, EventKind.RECOVERY, k)
            elif event.kind == EventKind.RECOVERY:
                k = event.payload
                servers[k].recover(event.time)
                num_recoveries += 1
                delta = event.time - down_since.pop(k)
                downtime[k] += delta
                ttr_sum += delta
                if rerep is not None and lost_by_server[k]:
                    from ..dynamic.migration import plan_rereplication

                    lost = lost_by_server[k]
                    plan = plan_rereplication(
                        lost,
                        self._durations,
                        {v: float(self._rate_matrix[v, k]) for v in lost},
                        migration_mbps=rerep.migration_mbps,
                    )
                    epoch = servers[k].epoch
                    for v, offset in plan:
                        done = event.time + offset
                        if done <= horizon_min:
                            events.push(
                                done, EventKind.REPLICATE, (k, v, epoch)
                            )
            elif event.kind == EventKind.RETRY:
                video, hold, attempt = event.payload
                tr = event.time
                saved = False
                for server_id in failover_order(
                    dispatcher.holders(video), servers
                ):
                    rate = float(rate_matrix[video, server_id])
                    if rate > 0.0 and servers[server_id].can_admit(rate):
                        server = servers[server_id]
                        server.admit(tr, rate)
                        events.push(
                            tr + hold,
                            EventKind.DEPARTURE,
                            (server_id, rate, False, server.epoch),
                        )
                        num_failovers += 1
                        saved = True
                        break
                if not saved:
                    if attempt < retry_policy.max_retries:
                        nxt = tr + retry_policy.delay_min(attempt)
                        if nxt <= horizon_min:
                            events.push(
                                nxt, EventKind.RETRY, (video, hold, attempt + 1)
                            )
                            num_retries += 1
                            return
                    # Retry budget (or horizon) exhausted: a timeout is a
                    # rejection.
                    per_video_rejected[video] += 1
                    if failure_touched(video):
                        num_lost_to_failure += 1
            elif event.kind == EventKind.REPLICATE:
                k, v, epoch = event.payload
                if servers[k].epoch == epoch:
                    rate_matrix[v, k] = self._rate_matrix[v, k]
                    lost_by_server[k].remove(v)
                    num_rereplicated += 1

        def drain(until: float) -> None:
            """Handle every queued event up to *until* (inclusive).

            Re-checks the queue after each event because handling a
            failure schedules its recovery, which may also fall inside
            the window.
            """
            while events and events.peek().time <= until:
                handle(events.pop())

        num_videos = self._videos.num_videos
        per_video_requests = np.zeros(num_videos, dtype=np.int64)
        per_video_rejected = np.zeros(num_videos, dtype=np.int64)

        # Shared struct-of-arrays request columns (validation, hold times,
        # horizon cut) — the same preparation the optimized loop uses, so
        # the two loops cannot drift on truncation or watch-time rules.
        # An arrival at exactly ``horizon_min`` is still simulated.
        soa = RequestSoA.from_trace(trace, self._durations, horizon_min)
        times = soa.times
        videos = soa.videos
        hold_min = soa.holds
        num_truncated = soa.num_truncated

        for index in range(soa.num_simulated):
            t = float(times[index])
            video = int(videos[index])
            # Apply departures/failures/recoveries at or before t.
            drain(t)

            events_processed += 1
            per_video_requests[video] += 1
            if self._best_rates[video] <= 0.0:
                # Video has no replica anywhere: nothing can serve it.
                per_video_rejected[video] += 1
                continue
            end_time = t + float(hold_min[index])

            candidates = list(dispatcher.candidates(video, servers))
            if failover_on_down and any(
                not servers[s].is_up for s in candidates
            ):
                # Replication's availability payoff: retry the remaining
                # holders when the dispatched server has crashed.
                extra = [
                    int(s)
                    for s in dispatcher.holders(video)
                    if int(s) not in candidates
                ]
                extra.sort(key=lambda s: servers[s].utilization)
                candidates.extend(extra)

            admitted = False
            for server_id in candidates:
                rate = float(rate_matrix[video, server_id])
                if rate > 0.0 and servers[server_id].can_admit(rate):
                    server = servers[server_id]
                    server.admit(t, rate)
                    events.push(
                        end_time,
                        EventKind.DEPARTURE,
                        (server_id, rate, False, server.epoch),
                    )
                    admitted = True
                    break

            if not admitted and backbones is not None and (
                rerep is None
                or any(
                    float(rate_matrix[video, s]) > 0.0
                    for s in dispatcher.holders(video)
                )
            ):
                # Redirection: any server in the video's pod with free
                # outgoing bandwidth may stream the video's best copy over
                # the pod's backbone — gated, under re-replication, on
                # some replica actually existing.
                rate = float(self._best_rates[video])
                pod = video // videos_per_pod
                backbone = backbones[pod]
                if backbone.can_carry(rate):
                    delegate = self._least_utilized_with_room(
                        pod_servers[pod], rate
                    )
                    if delegate is not None:
                        backbone.acquire(rate)
                        backbone_by_server[delegate] += rate
                        servers[delegate].admit(t, rate)
                        events.push(
                            end_time,
                            EventKind.DEPARTURE,
                            (delegate, rate, True, servers[delegate].epoch),
                        )
                        admitted = True

            if not admitted:
                if retry_policy is not None and (
                    retry_policy.retry_saturated or failure_touched(video)
                ):
                    nxt = t + retry_policy.delay_min(0)
                    if nxt <= horizon_min:
                        events.push(
                            nxt,
                            EventKind.RETRY,
                            (video, float(hold_min[index]), 1),
                        )
                        num_retries += 1
                    else:
                        per_video_rejected[video] += 1
                        if failure_touched(video):
                            num_lost_to_failure += 1
                else:
                    per_video_rejected[video] += 1
                    if chaos and failure_touched(video):
                        num_lost_to_failure += 1

        # Apply remaining events inside the horizon, close the integrals.
        drain(horizon_min)
        for server in servers:
            server.advance(horizon_min)
        # Servers still down at the horizon accrue downtime to its edge.
        for k, since in down_since.items():
            downtime[k] += horizon_min - since

        return SimulationResult(
            num_requests=int(per_video_requests.sum()),
            num_rejected=int(per_video_rejected.sum()),
            per_video_requests=per_video_requests,
            per_video_rejected=per_video_rejected,
            server_time_avg_load_mbps=np.array(
                [s.time_avg_load_mbps(horizon_min) for s in servers]
            ),
            server_peak_load_mbps=np.array([s.peak_load_mbps for s in servers]),
            server_served=np.array([s.served_requests for s in servers]),
            server_bandwidth_mbps=self._cluster.bandwidth_mbps,
            horizon_min=float(horizon_min),
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
            engine_path="reference",
        )
