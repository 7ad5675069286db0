"""The kernel's one-pass least-loaded pick against the sorted spec.

:class:`LeastLoadedDispatcher.candidates` sorts a video's holders by
utilization and the simulator admits on the first with room.  The event
kernel makes the same decision in one unsorted pass over the holders
(least-utilized holder with room, ties to the lower id).  Each hand-built
case below aims at one way the two could part and requires the kernel to
equal :class:`ReferenceClusterSimulator`, which runs ``candidates()``
verbatim, under ``same_outcome``.  The wait queue has no reference loop,
so there the oracle is the same kernel driven through ``candidates()``
by a :class:`LeastLoadedDispatcher` subclass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterSpec, VideoCollection
from repro.cluster_sim import (
    LeastLoadedDispatcher,
    QueueingClusterSimulator,
    ReferenceClusterSimulator,
    VoDClusterSimulator,
)
from repro.cluster_sim.failures import (
    FailoverPolicy,
    FailureSchedule,
    RereplicationPolicy,
)
from repro.model.cluster import ServerSpec
from repro.model.layout import ReplicaLayout
from repro.workload.requests import RequestTrace


class SortedLeastLoaded(LeastLoadedDispatcher):
    """Not exactly ``LeastLoadedDispatcher``: the kernel calls ``candidates()``."""


def run_both(cluster, videos, layout, trace, *, stream_limits=None, **run_kwargs):
    """Kernel result, after checking it equals the reference loop's."""
    kwargs = dict(
        dispatcher_factory=LeastLoadedDispatcher, stream_limits=stream_limits
    )
    kernel = VoDClusterSimulator(cluster, videos, layout, **kwargs).run(
        trace, **run_kwargs
    )
    reference = ReferenceClusterSimulator(cluster, videos, layout, **kwargs).run(
        trace, **run_kwargs
    )
    assert kernel.same_outcome(reference)
    return kernel


def burst(video, count, at=0.0):
    """*count* requests for *video*, all at time *at*."""
    return [(at, video)] * count


def trace_of(requests):
    times, videos = zip(*sorted(requests, key=lambda r: r[0]))
    return RequestTrace(np.array(times), np.array(videos))


def grid_trace(seed, num_videos, num_requests=90, span=60):
    """Arrivals on a 0.5-min grid, so many share an instant and a load."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.integers(0, span, num_requests) * 0.5)
    return RequestTrace(times, rng.integers(0, num_videos, num_requests))


def mixed_rate_layout():
    """Three holders per popular video at differing per-holder rates."""
    return ReplicaLayout(
        rate_matrix=np.array(
            [
                [3.0, 1.5, 4.0],
                [1.5, 3.0, 1.5],
                [4.0, 0.0, 1.5],
                [0.0, 4.0, 3.0],
                [1.5, 1.5, 0.0],
            ]
        )
    )


class TestTies:
    def test_equal_utilization_goes_to_lower_id(self):
        cluster = ClusterSpec.homogeneous(4, storage_gb=100.0, bandwidth_mbps=12.0)
        videos = VideoCollection.homogeneous(1, duration_min=10.0)
        layout = ReplicaLayout(rate_matrix=np.full((1, 4), 3.0))
        result = run_both(
            cluster, videos, layout, trace_of(burst(0, 6)), horizon_min=5.0
        )
        # Four-way tie at 0, then a four-way tie at 0.25: ids 0 and 1 win.
        assert result.server_served.tolist() == [2, 2, 1, 1]

    def test_ties_across_bandwidths(self):
        """Equal utilization from unequal loads: 3/6 == 6/12."""
        cluster = ClusterSpec(
            [ServerSpec(100.0, 6.0), ServerSpec(100.0, 12.0)]
        )
        videos = VideoCollection.homogeneous(1, duration_min=10.0)
        layout = ReplicaLayout(rate_matrix=np.full((1, 2), 3.0))
        result = run_both(
            cluster, videos, layout, trace_of(burst(0, 7)), horizon_min=5.0
        )
        assert result.server_served.tolist() == [2, 4]
        assert result.num_rejected == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_trace(self, seed):
        cluster = ClusterSpec.homogeneous(3, storage_gb=100.0, bandwidth_mbps=12.0)
        videos = VideoCollection.homogeneous(5, duration_min=10.0)
        result = run_both(
            cluster, videos, mixed_rate_layout(), grid_trace(seed, 5),
            horizon_min=30.0,
        )
        assert 0 < result.num_rejected < result.num_requests


class TestRoomPerHolder:
    def test_least_utilized_holder_without_room_is_skipped(self):
        cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=12.0)
        videos = VideoCollection.homogeneous(3, duration_min=10.0)
        layout = ReplicaLayout(
            rate_matrix=np.array([[1.5, 0.0], [0.0, 4.0], [6.0, 1.5]])
        )
        # Server 0 ends at 7.5/12, server 1 at 8/12; video 2 needs 6 Mb/s
        # on server 0, which does not fit, and 1.5 on server 1, which does.
        requests = burst(0, 5) + burst(1, 2) + burst(2, 1, at=1.0)
        requests += burst(2, 1, at=2.0)
        result = run_both(
            cluster, videos, layout, trace_of(requests), horizon_min=5.0
        )
        assert result.server_served.tolist() == [5, 4]
        assert result.num_rejected == 0

    def test_stream_limits(self):
        cluster = ClusterSpec.homogeneous(3, storage_gb=100.0, bandwidth_mbps=12.0)
        videos = VideoCollection.homogeneous(1, duration_min=10.0)
        layout = ReplicaLayout(rate_matrix=np.full((1, 3), 1.5))
        result = run_both(
            cluster, videos, layout, trace_of(burst(0, 8)),
            stream_limits=[1, 2, 8], horizon_min=5.0,
        )
        # Server 0 is least utilized at the fourth request but capped.
        assert result.server_served.tolist() == [1, 2, 5]

    @pytest.mark.parametrize("seed", range(3))
    def test_stream_limits_grid_trace(self, seed):
        cluster = ClusterSpec.homogeneous(3, storage_gb=100.0, bandwidth_mbps=12.0)
        videos = VideoCollection.homogeneous(5, duration_min=10.0)
        run_both(
            cluster, videos, mixed_rate_layout(), grid_trace(seed, 5),
            stream_limits=[2, 5, 3], horizon_min=30.0,
        )


class TestFailures:
    @pytest.mark.parametrize("failover_on_down", [False, True])
    @pytest.mark.parametrize("retry_saturated", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_holder_crashes_mid_run(self, failover_on_down, retry_saturated, seed):
        cluster = ClusterSpec.homogeneous(3, storage_gb=100.0, bandwidth_mbps=12.0)
        videos = VideoCollection.homogeneous(5, duration_min=10.0)
        result = run_both(
            cluster, videos, mixed_rate_layout(), grid_trace(seed, 5),
            horizon_min=30.0,
            failures=FailureSchedule.single(7.0, 0, down_min=8.0),
            failover_on_down=failover_on_down,
            failover=FailoverPolicy(retry_saturated=retry_saturated),
        )
        assert result.num_failures == result.num_recoveries == 1
        assert result.streams_dropped > 0
        assert result.num_retries > 0

    def test_rereplication_zeroed_rates_are_skipped(self):
        """Server 0 is back up and idle, but its replica is not yet re-copied."""
        cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=12.0)
        videos = VideoCollection.homogeneous(1, duration_min=10.0)
        layout = ReplicaLayout(rate_matrix=np.full((1, 2), 3.0))
        trace = RequestTrace(np.arange(0.0, 20.0, 0.5), np.zeros(40, dtype=int))
        result = run_both(
            cluster, videos, layout, trace, horizon_min=25.0,
            failures=FailureSchedule.single(2.0, 0, down_min=3.0),
            # The 30 Mb of the lost replica takes 10 min at 3 Mb/s.
            rereplication=RereplicationPolicy(migration_mbps=3.0),
            failover=FailoverPolicy(),
        )
        assert result.num_rereplicated == 1
        assert result.num_lost_to_failure > 0


class TestWaitQueue:
    @pytest.mark.parametrize("patience", [1.0, 2.0, 5.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_sorted_candidates(self, patience, seed):
        cluster = ClusterSpec.homogeneous(3, storage_gb=100.0, bandwidth_mbps=12.0)
        videos = VideoCollection.homogeneous(5, duration_min=10.0)
        trace = grid_trace(seed, 5, num_requests=120)
        one_pass, spec = (
            QueueingClusterSimulator(
                cluster, videos, mixed_rate_layout(),
                patience_min=patience, dispatcher_factory=factory,
            ).run(trace, horizon_min=30.0)
            for factory in (LeastLoadedDispatcher, SortedLeastLoaded)
        )
        assert one_pass.base.same_outcome(spec.base)
        assert one_pass.num_queued == spec.num_queued
        assert one_pass.num_queued_served == spec.num_queued_served
        assert one_pass.mean_wait_min == spec.mean_wait_min
        assert one_pass.max_wait_min == spec.max_wait_min
        assert one_pass.num_queued_served > 0
