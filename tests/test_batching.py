"""Tests for the multicast batching simulator."""

import numpy as np
import pytest

from repro import ClusterSpec, VideoCollection, ZipfPopularity
from repro.cluster_sim import (
    BatchingClusterSimulator,
    VoDClusterSimulator,
)
from repro.model.layout import ReplicaLayout
from repro.placement import smallest_load_first_placement
from repro.replication import zipf_interval_replication
from repro.workload import RequestTrace, WorkloadGenerator


def one_server_setup(window, slots=2, duration=60.0):
    cluster = ClusterSpec.homogeneous(
        1, storage_gb=100.0, bandwidth_mbps=slots * 4.0
    )
    videos = VideoCollection.homogeneous(2, duration_min=duration)
    layout = ReplicaLayout.from_assignment([[0], [0]], 1)
    return BatchingClusterSimulator(cluster, videos, layout, window_min=window)


class TestBatchFormation:
    def test_requests_within_window_share_stream(self):
        sim = one_server_setup(window=2.0)
        # Three requests for v0 within 2 minutes: one stream, factor 3.
        trace = RequestTrace(np.array([0.0, 0.5, 1.5]), np.zeros(3, dtype=int))
        result = sim.run(trace, horizon_min=30.0)
        assert result.streams_started == 1
        assert result.viewers_served == 3
        assert result.batching_factor == pytest.approx(3.0)
        assert result.rejection_rate == 0.0

    def test_request_after_fire_opens_new_batch(self):
        sim = one_server_setup(window=2.0)
        trace = RequestTrace(np.array([0.0, 3.0]), np.zeros(2, dtype=int))
        result = sim.run(trace, horizon_min=30.0)
        assert result.streams_started == 2
        assert result.batching_factor == pytest.approx(1.0)

    def test_distinct_videos_distinct_batches(self):
        sim = one_server_setup(window=2.0)
        trace = RequestTrace(np.array([0.0, 0.5]), np.array([0, 1]))
        result = sim.run(trace, horizon_min=30.0)
        assert result.streams_started == 2

    def test_mean_wait(self):
        sim = one_server_setup(window=2.0)
        # Arrivals at 0 and 1; batch fires at 2: waits 2 and 1 -> mean 1.5.
        trace = RequestTrace(np.array([0.0, 1.0]), np.zeros(2, dtype=int))
        result = sim.run(trace, horizon_min=30.0)
        assert result.mean_wait_min == pytest.approx(1.5)

    def test_window_zero_fires_immediately(self):
        sim = one_server_setup(window=0.0)
        trace = RequestTrace(np.array([0.0, 1.0]), np.zeros(2, dtype=int))
        result = sim.run(trace, horizon_min=30.0)
        assert result.streams_started == 2
        assert result.mean_wait_min == 0.0

    def test_same_instant_arrivals_batch_even_at_window_zero(self):
        sim = one_server_setup(window=0.0)
        trace = RequestTrace(np.array([5.0, 5.0, 5.0]), np.zeros(3, dtype=int))
        result = sim.run(trace, horizon_min=30.0)
        assert result.streams_started == 1
        assert result.viewers_served == 3


class TestBatchAdmission:
    def test_whole_batch_rejected_when_full(self):
        sim = one_server_setup(window=1.0, slots=1)
        # First batch (v0) takes the only slot; the v1 batch is rejected.
        trace = RequestTrace(np.array([0.0, 0.5, 0.6]), np.array([0, 1, 1]))
        result = sim.run(trace, horizon_min=30.0)
        assert result.base.num_rejected == 2
        np.testing.assert_array_equal(result.base.per_video_rejected, [0, 2])

    def test_open_batches_resolved_at_horizon(self):
        sim = one_server_setup(window=10.0)
        trace = RequestTrace(np.array([25.0]), np.zeros(1, dtype=int))
        result = sim.run(trace, horizon_min=30.0)
        # Batch would fire at 35 > horizon; it is resolved at the horizon.
        assert result.viewers_served == 1

    def test_unreplicated_video_rejected(self):
        cluster = ClusterSpec.homogeneous(1, storage_gb=100.0, bandwidth_mbps=8.0)
        videos = VideoCollection.homogeneous(2)
        layout = ReplicaLayout(rate_matrix=np.array([[4.0], [0.0]]))
        sim = BatchingClusterSimulator(
            cluster, videos, layout, window_min=1.0, validate_layout=False
        )
        trace = RequestTrace(np.array([0.0]), np.array([1]))
        result = sim.run(trace, horizon_min=10.0)
        assert result.base.num_rejected == 1

    def test_conservation(self):
        sim = one_server_setup(window=1.0, slots=1)
        trace = RequestTrace(
            np.sort(np.random.default_rng(0).uniform(0, 60, 50)),
            np.random.default_rng(1).integers(0, 2, 50),
        )
        result = sim.run(trace, horizon_min=90.0)
        assert (
            result.viewers_served + result.base.num_rejected
            == result.base.num_requests
        )


class TestCapacityMultiplier:
    def test_batching_beats_unicast_at_overload(self, rng):
        pop = ZipfPopularity(50, 0.75)
        cluster = ClusterSpec.homogeneous(4, storage_gb=40.5, bandwidth_mbps=900.0)
        videos = VideoCollection.homogeneous(50)
        replication = zipf_interval_replication(pop.probabilities, 4, 60)
        layout = smallest_load_first_placement(replication, 15)
        generator = WorkloadGenerator.poisson_zipf(pop, 20.0)  # 2x overload
        trace = generator.generate(90.0, rng)

        unicast = VoDClusterSimulator(cluster, videos, layout).run(
            trace, horizon_min=90.0
        )
        batched = BatchingClusterSimulator(
            cluster, videos, layout, window_min=3.0
        ).run(trace, horizon_min=90.0)
        assert batched.rejection_rate < unicast.rejection_rate
        assert batched.batching_factor > 1.3

    def test_factor_grows_with_window(self, rng):
        pop = ZipfPopularity(50, 0.75)
        cluster = ClusterSpec.homogeneous(4, storage_gb=40.5, bandwidth_mbps=900.0)
        videos = VideoCollection.homogeneous(50)
        replication = zipf_interval_replication(pop.probabilities, 4, 60)
        layout = smallest_load_first_placement(replication, 15)
        trace = WorkloadGenerator.poisson_zipf(pop, 15.0).generate(90.0, rng)
        factors = []
        for window in (0.5, 2.0, 5.0):
            sim = BatchingClusterSimulator(
                cluster, videos, layout, window_min=window
            )
            factors.append(sim.run(trace, horizon_min=90.0).batching_factor)
        assert factors[0] < factors[-1]

    def test_validation(self):
        cluster = ClusterSpec.homogeneous(1, storage_gb=100.0, bandwidth_mbps=8.0)
        videos = VideoCollection.homogeneous(2)
        layout = ReplicaLayout.from_assignment([[0], [0]], 1)
        with pytest.raises(ValueError):
            BatchingClusterSimulator(cluster, videos, layout, window_min=-1.0)


PIN_HORIZON = 30.0


def pinned_trace(window):
    """Seeded 0.5-min-grid trace over videos 0-2 plus hand-placed video 3.

    Video 3 opens a batch at 3.0, gets a viewer exactly at its fire
    instant (``3.0 + window``; it joins), and opens a batch at 29.75 that
    is still open at the horizon for every window > 0.25.  Seven seeded
    arrivals fall past the horizon.
    """
    rng = np.random.default_rng(20021)
    times = rng.integers(0, 70, 60) * 0.5
    videos = rng.integers(0, 3, 60)
    times = np.concatenate([times, [3.0, 3.0 + window, PIN_HORIZON - 0.25]])
    videos = np.concatenate([videos, [3, 3, 3]])
    order = np.argsort(times, kind="stable")
    return RequestTrace(times[order], videos[order])


#: window -> (num_requests, num_rejected, per_video_rejected,
#: streams_started, viewers_served, mean_wait_min, time-avg loads, peak
#: loads, served), computed by the batching simulator's original
#: dedicated event loop; the kernel-based run must reproduce them exactly.
BATCHING_PINS = {
    0.0: (56, 36, [10, 11, 12, 3], 18, 20, 0.0,
          [9.533333333333333, 10.733333333333333], [12.0, 12.0], [9, 9]),
    1.0: (56, 25, [8, 10, 6, 1], 18, 31, 0.7258064516129032,
          [9.4, 10.133333333333333], [12.0, 12.0], [9, 9]),
    2.0: (56, 17, [6, 5, 5, 1], 18, 39, 1.3205128205128205,
          [8.866666666666667, 9.4], [12.0, 12.0], [9, 9]),
    5.0: (56, 0, [0, 0, 0, 0], 15, 56, 2.6651785714285716,
          [6.533333333333333, 7.333333333333333], [12.0, 12.0], [7, 8]),
}


def pinned_simulator(window):
    cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=12.0)
    videos = VideoCollection.homogeneous(4, duration_min=10.0)
    layout = ReplicaLayout.from_assignment([[0], [1], [0, 1], [1]], 2)
    return BatchingClusterSimulator(cluster, videos, layout, window_min=window)


class TestPinnedParity:
    @pytest.mark.parametrize("window", sorted(BATCHING_PINS))
    def test_fields_match_pins(self, window):
        result = pinned_simulator(window).run(
            pinned_trace(window), horizon_min=PIN_HORIZON
        )
        base = result.base
        (requests, rejected, per_video, streams, viewers, wait, loads,
         peaks, served) = BATCHING_PINS[window]
        assert base.num_requests == requests
        assert base.num_rejected == rejected
        assert base.per_video_rejected.tolist() == per_video
        assert result.streams_started == streams
        assert result.viewers_served == viewers
        assert result.mean_wait_min == wait
        assert base.server_time_avg_load_mbps.tolist() == loads
        assert base.server_peak_load_mbps.tolist() == peaks
        assert base.server_served.tolist() == served

    @pytest.mark.parametrize("window", [0.0, 2.0])
    def test_arrivals_past_horizon_are_counted(self, window):
        trace = pinned_trace(window)
        result = pinned_simulator(window).run(trace, horizon_min=PIN_HORIZON)
        base = result.base
        assert base.num_truncated == 7
        assert base.num_requests + base.num_truncated == trace.num_requests
        assert base.num_events > 0
        assert base.wall_time_sec > 0.0
