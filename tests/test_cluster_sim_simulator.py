"""Tests for the VoD cluster simulator and its metrics."""

import numpy as np
import pytest

from repro import ClusterSpec, VideoCollection, ZipfPopularity
from repro.cluster_sim import (
    LeastLoadedDispatcher,
    RequestSoA,
    SimulationResult,
    VoDClusterSimulator,
)
from repro.model.layout import ReplicaLayout
from repro.placement import smallest_load_first_placement
from repro.replication import zipf_interval_replication
from repro.workload import RequestTrace, WorkloadGenerator


def tiny_setup(bandwidth=12.0, duration=10.0):
    """2 servers x `bandwidth` Mb/s, 2 videos at 4 Mb/s, v0 on s0, v1 on s1."""
    cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=bandwidth)
    videos = VideoCollection.homogeneous(2, bit_rate_mbps=4.0, duration_min=duration)
    layout = ReplicaLayout.from_assignment([[0], [1]], 2)
    return cluster, videos, layout


class TestDeterministicScenarios:
    def test_all_admitted_under_capacity(self):
        cluster, videos, layout = tiny_setup()
        sim = VoDClusterSimulator(cluster, videos, layout)
        trace = RequestTrace(np.array([0.0, 1.0, 2.0]), np.array([0, 0, 0]))
        result = sim.run(trace, horizon_min=10.0)
        assert result.num_rejected == 0
        assert result.num_requests == 3

    def test_rejection_when_bandwidth_exhausted(self):
        # 12 Mb/s / 4 Mb/s = 3 concurrent streams; the 4th overlapping
        # request for v0 must be rejected.
        cluster, videos, layout = tiny_setup()
        sim = VoDClusterSimulator(cluster, videos, layout)
        trace = RequestTrace(np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(4, dtype=int))
        result = sim.run(trace, horizon_min=10.0)
        assert result.num_rejected == 1
        np.testing.assert_array_equal(result.per_video_rejected, [1, 0])

    def test_departure_frees_bandwidth(self):
        # Streams last 10 min: a request at t=10 reuses the slot freed at 10.
        cluster, videos, layout = tiny_setup(duration=10.0)
        sim = VoDClusterSimulator(cluster, videos, layout)
        trace = RequestTrace(
            np.array([0.0, 0.0, 0.0, 10.0]), np.zeros(4, dtype=int)
        )
        result = sim.run(trace, horizon_min=20.0)
        assert result.num_rejected == 0

    def test_unreplicated_video_rejected(self):
        cluster, videos, _ = tiny_setup()
        layout = ReplicaLayout(rate_matrix=np.array([[4.0, 0.0], [0.0, 0.0]]))
        sim = VoDClusterSimulator(cluster, videos, layout, validate_layout=False)
        trace = RequestTrace(np.array([0.0]), np.array([1]))
        result = sim.run(trace, horizon_min=10.0)
        assert result.num_rejected == 1

    def test_time_avg_load(self):
        cluster, videos, layout = tiny_setup(duration=5.0)
        sim = VoDClusterSimulator(cluster, videos, layout)
        # One 4 Mb/s stream on s0 for 5 of the 10 measured minutes.
        trace = RequestTrace(np.array([0.0]), np.array([0]))
        result = sim.run(trace, horizon_min=10.0)
        np.testing.assert_allclose(
            result.server_time_avg_load_mbps, [2.0, 0.0]
        )

    def test_arrivals_beyond_horizon_ignored(self):
        cluster, videos, layout = tiny_setup()
        sim = VoDClusterSimulator(cluster, videos, layout)
        trace = RequestTrace(np.array([1.0, 50.0]), np.array([0, 0]))
        result = sim.run(trace, horizon_min=10.0)
        assert result.num_requests == 1

    def test_trace_video_out_of_range(self):
        cluster, videos, layout = tiny_setup()
        sim = VoDClusterSimulator(cluster, videos, layout)
        trace = RequestTrace(np.array([0.0]), np.array([7]))
        with pytest.raises(ValueError, match="outside"):
            sim.run(trace, horizon_min=10.0)

    def test_shape_mismatches_rejected(self):
        cluster, videos, layout = tiny_setup()
        with pytest.raises(ValueError, match="disagree on N"):
            VoDClusterSimulator(cluster[:1], videos, layout)


class TestDynamicDispatch:
    def test_least_loaded_avoids_rejection(self):
        # v0 on both servers; static RR alternates, least-loaded can route
        # around a saturated server.
        cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=8.0)
        videos = VideoCollection.homogeneous(1, bit_rate_mbps=4.0, duration_min=60.0)
        layout = ReplicaLayout.from_assignment([[0, 1]], 2)
        trace = RequestTrace(np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(4, dtype=int))

        static = VoDClusterSimulator(cluster, videos, layout).run(
            trace, horizon_min=30.0
        )
        dynamic = VoDClusterSimulator(
            cluster, videos, layout, dispatcher_factory=LeastLoadedDispatcher
        ).run(trace, horizon_min=30.0)
        assert dynamic.num_rejected <= static.num_rejected
        assert dynamic.num_rejected == 0


class TestRedirection:
    def setup_sim(self, backbone):
        # v0 only on s0 (4 streams max); s1 idle. Backbone lets s1 serve v0.
        cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=16.0)
        videos = VideoCollection.homogeneous(1, bit_rate_mbps=4.0, duration_min=60.0)
        layout = ReplicaLayout.from_assignment([[0]], 2)
        return VoDClusterSimulator(cluster, videos, layout, backbone_mbps=backbone)

    def test_redirection_rescues_overflow(self):
        sim = self.setup_sim(backbone=100.0)
        trace = RequestTrace(np.arange(6, dtype=float), np.zeros(6, dtype=int))
        result = sim.run(trace, horizon_min=30.0)
        assert result.num_rejected == 0
        assert result.num_redirected == 2

    def test_backbone_capacity_limits_redirection(self):
        sim = self.setup_sim(backbone=4.0)  # one redirected stream max
        trace = RequestTrace(np.arange(6, dtype=float), np.zeros(6, dtype=int))
        result = sim.run(trace, horizon_min=30.0)
        assert result.num_redirected == 1
        assert result.num_rejected == 1

    def test_no_backbone_rejects(self):
        sim = self.setup_sim(backbone=0.0)
        trace = RequestTrace(np.arange(6, dtype=float), np.zeros(6, dtype=int))
        result = sim.run(trace, horizon_min=30.0)
        assert result.num_redirected == 0
        assert result.num_rejected == 2

    def test_backbone_room_but_no_delegate_rejects(self):
        # The backbone has capacity to spare, but every up server's own
        # outgoing link is full — redirection must reject, not over-admit.
        cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=8.0)
        videos = VideoCollection.homogeneous(1, bit_rate_mbps=4.0, duration_min=60.0)
        layout = ReplicaLayout.from_assignment([[0]], 2)
        sim = VoDClusterSimulator(cluster, videos, layout, backbone_mbps=100.0)
        trace = RequestTrace(np.arange(5, dtype=float), np.zeros(5, dtype=int))
        result = sim.run(trace, horizon_min=30.0)
        assert result.num_redirected == 2  # s1 takes two, then it is full too
        assert result.num_rejected == 1

    def test_down_server_is_no_redirection_delegate(self):
        from repro.cluster_sim import FailureSchedule

        sim = self.setup_sim(backbone=100.0)
        trace = RequestTrace(np.arange(6, dtype=float), np.zeros(6, dtype=int))
        result = sim.run(
            trace,
            horizon_min=30.0,
            failures=FailureSchedule.single(0.0, 1),
        )
        # Without the (down) delegate, the two overflow requests reject.
        assert result.num_redirected == 0
        assert result.num_rejected == 2


class TestBackboneLinkUnit:
    """Rejection paths of the BackboneLink capacity pool."""

    def make(self, capacity=4.0):
        from repro.cluster_sim.redirection import BackboneLink

        return BackboneLink(capacity)

    def test_acquire_over_capacity_raises(self):
        link = self.make()
        link.acquire(4.0)
        assert not link.can_carry(4.0)
        with pytest.raises(RuntimeError, match="over-committed"):
            link.acquire(4.0)
        assert link.redirected_streams == 1  # the failed acquire left no trace

    def test_exactly_at_capacity_fits(self):
        link = self.make()
        assert link.can_carry(4.0)
        link.acquire(4.0)
        assert link.used_mbps == 4.0

    def test_release_restores_capacity(self):
        link = self.make()
        link.acquire(4.0)
        link.release(4.0)
        assert link.used_mbps == 0.0
        assert link.can_carry(4.0)

    def test_release_clamps_rounding_noise(self):
        link = self.make()
        link.acquire(4.0)
        link.release(4.0 + 1e-9)  # float noise must clamp, not go negative
        assert link.used_mbps == 0.0

    def test_release_below_zero_raises(self):
        link = self.make()
        with pytest.raises(RuntimeError, match="negative"):
            link.release(1.0)

    def test_zero_capacity_carries_nothing(self):
        link = self.make(0.0)
        assert not link.can_carry(0.1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            self.make(-1.0)


class TestConservationInvariants:
    def test_served_plus_rejected_equals_requests(self, rng):
        pop = ZipfPopularity(50, 0.75)
        cluster = ClusterSpec.homogeneous(4, storage_gb=54.0, bandwidth_mbps=900.0)
        videos = VideoCollection.homogeneous(50)
        rep = zipf_interval_replication(pop.probabilities, 4, 60)
        layout = smallest_load_first_placement(rep, 20)
        sim = VoDClusterSimulator(cluster, videos, layout)
        gen = WorkloadGenerator.poisson_zipf(pop, 20.0)
        trace = gen.generate(90.0, rng)
        result = sim.run(trace, horizon_min=90.0)
        assert result.num_served + result.num_rejected == result.num_requests
        assert int(result.server_served.sum()) == result.num_served

    def test_peak_load_bounded_by_bandwidth(self, rng):
        pop = ZipfPopularity(50, 0.75)
        cluster = ClusterSpec.homogeneous(4, storage_gb=54.0, bandwidth_mbps=900.0)
        videos = VideoCollection.homogeneous(50)
        rep = zipf_interval_replication(pop.probabilities, 4, 60)
        layout = smallest_load_first_placement(rep, 20)
        sim = VoDClusterSimulator(cluster, videos, layout)
        gen = WorkloadGenerator.poisson_zipf(pop, 60.0)  # overload
        result = sim.run(gen.generate(90.0, rng), horizon_min=90.0)
        assert np.all(result.server_peak_load_mbps <= 900.0 + 1e-6)
        assert result.num_rejected > 0


class TestSimulationResult:
    def make(self, **overrides):
        kwargs = dict(
            num_requests=10,
            num_rejected=2,
            per_video_requests=np.array([6, 4]),
            per_video_rejected=np.array([2, 0]),
            server_time_avg_load_mbps=np.array([10.0, 20.0]),
            server_peak_load_mbps=np.array([30.0, 40.0]),
            server_served=np.array([4, 4]),
            server_bandwidth_mbps=np.array([100.0, 100.0]),
            horizon_min=90.0,
        )
        kwargs.update(overrides)
        return SimulationResult(**kwargs)

    def test_rejection_rate(self):
        assert self.make().rejection_rate == pytest.approx(0.2)

    def test_consistency_checks(self):
        with pytest.raises(ValueError):
            self.make(num_rejected=11)
        with pytest.raises(ValueError):
            self.make(per_video_requests=np.array([5, 4]))
        with pytest.raises(ValueError):
            self.make(per_video_rejected=np.array([1, 0]))

    def test_load_imbalance(self):
        result = self.make()
        # loads 10, 20 -> mean 15 -> max dev 5 -> relative 1/3.
        assert result.load_imbalance() == pytest.approx(1 / 3)
        assert result.load_imbalance_percent() == pytest.approx(5.0)

    def test_per_video_rejection_rate(self):
        rates = self.make().per_video_rejection_rate()
        np.testing.assert_allclose(rates, [2 / 6, 0.0])

    def test_zero_requests(self):
        result = self.make(
            num_requests=0,
            num_rejected=0,
            per_video_requests=np.zeros(2, dtype=int),
            per_video_rejected=np.zeros(2, dtype=int),
        )
        assert result.rejection_rate == 0.0


class _RawTrace:
    """Trace stand-in bypassing RequestTrace's own input validation.

    RequestTrace rejects negative video ids at construction; the simulator
    must still defend itself against trace-like objects that don't (NumPy
    would otherwise wrap the negative id into valid-looking indexing).
    """

    def __init__(self, times, videos):
        self.arrival_min = np.asarray(times, dtype=np.float64)
        self.videos = np.asarray(videos, dtype=np.int64)
        self.watch_min = None

    @property
    def num_requests(self):
        return int(self.arrival_min.size)

    @property
    def duration_min(self):
        return float(self.arrival_min[-1]) if self.arrival_min.size else 0.0


class TestTraceValidation:
    def test_negative_video_id_rejected(self):
        cluster, videos, layout = tiny_setup()
        sim = VoDClusterSimulator(cluster, videos, layout)
        trace = _RawTrace([0.0, 1.0], [0, -1])
        with pytest.raises(ValueError, match="negative video id"):
            sim.run(trace, horizon_min=10.0)

    def test_out_of_range_video_id_rejected(self):
        cluster, videos, layout = tiny_setup()
        sim = VoDClusterSimulator(cluster, videos, layout)
        trace = _RawTrace([0.0], [2])
        with pytest.raises(ValueError, match="outside the collection"):
            sim.run(trace, horizon_min=10.0)


class TestHorizonTruncation:
    def test_arrival_at_horizon_is_simulated(self):
        cluster, videos, layout = tiny_setup()
        sim = VoDClusterSimulator(cluster, videos, layout)
        trace = RequestTrace(np.array([0.0, 10.0]), np.array([0, 0]))
        result = sim.run(trace, horizon_min=10.0)
        # t == horizon_min is inside the measurement window.
        assert result.num_requests == 2
        assert result.num_truncated == 0

    def test_arrivals_past_horizon_counted_as_truncated(self):
        cluster, videos, layout = tiny_setup()
        sim = VoDClusterSimulator(cluster, videos, layout)
        trace = RequestTrace(
            np.array([0.0, 5.0, 10.0, 10.5, 12.0]), np.zeros(5, dtype=int)
        )
        result = sim.run(trace, horizon_min=10.0)
        assert result.num_requests == 3
        assert result.num_truncated == 2
        # The trace's request count is recoverable from the result.
        assert result.num_requests + result.num_truncated == trace.num_requests

    def test_no_truncation_when_horizon_covers_trace(self):
        cluster, videos, layout = tiny_setup()
        sim = VoDClusterSimulator(cluster, videos, layout)
        trace = RequestTrace(np.array([0.0, 1.0]), np.array([0, 1]))
        result = sim.run(trace, horizon_min=10.0)
        assert result.num_truncated == 0


class TestInstrumentation:
    def test_event_and_time_accounting(self):
        cluster, videos, layout = tiny_setup(duration=2.0)
        sim = VoDClusterSimulator(cluster, videos, layout)
        trace = RequestTrace(np.array([0.0, 1.0, 3.0]), np.zeros(3, dtype=int))
        result = sim.run(trace, horizon_min=10.0)
        # 3 arrivals + 3 departures (all inside the horizon).
        assert result.num_events == 6
        assert result.wall_time_sec > 0.0

    def test_same_outcome_ignores_wall_time(self):
        cluster, videos, layout = tiny_setup()
        sim = VoDClusterSimulator(cluster, videos, layout)
        trace = RequestTrace(np.array([0.0, 1.0]), np.array([0, 1]))
        a = sim.run(trace, horizon_min=10.0)
        b = sim.run(trace, horizon_min=10.0)
        assert a.wall_time_sec != b.wall_time_sec or True  # may coincide
        assert a.same_outcome(b)

    def test_same_outcome_detects_differences(self):
        cluster, videos, layout = tiny_setup()
        sim = VoDClusterSimulator(cluster, videos, layout)
        a = sim.run(RequestTrace(np.array([0.0]), np.array([0])), horizon_min=10.0)
        b = sim.run(RequestTrace(np.array([0.0]), np.array([1])), horizon_min=10.0)
        assert not a.same_outcome(b)


class TestRequestSoA:
    DURATIONS = np.array([10.0, 20.0])

    def test_horizon_cut_keeps_boundary_arrivals(self):
        trace = RequestTrace(
            np.array([1.0, 2.0, 2.0, 3.0]), np.array([0, 1, 0, 1])
        )
        soa = RequestSoA.from_trace(trace, self.DURATIONS, 2.0)
        assert soa.num_requests == 4
        assert soa.num_simulated == 3  # arrivals exactly at the horizon run
        assert soa.num_truncated == 1
        assert soa.times_list == [1.0, 2.0, 2.0]
        assert soa.videos_list == [0, 1, 0]

    def test_holds_default_to_full_duration(self):
        trace = RequestTrace(np.array([0.0, 1.0]), np.array([0, 1]))
        soa = RequestSoA.from_trace(trace, self.DURATIONS, 10.0)
        assert soa.holds_list == [10.0, 20.0]

    def test_holds_clip_watch_time_to_duration(self):
        trace = RequestTrace(
            np.array([0.0, 1.0]),
            np.array([0, 1]),
            np.array([25.0, 5.0]),
        )
        soa = RequestSoA.from_trace(trace, self.DURATIONS, 10.0)
        assert soa.holds_list == [10.0, 5.0]

    def test_video_id_validation(self):
        from types import SimpleNamespace

        # RequestTrace rejects negative ids itself; a duck-typed trace
        # exercises the SoA layer's own defensive check.
        negative = SimpleNamespace(
            arrival_min=np.array([0.0]), videos=np.array([-1]), watch_min=None
        )
        with pytest.raises(ValueError, match="negative video id"):
            RequestSoA.from_trace(negative, self.DURATIONS, 10.0)
        outside = RequestTrace(np.array([0.0]), np.array([2]))
        with pytest.raises(ValueError, match="outside the collection"):
            RequestSoA.from_trace(outside, self.DURATIONS, 10.0)
