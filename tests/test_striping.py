"""Tests for the wide-striping cluster model (replication's contrast)."""

import numpy as np
import pytest

from repro import ClusterSpec, ServerSpec, VideoCollection, ZipfPopularity
from repro.cluster_sim import (
    FailureEvent,
    FailureSchedule,
    StripedClusterSimulator,
    VoDClusterSimulator,
)
from repro.placement import smallest_load_first_placement
from repro.replication import zipf_interval_replication
from repro.workload import RequestTrace, WorkloadGenerator


def make_striped(overhead=0.0, bandwidth=40.0, num_videos=4):
    cluster = ClusterSpec.homogeneous(4, storage_gb=100.0, bandwidth_mbps=bandwidth)
    videos = VideoCollection.homogeneous(num_videos, bit_rate_mbps=4.0, duration_min=60.0)
    return StripedClusterSimulator(cluster, videos, overhead_per_server=overhead)


class TestCapacityModel:
    def test_zero_overhead_is_pooled_link(self):
        sim = make_striped(overhead=0.0)
        assert sim.effective_capacity_mbps == pytest.approx(160.0)
        assert sim.effective_stream_capacity(4.0) == 40

    def test_overhead_shrinks_capacity(self):
        sim = make_striped(overhead=0.02)
        # inflation = 1 + 0.02 * 3 = 1.06
        assert sim.effective_capacity_mbps == pytest.approx(160.0 / 1.06)

    def test_storage_pool_checked(self):
        cluster = ClusterSpec.homogeneous(2, storage_gb=1.0, bandwidth_mbps=100.0)
        videos = VideoCollection.homogeneous(10)  # 27 GB total
        with pytest.raises(ValueError, match="shared pool"):
            StripedClusterSimulator(cluster, videos)

    def test_heterogeneous_rejected(self):
        cluster = ClusterSpec(
            [ServerSpec(10.0, 100.0), ServerSpec(20.0, 200.0)]
        )
        with pytest.raises(ValueError, match="homogeneous"):
            StripedClusterSimulator(cluster, VideoCollection.homogeneous(1))


class TestAdmission:
    def test_pooled_admission(self):
        sim = make_striped(overhead=0.0)
        # 40 concurrent streams fit; the 41st overlapping one does not.
        trace = RequestTrace(
            np.linspace(0.0, 1.0, 41), np.zeros(41, dtype=int)
        )
        result = sim.run(trace, horizon_min=30.0)
        assert result.num_rejected == 1

    def test_departures_free_capacity(self):
        sim = make_striped(overhead=0.0)
        trace = RequestTrace(
            np.concatenate([np.linspace(0.0, 1.0, 40), [61.0]]),
            np.zeros(41, dtype=int),
        )
        result = sim.run(trace, horizon_min=90.0)
        assert result.num_rejected == 0

    def test_loads_perfectly_balanced(self):
        sim = make_striped(overhead=0.0)
        trace = RequestTrace(np.array([0.0, 1.0, 2.0]), np.zeros(3, dtype=int))
        result = sim.run(trace, horizon_min=60.0)
        loads = result.server_time_avg_load_mbps
        assert np.ptp(loads) == 0.0
        assert result.load_imbalance() == 0.0

    def test_watch_times_respected(self):
        sim = make_striped(overhead=0.0)
        trace = RequestTrace(
            np.linspace(0.0, 1.0, 41),
            np.zeros(41, dtype=int),
            np.full(41, 0.5),
        )
        # All 41 requests arrive within 1 minute but sessions last 0.5 min,
        # so early ones have departed: only the overlapping excess rejects.
        result = sim.run(trace, horizon_min=30.0)
        assert result.num_rejected == 0


class TestFailures:
    def test_single_failure_kills_everything(self):
        sim = make_striped(overhead=0.0)
        trace = RequestTrace(np.array([0.0, 1.0, 2.0, 10.0]), np.zeros(4, dtype=int))
        result = sim.run(
            trace,
            horizon_min=30.0,
            failures=FailureSchedule.single(5.0, 0),
        )
        assert result.streams_dropped == 3     # everything active at t=5
        assert result.num_rejected == 1        # t=10 arrival: member down

    def test_recovery_restores_service(self):
        sim = make_striped(overhead=0.0)
        trace = RequestTrace(np.array([0.0, 10.0]), np.zeros(2, dtype=int))
        result = sim.run(
            trace,
            horizon_min=30.0,
            failures=FailureSchedule([FailureEvent(5.0, 0, down_min=2.0)]),
        )
        assert result.num_rejected == 0


def outage_trace():
    return RequestTrace(
        np.array([0.0, 1.0, 2.0, 6.0, 12.0, 22.0, 25.0, 32.0, 35.0]),
        np.array([0, 1, 2, 3, 0, 1, 2, 3, 0]),
    )


class TestMemberOutages:
    """Member outages on the pooled cluster, pinned to the original loop."""

    def test_overlapping_outages_merge(self):
        # [5, 20) on member 0 overlaps [10, 30) on member 1: one outage
        # from 5 to 30 for the whole striped cluster.
        result = make_striped().run(
            outage_trace(),
            horizon_min=40.0,
            failures=FailureSchedule(
                [FailureEvent(5.0, 0, 15.0), FailureEvent(10.0, 1, 20.0)]
            ),
        )
        assert result.streams_dropped == 3
        assert result.num_failures == result.num_recoveries == 2
        assert result.server_downtime_min.tolist() == [25.0] * 4
        assert result.num_rejected == 4
        assert result.per_video_rejected.tolist() == [1, 1, 1, 1]
        assert result.server_served.tolist() == [2, 1, 1, 1]
        assert result.server_time_avg_load_mbps.tolist() == [0.625] * 4

    def test_touching_outages_stay_separate(self):
        # [5, 10) then [10, 20): the repair at 10 is processed before the
        # second crash at 10, so the arrival at 12 still finds it down.
        result = make_striped().run(
            outage_trace(),
            horizon_min=40.0,
            failures=FailureSchedule(
                [FailureEvent(5.0, 0, 5.0), FailureEvent(10.0, 1, 10.0)]
            ),
        )
        assert result.streams_dropped == 3
        assert result.num_failures == result.num_recoveries == 2
        assert result.server_downtime_min.tolist() == [15.0] * 4
        assert result.num_rejected == 2
        assert result.per_video_rejected.tolist() == [1, 0, 0, 1]
        assert result.server_served.tolist() == [2, 2, 2, 1]
        assert result.server_time_avg_load_mbps.tolist() == [1.45] * 4

    def test_mean_time_to_recovery_over_member_repairs(self):
        # Member repairs of 15 and 20 minutes inside the horizon; the
        # repair of the outage at 30 lands past it and does not count.
        result = make_striped().run(
            outage_trace(),
            horizon_min=40.0,
            failures=FailureSchedule(
                [
                    FailureEvent(5.0, 0, 15.0),
                    FailureEvent(10.0, 1, 20.0),
                    FailureEvent(30.0, 2, 30.0),
                ]
            ),
        )
        assert result.num_failures == 3
        assert result.num_recoveries == 2
        assert result.mean_time_to_recovery_min == pytest.approx(17.5)

    def test_arrivals_past_horizon_are_counted(self):
        trace = outage_trace()
        result = make_striped().run(trace, horizon_min=20.0)
        assert result.num_truncated == 4
        assert result.num_requests + result.num_truncated == trace.num_requests
        assert result.num_events > 0
        assert result.wall_time_sec > 0.0


class TestArchitectureComparison:
    """The Sec. 1 argument, measured."""

    def setup_systems(self, overhead):
        pop = ZipfPopularity(50, 0.75)
        cluster = ClusterSpec.homogeneous(4, storage_gb=81.0, bandwidth_mbps=900.0)
        videos = VideoCollection.homogeneous(50)
        replication = zipf_interval_replication(pop.probabilities, 4, 120)
        layout = smallest_load_first_placement(replication, 30)
        replicated = VoDClusterSimulator(cluster, videos, layout)
        striped = StripedClusterSimulator(
            cluster, videos, overhead_per_server=overhead
        )
        return pop, replicated, striped

    def run_both(self, rate, overhead):
        pop, replicated, striped = self.setup_systems(overhead)
        generator = WorkloadGenerator.poisson_zipf(pop, rate)
        rej_r, rej_s = [], []
        for trace in generator.generate_runs(90.0, 5, 13):
            rej_r.append(replicated.run(trace, horizon_min=90.0).rejection_rate)
            rej_s.append(striped.run(trace, horizon_min=90.0).rejection_rate)
        return float(np.mean(rej_r)), float(np.mean(rej_s))

    def test_ideal_striping_at_least_as_good(self):
        # Zero overhead: a perfectly pooled link statistically dominates
        # any partitioned system at the same total bandwidth.
        rej_repl, rej_stripe = self.run_both(rate=20.0, overhead=0.0)
        assert rej_stripe <= rej_repl + 1e-9

    def test_overhead_flips_the_comparison(self):
        # With a realistic coordination cost, replication wins at load.
        rej_repl, rej_stripe = self.run_both(rate=20.0, overhead=0.05)
        assert rej_stripe > rej_repl

    def test_failure_blast_radius(self):
        pop, replicated, striped = self.setup_systems(overhead=0.0)
        generator = WorkloadGenerator.poisson_zipf(pop, 10.0)
        trace = next(iter(generator.generate_runs(90.0, 1, 17)))
        failures = FailureSchedule.single(45.0, 0)
        res_r = replicated.run(trace, horizon_min=90.0, failures=failures)
        res_s = striped.run(trace, horizon_min=90.0, failures=failures)
        # Striping drops every active stream; replication only one server's.
        assert res_s.streams_dropped > res_r.streams_dropped
