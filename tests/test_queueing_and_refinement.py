"""Tests for the wait-queue admission policy and placement refinement."""

import numpy as np
import pytest

from repro import ClusterSpec, VideoCollection, ZipfPopularity
from repro.cluster_sim import (
    QueueingClusterSimulator,
    VoDClusterSimulator,
    make_dispatcher_factory,
)
from repro.model.layout import ReplicaLayout
from repro.placement import (
    placement_imbalance,
    refine_placement,
    round_robin_placement,
    smallest_load_first_placement,
)
from repro.popularity import zipf_probabilities
from repro.replication import adams_replication, zipf_interval_replication
from repro.workload import RequestTrace, WorkloadGenerator


# ----------------------------------------------------------------------
# Wait-queue admission
# ----------------------------------------------------------------------
def tiny_queue_sim(patience, slots=1, duration=10.0):
    cluster = ClusterSpec.homogeneous(
        1, storage_gb=100.0, bandwidth_mbps=slots * 4.0
    )
    videos = VideoCollection.homogeneous(1, duration_min=duration)
    layout = ReplicaLayout.from_assignment([[0]], 1)
    return QueueingClusterSimulator(cluster, videos, layout, patience_min=patience)


class TestQueueingSimulator:
    def test_wait_saves_request(self):
        # Slot busy until t=10; arrival at t=9 waits 1 min < patience 2.
        sim = tiny_queue_sim(patience=2.0)
        trace = RequestTrace(np.array([0.0, 9.0]), np.zeros(2, dtype=int))
        result = sim.run(trace, horizon_min=30.0)
        assert result.num_defected == 0
        assert result.num_queued == 1
        assert result.num_queued_served == 1
        assert result.mean_wait_min == pytest.approx(1.0)

    def test_patience_expiry_defects(self):
        # Slot busy until t=10; arrival at t=1 defects at t=3.
        sim = tiny_queue_sim(patience=2.0)
        trace = RequestTrace(np.array([0.0, 1.0]), np.zeros(2, dtype=int))
        result = sim.run(trace, horizon_min=30.0)
        assert result.num_defected == 1
        assert result.num_queued_served == 0

    def test_departure_exactly_at_deadline_saves(self):
        # Stream ends at t=10; waiting request's patience also ends at 10:
        # DEPARTURE orders before DEFECTION, so it is served.
        sim = tiny_queue_sim(patience=5.0, duration=10.0)
        trace = RequestTrace(np.array([0.0, 5.0]), np.zeros(2, dtype=int))
        result = sim.run(trace, horizon_min=30.0)
        assert result.num_defected == 0
        assert result.mean_wait_min == pytest.approx(5.0)

    def test_fifo_order(self):
        # Two waiters, one slot frees: the older one is served.
        sim = tiny_queue_sim(patience=20.0, duration=10.0)
        trace = RequestTrace(np.array([0.0, 1.0, 2.0]), np.zeros(3, dtype=int))
        result = sim.run(trace, horizon_min=11.0)
        # At t=10 the first stream ends; the t=1 waiter starts (wait 9).
        assert result.num_queued_served == 1
        assert result.mean_wait_min == pytest.approx(9.0)

    def test_zero_patience_matches_plain_simulator(self, rng):
        pop = ZipfPopularity(20, 0.75)
        cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=100.0)
        videos = VideoCollection.homogeneous(20, duration_min=30.0)
        replication = zipf_interval_replication(pop.probabilities, 2, 30)
        layout = smallest_load_first_placement(replication, 20)
        trace = WorkloadGenerator.poisson_zipf(pop, 4.0).generate(60.0, rng)
        plain = VoDClusterSimulator(cluster, videos, layout).run(
            trace, horizon_min=60.0
        )
        queued = QueueingClusterSimulator(
            cluster, videos, layout, patience_min=0.0
        ).run(trace, horizon_min=60.0)
        base = queued.base
        assert base.num_rejected == plain.num_rejected
        np.testing.assert_array_equal(
            base.per_video_requests, plain.per_video_requests
        )
        np.testing.assert_array_equal(
            base.per_video_rejected, plain.per_video_rejected
        )
        np.testing.assert_array_equal(
            base.server_time_avg_load_mbps, plain.server_time_avg_load_mbps
        )
        np.testing.assert_array_equal(
            base.server_peak_load_mbps, plain.server_peak_load_mbps
        )
        np.testing.assert_array_equal(base.server_served, plain.server_served)

    def test_patience_reduces_rejection(self, rng):
        pop = ZipfPopularity(20, 0.75)
        cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=80.0)
        videos = VideoCollection.homogeneous(20, duration_min=30.0)
        replication = zipf_interval_replication(pop.probabilities, 2, 30)
        layout = smallest_load_first_placement(replication, 20)
        trace = WorkloadGenerator.poisson_zipf(pop, 2.0).generate(90.0, rng)

        def rejection(patience):
            sim = QueueingClusterSimulator(
                cluster, videos, layout, patience_min=patience
            )
            return sim.run(trace, horizon_min=90.0).rejection_rate

        assert rejection(5.0) <= rejection(0.0)

    def test_waiting_at_horizon_counted_rejected(self):
        sim = tiny_queue_sim(patience=50.0, duration=60.0)
        trace = RequestTrace(np.array([0.0, 1.0]), np.zeros(2, dtype=int))
        result = sim.run(trace, horizon_min=10.0)
        assert result.num_defected == 1  # still waiting at the horizon

    def test_watch_traces_rejected(self):
        sim = tiny_queue_sim(patience=1.0)
        trace = RequestTrace(
            np.array([0.0]), np.zeros(1, dtype=int), np.array([1.0])
        )
        with pytest.raises(ValueError, match="watch times"):
            sim.run(trace, horizon_min=10.0)

    def test_conservation(self, rng):
        sim = tiny_queue_sim(patience=3.0, slots=2, duration=15.0)
        times = np.sort(rng.uniform(0, 60, 40))
        trace = RequestTrace(times, np.zeros(40, dtype=int))
        result = sim.run(trace, horizon_min=90.0)
        served = result.base.num_served
        assert served + result.num_defected == result.base.num_requests


PIN_HORIZON = 30.0


def pinned_trace():
    """Seeded 0.5-min-grid trace over videos 0-3 plus hand-placed video 4.

    Video 4 lives only on server 2 at 4 Mb/s: three requests at 0.0 fill
    that server until 10.0, where its three streams end at the same
    instant, and two requests at 9.0 and 9.5 wait for them.  Six seeded
    arrivals fall past the horizon.
    """
    rng = np.random.default_rng(20026)
    times = rng.integers(0, 70, 70) * 0.5
    videos = rng.integers(0, 4, 70)
    times = np.concatenate([[0.0, 0.0, 0.0, 9.0, 9.5], times])
    videos = np.concatenate([[4, 4, 4, 4, 4], videos])
    order = np.argsort(times, kind="stable")
    return RequestTrace(times[order], videos[order])


def pinned_simulator(patience, dispatcher):
    """Three 12 Mb/s servers holding replicas at mixed 1.5/3/4 Mb/s rates."""
    cluster = ClusterSpec.homogeneous(3, storage_gb=100.0, bandwidth_mbps=12.0)
    videos = VideoCollection.homogeneous(5, duration_min=10.0)
    layout = ReplicaLayout(
        rate_matrix=np.array(
            [
                [3.0, 4.0, 0.0],
                [0.0, 1.5, 0.0],
                [4.0, 0.0, 1.5],
                [1.5, 3.0, 0.0],
                [0.0, 0.0, 4.0],
            ]
        )
    )
    return QueueingClusterSimulator(
        cluster,
        videos,
        layout,
        patience_min=patience,
        dispatcher_factory=make_dispatcher_factory(dispatcher),
    )


#: (dispatcher, patience) -> (num_requests, num_rejected,
#: per_video_rejected, num_queued, num_queued_served, mean_wait_min,
#: max_wait_min, time-avg loads, peak loads, served), computed by the
#: wait-queue simulator's original dedicated event loop; the kernel-based
#: run must reproduce them exactly.
QUEUEING_PINS = {
    ("static_rr", 0.0): (
        69, 33, [6, 6, 6, 13, 2], 0, 0, 0.0, 0.0,
        [8.516666666666667, 9.808333333333334, 6.35],
        [11.5, 12.0, 12.0], [11, 16, 9],
    ),
    ("static_rr", 1.0): (
        69, 29, [7, 8, 5, 9, 0], 40, 11, 0.7727272727272727, 1.0,
        [9.358333333333333, 10.116666666666667, 9.216666666666667],
        [11.5, 11.5, 12.0], [13, 15, 12],
    ),
    ("static_rr", 2.0): (
        69, 24, [4, 8, 2, 10, 0], 48, 24, 1.2708333333333333, 2.0,
        [10.341666666666667, 10.666666666666666, 10.766666666666667],
        [12.0, 11.5, 12.0], [14, 15, 16],
    ),
    ("static_rr", 5.0): (
        69, 19, [4, 6, 1, 8, 0], 48, 29, 2.3620689655172415, 5.0,
        [10.708333333333334, 10.466666666666667, 11.066666666666666],
        [12.0, 11.5, 12.0], [16, 16, 18],
    ),
    ("least_loaded", 0.0): (
        69, 23, [5, 6, 2, 8, 2], 0, 0, 0.0, 0.0,
        [8.583333333333334, 10.041666666666666, 8.475],
        [12.0, 12.0, 12.0], [15, 16, 15],
    ),
    ("least_loaded", 1.0): (
        69, 25, [5, 7, 4, 9, 0], 36, 11, 0.7727272727272727, 1.0,
        [10.008333333333333, 10.175, 9.841666666666667],
        [12.0, 11.5, 12.0], [15, 15, 14],
    ),
    ("least_loaded", 2.0): (
        69, 23, [3, 7, 3, 10, 0], 42, 19, 1.236842105263158, 2.0,
        [10.708333333333334, 10.766666666666667, 10.916666666666666],
        [12.0, 12.0, 12.0], [14, 16, 16],
    ),
    ("least_loaded", 5.0): (
        69, 19, [3, 7, 2, 7, 0], 44, 25, 2.32, 5.0,
        [10.875, 10.725, 11.191666666666666],
        [12.0, 12.0, 12.0], [16, 16, 18],
    ),
}


class TestPinnedParity:
    @pytest.mark.parametrize("dispatcher,patience", sorted(QUEUEING_PINS))
    def test_fields_match_pins(self, dispatcher, patience):
        result = pinned_simulator(patience, dispatcher).run(
            pinned_trace(), horizon_min=PIN_HORIZON
        )
        base = result.base
        (requests, rejected, per_video, queued, queued_served, mean_wait,
         max_wait, loads, peaks, served) = QUEUEING_PINS[dispatcher, patience]
        assert base.num_requests == requests
        assert base.num_rejected == rejected
        assert base.per_video_rejected.tolist() == per_video
        assert result.num_queued == queued
        assert result.num_queued_served == queued_served
        assert result.mean_wait_min == mean_wait
        assert result.max_wait_min == max_wait
        assert base.server_time_avg_load_mbps.tolist() == loads
        assert base.server_peak_load_mbps.tolist() == peaks
        assert base.server_served.tolist() == served

    @pytest.mark.parametrize("patience", [0.0, 2.0])
    def test_arrivals_past_horizon_are_counted(self, patience):
        trace = pinned_trace()
        result = pinned_simulator(patience, "static_rr").run(
            trace, horizon_min=PIN_HORIZON
        )
        base = result.base
        assert base.num_truncated == 6
        assert base.num_requests + base.num_truncated == trace.num_requests
        assert base.num_events > 0
        assert base.wall_time_sec > 0.0
        assert base.engine_path == "optimized"


# ----------------------------------------------------------------------
# Placement refinement (DASD-dancing-style)
# ----------------------------------------------------------------------
class TestRefinePlacement:
    def setup_instance(self, m=100, n=8, budget=160, theta=0.75):
        probs = zipf_probabilities(m, theta)
        replication = adams_replication(probs, n, budget)
        capacity = -(-replication.total_replicas // n)
        return probs, replication, capacity

    def test_never_worse(self):
        probs, replication, capacity = self.setup_instance()
        layout = smallest_load_first_placement(replication, capacity)
        result = refine_placement(layout, probs, capacity)
        assert result.final_imbalance <= result.initial_imbalance + 1e-15
        assert placement_imbalance(result.layout, probs) == pytest.approx(
            result.final_imbalance
        )

    def test_improves_round_robin_dramatically(self):
        probs, replication, capacity = self.setup_instance()
        layout = round_robin_placement(replication, capacity)
        result = refine_placement(layout, probs, capacity)
        assert result.final_imbalance < 0.25 * result.initial_imbalance

    def test_counts_preserved(self):
        probs, replication, capacity = self.setup_instance()
        layout = round_robin_placement(replication, capacity)
        result = refine_placement(layout, probs, capacity)
        np.testing.assert_array_equal(
            result.layout.replica_counts, layout.replica_counts
        )

    def test_storage_respected(self):
        probs, replication, capacity = self.setup_instance()
        layout = round_robin_placement(replication, capacity)
        result = refine_placement(layout, probs, capacity)
        assert result.layout.server_replica_counts().max() <= capacity

    def test_swaps_used_when_storage_tight(self):
        # Exactly full servers leave no room for moves: only swaps help.
        probs = zipf_probabilities(200, 0.75)
        replication = zipf_interval_replication(probs, 8, 240)
        layout = round_robin_placement(replication, 30)
        result = refine_placement(layout, probs, 30)
        assert result.moves == 0
        assert result.swaps > 0
        assert result.improvement > 0

    def test_already_optimal_is_stable(self):
        # Uniform weights placed evenly: nothing to improve.
        probs = np.full(8, 0.125)
        replication = adams_replication(probs, 4, 8)
        layout = round_robin_placement(replication, 2)
        result = refine_placement(layout, probs, 2)
        assert result.moves == 0 and result.swaps == 0
        assert result.final_imbalance == result.initial_imbalance

    def test_validation(self):
        probs, replication, capacity = self.setup_instance()
        layout = round_robin_placement(replication, capacity)
        with pytest.raises(ValueError, match="exceeds"):
            refine_placement(layout, probs, capacity - 10)
        with pytest.raises(ValueError, match="entry per video"):
            refine_placement(layout, np.array([0.5, 0.5]), capacity)

    def test_rejection_benefit_end_to_end(self, rng):
        """Refined placement should not reject more than unrefined."""
        probs = zipf_probabilities(50, 1.0)
        from repro.popularity import PopularityModel

        pop = PopularityModel.from_probabilities(probs)
        replication = zipf_interval_replication(probs, 4, 60)
        capacity = 15
        cluster = ClusterSpec.homogeneous(4, storage_gb=40.5, bandwidth_mbps=900.0)
        videos = VideoCollection.homogeneous(50)
        rr = round_robin_placement(replication, capacity)
        refined = refine_placement(rr, probs, capacity).layout
        trace = WorkloadGenerator.poisson_zipf(pop, 10.0).generate(90.0, rng)
        rej_rr = VoDClusterSimulator(cluster, videos, rr).run(
            trace, horizon_min=90.0
        ).rejection_rate
        rej_ref = VoDClusterSimulator(cluster, videos, refined).run(
            trace, horizon_min=90.0
        ).rejection_rate
        assert rej_ref <= rej_rr + 0.02


class TestRefineEmptyLayout:
    def test_empty_layout_rejected_explicitly(self):
        """No silent fallback bit rate: an all-zero layout is an error."""
        layout = ReplicaLayout(rate_matrix=np.zeros((4, 3)))
        probs = zipf_probabilities(4, 0.75)
        with pytest.raises(ValueError, match="empty layout"):
            refine_placement(layout, probs, 2)

    def test_rate_carried_from_layout(self):
        """The refined layout keeps the input layout's bit rate."""
        probs = zipf_probabilities(20, 0.75)
        replication = zipf_interval_replication(probs, 4, 30)
        layout = round_robin_placement(replication, 10, bit_rate_mbps=2.5)
        refined = refine_placement(layout, probs, 10).layout
        assert float(refined.rate_matrix.max()) == 2.5
