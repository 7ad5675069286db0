"""Second property-test batch: extension subsystems.

Hypothesis-driven invariants for batching, migration planning, placement
refinement and the Erlang recurrence.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ClusterSpec, VideoCollection
from repro.analysis.erlang import erlang_b
from repro.cluster_sim import (
    BatchingClusterSimulator,
    QueueingClusterSimulator,
    VoDClusterSimulator,
)
from repro.dynamic import plan_migration
from repro.model.layout import ReplicaLayout
from repro.placement import (
    placement_imbalance,
    refine_placement,
    round_robin_placement,
    smallest_load_first_placement,
)
from repro.replication import adams_replication
from repro.workload import RequestTrace


@st.composite
def small_instances(draw):
    """(popularity, n, replication, capacity) for placement-level tests."""
    m = draw(st.integers(3, 25))
    n = draw(st.integers(2, 6))
    raw = draw(
        st.lists(
            st.floats(1e-3, 1.0, allow_nan=False, allow_infinity=False),
            min_size=m,
            max_size=m,
        )
    )
    probs = np.asarray(raw)
    probs /= probs.sum()
    budget = draw(st.integers(m, n * m))
    replication = adams_replication(probs, n, budget)
    capacity = -(-replication.total_replicas // n)
    return probs, n, replication, capacity


@st.composite
def traces(draw, max_videos=6, horizon=60.0):
    """Small sorted request traces."""
    count = draw(st.integers(0, 40))
    times = sorted(
        draw(
            st.lists(
                st.floats(0.0, horizon, allow_nan=False),
                min_size=count,
                max_size=count,
            )
        )
    )
    videos = draw(
        st.lists(
            st.integers(0, max_videos - 1), min_size=count, max_size=count
        )
    )
    return RequestTrace(
        np.asarray(times), np.asarray(videos, dtype=np.int64)
    )


class TestRefinementProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_instances())
    def test_never_worse_and_feasible(self, instance):
        probs, n, replication, capacity = instance
        layout = round_robin_placement(replication, capacity)
        result = refine_placement(layout, probs, capacity)
        assert result.final_imbalance <= result.initial_imbalance + 1e-12
        np.testing.assert_array_equal(
            result.layout.replica_counts, layout.replica_counts
        )
        assert result.layout.server_replica_counts().max() <= capacity

    @settings(max_examples=40, deadline=None)
    @given(small_instances())
    def test_reported_imbalance_is_real(self, instance):
        probs, n, replication, capacity = instance
        layout = smallest_load_first_placement(replication, capacity)
        result = refine_placement(layout, probs, capacity)
        assert placement_imbalance(result.layout, probs) == pytest.approx(
            result.final_imbalance, abs=1e-12
        )


class TestMigrationProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_instances(), st.integers(0, 2**31 - 1))
    def test_target_counts_always_realized(self, instance, seed):
        probs, n, replication, capacity = instance
        layout = smallest_load_first_placement(replication, capacity)
        # A random permutation of the popularity as the new regime.
        rng = np.random.default_rng(seed)
        new_probs = probs[rng.permutation(probs.size)]
        target = adams_replication(new_probs, n, replication.total_replicas)
        plan = plan_migration(layout, target, capacity)
        np.testing.assert_array_equal(
            plan.new_layout.replica_counts, target.replica_counts
        )
        assert plan.new_layout.server_replica_counts().max() <= capacity

    @settings(max_examples=40, deadline=None)
    @given(small_instances())
    def test_noop_for_identical_target(self, instance):
        probs, n, replication, capacity = instance
        layout = smallest_load_first_placement(replication, capacity)
        plan = plan_migration(layout, replication, capacity)
        assert plan.is_noop


class TestBatchingProperties:
    @settings(max_examples=30, deadline=None)
    @given(traces(), st.floats(0.0, 10.0, allow_nan=False))
    def test_conservation_and_factor(self, trace, window):
        cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=20.0)
        videos = VideoCollection.homogeneous(6, duration_min=15.0)
        layout = ReplicaLayout.from_assignment(
            [[i % 2] for i in range(6)], 2
        )
        sim = BatchingClusterSimulator(
            cluster, videos, layout, window_min=window
        )
        result = sim.run(trace, horizon_min=90.0)
        assert (
            result.viewers_served + result.base.num_rejected
            == result.base.num_requests
        )
        if result.streams_started:
            assert result.batching_factor >= 1.0
        assert result.mean_wait_min <= window + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(traces())
    def test_wider_window_never_more_streams(self, trace):
        cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=40.0)
        videos = VideoCollection.homogeneous(6, duration_min=15.0)
        layout = ReplicaLayout.from_assignment(
            [[i % 2] for i in range(6)], 2
        )

        def streams(window):
            sim = BatchingClusterSimulator(
                cluster, videos, layout, window_min=window
            )
            return sim.run(trace, horizon_min=90.0).streams_started

        assert streams(5.0) <= streams(0.5)

    @settings(max_examples=40, deadline=None)
    @given(traces(), st.integers(8, 24))
    def test_window_zero_is_unicast(self, trace, bandwidth):
        """Without same-instant repeats of a video, window 0 is unicast."""
        pairs = sorted(set(zip(trace.arrival_min.tolist(), trace.videos.tolist())))
        unique = RequestTrace(
            np.array([t for t, _ in pairs], dtype=float),
            np.array([v for _, v in pairs], dtype=np.int64),
        )
        cluster = ClusterSpec.homogeneous(
            2, storage_gb=100.0, bandwidth_mbps=float(bandwidth)
        )
        videos = VideoCollection.homogeneous(6, duration_min=15.0)
        layout = ReplicaLayout.from_assignment(
            [[0], [1], [0, 1], [0], [1], [0, 1]], 2
        )
        batched = BatchingClusterSimulator(
            cluster, videos, layout, window_min=0.0
        ).run(unique, horizon_min=90.0)
        unicast = VoDClusterSimulator(cluster, videos, layout).run(
            unique, horizon_min=90.0
        )
        base = batched.base
        assert base.num_rejected == unicast.num_rejected
        np.testing.assert_array_equal(
            base.per_video_requests, unicast.per_video_requests
        )
        np.testing.assert_array_equal(
            base.per_video_rejected, unicast.per_video_rejected
        )
        np.testing.assert_array_equal(
            base.server_time_avg_load_mbps, unicast.server_time_avg_load_mbps
        )
        np.testing.assert_array_equal(
            base.server_peak_load_mbps, unicast.server_peak_load_mbps
        )
        np.testing.assert_array_equal(base.server_served, unicast.server_served)
        assert batched.streams_started == unicast.num_requests - unicast.num_rejected


class TestQueueingProperties:
    @settings(max_examples=30, deadline=None)
    @given(traces(), st.floats(0.0, 10.0, allow_nan=False))
    def test_conservation_and_wait_bound(self, trace, patience):
        cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=20.0)
        videos = VideoCollection.homogeneous(6, duration_min=15.0)
        layout = ReplicaLayout.from_assignment(
            [[i % 2] for i in range(6)], 2
        )
        sim = QueueingClusterSimulator(
            cluster, videos, layout, patience_min=patience
        )
        result = sim.run(trace, horizon_min=90.0)
        assert (
            result.base.num_served + result.num_defected
            == result.base.num_requests
        )
        assert result.max_wait_min <= patience + 1e-9
        assert result.num_queued_served <= result.num_queued


class TestErlangProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.0, 500.0, allow_nan=False),
        st.integers(0, 400),
    )
    def test_is_probability(self, load, servers):
        value = erlang_b(load, servers)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.1, 100.0, allow_nan=False), st.integers(1, 100))
    def test_recurrence_identity(self, load, servers):
        """B(a, c) = a B(a, c-1) / (c + a B(a, c-1)) — checked directly."""
        prev = erlang_b(load, servers - 1)
        expected = load * prev / (servers + load * prev)
        assert erlang_b(load, servers) == pytest.approx(expected, rel=1e-12)
