"""Tests for the server-failure (availability) extension."""

import numpy as np
import pytest

from repro import ClusterSpec, VideoCollection, ZipfPopularity
from repro.cluster_sim import (
    FailureEvent,
    FailureSchedule,
    FailureSpec,
    VoDClusterSimulator,
)
from repro.cluster_sim.server import StreamingServer
from repro.model.layout import ReplicaLayout
from repro.placement import smallest_load_first_placement
from repro.replication import no_replication, zipf_interval_replication
from repro.workload import RequestTrace, WorkloadGenerator


class TestFailureSchedule:
    def test_single(self):
        schedule = FailureSchedule.single(30.0, 2)
        events = list(schedule)
        assert len(events) == 1
        assert events[0].recovery_min == float("inf")

    def test_overlapping_same_server_rejected(self):
        with pytest.raises(ValueError, match="still down"):
            FailureSchedule(
                [FailureEvent(10.0, 0, 20.0), FailureEvent(15.0, 0, 5.0)]
            )

    def test_sequential_same_server_allowed(self):
        schedule = FailureSchedule(
            [FailureEvent(10.0, 0, 5.0), FailureEvent(20.0, 0, 5.0)]
        )
        assert len(schedule) == 2

    def test_failure_at_exact_recovery_instant_allowed(self):
        # At equal timestamps the simulator processes RECOVERY before
        # FAILURE (EventKind.RECOVERY < EventKind.FAILURE), so a crash at
        # the exact repair instant is a legal back-to-back outage.
        schedule = FailureSchedule(
            [FailureEvent(10.0, 0, 5.0), FailureEvent(15.0, 0, 5.0)]
        )
        assert len(schedule) == 2

    def test_crash_at_repair_instant_simulates_cleanly(self):
        # The back-to-back outage above must run: the server is effectively
        # down over [10, 20) and a t=25 arrival finds it back up.
        cluster = ClusterSpec.homogeneous(
            2, storage_gb=100.0, bandwidth_mbps=40.0
        )
        videos = VideoCollection.homogeneous(
            1, bit_rate_mbps=4.0, duration_min=60.0
        )
        layout = ReplicaLayout.from_assignment([[0]], 2)
        sim = VoDClusterSimulator(cluster, videos, layout)
        trace = RequestTrace(
            np.array([0.0, 12.0, 25.0]), np.zeros(3, dtype=int)
        )
        result = sim.run(
            trace,
            horizon_min=30.0,
            failures=FailureSchedule(
                [FailureEvent(10.0, 0, 5.0), FailureEvent(15.0, 0, 5.0)]
            ),
        )
        assert result.num_failures == 2
        assert result.num_recoveries == 2
        assert result.streams_dropped == 1   # the t=0 stream dies at t=10
        assert result.num_rejected == 1      # t=12 arrival finds it down
        assert result.server_downtime_min[0] == pytest.approx(10.0)

    def test_failure_at_time_zero_allowed(self):
        schedule = FailureSchedule.single(0.0, 0, down_min=5.0)
        assert next(iter(schedule)).time_min == 0.0

    def test_random_leaves_strict_gap_after_recovery(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            schedule = FailureSchedule.random(
                3, 300.0, rng, mtbf_min=20.0, mttr_min=15.0
            )
            last_recovery: dict[int, float] = {}
            for event in schedule:
                assert event.time_min > last_recovery.get(event.server, -1.0)
                last_recovery[event.server] = event.recovery_min

    def test_random_generation(self, rng):
        schedule = FailureSchedule.random(
            8, 90.0, rng, mtbf_min=60.0, mttr_min=10.0
        )
        for event in schedule:
            assert 0 <= event.time_min < 90.0
            assert 0 <= event.server < 8

    def test_validate_servers(self):
        schedule = FailureSchedule.single(10.0, 5)
        with pytest.raises(ValueError, match="cluster"):
            schedule.validate_servers(4)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FailureEvent(-1.0, 0)
        with pytest.raises(ValueError):
            FailureEvent(1.0, 0, down_min=0.0)

    def test_none(self):
        assert len(FailureSchedule.none()) == 0


class TestFailureSpecChaosKey:
    """``FailureSpec.build`` draws run ``r`` from spawn key ``(0xFA11, r)``."""

    @pytest.mark.parametrize("seed", [0, 7, 20020818])
    @pytest.mark.parametrize("run_index", [0, 1, 5])
    def test_random_draws_from_the_chaos_key(self, seed, run_index):
        built = FailureSpec.parse("random:mtbf=40,mttr=10").build(
            6, 120.0, seed=seed, run_index=run_index
        )
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(0xFA11, run_index))
        )
        direct = FailureSchedule.random(
            6, 120.0, rng, mtbf_min=40.0, mttr_min=10.0
        )
        assert len(built) > 0
        assert list(built) == list(direct)

    @pytest.mark.parametrize("run_index", [0, 3])
    def test_mtbf_draws_from_the_chaos_prefix(self, run_index):
        built = FailureSpec.parse("mtbf:mtbf=60,mttr=10").build(
            4, 240.0, seed=11, run_index=run_index
        )
        direct = FailureSchedule.mtbf_process(
            4,
            240.0,
            mtbf_min=60.0,
            mttr_min=10.0,
            entropy=11,
            spawn_prefix=(0xFA11, run_index),
        )
        assert len(built) > 0
        assert list(built) == list(direct)


class TestServerFailure:
    def test_fail_drops_streams(self):
        server = StreamingServer(0, 100.0)
        server.admit(0.0, 40.0)
        server.admit(1.0, 40.0)
        dropped = server.fail(5.0)
        assert dropped == 2
        assert server.used_mbps == 0.0
        assert not server.is_up
        assert server.epoch == 1

    def test_down_server_rejects(self):
        server = StreamingServer(0, 100.0)
        server.fail(0.0)
        assert not server.can_admit(1.0)
        with pytest.raises(RuntimeError, match="down"):
            server.admit(1.0, 1.0)

    def test_recover(self):
        server = StreamingServer(0, 100.0)
        server.fail(0.0)
        server.recover(10.0)
        assert server.is_up
        server.admit(11.0, 4.0)
        assert server.active_streams == 1

    def test_double_fail_rejected(self):
        server = StreamingServer(0, 100.0)
        server.fail(0.0)
        with pytest.raises(RuntimeError, match="already down"):
            server.fail(1.0)

    def test_double_recover_rejected(self):
        server = StreamingServer(0, 100.0)
        with pytest.raises(RuntimeError, match="already up"):
            server.recover(1.0)

    def test_load_integral_excludes_downtime(self):
        server = StreamingServer(0, 100.0)
        server.admit(0.0, 50.0)   # 50 Mb/s over [0, 10)
        server.fail(10.0)         # idle over [10, 20)
        server.advance(20.0)
        assert server.time_avg_load_mbps(20.0) == pytest.approx(25.0)


class TestSimulatorFailures:
    def two_server_setup(self, replicas):
        cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=40.0)
        videos = VideoCollection.homogeneous(1, bit_rate_mbps=4.0, duration_min=60.0)
        layout = ReplicaLayout.from_assignment([replicas], 2)
        return VoDClusterSimulator(cluster, videos, layout)

    def test_crash_drops_active_streams(self):
        sim = self.two_server_setup([0])
        trace = RequestTrace(np.array([0.0, 1.0, 2.0]), np.zeros(3, dtype=int))
        result = sim.run(
            trace,
            horizon_min=30.0,
            failures=FailureSchedule.single(10.0, 0),
        )
        assert result.streams_dropped == 3

    def test_requests_after_crash_rejected_without_failover(self):
        sim = self.two_server_setup([0])
        trace = RequestTrace(np.array([0.0, 20.0]), np.zeros(2, dtype=int))
        result = sim.run(
            trace,
            horizon_min=30.0,
            failures=FailureSchedule.single(10.0, 0),
        )
        assert result.num_rejected == 1  # the post-crash request

    def test_replication_plus_failover_saves_requests(self):
        sim = self.two_server_setup([0, 1])  # replicated on both servers
        trace = RequestTrace(np.array([0.0, 20.0, 21.0]), np.zeros(3, dtype=int))
        result = sim.run(
            trace,
            horizon_min=30.0,
            failures=FailureSchedule.single(10.0, 0),
            failover_on_down=True,
        )
        assert result.num_rejected == 0

    def test_recovery_restores_service(self):
        sim = self.two_server_setup([0])
        trace = RequestTrace(np.array([0.0, 20.0]), np.zeros(2, dtype=int))
        result = sim.run(
            trace,
            horizon_min=30.0,
            failures=FailureSchedule([FailureEvent(10.0, 0, down_min=5.0)]),
        )
        assert result.num_rejected == 0  # t=20 arrival finds the server back

    def test_stale_departure_ignored(self):
        # Stream admitted at t=0 ends at t=60; crash at t=10 drops it.  The
        # stale departure at t=60 must not corrupt accounting.
        sim = self.two_server_setup([0])
        trace = RequestTrace(np.array([0.0, 70.0]), np.zeros(2, dtype=int))
        result = sim.run(
            trace,
            horizon_min=90.0,
            failures=FailureSchedule([FailureEvent(10.0, 0, down_min=5.0)]),
        )
        # Post-recovery arrival at t=70 is served; no negative-load crash.
        assert result.num_rejected == 0
        assert result.streams_dropped == 1

    def test_failure_at_t0_rejects_until_recovery(self):
        sim = self.two_server_setup([0])
        trace = RequestTrace(np.array([1.0, 20.0]), np.zeros(2, dtype=int))
        result = sim.run(
            trace,
            horizon_min=30.0,
            failures=FailureSchedule([FailureEvent(0.0, 0, down_min=10.0)]),
        )
        assert result.num_rejected == 1   # t=1 arrival finds the server down
        assert result.streams_dropped == 0  # nothing was active at the crash

    def test_failure_at_t0_with_failover(self):
        sim = self.two_server_setup([0, 1])
        trace = RequestTrace(np.array([1.0, 20.0]), np.zeros(2, dtype=int))
        result = sim.run(
            trace,
            horizon_min=70.0,
            failures=FailureSchedule([FailureEvent(0.0, 0)]),
            failover_on_down=True,
        )
        assert result.num_rejected == 0

    def test_repair_while_draining(self):
        # Recovery lands in the drain phase (after the last arrival),
        # among stale departures of streams the crash already dropped.
        sim = self.two_server_setup([0])
        trace = RequestTrace(np.array([0.0, 5.0]), np.zeros(2, dtype=int))
        result = sim.run(
            trace,
            horizon_min=90.0,
            failures=FailureSchedule([FailureEvent(50.0, 0, down_min=10.0)]),
        )
        assert result.streams_dropped == 2
        assert result.num_rejected == 0
        assert result.server_peak_load_mbps[0] == pytest.approx(8.0)

    def test_failure_beyond_horizon_ignored(self):
        sim = self.two_server_setup([0])
        trace = RequestTrace(np.array([0.0]), np.zeros(1, dtype=int))
        result = sim.run(
            trace,
            horizon_min=30.0,
            failures=FailureSchedule.single(50.0, 0),
        )
        assert result.streams_dropped == 0

    def test_failure_exactly_at_horizon_is_noop(self):
        # Strict <: a failure at t == horizon is outside the measured peak
        # in every simulator (optimized, reference, audited, striped) —
        # the horizon-edge rule the chaos fuzzer pins.
        sim = self.two_server_setup([0])
        trace = RequestTrace(np.array([0.0]), np.zeros(1, dtype=int))
        result = sim.run(
            trace,
            horizon_min=30.0,
            failures=FailureSchedule.single(30.0, 0),
        )
        assert result.streams_dropped == 0
        assert result.num_failures == 0
        assert result.server_downtime_min[0] == 0.0

    def test_availability_improves_with_replication(self, rng):
        """The headline claim: higher replication degree -> fewer losses
        under a server failure (with failover)."""
        # Load low enough that the 3 surviving servers have the bandwidth
        # to carry everything — losses are then purely a coverage effect.
        pop = ZipfPopularity(50, 0.75)
        cluster = ClusterSpec.homogeneous(4, storage_gb=135.0, bandwidth_mbps=900.0)
        videos = VideoCollection.homogeneous(50)
        generator = WorkloadGenerator.poisson_zipf(pop, 6.0)
        failures = FailureSchedule.single(30.0, 0)

        def rejected(replication):
            layout = smallest_load_first_placement(replication, 50)
            sim = VoDClusterSimulator(cluster, videos, layout)
            rates = [
                sim.run(
                    trace, horizon_min=90.0, failures=failures,
                    failover_on_down=True,
                ).rejection_rate
                for trace in generator.generate_runs(90.0, 5, 9)
            ]
            return float(np.mean(rates))

        single = rejected(no_replication(pop.probabilities, 4))
        replicated = rejected(
            zipf_interval_replication(pop.probabilities, 4, 100)
        )
        assert replicated < single
