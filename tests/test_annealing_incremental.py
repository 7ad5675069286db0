"""Incremental (delta-cost) annealing cross-checked against full recompute.

The incremental context must (a) evaluate each move's cost delta within
float-accumulation tolerance of a full recompute, (b) restore the state
*bitwise* on rollback, (c) consume the rng identically to the full path,
and (d) drive the engine to comparable solutions at a large speedup.  The
full-recompute loop remains available via ``use_incremental=False`` and is
the behavior oracle throughout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterSpec, VideoCollection, ZipfPopularity
from repro.annealing import (
    GeometricCooling,
    ScalableBitRateProblem,
    SimulatedAnnealer,
)
from repro.model.problem import ReplicationProblem


def make_problem(
    num_videos=40, num_servers=4, storage_gb=30.0, bandwidth_mbps=900.0
):
    popularity = ZipfPopularity(num_videos, 0.75)
    cluster = ClusterSpec.homogeneous(
        num_servers, storage_gb=storage_gb, bandwidth_mbps=bandwidth_mbps
    )
    videos = VideoCollection.homogeneous(num_videos)
    problem = ReplicationProblem(
        cluster,
        videos,
        popularity,
        arrival_rate_per_min=20.0,
        peak_minutes=90.0,
        allowed_bit_rates_mbps=(1.5, 3.0, 4.0, 6.0),
    )
    return ScalableBitRateProblem(problem)


class TestDeltaCrossCheck:
    def test_deltas_match_full_recompute(self):
        sa = make_problem()
        state = sa.initial_state(np.random.default_rng(0))
        context = sa.make_incremental(state)
        full_state = state.copy()
        checked = 0
        for i in range(600):
            seed = 5_000 + i
            before = sa.cost(full_state)
            neighbor = sa.propose(full_state, np.random.default_rng(seed))
            delta = context.propose(np.random.default_rng(seed))
            if neighbor is None:
                # rng parity: the context must fall through exactly when
                # the full path does.
                assert delta is None
                continue
            assert delta == pytest.approx(
                sa.cost(neighbor) - before, abs=1e-9
            )
            checked += 1
            if i % 2 == 0:
                full_state = neighbor
                context.commit()
            else:
                context.rollback()
            # Bitwise agreement after every commit/rollback.
            np.testing.assert_array_equal(context.export_state(), full_state)
        assert checked > 100  # the walk must actually exercise moves

    def test_rollback_restores_caches_exactly(self):
        sa = make_problem()
        state = sa.initial_state(np.random.default_rng(1))
        context = sa.make_incremental(state)
        cost_before = context.cost()
        rng = np.random.default_rng(7)
        rolled_back = 0
        for _ in range(50):
            if context.propose(rng) is not None:
                context.rollback()
                rolled_back += 1
        assert rolled_back > 0
        np.testing.assert_array_equal(context.export_state(), state)
        assert context.cost() == cost_before

    def test_resync_matches_incremental_caches(self):
        sa = make_problem()
        context = sa.make_incremental(sa.initial_state(np.random.default_rng(2)))
        rng = np.random.default_rng(3)
        for _ in range(200):
            if context.propose(rng) is not None:
                context.commit()
        drifted = context.cost()
        context.resync()
        assert context.cost() == pytest.approx(drifted, abs=1e-9)
        assert context.cost() == pytest.approx(
            sa.cost(context.export_state()), abs=1e-12
        )


class TestEngineIncremental:
    def test_engine_uses_incremental_and_agrees(self):
        sa = make_problem()
        annealer = SimulatedAnnealer(
            GeometricCooling(0.05),
            steps_per_level=50,
            max_levels=20,
            patience_levels=0,
        )
        full = annealer.run(sa, np.random.default_rng(9), use_incremental=False)
        inc = annealer.run(sa, np.random.default_rng(9))
        assert inc.steps == full.steps
        # Reported costs are always full recomputations of real states.
        assert inc.best_cost == pytest.approx(sa.cost(inc.best_state), abs=1e-12)
        # Same seed, same rng discipline: a near-zero delta may still flip
        # one acceptance (cached vs recomputed float noise), after which
        # trajectories diverge — but solutions land in the same regime.
        assert inc.best_cost == pytest.approx(full.best_cost, rel=0.05)
        assert sa._violating_servers(inc.best_state).size == 0

    def test_incremental_result_fields_consistent(self):
        sa = make_problem()
        annealer = SimulatedAnnealer(
            steps_per_level=40, max_levels=10, patience_levels=0
        )
        result = annealer.run(sa, np.random.default_rng(11))
        assert result.steps == 40 * result.levels
        assert 0 < result.accepted <= result.steps
        assert result.wall_time_sec > 0
        assert result.steps_per_sec > 0
        assert len(result.cost_history) == result.levels + 1

    def test_use_incremental_false_is_original_path(self):
        sa = make_problem()
        annealer = SimulatedAnnealer(
            steps_per_level=30, max_levels=5, patience_levels=0
        )
        result = annealer.run(sa, np.random.default_rng(13), use_incremental=False)
        assert result.best_cost == pytest.approx(
            sa.cost(result.best_state), abs=1e-12
        )


class TestCalibrationGuard:
    def test_empty_calibration_walk_gets_sane_default(self):
        """Every-propose-None calibration must not freeze the schedule."""

        class DeadEndProblem:
            def initial_state(self, rng):
                return 0.0

            def cost(self, state):
                return float(state)

            def propose(self, state, rng):
                return None  # all moves fall through

        annealer = SimulatedAnnealer(
            steps_per_level=5, max_levels=3, patience_levels=0
        )
        schedule = annealer._calibrate_schedule(
            DeadEndProblem(), 0.0, np.random.default_rng(0)
        )
        t0 = schedule.temperature(0)
        assert np.isfinite(t0)
        assert t0 == pytest.approx(1.0)
        # And a full run on such a problem terminates cleanly.
        result = annealer.run(DeadEndProblem(), np.random.default_rng(0))
        assert result.steps == 15
        assert result.accepted == 0


def perturbed_state(sa, seed, moves=40):
    """A feasible layout some committed full-path moves from the initial one."""
    rng = np.random.default_rng(seed)
    state = sa.initial_state(rng)
    for _ in range(moves):
        neighbor = sa.propose(state, rng)
        if neighbor is not None:
            state = neighbor
    return state


class _FirstTemperature:
    """Observer keeping the level-0 temperature, i.e. the calibrated T0."""

    def __init__(self):
        self.t0 = None

    def sa_level(self, *, level, temperature, **_):
        if level == 0:
            self.t0 = temperature

    def sa_run_finished(self, result):
        pass


class TestCalibrationParity:
    """The incremental path calibrates ``T0`` exactly like the full path.

    Its walk moves through a throw-away context but samples full-cost
    deltas, so ``T0`` and the rng state after calibration are bit-equal to
    :meth:`SimulatedAnnealer._calibrate_schedule`'s (the oracle).
    """

    PROBLEMS = {
        "small": dict(),
        "wide": dict(num_videos=120, num_servers=8, storage_gb=45.0),
    }

    @staticmethod
    def both_t0(sa, state, seed):
        annealer = SimulatedAnnealer()
        before = state.copy()
        rng_full = np.random.default_rng(seed)
        rng_inc = np.random.default_rng(seed)
        full = annealer._calibrate_schedule(sa, state, rng_full)
        inc = annealer._calibrate_incremental(sa, state, rng_inc)
        assert rng_inc.bit_generator.state == rng_full.bit_generator.state
        np.testing.assert_array_equal(state, before)  # the walk is a copy
        return full.temperature(0), inc.temperature(0)

    @pytest.mark.parametrize("size", sorted(PROBLEMS))
    @pytest.mark.parametrize("seed", range(5))
    def test_cold_start(self, size, seed):
        sa = make_problem(**self.PROBLEMS[size])
        state = sa.initial_state(np.random.default_rng(seed))
        full, inc = self.both_t0(sa, state, 100 + seed)
        assert inc == full
        assert full not in (1.0, 1e-6)  # the walk sampled uphill moves

    @pytest.mark.parametrize("size", sorted(PROBLEMS))
    @pytest.mark.parametrize("seed", range(5))
    def test_warm_start(self, size, seed):
        sa = make_problem(**self.PROBLEMS[size])
        state = perturbed_state(sa, seed)
        full, inc = self.both_t0(sa, state, 200 + seed)
        assert inc == full
        assert full not in (1.0, 1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_run_uses_the_same_t0_on_both_paths(self, seed):
        sa = make_problem()
        incumbent = perturbed_state(sa, seed)
        annealer = SimulatedAnnealer(
            steps_per_level=10, max_levels=2, patience_levels=0
        )
        t0 = {}
        for use_incremental in (False, True):
            observer = _FirstTemperature()
            annealer.run(
                sa,
                np.random.default_rng(300 + seed),
                use_incremental=use_incremental,
                observer=observer,
                initial_state=incumbent,
            )
            t0[use_incremental] = observer.t0
        assert t0[True] == t0[False]

    def test_saturated_state_falls_back_to_unit_temperature(self):
        """Every proposal falls through: no replica can be raised or added."""
        sa = make_problem(storage_gb=1.0e4, bandwidth_mbps=1.0e4)
        state = np.full((40, 4), sa.max_rate)
        assert sa.propose(state, np.random.default_rng(0)) is None
        full, inc = self.both_t0(sa, state, 0)
        assert inc == full == 1.0


class TestRunChainsReporting:
    def test_chains_record_sa_throughput(self):
        from repro.annealing import run_chains
        from repro.runtime import ParallelRunner, use_runner

        sa = make_problem()
        annealer = SimulatedAnnealer(
            steps_per_level=20, max_levels=4, patience_levels=0
        )
        with ParallelRunner(jobs=1) as runner, use_runner(runner):
            chains = run_chains(sa, annealer, num_chains=2, seed=5)
            report = runner.report
        assert report.num_sa_runs == 2
        assert report.num_sa_steps == sum(r.steps for r in chains.results)
        assert report.sa_steps_per_sec > 0
