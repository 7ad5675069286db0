"""Lockstep equivalence of the vector event-batch engine + engine= threading.

The ``vector`` engine (``repro.cluster_sim.vector``) must produce
bit-identical :class:`SimulationResult` outcomes to the optimized and
reference loops on *every* configuration: the batched fast path on the
paper's base model, and the delegation path everywhere else (dynamic
dispatchers, chaos, backbone redirection, stream limits, truncation).
This module enforces that over

* hand-picked crossings of every feature axis,
* randomized scenarios drawn from the fuzzer's own DES generator, and
* every pinned DES case in ``tests/corpus/``,

and additionally checks the ``engine=`` selection surface: the registry,
``solve(engine=...)``, the trial cache key, and serving-plane shards.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.cluster_sim import (
    ENGINES,
    ReferenceClusterSimulator,
    VectorClusterSimulator,
    VoDClusterSimulator,
    engine_run_kwargs,
    make_simulator,
    validate_engine,
)
from repro.verify import load_corpus
from repro.verify.scenarios import _draw_des, build_des

CORPUS_DIR = Path(__file__).parent / "corpus"
DES_CORPUS = [
    (path, case) for path, case in load_corpus(CORPUS_DIR) if case.kind == "des"
]


def _params(**overrides) -> dict:
    """A small, fast DES case; overrides select the feature under test."""
    params = {
        "num_videos": 24,
        "num_servers": 4,
        "theta": 0.75,
        "bandwidth_mbps": 300.0,
        "rate_per_min": 18.0,
        "duration_min": 45.0,
        "video_duration_min": 20.0,
        "capacity": 16,
        "dispatcher": "static_rr",
        "failures": False,
        "failure_at_t0": False,
        "failure_at_horizon": False,
        "correlated_failures": False,
        "mtbf_frac": 0.4,
        "mttr_frac": 0.15,
        "redirection": False,
        "backbone_frac": 0.4,
        "stream_limits": False,
        "watch_time": False,
        "watch_mean": 0.6,
        "failover_on_down": False,
        "horizon_frac": 1.0,
        "trace_seed": 11,
        "build_seed": 12,
        "failure_seed": 13,
        "limits_seed": 14,
    }
    params.update(overrides)
    return params


def _vector_twin(optimized: VoDClusterSimulator) -> VectorClusterSimulator:
    """A vector engine over the exact same system as *optimized*."""
    return VectorClusterSimulator(
        optimized._cluster,
        optimized._videos,
        optimized._layout,
        dispatcher_factory=optimized._dispatcher_factory,
        backbone_mbps=optimized._backbone_mbps,
        stream_limits=optimized._stream_limits,
        redirection_pods=optimized._redirection_pods,
    )


def _assert_lockstep(params: dict) -> None:
    optimized, reference, trace, run_kwargs = build_des(params)
    vector = _vector_twin(optimized)
    opt_result = optimized.run(trace, **run_kwargs)
    vec_result = vector.run(trace, **run_kwargs)
    assert opt_result.same_outcome(vec_result), params
    ref_result = reference.run(trace, **run_kwargs)
    assert ref_result.same_outcome(vec_result), params


class TestFeatureCrossings:
    """One axis at a time: each non-default knob flips the engine onto a
    different internal path (batched vs delegated) — all must agree."""

    def test_base_model_fast_path(self):
        _assert_lockstep(_params())

    def test_saturated_fast_path(self):
        # High rate forces rejections, exercising the admission sandwich.
        _assert_lockstep(_params(rate_per_min=60.0, bandwidth_mbps=120.0))

    def test_watch_time_departures(self):
        _assert_lockstep(_params(watch_time=True))

    def test_horizon_truncation(self):
        _assert_lockstep(_params(horizon_frac=0.7))

    def test_stream_limits(self):
        _assert_lockstep(_params(stream_limits=True))

    @pytest.mark.parametrize("dispatcher", ["least_loaded", "first_fit"])
    def test_dynamic_dispatchers_delegate(self, dispatcher):
        _assert_lockstep(_params(dispatcher=dispatcher))

    def test_backbone_redirection(self):
        _assert_lockstep(_params(redirection=True))

    def test_chaos_failures(self):
        _assert_lockstep(_params(failures=True, failover_on_down=True))

    def test_chaos_with_retry_and_rereplication(self):
        _assert_lockstep(
            _params(
                failures=True,
                failover_on_down=True,
                failover_retry=True,
                max_retries=3,
                backoff_frac=0.02,
                rereplication=True,
                migration_frac=1.5,
            )
        )

    def test_empty_trace(self):
        optimized, _, trace, run_kwargs = build_des(_params())
        empty = type(trace)(
            arrival_min=trace.arrival_min[:0], videos=trace.videos[:0]
        )
        vector = _vector_twin(optimized)
        opt_result = optimized.run(empty, **run_kwargs)
        vec_result = vector.run(empty, **run_kwargs)
        assert opt_result.same_outcome(vec_result)

    def test_fast_path_engages_on_base_model(self, monkeypatch):
        """The batched path (not delegation) serves the paper's base model."""
        optimized, _, trace, run_kwargs = build_des(_params())
        vector = _vector_twin(optimized)
        expected = optimized.run(trace, **run_kwargs)

        def _no_delegation(self, *args, **kwargs):
            raise AssertionError("base model must take the batched path")

        monkeypatch.setattr(VoDClusterSimulator, "run", _no_delegation)
        got = vector.run(trace, **run_kwargs)
        assert expected.same_outcome(got)


class TestRandomizedLockstep:
    """Scenarios from the fuzzer's own DES generator (fixed stream)."""

    @pytest.mark.parametrize("index", range(8))
    def test_random_case(self, index):
        rng = np.random.default_rng(np.random.SeedSequence((0x7EC, index)))
        case = _draw_des(rng, index)
        _assert_lockstep(case.params)


@pytest.mark.parametrize(
    "path, case", DES_CORPUS, ids=[path.stem for path, _ in DES_CORPUS]
)
def test_corpus_case_vector_lockstep(path, case):
    """Every pinned DES corpus case replays through the vector engine."""
    _assert_lockstep(case.params)


class TestEngineRegistry:
    def test_registry_names(self):
        assert set(ENGINES) == {"optimized", "vector", "reference", "audited"}
        for name in ENGINES:
            validate_engine(name)
        with pytest.raises(ValueError, match="unknown engine"):
            validate_engine("warp")

    def test_make_simulator_types(self):
        optimized, _, _, _ = build_des(_params())
        args = (optimized._cluster, optimized._videos, optimized._layout)
        assert isinstance(make_simulator("vector", *args), VectorClusterSimulator)
        assert isinstance(
            make_simulator("reference", *args), ReferenceClusterSimulator
        )
        audited = make_simulator("audited", *args)
        assert type(audited) is VoDClusterSimulator

    def test_engine_run_kwargs(self):
        assert engine_run_kwargs("optimized") == {}
        assert engine_run_kwargs("vector") == {}
        audited = engine_run_kwargs("audited")
        assert audited["auditors"], "audited engine must attach auditors"


class TestEngineThreading:
    """engine= flows through solve(), the trial cache and the serving plane."""

    @pytest.fixture(scope="class")
    def small_setup(self):
        from repro.experiments import PaperSetup

        return PaperSetup().scaled_down(
            num_videos=24, num_servers=4, num_runs=2
        )

    def _solve(self, small_setup, engine):
        from repro import PipelineConfig, solve

        return solve(
            PipelineConfig(
                theta=0.75,
                replication_degree=1.2,
                arrival_rate_per_min=15.0,
                setup=small_setup,
                engine=engine,
            )
        )

    @pytest.mark.parametrize("engine", ["vector", "audited"])
    def test_solve_engines_match_default(self, small_setup, engine):
        baseline = self._solve(small_setup, "optimized")
        other = self._solve(small_setup, engine)
        assert len(baseline.results) == len(other.results)
        for a, b in zip(baseline.results, other.results):
            assert a.same_outcome(b)

    def test_solve_reference_engine_matches(self, small_setup):
        baseline = self._solve(small_setup, "optimized")
        reference = self._solve(small_setup, "reference")
        for a, b in zip(baseline.results, reference.results):
            assert a.same_outcome(b)

    def test_observer_rejects_reference_engine(self, small_setup):
        from repro import PipelineConfig, solve
        from repro.observe import Observer, ObserverConfig

        config = PipelineConfig(setup=small_setup, engine="reference")
        with pytest.raises(ValueError, match="reference"):
            solve(config, observer=Observer(ObserverConfig()))

    def test_engine_distinguishes_trial_cache_key(self, small_setup):
        from repro.experiments.runner import build_layout, PAPER_COMBOS
        from repro.runtime import make_trials

        layout = build_layout(small_setup, PAPER_COMBOS[0], 0.75, 1.2)
        keys = {}
        for engine in ("optimized", "vector", "audited", "reference"):
            trials = make_trials(
                small_setup,
                layout,
                theta=0.75,
                degree=1.2,
                arrival_rate_per_min=15.0,
                seed=7,
                num_runs=1,
                engine=engine,
            )
            keys[engine] = trials[0].config_key
        assert len(set(keys.values())) == 4, keys

    def test_serving_engine_and_shards_snapshots_match(self):
        from repro.serving import ServingConfig, ServingControlPlane

        base = dict(
            epochs=2,
            epoch_minutes=30.0,
            base_rate_per_min=6.0,
            peak_rate_per_min=10.0,
            screen=False,
            anneal_polish=False,
        )
        plain = ServingControlPlane(
            ServingConfig(**base, engine="optimized")
        ).run()
        vector = ServingControlPlane(
            ServingConfig(**base, engine="vector")
        ).run()
        assert plain.digest() == vector.digest()
        sharded = ServingControlPlane(
            ServingConfig(**base, engine="vector", shards=2)
        ).run()
        # Shard 0 regenerates the unsharded epoch trace; shard 1 adds its
        # own stream — total demand roughly doubles at the same logical N.
        assert sharded.digest() != plain.digest()

    def test_from_pipeline_carries_engine_and_shards(self):
        from repro import PipelineConfig
        from repro.serving import ServingConfig

        pipeline = PipelineConfig(engine="vector", shards=2, dispatcher="least_loaded")
        serving = ServingConfig.from_pipeline(pipeline)
        assert serving.engine == "vector"
        assert serving.shards == 2
        assert serving.dispatcher == "least_loaded"
