"""The default engine and the provenance every run reports.

``vector`` is the default engine.  On the paper's base model (static
round robin, no chaos, no backbone) it runs its batched path; everywhere
else it hands the run to the ``optimized`` loop and names the reason.
Either way the outcome is ``same_outcome``-identical to the reference
oracle; the provenance fields (``engine_path``, ``handoff_reason``,
``vector_fallbacks``) describe the run and never enter an outcome
comparison or digest.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import PipelineConfig, solve
from repro.cluster_sim import DEFAULT_ENGINE, merge_results
from repro.config_core import SimulationConfig
from repro.experiments import PaperSetup
from repro.runtime import ResultCache, RunReport
from repro.runtime.trial import TrialSpec, make_trials, run_trial, trial_cache_key


def _paper_config(rate: float, **overrides) -> PipelineConfig:
    """The paper system (M=200, N=8) at one arrival rate, two runs."""
    return PipelineConfig(
        theta=0.75,
        replication_degree=1.2,
        arrival_rate_per_min=rate,
        num_runs=2,
        **overrides,
    )


def test_vector_is_the_one_default():
    assert DEFAULT_ENGINE == "vector"
    assert SimulationConfig().engine == DEFAULT_ENGINE
    assert PipelineConfig().engine == DEFAULT_ENGINE
    assert TrialSpec.__dataclass_fields__["engine"].default == DEFAULT_ENGINE


class TestDefaultPathPin:
    @pytest.mark.parametrize("rate", [40.0, 45.0])
    def test_paper_system_runs_vector_path(self, rate):
        solved = solve(_paper_config(rate))
        reference = solve(_paper_config(rate, engine="reference"))
        assert len(solved.results) == len(reference.results) == 2
        for got, want in zip(solved.results, reference.results):
            assert got.engine_path == "vector"
            assert got.handoff_reason is None
            assert got.vector_fallbacks == 0
            assert want.engine_path == "reference"
            assert got.same_outcome(want)
        report = solved.report
        assert report.engine_paths == {"vector": 2}
        assert report.num_vector_servers == 16
        assert "engine vector 2 runs" in solved.format()

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            ({"dispatcher": "least_loaded"}, "dispatcher"),
            ({"failures": "single:t=30,server=0,down=20"}, "chaos"),
            ({"backbone_mbps": 200.0}, "backbone"),
        ],
    )
    def test_hand_off_names_its_reason(self, overrides, reason):
        solved = solve(_paper_config(40.0, **overrides))
        reference = solve(_paper_config(40.0, engine="reference", **overrides))
        for got, want in zip(solved.results, reference.results):
            assert got.engine_path == "optimized"
            assert got.handoff_reason == reason
            assert got.vector_fallbacks is None
            assert got.same_outcome(want)
        assert solved.report.handoff_reasons == {reason: 2}
        assert f"(handoff: {reason} 2)" in solved.format()

    def test_observer_hands_off(self):
        from repro.observe import Observer, ObserverConfig

        observed = solve(
            _paper_config(40.0), observer=Observer(ObserverConfig())
        )
        plain = solve(_paper_config(40.0))
        for got, want in zip(observed.results, plain.results):
            assert got.engine_path == "optimized"
            assert got.handoff_reason == "observer"
            assert got.same_outcome(want)

    def test_audited_run_reports_its_loop(self):
        solved = solve(_paper_config(40.0, engine="audited"))
        assert {r.engine_path for r in solved.results} == {"audited"}


class TestProvenanceIsNotOutcome:
    def test_same_outcome_ignores_provenance(self):
        (result,) = solve(replace(_paper_config(30.0), num_runs=1)).results
        other = replace(
            result,
            engine_path="optimized",
            handoff_reason="observer",
            vector_fallbacks=None,
        )
        assert result.same_outcome(other)

    def test_cache_hit_restores_provenance_as_unknown(self, tmp_path):
        setup = PaperSetup().scaled_down(num_videos=20, num_servers=3, num_runs=1)
        layout = solve(
            PipelineConfig(setup=setup, arrival_rate_per_min=10.0, num_runs=1)
        ).layout
        (spec,) = make_trials(
            setup, layout, theta=0.75, degree=1.2,
            arrival_rate_per_min=10.0, seed=3, num_runs=1,
        )
        result = run_trial(spec)
        assert result.engine_path == "vector"
        cache = ResultCache(tmp_path)
        cache.put(trial_cache_key(spec), result)
        hit = cache.get(trial_cache_key(spec))
        assert hit.same_outcome(result)
        assert (hit.engine_path, hit.handoff_reason, hit.vector_fallbacks) == (
            None, None, None,
        )
        report = RunReport()
        report.record_hit(hit)
        assert report.engine_paths == {} and report.num_vector_servers == 0

    def test_shard_merge_keeps_agreeing_provenance(self):
        solved = solve(replace(_paper_config(30.0), num_runs=1, shards=2))
        (merged,) = solved.results
        assert merged.engine_path == "vector"
        assert merged.vector_fallbacks == 0
        other = replace(merged, engine_path="optimized", vector_fallbacks=None)
        mixed = merge_results([merged, other])
        assert mixed.engine_path is None
        assert mixed.vector_fallbacks is None
