"""Tests for the pipeline facade (repro.pipeline), the consolidated CLI
(``python -m repro``) and the canonical-name deprecation shims.

The facade's headline contract: ``solve()`` reproduces the experiment
harness's numbers bit-identically (shared ``workload_seed`` derivation),
observed or not.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import PipelineConfig, PipelineResult, solve
from repro.__main__ import main as repro_main
from repro.analysis.stats import summarize
from repro.experiments import PAPER_COMBOS, PaperSetup, simulate_combo
from repro.experiments.runner import workload_seed
from repro.observe import Observer, ObserverConfig
from repro.runtime import RunReport


@pytest.fixture(scope="module")
def small_setup() -> PaperSetup:
    return PaperSetup().scaled_down(num_videos=30, num_servers=4, num_runs=2)


class TestPipelineConfig:
    def test_rejects_unknown_algorithms(self):
        with pytest.raises(ValueError, match="unknown replicator"):
            PipelineConfig(replicator="nope")
        with pytest.raises(ValueError, match="unknown placer"):
            PipelineConfig(placer="nope")
        with pytest.raises(ValueError, match="num_runs"):
            PipelineConfig(num_runs=0)

    def test_lazy_exports_from_package_root(self):
        import repro

        assert repro.PipelineConfig is PipelineConfig
        assert repro.solve is solve
        assert repro.Observer is Observer
        assert repro.ObserverConfig is ObserverConfig
        assert "solve" in dir(repro)
        with pytest.raises(AttributeError):
            repro.not_a_thing


class TestSolve:
    def test_end_to_end_summary(self, small_setup):
        result = solve(
            PipelineConfig(
                theta=0.75,
                replication_degree=1.2,
                arrival_rate_per_min=12.0,
                setup=small_setup,
            )
        )
        assert isinstance(result, PipelineResult)
        assert len(result.results) == small_setup.num_runs
        assert result.rejection.num_samples == small_setup.num_runs
        assert 0.0 <= result.rejection.mean <= 1.0
        assert result.replication is not None and result.sa_result is None
        text = result.format()
        assert "pipeline:" in text and "rejection" in text
        assert "run report" in text  # engine report is folded in

    def test_matches_simulate_combo_bit_identically(self, small_setup):
        """The facade must reproduce the figure harness's numbers."""
        combo_results = simulate_combo(
            small_setup, PAPER_COMBOS[0], 0.75, 1.2, 12.0
        )
        facade = solve(
            PipelineConfig(
                theta=0.75,
                replication_degree=1.2,
                arrival_rate_per_min=12.0,
                replicator="zipf",
                placer="slf",
                setup=small_setup,
            )
        )
        assert len(facade.results) == len(combo_results)
        for a, b in zip(facade.results, combo_results):
            assert a.same_outcome(b)
        assert facade.rejection.mean == pytest.approx(
            summarize([r.rejection_rate for r in combo_results]).mean
        )

    def test_observed_path_is_bit_identical(self, small_setup):
        config = PipelineConfig(
            theta=0.75,
            replication_degree=1.2,
            arrival_rate_per_min=12.0,
            setup=small_setup,
        )
        plain = solve(config)
        observer = Observer(ObserverConfig(sample_interval_min=5.0))
        observed = solve(config, observer=observer)
        for a, b in zip(plain.results, observed.results):
            assert a.same_outcome(b)
        registry = observer.registry
        assert registry.counter("sim.runs").value == small_setup.num_runs
        assert observer.phase_seconds.keys() >= {"replicate", "place", "simulate"}
        # Phase times are folded into the run report.
        assert observed.report.phase_seconds["simulate"] > 0.0

    def test_refine_stage_runs(self, small_setup):
        result = solve(
            PipelineConfig(
                theta=0.75,
                replication_degree=1.2,
                arrival_rate_per_min=12.0,
                refine=True,
                refine_max_steps=200,
                setup=small_setup,
            )
        )
        assert result.refinement is not None
        assert (
            result.refinement.final_imbalance
            <= result.refinement.initial_imbalance + 1e-12
        )

    def test_anneal_stage_runs(self, small_setup):
        result = solve(
            PipelineConfig(
                theta=0.75,
                replication_degree=1.2,
                arrival_rate_per_min=12.0,
                anneal=True,
                anneal_chains=1,
                anneal_steps_per_level=20,
                anneal_max_levels=4,
                setup=small_setup,
            )
        )
        assert result.sa_result is not None and result.replication is None
        assert "annealing" in result.format()

    def test_seed_derivation_is_shared(self, small_setup):
        """Same derivation as simulate_combo: seed depends on rate/theta."""
        a = workload_seed(small_setup.seed, 12.0, 0.75)
        b = workload_seed(small_setup.seed, 12.0, 0.75)
        assert a == b
        assert workload_seed(small_setup.seed, 13.0, 0.75) != a
        assert workload_seed(small_setup.seed, 12.0, 0.8) != a
        assert workload_seed(small_setup.seed, 12.0, 0.75, 1) != a


class TestConsolidatedCli:
    def test_pipeline_subcommand(self, capsys):
        code = repro_main(
            [
                "pipeline",
                "--quick",
                "--runs",
                "2",
                "--rate",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline:" in out and "rejection" in out

    def test_pipeline_trace_out_and_observe_report(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = repro_main(
            [
                "pipeline",
                "--quick",
                "--runs",
                "2",
                "--rate",
                "20",
                "--sample-interval",
                "10",
                "--trace-out",
                str(trace),
            ]
        )
        assert code == 0 and trace.exists()
        capsys.readouterr()
        assert repro_main(["observe-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "observation report" in out
        assert "sim.server_load_mbps" in out

    def test_experiments_delegation(self, capsys):
        """Old harness invocations keep working through the new front door."""
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["experiments", "--help"])
        assert excinfo.value.code == 0
        assert "figures" in capsys.readouterr().out.lower()

    def test_fuzz_delegation_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["fuzz", "--help"])
        assert excinfo.value.code == 0

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            repro_main(["not-a-command"])

    def test_top_level_help_lists_every_subcommand(self, capsys):
        """``--help`` must enumerate all six subcommands with descriptions."""
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        descriptions = {
            "experiments": "figure harness",
            "fuzz": "differential fuzzing",
            "bench": "microbenchmark",
            "pipeline": "facade",
            "serve": "serving control plane",
            "observe-report": "trace JSONL",
        }
        for name, blurb in descriptions.items():
            assert name in out, f"--help is missing the {name} subcommand"
            assert blurb in out, f"--help lacks a description for {name}"

    def test_shared_sim_flags_identical_across_pipeline_and_serve(self, capsys):
        """--engine/--shards/--jobs/--observe spell the same on both verbs."""
        helps = {}
        for verb in ("pipeline", "serve"):
            with pytest.raises(SystemExit) as excinfo:
                repro_main([verb, "--help"])
            assert excinfo.value.code == 0
            helps[verb] = capsys.readouterr().out
        for flag in ("--engine", "--shards", "--jobs", "--observe"):
            for verb, text in helps.items():
                assert flag in text, f"{verb} --help is missing {flag}"
        for engine in ("optimized", "vector", "reference", "audited"):
            assert engine in helps["pipeline"] and engine in helps["serve"]
        # --engine's choices and default come from the engine registry.
        from repro.cluster_sim import DEFAULT_ENGINE, ENGINES

        choices = "{" + ",".join(sorted(ENGINES)) + "}"
        for text in helps.values():
            flat = " ".join(text.split())
            assert f"--engine {choices}" in flat
            assert f"(default: {DEFAULT_ENGINE})" in flat


class TestRemovedAliases:
    """The pre-schema aliases completed their deprecation window (DESIGN.md
    "Deprecation windows") and were removed — reading them is an error."""

    def test_run_report_aliases_removed(self):
        report = RunReport()
        report.num_trials = 7
        for old in [
            "trials",
            "simulated",
            "cache_hits",
            "events",
            "sa_runs",
            "sa_steps",
            "audited_runs",
            "audited_events",
            "audit_violations",
        ]:
            with pytest.raises(AttributeError):
                getattr(report, old)

    def test_summary_n_alias_removed(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.num_samples == 3
        with pytest.raises(AttributeError):
            summary.n

    def test_canonical_names_do_not_warn(self):
        report = RunReport()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report.num_trials += 1
            _ = report.num_events
            _ = summarize([1.0, 2.0]).num_samples
