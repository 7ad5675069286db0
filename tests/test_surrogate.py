"""Tests for the analytical Erlang fixed-point surrogate.

Covers the vectorized Erlang-B array path (bit-agreement with the scalar
recurrence, edge conventions, the deprecation alias), the surrogate's
model guarantees (monotonicity in arrival rate, pooled/partitioned
bracketing, exact full-replication and single-copy limits), fixed-point
convergence on every DES scenario in the fuzz corpus, and the pipeline's
``--surrogate`` screening mode end to end.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import ClusterSpec, VideoCollection, ZipfPopularity
from repro.analysis import erlang as erlang_module
from repro.analysis.erlang import (
    cluster_blocking_bound,
    erlang_b,
    partitioned_blocking,
)
from repro.analysis.surrogate import (
    FixedPointSpec,
    SurrogateWorkload,
    evaluate_layout,
    evaluate_layouts,
    server_stream_slots,
)
from repro.model.layout import ReplicaLayout
from repro.pipeline import PipelineConfig, solve
from repro.placement import smallest_load_first_placement
from repro.replication import zipf_interval_replication
from repro.verify import surrogate_audit
from repro.verify.surrogate_audit import (
    SurrogateAuditCase,
    audit_case,
    audit_surrogate,
    bracket_bounds,
    sample_audit_cases,
)

CORPUS_DIR = Path(__file__).parent / "corpus"

DISPATCHERS = ("static_rr", "least_loaded", "first_fit")


# ----------------------------------------------------------------------
# Vectorized Erlang-B
# ----------------------------------------------------------------------
class TestErlangBArray:
    LOADS = np.array([0.0, 1e-9, 0.5, 1.0, 7.3, 20.0, 119.7, 450.0])
    SERVERS = np.array([0, 1, 2, 10, 64, 120, 451])

    def test_matches_scalar_recurrence(self):
        loads, servers = np.meshgrid(self.LOADS, self.SERVERS)
        vectorized = erlang_b(loads, servers)
        for i in np.ndindex(loads.shape):
            scalar = erlang_b(float(loads[i]), int(servers[i]))
            assert vectorized[i] == pytest.approx(scalar, rel=1e-9, abs=1e-300)

    def test_closed_form_agrees_with_numpy_fallback(self):
        if erlang_module._gammaincc is None:
            pytest.skip("scipy not available; only the fallback path exists")
        loads, servers = np.broadcast_arrays(
            *np.meshgrid(self.LOADS, self.SERVERS)
        )
        loads = np.ascontiguousarray(loads)
        servers = np.ascontiguousarray(servers)
        closed = erlang_module._erlang_b_closed_form(loads, servers)
        recurrence = erlang_module._erlang_b_recurrence(loads, servers)
        positive = loads > 0
        np.testing.assert_allclose(
            closed[positive], recurrence[positive], rtol=1e-9
        )

    def test_deep_overload_series_fallback(self):
        # a >> c underflows the Poisson cdf; the falling-factorial series
        # must still agree with the scalar recurrence (B ~ 1 - c/a).
        for load, servers in [(5000.0, 100), (2.0e4, 50), (1.0e6, 400)]:
            vectorized = erlang_b(np.array([load]), np.array([servers])).item()
            scalar = erlang_b(load, servers)
            assert vectorized == pytest.approx(scalar, rel=1e-9)
            assert vectorized == pytest.approx(1.0 - servers / load, rel=1e-3)

    def test_edge_conventions(self):
        out = erlang_b(np.array([0.0, 0.0, 5.0]), np.array([0, 4, 0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0])

    def test_broadcasting(self):
        out = erlang_b(np.array([[1.0], [10.0]]), np.array([2, 8]))
        assert out.shape == (2, 2)
        assert out[0, 0] == pytest.approx(erlang_b(1.0, 2), rel=1e-9)
        assert out[1, 1] == pytest.approx(erlang_b(10.0, 8), rel=1e-9)

    def test_rejects_bad_arrays(self):
        with pytest.raises(ValueError, match="integral"):
            erlang_b(np.array([1.0]), np.array([2.5]))
        with pytest.raises(ValueError, match=">= 0"):
            erlang_b(np.array([1.0]), np.array([-1]))
        with pytest.raises(ValueError, match="finite"):
            erlang_b(np.array([-1.0]), np.array([2]))
        with pytest.raises(ValueError, match="finite"):
            erlang_b(np.array([np.inf]), np.array([2]))

    def test_removed_keyword_alias(self):
        # The transitional offered_load_erlangs= keyword finished its
        # deprecation window (DESIGN.md "Deprecation windows").
        with pytest.raises(TypeError):
            erlang_b(offered_load_erlangs=10.0, num_servers=5)

    def test_monotone_in_load_vectorized(self):
        loads = np.linspace(0.1, 120.0, 64)
        blocking = erlang_b(loads, np.full(64, 40))
        assert np.all(np.diff(blocking) >= -1e-15)


# ----------------------------------------------------------------------
# Surrogate model guarantees
# ----------------------------------------------------------------------
def _small_scenario(num_videos=24, num_servers=4, theta=0.75, degree=1.3):
    popularity = ZipfPopularity(num_videos, theta)
    cluster = ClusterSpec.homogeneous(
        num_servers, storage_gb=1.0e6, bandwidth_mbps=160.0
    )
    budget = min(int(round(degree * num_videos)), num_videos * num_servers)
    replication = zipf_interval_replication(
        popularity.probabilities, num_servers, budget
    )
    layout = smallest_load_first_placement(
        replication, math.ceil(budget / num_servers) + 1
    )
    return cluster, layout, popularity


def _workload(popularity, rate, duration=10.0):
    return SurrogateWorkload(
        popularity=popularity.probabilities,
        arrival_rate_per_min=rate,
        holding_time_min=duration,
    )


class TestSurrogateModel:
    @pytest.mark.parametrize("dispatcher", DISPATCHERS)
    def test_monotone_in_arrival_rate(self, dispatcher):
        cluster, layout, popularity = _small_scenario()
        rejections = [
            evaluate_layout(
                layout,
                _workload(popularity, rate),
                cluster,
                dispatcher=dispatcher,
            ).rejection_rate
            for rate in np.linspace(4.0, 24.0, 9)
        ]
        assert all(0.0 <= r <= 1.0 for r in rejections)
        assert np.all(np.diff(rejections) >= -1e-9)

    @pytest.mark.parametrize("dispatcher", DISPATCHERS)
    def test_batch_matches_single(self, dispatcher):
        cluster, layout_a, popularity = _small_scenario()
        _, layout_b, _ = _small_scenario(degree=1.6)
        workload = _workload(popularity, 15.0)
        batch = evaluate_layouts(
            [layout_a, layout_b], workload, cluster, dispatcher=dispatcher
        )
        for index, layout in enumerate([layout_a, layout_b]):
            single = evaluate_layout(
                layout, workload, cluster, dispatcher=dispatcher
            )
            assert batch.rejection_rates[index] == pytest.approx(
                single.rejection_rate, rel=1e-9, abs=1e-12
            )
            np.testing.assert_allclose(
                batch.per_server_blocking[index],
                single.per_server_blocking,
                rtol=1e-9,
                atol=1e-12,
            )

    @pytest.mark.parametrize("dispatcher", ("least_loaded", "first_fit"))
    def test_full_replication_is_exactly_pooled(self, dispatcher):
        # Every video on every server = one complete pooled component =
        # one M/G/C/C system: the surrogate must reproduce the pooled
        # cluster bound bit-exactly, not approximately.
        num_videos, num_servers = 12, 3
        popularity = ZipfPopularity(num_videos, 0.7)
        cluster = ClusterSpec.homogeneous(
            num_servers, storage_gb=1.0e6, bandwidth_mbps=120.0
        )
        layout = ReplicaLayout(np.full((num_videos, num_servers), 4.0))
        workload = _workload(popularity, 10.0, duration=9.0)
        result = evaluate_layout(
            layout, workload, cluster, dispatcher=dispatcher
        )
        slots = server_stream_slots(cluster, layout)
        pooled = cluster_blocking_bound(10.0, 9.0, int(slots.sum()))
        assert result.rejection_rate == pytest.approx(pooled, rel=1e-14)
        assert result.diagnostics.converged

    def test_single_copy_partition_is_exactly_partitioned(self):
        # One replica per video under static splitting = isolated Erlang
        # servers: the surrogate equals partitioned_blocking exactly.
        num_videos, num_servers = 12, 3
        popularity = ZipfPopularity(num_videos, 0.7)
        cluster = ClusterSpec.homogeneous(
            num_servers, storage_gb=1.0e6, bandwidth_mbps=120.0
        )
        matrix = np.zeros((num_videos, num_servers))
        matrix[np.arange(num_videos), np.arange(num_videos) % num_servers] = 4.0
        layout = ReplicaLayout(matrix)
        workload = _workload(popularity, 10.0, duration=9.0)
        result = evaluate_layout(
            layout, workload, cluster, dispatcher="static_rr"
        )
        shares = layout.presence.T @ popularity.probabilities
        expected = partitioned_blocking(
            10.0, 9.0, int(server_stream_slots(cluster, layout)[0]), shares
        )
        assert result.rejection_rate == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "case",
        sample_audit_cases(6, seed=11),
        ids=lambda c: f"{c.name}-{c.dispatcher}",
    )
    def test_prediction_bracketed_by_erlang_bounds(self, case):
        # The audit's bracketing contract, checked surrogate-side (no DES):
        # pooled bound <= prediction <= dispatcher-aware partitioned bound.
        cluster, _, layout, popularity = case.build()
        workload = _workload(
            popularity, case.arrival_rate_per_min, case.video_duration_min
        )
        result = evaluate_layout(
            layout, workload, cluster, dispatcher=case.dispatcher
        )
        pooled, partitioned = bracket_bounds(case, cluster, layout, popularity)
        assert result.diagnostics.converged
        assert pooled - 1e-9 <= result.rejection_rate <= partitioned + 1e-9

    def test_rejects_unknown_dispatcher(self):
        cluster, layout, popularity = _small_scenario()
        with pytest.raises(ValueError, match="dispatcher"):
            evaluate_layout(
                layout, _workload(popularity, 10.0), cluster, dispatcher="lru"
            )

    def test_rejects_scalable_rate_layout(self):
        cluster, layout, popularity = _small_scenario()
        matrix = layout.rate_matrix.copy()
        matrix[matrix > 0] = 4.0
        matrix[np.flatnonzero(matrix[:, 0] > 0)[0], 0] = 2.0
        with pytest.raises(ValueError, match="fixed-rate"):
            evaluate_layout(
                ReplicaLayout(matrix), _workload(popularity, 10.0), cluster
            )

    def test_fixed_point_spec_validation(self):
        with pytest.raises(ValueError, match="damping"):
            FixedPointSpec(damping=0.0)
        with pytest.raises(ValueError, match="damping"):
            FixedPointSpec(damping=1.5)
        with pytest.raises(ValueError, match="max_iterations"):
            FixedPointSpec(max_iterations=0)


# ----------------------------------------------------------------------
# Fixed-point convergence on the fuzz corpus
# ----------------------------------------------------------------------
def _corpus_des_cases():
    cases = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        payload = json.loads(path.read_text())
        if payload.get("kind") == "des":
            cases.append(pytest.param(payload["params"], id=path.stem))
    return cases


@pytest.mark.parametrize("params", _corpus_des_cases())
def test_fixed_point_converges_on_corpus_scenarios(params):
    """Every corpus DES scenario's (cluster, layout, workload) must give a
    converged fixed point with a sane prediction — the surrogate may not
    silently diverge anywhere the fuzzer has ever explored."""
    num_videos = int(params["num_videos"])
    num_servers = int(params["num_servers"])
    capacity = max(
        int(params["capacity"]), math.ceil(num_videos / num_servers) + 1
    )
    popularity = ZipfPopularity(num_videos, float(params["theta"]))
    cluster = ClusterSpec.homogeneous(
        num_servers,
        storage_gb=1.0e6,
        bandwidth_mbps=float(params["bandwidth_mbps"]),
    )
    replication = zipf_interval_replication(
        popularity.probabilities,
        num_servers,
        min(num_videos + num_servers * 2, capacity * num_servers),
    )
    layout = smallest_load_first_placement(replication, capacity)
    workload = SurrogateWorkload(
        popularity=popularity.probabilities,
        arrival_rate_per_min=float(params["rate_per_min"]),
        holding_time_min=float(params["video_duration_min"]),
    )
    result = evaluate_layout(
        layout, workload, cluster, dispatcher=str(params["dispatcher"])
    )
    assert result.diagnostics.converged, str(result.diagnostics)
    assert 0.0 <= result.rejection_rate <= 1.0
    assert np.all(result.per_server_utilization >= 0.0)
    assert np.all(result.per_server_utilization <= 1.0)


# ----------------------------------------------------------------------
# Audit machinery (fast DES case + report plumbing)
# ----------------------------------------------------------------------
class TestAuditMachinery:
    SMALL_CASE = SurrogateAuditCase(
        name="tiny",
        num_videos=12,
        num_servers=3,
        theta=0.7,
        bandwidth_mbps=60.0,
        replication_degree=1.3,
        load_factor=0.9,
        dispatcher="least_loaded",
        video_duration_min=5.0,
        horizon_min=60.0,
        num_runs=1,
        trace_seed=5,
    )

    def test_sampled_cases_are_deterministic(self):
        a = sample_audit_cases(4, seed=3)
        b = sample_audit_cases(4, seed=3)
        assert a == b
        assert {c.dispatcher for c in a} == {
            "static_rr", "least_loaded", "first_fit"
        }

    def test_audit_case_runs_the_des(self):
        result = audit_case(self.SMALL_CASE)
        assert 0.0 <= result.des_rejection <= 1.0
        assert result.converged
        assert result.bracketed
        assert result.error == pytest.approx(
            result.surrogate_rejection - result.des_rejection
        )
        assert "tiny" in result.format()

    def test_audit_report_aggregates(self):
        report = audit_surrogate(cases=[self.SMALL_CASE], tolerance=1.0)
        assert len(report.results) == 1
        assert report.max_abs_error == abs(report.results[0].error)
        assert report.all_converged
        assert report.ok  # tolerance=1.0 cannot fail on accuracy
        assert "1 configs" in report.format()

    def test_cli_exit_codes(self, monkeypatch, capsys):
        ok_report = audit_surrogate(cases=[self.SMALL_CASE], tolerance=1.0)
        monkeypatch.setattr(
            surrogate_audit, "audit_surrogate", lambda **kw: ok_report
        )
        assert surrogate_audit.main([]) == 0
        bad_report = audit_surrogate(cases=[self.SMALL_CASE], tolerance=0.0)
        monkeypatch.setattr(
            surrogate_audit, "audit_surrogate", lambda **kw: bad_report
        )
        assert surrogate_audit.main(["--configs", "1"]) == (
            0 if bad_report.ok else 1
        )
        capsys.readouterr()


# ----------------------------------------------------------------------
# E15 experiment
# ----------------------------------------------------------------------
def test_surrogate_sweep_experiment_small():
    from repro.experiments.config import PaperSetup
    from repro.experiments.surrogate_sweep import format_sweep, run_sweep

    setup = PaperSetup().scaled_down(num_videos=30, num_servers=3, num_runs=2)
    rows = run_sweep(
        setup, rates=(8.0,), candidates=6, top_k=2, num_runs=2
    )
    assert len(rows) == 1
    assert rows[0]["num_candidates"] == 6
    assert 0.0 <= rows[0]["chosen_des"] <= 1.0
    report = format_sweep(rows)
    assert "E15" in report
    assert rows[0]["chosen_label"] in report


# ----------------------------------------------------------------------
# Pipeline --surrogate screening mode
# ----------------------------------------------------------------------
class TestPipelineScreen:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="anneal"):
            PipelineConfig(surrogate=True, anneal=True)
        with pytest.raises(ValueError, match="screen_top_k"):
            PipelineConfig(surrogate=True, screen_top_k=0)
        with pytest.raises(ValueError, match="screen_candidates"):
            PipelineConfig(surrogate=True, screen_candidates=2, screen_top_k=3)

    def test_screen_and_confirm_end_to_end(self):
        from repro.experiments.config import PaperSetup

        setup = PaperSetup().scaled_down(
            num_videos=40, num_servers=3, num_runs=2
        )
        config = PipelineConfig(
            theta=0.75,
            replication_degree=1.2,
            arrival_rate_per_min=10.0,
            num_runs=2,
            surrogate=True,
            screen_candidates=8,
            screen_top_k=2,
            setup=setup,
        )
        result = solve(config)
        screen = result.screen
        assert screen is not None
        assert screen.num_candidates == 8
        assert len(set(screen.labels)) == 8
        assert len(screen.survivors) == 2
        assert screen.chosen in screen.survivors
        assert screen.predicted_rejections.shape == (8,)
        assert len(result.results) == 2  # the winner's DES runs
        # The survivors are the analytically best-predicted candidates.
        predicted_order = screen.predicted_rejections.argsort(kind="stable")
        assert set(screen.survivors) == set(int(i) for i in predicted_order[:2])
        # The chosen candidate won the DES confirmation.
        confirmed = dict(zip(screen.survivors, screen.confirmed))
        assert confirmed[screen.chosen].mean == min(
            summary.mean for summary in confirmed.values()
        )
        assert "screen" in result.format()
        assert screen.chosen_label in result.format()
