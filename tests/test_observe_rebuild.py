"""Observer output rebuilt from the kernel's log, on every engine.

An observed run records nothing in the event loop: the kernel (and the
``vector`` engine) fill the same private audit log, and the observer's
deferred fold replays it into interval samples and every-k traced events.
These tests pin that output byte for byte and check that observing or
auditing a ``vector`` run keeps it on the batched path.

``PINNED`` holds sha256 digests of the ``sim.server_load_mbps``,
``sim.server_streams`` and ``sim.rates`` series rows plus every tracer
event except ``wall_sec``, taken from the in-loop sampler the rebuild
replaced; the rebuild must reproduce them exactly.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.cluster_sim import VectorClusterSimulator, VoDClusterSimulator
from repro.experiments import PAPER_COMBOS, PaperSetup, build_layout
from repro.observe import Observer, ObserverConfig
from repro.verify import run_audited, standard_auditors
from repro.verify.scenarios import build_des
from repro.workload import WorkloadGenerator

from test_verify_auditors import des_params

_SERIES = ("sim.server_load_mbps", "sim.server_streams", "sim.rates")


def observation_digest(observer: Observer) -> str:
    """sha256 of the observer's series rows and events, minus wall time."""
    series = observer.registry.series
    payload = {name: [list(row) for row in series[name].rows] for name in _SERIES}
    payload["events"] = [
        {key: value for key, value in event.items() if key != "wall_sec"}
        for event in observer.tracer.events
    ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _paper_inputs():
    """``tests/test_observe.py``'s ``_run_pair`` system and trace."""
    setup = PaperSetup().scaled_down(num_videos=30, num_servers=4, num_runs=2)
    layout = build_layout(setup, PAPER_COMBOS[0], 0.75, 1.2)
    generator = WorkloadGenerator.poisson_zipf(setup.popularity(0.75), 12.0)
    trace = generator.generate(setup.peak_minutes, np.random.default_rng(11))
    args = (setup.cluster(1.2), setup.videos(), layout)
    return args, trace, dict(horizon_min=setup.peak_minutes)


#: ``_run_pair`` observer configs (None: the default config).
_PAIR_CONFIGS = {
    "pair_sample1_trace1": ObserverConfig(
        sample_interval_min=1.0, trace_events=True, trace_event_every=1
    ),
    "pair_default": None,
    "pair_sample5": ObserverConfig(sample_interval_min=5.0),
    "pair_trace1": ObserverConfig(
        sample_interval_min=0.0, trace_events=True, trace_event_every=1
    ),
    "pair_nothing": ObserverConfig(sample_interval_min=0.0),
    "pair_sample5_trace10": ObserverConfig(
        sample_interval_min=5.0, trace_events=True, trace_event_every=10
    ),
}

#: ``build_des`` scenarios: (overrides, sample interval, trace stride).
#: The first two are ``TestAuditedRunObserved``'s; the rest cover
#: failover retries, re-replication, stream caps, watch times, a cut
#: horizon, correlated crashes and a crash at the horizon.
_DES_SCENARIOS = {
    "audited_plain": ({}, 2.5, 3),
    "audited_chaos_failover_backbone": (
        dict(
            failures=True,
            failover_on_down=True,
            redirection=True,
            bandwidth_mbps=200.0,
        ),
        2.5,
        3,
    ),
    "chaos_retry_rereplication": (
        dict(
            failures=True,
            failover_retry=True,
            retry_saturated=True,
            max_retries=2,
            backoff_frac=0.02,
            rereplication=True,
            redirection=True,
            dispatcher="static_rr",
            bandwidth_mbps=160.0,
            rate_per_min=25.0,
            mtbf_frac=0.3,
        ),
        1.7,
        2,
    ),
    "limits_watch_truncated": (
        dict(
            stream_limits=True,
            watch_time=True,
            horizon_frac=0.6,
            dispatcher="first_fit",
            bandwidth_mbps=160.0,
            rate_per_min=25.0,
        ),
        3.0,
        1,
    ),
    "static_rr_saturated": (
        dict(
            dispatcher="static_rr",
            watch_time=True,
            bandwidth_mbps=120.0,
            rate_per_min=30.0,
        ),
        0.5,
        5,
    ),
    "correlated_crash_at_horizon": (
        dict(
            failures=True,
            correlated_failures=True,
            failure_at_horizon=True,
            failover_on_down=True,
            redirection=True,
            dispatcher="static_rr",
            bandwidth_mbps=160.0,
            rate_per_min=25.0,
        ),
        2.0,
        1,
    ),
}

PINNED = {
    "pair_sample1_trace1": "f6dc5cca6a7074c63c30d742b93fd76f489b32c2e2295ef066e039fc5cc9191c",
    "pair_default": "a389918fe111a2aa894e1de31a70772c6c14778a04517452c850ecd3010779ac",
    "pair_sample5": "f3c34c1de43cf25b9447ff4896bb84da866929fd96b15817e976280e0103d534",
    "pair_trace1": "60c10fe57bc4369fed360fa979c6153ef7339283d95f4e4c6264c2f1cb5216aa",
    "pair_nothing": "f2a0736b2149de78e846cfb39191c3d1b25c699589cf693dd20a6eb782a29c20",
    "pair_sample5_trace10": "41ba0c5096ff8cbf9d38257208f8f120e1da35afcfb62aa148c90362cb538d54",
    "audited_plain": "cec0dbd4d6ed100af823fbff85688cdaf42e80ceba9e5bcc782a2d2680de0814",
    "audited_chaos_failover_backbone": "0cb6180b43801875598441f2ade7487e118911598379f511987c00b1f24961f2",
    "chaos_retry_rereplication": "2f2b261e3431f0d13fb53ab33c77cadb3b78084034e7df9877f385fd2aa85ddb",
    "limits_watch_truncated": "09d3d21e1f3cd8c96db6b41e25a8b89620b5d36f3fde513deeab29f0024b845d",
    "static_rr_saturated": "0c7f90993df02e6bd43ae271be979636721b01a35c8dd5e4ac789dfb2913dc4a",
    "correlated_crash_at_horizon": "9a2c3cd30a7b078f30427fe4fdea7c3dae3dea797b2428c44829dee92c106297",
}


def observe_pair_scenario(name: str, simulator_class=VoDClusterSimulator):
    args, trace, run_kwargs = _paper_inputs()
    observer = Observer(_PAIR_CONFIGS[name])
    result = simulator_class(*args).run(trace, observer=observer, **run_kwargs)
    return result, observer


def observe_des_scenario(name: str, *, auditors=None):
    overrides, interval, every = _DES_SCENARIOS[name]
    simulator, _, trace, run_kwargs = build_des(des_params(**overrides))
    observer = Observer(
        ObserverConfig(
            sample_interval_min=interval,
            trace_events=True,
            trace_event_every=every,
        )
    )
    result = simulator.run(
        trace, auditors=auditors, observer=observer, **run_kwargs
    )
    return result, observer


def _as_vector(simulator) -> VectorClusterSimulator:
    """The same system on the ``vector`` engine."""
    return VectorClusterSimulator(
        simulator._cluster,
        simulator._videos,
        simulator._layout,
        dispatcher_factory=simulator._dispatcher_factory,
        backbone_mbps=simulator._backbone_mbps,
        stream_limits=simulator._stream_limits,
    )


def _rows_and_events(observer: Observer):
    series = observer.registry.series
    events = [
        {key: value for key, value in event.items() if key != "wall_sec"}
        for event in observer.tracer.events
    ]
    return [series[name].rows for name in _SERIES], events


class TestPinnedDigests:
    @pytest.mark.parametrize("name", sorted(_PAIR_CONFIGS))
    def test_pair_scenario(self, name):
        _, observer = observe_pair_scenario(name)
        assert observation_digest(observer) == PINNED[name]

    @pytest.mark.parametrize("name", sorted(_DES_SCENARIOS))
    def test_des_scenario(self, name):
        _, observer = observe_des_scenario(name)
        assert observation_digest(observer) == PINNED[name]

    @pytest.mark.parametrize(
        "name", ["audited_plain", "audited_chaos_failover_backbone"]
    )
    def test_audited_des_scenario(self, name):
        result, observer = observe_des_scenario(
            name, auditors=standard_auditors()
        )
        assert result.engine_path == "audited"
        assert observation_digest(observer) == PINNED[name]


class TestVectorObserved:
    """Observing a ``vector`` run keeps it on the batched path."""

    @pytest.mark.parametrize("name", sorted(_PAIR_CONFIGS))
    def test_matches_optimized_observation(self, name):
        optimized, optimized_observer = observe_pair_scenario(name)
        vector, vector_observer = observe_pair_scenario(
            name, VectorClusterSimulator
        )
        assert vector.engine_path == "vector"
        assert vector.handoff_reason is None
        assert vector.same_outcome(optimized)
        assert _rows_and_events(vector_observer) == _rows_and_events(
            optimized_observer
        )
        assert observation_digest(vector_observer) == PINNED[name]

    def test_scalar_fallback_servers_observed_exactly(self):
        overrides, interval, every = _DES_SCENARIOS["static_rr_saturated"]
        simulator, _, trace, run_kwargs = build_des(des_params(**overrides))
        observer = Observer(
            ObserverConfig(
                sample_interval_min=interval,
                trace_events=True,
                trace_event_every=every,
            )
        )
        result = _as_vector(simulator).run(
            trace, observer=observer, **run_kwargs
        )
        assert result.engine_path == "vector"
        assert result.vector_fallbacks > 0, "scenario must take the fallback"
        assert observation_digest(observer) == PINNED["static_rr_saturated"]

    def test_unobserved_and_observed_agree(self):
        args, trace, run_kwargs = _paper_inputs()
        simulator = VectorClusterSimulator(*args)
        plain = simulator.run(trace, **run_kwargs)
        observed = simulator.run(
            trace, observer=Observer(ObserverConfig()), **run_kwargs
        )
        assert plain.same_outcome(observed)
        assert (plain.engine_path, plain.handoff_reason) == (
            observed.engine_path,
            observed.handoff_reason,
        )


class TestVectorAudited:
    """Auditing a ``vector`` run checks the batched path itself."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(dispatcher="static_rr"),
            dict(
                dispatcher="static_rr",
                watch_time=True,
                bandwidth_mbps=120.0,
                rate_per_min=30.0,
            ),
            dict(
                dispatcher="static_rr",
                stream_limits=True,
                horizon_frac=0.6,
                bandwidth_mbps=100.0,
                rate_per_min=40.0,
            ),
        ],
    )
    def test_report_counts_match_audited_engine(self, overrides):
        simulator, _, trace, run_kwargs = build_des(des_params(**overrides))
        kernel, kernel_report = run_audited(simulator, trace, **run_kwargs)
        vector, vector_report = run_audited(
            _as_vector(simulator), trace, **run_kwargs
        )
        assert kernel.engine_path == "audited"
        assert vector.engine_path == "vector"
        assert vector.same_outcome(kernel)
        assert vector_report.ok and kernel_report.ok
        counts = (
            "events_audited", "checks", "admitted", "rejected", "departed",
            "dropped", "active_end",
        )
        for field in counts:
            assert getattr(vector_report, field) == getattr(
                kernel_report, field
            ), field

    def test_run_auditors_keeps_vector_path(self):
        args, trace, run_kwargs = _paper_inputs()
        result = VectorClusterSimulator(*args).run(
            trace, auditors=standard_auditors(), **run_kwargs
        )
        assert result.engine_path == "vector"
        assert result.handoff_reason is None

    def test_broken_batched_peak_is_caught(self, monkeypatch):
        # A batched replay that under-reports a server's peak must fail
        # the audit's independent occupancy rebuild.
        solve_server = VectorClusterSimulator._solve_server

        def broken(self, *args):
            outcome = solve_server(self, *args)
            if outcome is None:
                return None
            return outcome._replace(peak=outcome.peak * 0.5)

        monkeypatch.setattr(VectorClusterSimulator, "_solve_server", broken)
        args, trace, run_kwargs = _paper_inputs()
        _, report = run_audited(
            VectorClusterSimulator(*args), trace, **run_kwargs
        )
        assert not report.ok
        assert "accounting" in {v.check for v in report.violations}


def compute_digests() -> dict:
    """Every scenario's digest (how ``PINNED`` was produced)."""
    digests = {}
    for name in _PAIR_CONFIGS:
        digests[name] = observation_digest(observe_pair_scenario(name)[1])
    for name in _DES_SCENARIOS:
        digests[name] = observation_digest(observe_des_scenario(name)[1])
    return digests


if __name__ == "__main__":  # pragma: no cover - regenerates PINNED
    for key, value in compute_digests().items():
        print(f"    {key!r}: {value!r},")
