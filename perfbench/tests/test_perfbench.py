"""Tests of the benchmark itself, at smoke size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, tracing
from perfbench.metrics import END_TO_END, ENGINE_NAMES, PER_LAYER, units
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SEED = 20020818


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert spec["end_to_end"] == list(END_TO_END)
    assert spec["per_layer"] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    setup_bound = next(m["bound"] for m in END_TO_END if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in END_TO_END)


def test_engine_names_match_registry():
    from repro.cluster_sim import ENGINES

    assert tuple(ENGINES) == ENGINE_NAMES


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", str(SEED), "--seconds", "0",
        "--trace", trace, "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] >= 1
    expected = units(PER_LAYER if trace == "1" else END_TO_END)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    if trace == "0":
        assert all(m["value"] > 0 for m in line["metrics"].values())
        assert line["metrics"]["checks_passed_share"]["value"] == 1.0


def test_traced_and_untraced_digests_are_equal():
    for name, cls in WORKLOADS.items():
        workload = cls(SEED, smoke=True)
        untraced = workload.run_pass()
        traced, _, _, _ = run.traced_pass(workload)
        assert traced.digest == untraced.digest, name


def test_self_times_and_remainder_add_up_to_wall_time():
    for name, cls in WORKLOADS.items():
        _, _, tracer, layers = run.traced_pass(cls(SEED, smoke=True))
        self_total = sum(
            layers[f"{layer}.self_s"] for layer in tracing.LAYERS
        ) + layers["trace.unattributed_s"]
        assert self_total == pytest.approx(layers["trace.wall_s"], rel=1e-9), name
        assert all(layers[f"{layer}.self_s"] >= 0 for layer in tracing.LAYERS)
        # The simulator's event loop runs in every workload.
        assert layers["cluster_sim.run.self_s"] > 0, name
        assert layers["cluster_sim.events"] > 0, name
        assert tracer.spans[0][0] == tracing.ROOT


def test_instrument_restores_every_wrapped_call():
    from repro import pipeline
    from repro.cluster_sim.simulator import VoDClusterSimulator
    from repro.serving import plane

    before = (pipeline.solve, VoDClusterSimulator.run, plane.plan_migration)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert pipeline.solve is not before[0]
        assert plane.plan_migration is not before[2]
    assert (pipeline.solve, VoDClusterSimulator.run, plane.plan_migration) == before


def test_same_seed_reproduces_and_other_seed_changes_digest():
    for name, cls in WORKLOADS.items():
        first = cls(SEED, smoke=True).run_pass().digest
        again = cls(SEED, smoke=True).run_pass().digest
        other = cls(SEED + 1, smoke=True).run_pass().digest
        assert first == again, name
        assert other != first, name


def test_checks_catch_a_wrong_published_number():
    workload = WORKLOADS["paper-figures"](SEED, smoke=True)
    output = workload.run_pass()
    curves = output.payload["subplots"]["a"]["curves"]
    curves[1.2] = [value + 0.5 for value in curves[1.2]]
    tally = workload.check([output])
    assert tally.failed >= 1
    assert any("published" in message for message in tally.messages)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(
        "--workload", "paper-figures", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
