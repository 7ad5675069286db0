"""The per-layout replica-holder table and its sharing across runs.

``ReplicaLayout.holder_table`` replaces the per-dispatcher, per-run
``servers_of`` scan: one ``nonzero`` pass per layout, read by every
dispatcher and by the vector engine.  These tests pin it to the scan it
replaced (random layouts, including videos with no replica, and every
pinned corpus layout) and check that a figure sweep builds each layout's
table exactly once.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster_sim import (
    LeastLoadedDispatcher,
    StaticRoundRobinDispatcher,
)
from repro.model import layout as layout_module
from repro.model.layout import ReplicaLayout
from repro.verify import load_corpus
from repro.verify.scenarios import build_des

CORPUS_DIR = Path(__file__).parent / "corpus"
DES_CORPUS = [
    (path, case) for path, case in load_corpus(CORPUS_DIR) if case.kind == "des"
]


def _assert_table_matches_scan(layout: ReplicaLayout) -> None:
    table = layout.holder_table
    assert len(table.holders) == layout.num_videos
    for video in range(layout.num_videos):
        expected = tuple(int(s) for s in layout.servers_of(video))
        got = table.holders[video]
        assert got == expected, video
        assert all(type(s) is int for s in got)
        start, count = int(table.offsets[video]), int(table.counts[video])
        assert count == len(expected)
        assert tuple(table.flat[start : start + count].tolist()) == expected
    assert int(table.counts.sum()) == table.flat.size == layout.total_replicas
    for array in (table.flat, table.offsets, table.counts):
        assert array.dtype == np.int64
        assert not array.flags.writeable


@st.composite
def layouts(draw):
    """Random mixed-rate layouts; some videos (even all) hold no replica."""
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, 9))
    present = draw(
        st.lists(st.booleans(), min_size=m * n, max_size=m * n)
    )
    rates = draw(
        st.lists(
            st.sampled_from([0.5, 2.0, 4.0, 6.0]), min_size=m * n, max_size=m * n
        )
    )
    matrix = np.where(present, rates, 0.0).reshape(m, n)
    return ReplicaLayout(rate_matrix=matrix)


class TestHolderTable:
    @settings(max_examples=60, deadline=None)
    @given(layouts())
    def test_matches_servers_of_scan(self, layout):
        _assert_table_matches_scan(layout)

    @pytest.mark.parametrize(
        "path, case", DES_CORPUS, ids=[path.stem for path, _ in DES_CORPUS]
    )
    def test_matches_scan_on_corpus_layouts(self, path, case):
        optimized, _, _, _ = build_des(case.params)
        _assert_table_matches_scan(optimized.layout)

    def test_empty_layout(self):
        table = ReplicaLayout.empty(5, 3).holder_table
        assert table.holders == ((),) * 5
        assert table.flat.size == 0
        assert table.counts.tolist() == [0] * 5
        assert table.offsets.tolist() == [0] * 5

    def test_built_once_and_shared_by_dispatchers(self):
        layout = ReplicaLayout.from_assignment([[0, 2], [1], []], 3)
        table = layout.holder_table
        assert layout.holder_table is table
        for cls in (StaticRoundRobinDispatcher, LeastLoadedDispatcher):
            dispatcher = cls(layout)
            assert dispatcher.holders(0) is table.holders[0]
        assert StaticRoundRobinDispatcher(layout).holders(2) == ()


def test_fig4_sweep_builds_each_layout_table_once(monkeypatch):
    """Every trial of one figure curve shares its layout's table."""
    from dataclasses import replace

    from repro.experiments import PaperSetup
    from repro.experiments.fig4 import run_fig4
    from repro.runtime import ParallelRunner, use_runner
    from repro.runtime import trial as runtime_trial

    builds = []
    original = layout_module._build_holder_table

    def counting(rate_matrix):
        builds.append(rate_matrix.shape)
        return original(rate_matrix)

    monkeypatch.setattr(layout_module, "_build_holder_table", counting)
    monkeypatch.setattr(runtime_trial, "_SIM_MEMO", {})
    setup = replace(
        PaperSetup().scaled_down(num_videos=24, num_servers=4, num_runs=2),
        replication_degrees=(1.0, 1.5),
        arrival_rates_per_min=(5.0, 10.0, 15.0),
    )
    runner = ParallelRunner(1)
    with use_runner(runner):
        run_fig4(setup)
    # Four subplots x two degrees = eight curves; each curve is one layout
    # simulated at three rates x two runs = six trials.
    assert runner.report.num_simulated == 48
    assert builds == [(24, 4)] * 8
