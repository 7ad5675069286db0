"""Shared experiment plumbing: algorithm combos, layout building, sweeps.

The paper evaluates four algorithm combinations (Sec. 5.2): {Zipf,
classification} replication x {smallest-load-first, round-robin} placement.
``PAPER_COMBOS`` enumerates them with the paper's labels; ``build_layout``
and ``simulate_combo`` turn a design point (theta, replication degree,
arrival rate) into averaged simulation results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.stats import Summary, summarize
from ..cluster_sim.engines import DEFAULT_ENGINE
from ..cluster_sim.metrics import SimulationResult
from ..model.layout import ReplicaLayout
from ..placement import RoundRobinPlacer, SmallestLoadFirstPlacer
from ..placement.base import Placer
from ..replication import (
    AdamsReplicator,
    ClassificationReplicator,
    ZipfIntervalReplicator,
)
from ..replication.base import Replicator
from ..runtime import get_runner
from .config import PaperSetup

__all__ = [
    "AlgorithmCombo",
    "PAPER_COMBOS",
    "build_layout",
    "simulate_combo",
    "workload_seed",
    "rejection_summary",
    "imbalance_percent_summary",
]


def workload_seed(
    setup_seed: int, arrival_rate_per_min: float, theta: float, seed_salt: int = 0
) -> int:
    """The canonical workload seed for one design point.

    Derived from the setup seed, the arrival rate, theta and a salt only —
    *never* from the algorithm combo — so competing algorithms face
    identical request traces (paired comparison, lower variance).  Both
    :func:`simulate_combo` and :func:`repro.pipeline.solve` derive their
    traces through this function, which is what makes the facade reproduce
    experiment numbers bit-identically.
    """
    return hash(
        (setup_seed, round(float(arrival_rate_per_min) * 1000), round(theta * 1000), seed_salt)
    ) & 0x7FFFFFFF


@dataclass(frozen=True)
class AlgorithmCombo:
    """A replication algorithm paired with a placement algorithm."""

    label: str
    replicator: Replicator
    placer: Placer

    def __str__(self) -> str:
        return self.label


def _combo(label: str, replicator: Replicator, placer: Placer) -> AlgorithmCombo:
    return AlgorithmCombo(label=label, replicator=replicator, placer=placer)


#: The four combinations of the paper's Figures 5-6 (labels as plotted).
PAPER_COMBOS: tuple[AlgorithmCombo, ...] = (
    _combo("zipf+slf", ZipfIntervalReplicator(), SmallestLoadFirstPlacer()),
    _combo("zipf+rr", ZipfIntervalReplicator(), RoundRobinPlacer()),
    _combo("class+slf", ClassificationReplicator(), SmallestLoadFirstPlacer()),
    _combo("class+rr", ClassificationReplicator(), RoundRobinPlacer()),
)

#: The optimal-replication reference (Sec. 4.1.1), used by E4.
ADAMS_SLF = _combo("adams+slf", AdamsReplicator(), SmallestLoadFirstPlacer())


def build_layout(
    setup: PaperSetup,
    combo: AlgorithmCombo,
    theta: float,
    degree: float,
) -> ReplicaLayout:
    """Replicate + place at one design point, returning the layout."""
    popularity = setup.popularity(theta)
    budget = setup.replica_budget(degree)
    capacity = setup.capacity_replicas(degree)
    replication = combo.replicator.replicate(
        popularity.probabilities, setup.num_servers, budget
    )
    return combo.placer.place(
        replication, capacity, bit_rate_mbps=setup.bit_rate_mbps
    )


def simulate_combo(
    setup: PaperSetup,
    combo: AlgorithmCombo,
    theta: float,
    degree: float,
    arrival_rate_per_min: float,
    *,
    num_runs: int | None = None,
    dispatcher: str = "static_rr",
    backbone_mbps: float = 0.0,
    layout: ReplicaLayout | None = None,
    seed_salt: int = 0,
    engine: str = DEFAULT_ENGINE,
) -> list[SimulationResult]:
    """Run ``num_runs`` independent peak-period simulations of one point.

    A thin adapter over :func:`repro.pipeline.solve`: the combo's layout
    is built from its replicator/placer *instances* (so custom-configured
    combos keep their configuration) and handed to the facade as a
    ``layout=`` override, together with a :class:`repro.PipelineConfig`
    carrying the design point.  The facade derives the workload seed
    through :func:`workload_seed` — identical to the historical inline
    path — so results stay bit-identical across the migration.

    Execution goes through the active :class:`repro.runtime.ParallelRunner`
    (serial and uncached by default): trials fan out over its worker pool
    and may be answered from its result cache, bit-identically either way.
    """
    # Lazy import: repro.pipeline imports this module (workload_seed).
    from ..pipeline import PLACERS, REPLICATORS, PipelineConfig, solve

    if layout is None:
        layout = build_layout(setup, combo, theta, degree)
    replicator_names = {cls: name for name, cls in REPLICATORS.items()}
    placer_names = {cls: name for name, cls in PLACERS.items()}
    config = PipelineConfig(
        setup=setup,
        theta=theta,
        replication_degree=degree,
        arrival_rate_per_min=arrival_rate_per_min,
        num_runs=num_runs,
        # Labels only — the pre-built layout above is what gets simulated.
        replicator=replicator_names.get(type(combo.replicator), "zipf"),
        placer=placer_names.get(type(combo.placer), "slf"),
        dispatcher=dispatcher,
        backbone_mbps=backbone_mbps,
        engine=engine,
        seed_salt=seed_salt,
    )
    return solve(config, runner=get_runner(), layout=layout).results


def rejection_summary(results: list[SimulationResult]) -> Summary:
    """Mean/CI of the rejection rate over runs."""
    return summarize([r.rejection_rate for r in results])


def imbalance_percent_summary(results: list[SimulationResult]) -> Summary:
    """Mean/CI of the Figure 6 ``L(%)`` over runs."""
    return summarize([r.load_imbalance_percent() for r in results])


def rejection_curve(
    setup: PaperSetup,
    combo: AlgorithmCombo,
    theta: float,
    degree: float,
    *,
    num_runs: int | None = None,
    dispatcher: str = "static_rr",
) -> np.ndarray:
    """Mean rejection rate at every arrival rate of the setup's sweep."""
    layout = build_layout(setup, combo, theta, degree)
    return np.array(
        [
            rejection_summary(
                simulate_combo(
                    setup,
                    combo,
                    theta,
                    degree,
                    rate,
                    num_runs=num_runs,
                    dispatcher=dispatcher,
                    layout=layout,
                )
            ).mean
            for rate in setup.arrival_rates_per_min
        ]
    )


__all__.append("rejection_curve")
__all__.append("ADAMS_SLF")
