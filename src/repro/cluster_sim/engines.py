"""Lockstep engine registry: one name per simulation loop.

All engines consume the same constructor arguments and produce
``same_outcome``-identical :class:`~repro.cluster_sim.metrics.SimulationResult`
fields; they differ only in *how* the event loop executes:

``vector``
    Numpy event-batch execution over the SoA columns
    (:class:`~repro.cluster_sim.vector.VectorClusterSimulator`) — the
    default (:data:`DEFAULT_ENGINE`).  Batched on the paper's base model
    (static round robin, no chaos, no backbone); everywhere else it hands
    the run to ``optimized`` and says why in the result's
    ``handoff_reason``.
``optimized``
    The tuple-heap event loop (:class:`VoDClusterSimulator`): the
    ``vector`` engine's delegate, and the explicit scalar loop.
``reference``
    The readable method-per-event loop (:class:`ReferenceClusterSimulator`)
    retained as the differential-testing oracle.
``audited``
    The optimized loop with the standard in-situ invariant auditors
    armed; raises on the first violation.

The registry is the single source of truth for ``engine=`` knobs in
:class:`repro.pipeline.PipelineConfig`, the serving plane, the fuzzer
and the CLI.
"""

from __future__ import annotations

from typing import Any

from .reference import ReferenceClusterSimulator
from .simulator import VoDClusterSimulator
from .vector import VectorClusterSimulator

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "engine_run_kwargs",
    "make_simulator",
    "validate_engine",
]

#: The engine every ``engine=`` knob and the CLI ``--engine`` flag default
#: to.  All engines are ``same_outcome``-identical, so this only picks speed.
DEFAULT_ENGINE = "vector"

#: Engine name -> simulator class.  ``audited`` reuses the optimized
#: class; its auditors are armed per ``run()`` call via
#: :func:`engine_run_kwargs`.
ENGINES: dict[str, type[VoDClusterSimulator]] = {
    "optimized": VoDClusterSimulator,
    "vector": VectorClusterSimulator,
    "reference": ReferenceClusterSimulator,
    "audited": VoDClusterSimulator,
}


def validate_engine(name: str) -> str:
    """Return ``name`` if it is a registered engine, else raise."""
    if name not in ENGINES:
        known = ", ".join(sorted(ENGINES))
        raise ValueError(f"unknown engine {name!r}; expected one of: {known}")
    return name


def make_simulator(engine: str, *args: Any, **kwargs: Any):
    """Construct the simulator class registered under ``engine``."""
    return ENGINES[validate_engine(engine)](*args, **kwargs)


def engine_run_kwargs(engine: str) -> dict[str, Any]:
    """Extra ``run()`` kwargs the engine needs (auditor arming)."""
    validate_engine(engine)
    if engine == "audited":
        from ..verify import standard_auditors

        return {"auditors": standard_auditors()}
    return {}
