"""Wait-queue admission — requests queue briefly instead of rejecting.

The paper's admission control rejects instantly when the dispatched server
is saturated.  A common softer policy lets the request *wait* for a slot up
to a patience bound: if a stream ends in time, the viewer starts late; if
not, the viewer defects (which is what the rejection rate then counts).
With the paper's 90-minute videos a single departure wave can absorb a
burst, so even one or two minutes of patience shaves the variance-driven
rejections of Sec. 5.3.

Policy details:

* An arrival is admitted immediately if any dispatched candidate has room
  (same policies as the unicast simulator).
* Otherwise it joins a FIFO wait queue and defects after ``patience_min``;
  a slot freed exactly at the deadline still saves it.
* Every departure triggers a queue scan: each waiting request, oldest
  first, starts on the least-utilized replica holder of its video with
  room, if any (waiting defeats static dispatch on purpose — a waiting
  viewer takes any replica).  Requests still waiting at the horizon
  count as defected.

How it runs: one unicast-kernel run (:class:`VoDClusterSimulator`) with
its private wait list armed; the kernel schedules patience expiries on
its event heap and scans the queue after every departure it applies.

Metrics extend :class:`SimulationResult` with defection counts and the
mean/max start delay of queued-then-served viewers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_non_negative
from ..model.cluster import ClusterSpec
from ..model.layout import ReplicaLayout
from ..model.video import VideoCollection
from ..workload.requests import RequestTrace
from .dispatch import StaticRoundRobinDispatcher
from .metrics import SimulationResult
from .simulator import VoDClusterSimulator, WaitList

__all__ = ["QueueingResult", "QueueingClusterSimulator"]


@dataclass(frozen=True)
class QueueingResult:
    """A :class:`SimulationResult` plus wait-queue metrics.

    ``base.num_rejected`` counts defections (patience expiries).
    """

    base: SimulationResult
    num_queued: int
    num_queued_served: int
    mean_wait_min: float
    max_wait_min: float

    @property
    def rejection_rate(self) -> float:
        return self.base.rejection_rate

    @property
    def num_defected(self) -> int:
        return self.base.num_rejected

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueueingResult(rejection={self.rejection_rate:.3f}, "
            f"queued={self.num_queued}, wait={self.mean_wait_min:.2f}min)"
        )


class QueueingClusterSimulator:
    """Cluster simulator with a bounded-patience wait queue."""

    def __init__(
        self,
        cluster: ClusterSpec,
        videos: VideoCollection,
        layout: ReplicaLayout,
        *,
        patience_min: float = 2.0,
        dispatcher_factory=StaticRoundRobinDispatcher,
        validate_layout: bool = True,
    ) -> None:
        check_non_negative("patience_min", patience_min)
        self._kernel = VoDClusterSimulator(
            cluster,
            videos,
            layout,
            dispatcher_factory=dispatcher_factory,
            validate_layout=validate_layout,
        )
        self._patience = float(patience_min)

    # ------------------------------------------------------------------
    def run(
        self,
        trace: RequestTrace,
        *,
        horizon_min: float | None = None,
    ) -> QueueingResult:
        """Simulate one trace with the wait-queue admission policy."""
        if trace.watch_min is not None:
            raise ValueError(
                "the wait-queue simulator models full-duration sessions; "
                "strip the trace's watch times first"
            )
        wait_list = WaitList(self._patience)
        base = self._kernel._simulate(  # patience 0: a plain kernel run
            trace,
            horizon_min=horizon_min,
            wait_list=wait_list if self._patience > 0.0 else None,
        )
        waits = wait_list.waits
        return QueueingResult(
            base=base,
            num_queued=wait_list.num_queued,
            num_queued_served=len(waits),
            mean_wait_min=float(np.mean(waits)) if waits else 0.0,
            max_wait_min=float(np.max(waits)) if waits else 0.0,
        )
