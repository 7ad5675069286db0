"""Multicast batching — the Sec. 2 bandwidth-reduction technique.

The paper's related work points at batching/multicasting (Aggarwal et al.'s
batching schemes, Eager et al.'s bandwidth-minimization survey) as the
complementary lever to replication: instead of one unicast stream per
viewer, requests for the same video arriving within a short *batching
window* share a single multicast stream, trading startup latency for
bandwidth.

Model: the first request for video ``v`` opens a batch and schedules it to
fire ``window_min`` later; requests for ``v`` arriving at or before the
fire join it for free.  At fire time one stream is dispatched for the whole
batch (same dispatch/admission rules as unicast); if no server can carry
it, the entire batch is rejected.  Batches still open at the horizon fire
there (their viewers arrived inside it).  ``window_min = 0`` degenerates to
the paper's unicast model (batches of size one fire instantly).

How it runs: batch membership depends only on arrival times, so batches
are formed up front and each becomes one full-duration stream request at
its fire time, run through the unicast kernel (:class:`VoDClusterSimulator`).
The kernel's per-arrival decision codes give each batch's verdict, which
is weighted by the batch's viewers.

Metrics extend :class:`SimulationResult` with the number of multicast
streams started, the mean startup wait and the *batching factor*
(viewers served per stream) — the capacity multiplier batching buys.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .._validation import check_non_negative, check_positive
from ..model.cluster import ClusterSpec
from ..model.layout import ReplicaLayout
from ..model.video import VideoCollection
from ..workload.requests import RequestTrace
from .dispatch import StaticRoundRobinDispatcher
from .log import AuditLog
from .metrics import SimulationResult
from .simulator import VoDClusterSimulator

__all__ = ["BatchingResult", "BatchingClusterSimulator"]


@dataclass(frozen=True)
class BatchingResult:
    """A :class:`SimulationResult` plus batching-specific metrics."""

    base: SimulationResult
    streams_started: int
    viewers_served: int
    mean_wait_min: float

    @property
    def batching_factor(self) -> float:
        """Viewers per multicast stream (1.0 = no sharing)."""
        if self.streams_started == 0:
            return 0.0
        return self.viewers_served / self.streams_started

    @property
    def rejection_rate(self) -> float:
        return self.base.rejection_rate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchingResult(rejection={self.rejection_rate:.3f}, "
            f"factor={self.batching_factor:.2f}, "
            f"wait={self.mean_wait_min:.2f}min)"
        )


class BatchingClusterSimulator:
    """Cluster simulator with batched multicast delivery.

    Mirrors :class:`VoDClusterSimulator`'s construction; failures and
    watch-time columns are not supported here (multicast viewers share one
    stream for the full duration).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        videos: VideoCollection,
        layout: ReplicaLayout,
        *,
        window_min: float = 2.0,
        dispatcher_factory=StaticRoundRobinDispatcher,
        validate_layout: bool = True,
    ) -> None:
        check_non_negative("window_min", window_min)
        self._kernel = VoDClusterSimulator(
            cluster,
            videos,
            layout,
            dispatcher_factory=dispatcher_factory,
            validate_layout=validate_layout,
        )
        self._window = float(window_min)
        self._unserved = layout.video_bit_rates <= 0.0

    # ------------------------------------------------------------------
    def run(
        self,
        trace: RequestTrace,
        *,
        horizon_min: float | None = None,
    ) -> BatchingResult:
        """Simulate one trace with batching and return extended metrics."""
        if horizon_min is None:
            horizon_min = trace.duration_min if trace.num_requests else 1.0
        check_positive("horizon_min", horizon_min)

        times = trace.arrival_min
        videos = trace.videos
        if times.size and int(videos.max()) >= self._unserved.size:
            raise ValueError("trace references a video outside the collection")
        cut = int(np.searchsorted(times, horizon_min, side="right"))

        per_video_requests = np.bincount(
            videos[:cut], minlength=self._unserved.size
        ).astype(np.int64)
        # A video with no replica anywhere rejects every request up front.
        per_video_rejected = np.where(self._unserved, per_video_requests, 0)
        # Batches in opening order: fire time, video, member arrival times.
        fires: list[float] = []
        batch_videos: list[int] = []
        members: list[list[float]] = []
        open_batch: dict[int, int] = {}
        unserved = self._unserved.tolist()
        for t, video in zip(times[:cut].tolist(), videos[:cut].tolist()):
            if unserved[video]:
                continue
            batch = open_batch.get(video)
            if batch is not None and t <= fires[batch]:
                members[batch].append(t)
            else:
                open_batch[video] = len(fires)
                fires.append(t + self._window)
                batch_videos.append(video)
                members.append([t])

        # One full-duration stream request per batch at its fire time,
        # clamped to the horizon.  Batches open in arrival order, so their
        # fire times are already non-decreasing, ties in opening order.
        fire_at = np.minimum(np.asarray(fires, dtype=np.float64), horizon_min)
        log = AuditLog()
        kernel = self._kernel._simulate(
            RequestTrace(fire_at, batch_videos), horizon_min=horizon_min, log=log
        )

        streams_started = 0
        viewers_served = 0
        total_wait = 0.0
        for decision, fire, video, viewers in zip(
            log.decisions, fire_at.tolist(), batch_videos, members
        ):
            if decision:
                streams_started += 1
                viewers_served += len(viewers)
                total_wait += sum(fire - arrival for arrival in viewers)
            else:
                per_video_rejected[video] += len(viewers)

        base = replace(
            kernel,
            num_requests=int(per_video_requests.sum()),
            num_rejected=int(per_video_rejected.sum()),
            per_video_requests=per_video_requests,
            per_video_rejected=per_video_rejected,
            num_truncated=int(times.size) - cut,
        )
        mean_wait = total_wait / viewers_served if viewers_served else 0.0
        return BatchingResult(
            base=base,
            streams_started=streams_started,
            viewers_served=viewers_served,
            mean_wait_min=mean_wait,
        )
