"""Simulation result container and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..model.objective import ImbalanceMetric, load_imbalance

__all__ = ["SimulationResult"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated peak period.

    Attributes
    ----------
    num_requests / num_rejected:
        Request and rejection totals; the paper's headline metric is the
        rejection rate.
    per_video_requests / per_video_rejected:
        Per-video breakdowns (length ``M``).
    server_time_avg_load_mbps:
        Time-averaged outgoing load of each server over the horizon — the
        ``l_k`` used for the Figure 6 load-imbalance curves.
    server_peak_load_mbps / server_served:
        Peak instantaneous load and number of admitted streams per server.
    num_redirected:
        Streams served through the backbone-redirection extension (0 when
        the extension is disabled).
    horizon_min:
        Measurement horizon (the peak-period length).
    num_truncated:
        Arrivals strictly after the horizon that were therefore not
        simulated; ``num_requests + num_truncated`` recovers the trace's
        request count.
    num_events:
        Events the simulator processed (arrivals, departures, failures,
        recoveries) — the throughput numerator of the run report.
    wall_time_sec:
        Wall-clock time of the simulation run.  Excluded from
        :meth:`same_outcome`: it varies run to run while every semantic
        field is deterministic.
    engine_path / handoff_reason / vector_fallbacks:
        Provenance of the run, not part of its outcome: the event loop
        that actually executed (``"vector"``, ``"optimized"``,
        ``"reference"`` or ``"audited"``); why the ``vector`` engine
        handed the run to another loop (``"auditors"``, ``"observer"``,
        ``"chaos"``, ``"backbone"`` or ``"dispatcher"``; ``None`` when it
        did not); and, on the ``vector`` path, how many servers took the
        exact scalar replay instead of the batched solve.  ``None`` means
        not recorded (e.g. a result-cache hit).  Excluded from
        :meth:`same_outcome`, like ``wall_time_sec``.
    """

    num_requests: int
    num_rejected: int
    per_video_requests: np.ndarray = field(repr=False)
    per_video_rejected: np.ndarray = field(repr=False)
    server_time_avg_load_mbps: np.ndarray = field(repr=False)
    server_peak_load_mbps: np.ndarray = field(repr=False)
    server_served: np.ndarray = field(repr=False)
    server_bandwidth_mbps: np.ndarray = field(repr=False)
    horizon_min: float = 90.0
    num_redirected: int = 0
    #: Streams killed mid-play by server failures (failure extension).
    streams_dropped: int = 0
    num_truncated: int = 0
    num_events: int = 0
    #: Availability accounting (chaos extension; all zero without
    #: failures, so failure-free results compare equal across versions).
    num_failures: int = 0
    num_recoveries: int = 0
    #: Failover retries scheduled (each backoff wait counts once).
    num_retries: int = 0
    #: Requests saved by a successful failover retry.
    num_failovers: int = 0
    #: Rejections attributable to a failure (some replica holder was down
    #: or its replica lost when the request finally gave up); a subset of
    #: ``num_rejected``.
    num_lost_to_failure: int = 0
    #: Replicas restored by repair-driven re-replication.
    num_rereplicated: int = 0
    #: Mean crash-to-repair time over completed recoveries (minutes).
    mean_time_to_recovery_min: float = 0.0
    #: Per-server minutes spent down within the horizon (zeros array when
    #: no failures occurred — never None, so equality stays structural).
    server_downtime_min: np.ndarray | None = field(default=None, repr=False)
    wall_time_sec: float = 0.0
    engine_path: str | None = None
    handoff_reason: str | None = None
    vector_fallbacks: int | None = None

    def __post_init__(self) -> None:
        if self.server_downtime_min is None:
            object.__setattr__(
                self,
                "server_downtime_min",
                np.zeros(self.server_time_avg_load_mbps.size),
            )
        if self.num_requests < 0 or self.num_rejected < 0:
            raise ValueError("request counts must be >= 0")
        if self.num_truncated < 0 or self.num_events < 0:
            raise ValueError("event counts must be >= 0")
        if min(
            self.num_failures,
            self.num_recoveries,
            self.num_retries,
            self.num_failovers,
            self.num_lost_to_failure,
            self.num_rereplicated,
        ) < 0:
            raise ValueError("availability counters must be >= 0")
        if self.num_recoveries > self.num_failures:
            raise ValueError("cannot recover more often than failing")
        if self.num_lost_to_failure > self.num_rejected:
            raise ValueError(
                "requests lost to failure exceed total rejections"
            )
        if self.num_rejected > self.num_requests:
            raise ValueError("cannot reject more requests than arrived")
        if int(self.per_video_requests.sum()) != self.num_requests:
            raise ValueError("per-video requests do not sum to the total")
        if int(self.per_video_rejected.sum()) != self.num_rejected:
            raise ValueError("per-video rejections do not sum to the total")
        if np.any(self.per_video_rejected > self.per_video_requests):
            raise ValueError("a video rejected more requests than it received")

    # ------------------------------------------------------------------
    @property
    def rejection_rate(self) -> float:
        """Fraction of requests rejected (0 when no requests arrived)."""
        if self.num_requests == 0:
            return 0.0
        return self.num_rejected / self.num_requests

    @property
    def num_servers(self) -> int:
        return int(self.server_time_avg_load_mbps.size)

    @property
    def num_served(self) -> int:
        return self.num_requests - self.num_rejected

    def load_imbalance(
        self,
        metric: ImbalanceMetric = ImbalanceMetric.MAX_DEVIATION,
        *,
        relative: bool = True,
    ) -> float:
        """Imbalance degree ``L`` of the time-averaged loads.

        ``relative=True`` (default) divides by the mean load; for the
        paper's Figure 6 scale use :meth:`load_imbalance_percent`.
        """
        return load_imbalance(
            self.server_time_avg_load_mbps, metric, relative=relative
        )

    def load_imbalance_percent(
        self, metric: ImbalanceMetric = ImbalanceMetric.MAX_DEVIATION
    ) -> float:
        """The paper's Figure 6 quantity: ``L`` as a % of server bandwidth.

        Absolute imbalance of the time-averaged loads divided by the mean
        server bandwidth.  This normalization reproduces the figure's shape
        (rising with arrival rate, peaking at 30-35 req/min, declining as
        the cluster saturates); normalizing by the mean *load* instead
        inflates the light-load end.
        """
        return (
            load_imbalance(self.server_time_avg_load_mbps, metric)
            / float(self.server_bandwidth_mbps.mean())
            * 100.0
        )

    def same_outcome(self, other: "SimulationResult") -> bool:
        """True when every deterministic field matches bit-for-bit.

        Wall-clock time and the engine provenance fields are the only
        fields allowed to differ: they describe how the run executed, not
        the simulated system.  This is the equality the
        parallel-vs-serial determinism guarantee is stated in.
        """
        scalars = (
            "num_requests",
            "num_rejected",
            "horizon_min",
            "num_redirected",
            "streams_dropped",
            "num_truncated",
            "num_events",
            "num_failures",
            "num_recoveries",
            "num_retries",
            "num_failovers",
            "num_lost_to_failure",
            "num_rereplicated",
            "mean_time_to_recovery_min",
        )
        arrays = (
            "per_video_requests",
            "per_video_rejected",
            "server_time_avg_load_mbps",
            "server_peak_load_mbps",
            "server_served",
            "server_bandwidth_mbps",
            "server_downtime_min",
        )
        return all(
            getattr(self, name) == getattr(other, name) for name in scalars
        ) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in arrays
        )

    def per_video_rejection_rate(self) -> np.ndarray:
        """Rejection rate per video (0 where a video got no requests)."""
        requests = np.maximum(self.per_video_requests, 1)
        return np.where(
            self.per_video_requests > 0,
            self.per_video_rejected / requests,
            0.0,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationResult(requests={self.num_requests}, "
            f"rejected={self.num_rejected} ({self.rejection_rate:.1%}), "
            f"L={self.load_imbalance():.3f})"
        )
