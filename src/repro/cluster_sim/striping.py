"""Wide-striping (shared-storage) cluster model — the paper's contrast.

The paper's introduction contrasts two VoD cluster architectures: shared
storage with *wide data striping* (every video striped over all disks:
perfect load balance, but "high scheduling and extension overhead" and a
failure affects everything) versus the distributed-storage *replication*
design the paper optimizes.  This module provides the striping side of that
comparison so the argument can be measured rather than asserted.

Model (documented synthetic stand-in for a RAID/Tiger-style striped
server, per DESIGN.md's substitution rules):

* Every video is striped across all ``N`` servers, so a stream at rate
  ``b`` draws ``b / N`` from every server simultaneously — the cluster
  behaves as a single pooled link of ``N * B``.
* Striping coordination costs bandwidth: each stream's effective drain is
  inflated by ``1 + overhead_per_server * (N - 1)`` (per-block scheduling,
  synchronization and buffer coupling grow with the stripe width).  With
  ``overhead_per_server = 0`` striping is a perfect pooled link — the
  upper bound replication can only approach.
* Storage is a single shared pool holding exactly one copy of each video.
* A *single* server/disk failure interrupts every stream (all content is
  striped over the failed member) until recovery; replication clusters
  degrade only by one server's worth.

The simulator mirrors :class:`VoDClusterSimulator`'s interface (trace in,
:class:`SimulationResult` out) so the two architectures drop into the same
experiment harness.

How it runs: the striped cluster is one pooled server of ``N * B`` holding
every video at its inflated drain rate, simulated by the unicast kernel
(:class:`VoDClusterSimulator`).  Member outages starting inside the horizon
map onto that server; outages that strictly overlap merge into one, while
outages that merely touch stay separate (the kernel processes RECOVERY
before FAILURE at one instant, as the members do).
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .._validation import check_non_negative, check_positive
from ..model.cluster import ClusterSpec, ServerSpec
from ..model.layout import ReplicaLayout
from ..model.video import VideoCollection
from ..workload.requests import RequestTrace
from .failures import FailureSchedule
from .metrics import SimulationResult
from .simulator import VoDClusterSimulator

__all__ = ["StripedClusterSimulator"]


class _PooledOutage(NamedTuple):
    """Merged member outages; keeps the last repair instant verbatim."""

    time_min: float
    server: int
    recovery_min: float


class StripedClusterSimulator:
    """Simulates a wide-striping shared-storage VoD cluster.

    Parameters
    ----------
    cluster:
        Server capacities; striping requires a homogeneous cluster.
    videos:
        The video set (durations and bit rates; one striped copy of each).
    overhead_per_server:
        Fractional per-stream bandwidth inflation per additional stripe
        member (e.g. ``0.01`` = 1% coordination cost per extra server).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        videos: VideoCollection,
        *,
        overhead_per_server: float = 0.01,
    ) -> None:
        check_non_negative("overhead_per_server", overhead_per_server)
        spec = cluster.require_homogeneous()
        total_storage = cluster.total_storage_gb
        needed = float(videos.storage_gb.sum())
        if needed > total_storage + 1e-9:
            raise ValueError(
                f"videos need {needed:.1f} GB but the shared pool has "
                f"{total_storage:.1f} GB"
            )
        self._cluster = cluster
        self._num_servers = cluster.num_servers
        self._overhead = float(overhead_per_server)
        self._inflation = 1.0 + self._overhead * (self._num_servers - 1)
        self._pool_mbps = spec.bandwidth_mbps * self._num_servers
        # The shared pool was checked above, so the kernel skips layout checks.
        self._kernel = VoDClusterSimulator(
            ClusterSpec([ServerSpec(total_storage, self._pool_mbps)]),
            videos,
            ReplicaLayout(
                rate_matrix=(videos.bit_rates_mbps * self._inflation)[:, None]
            ),
            validate_layout=False,
        )

    # ------------------------------------------------------------------
    @property
    def effective_capacity_mbps(self) -> float:
        """Pooled bandwidth divided by the striping inflation factor."""
        return self._pool_mbps / self._inflation

    def effective_stream_capacity(self, bit_rate_mbps: float) -> int:
        """Concurrent streams the striped cluster sustains at one rate."""
        check_positive("bit_rate_mbps", bit_rate_mbps)
        return int(self.effective_capacity_mbps / bit_rate_mbps + 1e-9)

    # ------------------------------------------------------------------
    def run(
        self,
        trace: RequestTrace,
        *,
        horizon_min: float | None = None,
        failures: FailureSchedule | None = None,
    ) -> SimulationResult:
        """Simulate one trace on the striped cluster.

        Any failure event interrupts *all* active streams (every video is
        striped over the failed member) and blocks admissions until the
        member recovers.
        """
        if horizon_min is None:
            horizon_min = trace.duration_min if trace.num_requests else 1.0
        check_positive("horizon_min", horizon_min)

        if failures is not None:
            failures.validate_servers(self._num_servers)
        # Strict <: a failure at exactly the horizon is a no-op, as in the
        # kernel; later repairs are outside the measurement.
        members = [f for f in failures or () if f.time_min < horizon_min]
        repairs = [f.down_min for f in members if f.recovery_min <= horizon_min]
        spans: list[list[float]] = []
        for f in members:  # schedules are sorted by failure time
            if spans and f.time_min < spans[-1][1]:
                spans[-1][1] = max(spans[-1][1], f.recovery_min)
            else:
                spans.append([f.time_min, f.recovery_min])
        pooled = FailureSchedule(_PooledOutage(t, 0, end) for t, end in spans)

        run = self._kernel.run(trace, horizon_min=horizon_min, failures=pooled)

        # Striping spreads load perfectly: report equal per-server shares
        # of the *useful* (un-inflated) traffic, and the served streams
        # attributed evenly across stripe members.
        num_servers = self._num_servers
        avg_useful = run.server_time_avg_load_mbps[0] / self._inflation
        peak_useful = run.server_peak_load_mbps[0] / self._inflation
        served, extra = divmod(int(run.server_served[0]), num_servers)
        server_served = np.full(num_servers, served, dtype=np.int64)
        server_served[:extra] += 1
        return replace(
            run,
            server_time_avg_load_mbps=np.full(num_servers, avg_useful / num_servers),
            server_peak_load_mbps=np.full(num_servers, peak_useful / num_servers),
            server_served=server_served,
            server_bandwidth_mbps=self._cluster.bandwidth_mbps,
            num_failures=len(members),
            num_recoveries=len(repairs),
            mean_time_to_recovery_min=(
                sum(repairs) / len(repairs) if repairs else 0.0
            ),
            # Striping reports an outage's cost as dropped streams; its
            # rejections are not attributed to the failure.
            num_lost_to_failure=0,
            # Wide striping couples every server to every outage: the
            # whole cluster is down whenever any member is.
            server_downtime_min=np.full(num_servers, run.server_downtime_min[0]),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StripedClusterSimulator(N={self._num_servers}, "
            f"overhead={self._overhead}, "
            f"effective={self.effective_capacity_mbps:.0f} Mb/s)"
        )
