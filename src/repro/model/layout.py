"""Replica-layout solution representation.

A :class:`ReplicaLayout` answers, for every ``(video, server)`` pair, whether
a replica of the video is stored on that server and at which encoding bit
rate.  Because the representation is a matrix keyed by server, the paper's
constraint Eq. (6) — all replicas of a video on *distinct* servers — holds by
construction; the remaining constraints (Eq. 4, 5, 7) are checked by
:meth:`ReplicaLayout.validate`.

The layout also knows how to compute the per-replica communication weights
``w_i = p_i / r_i`` (Sec. 3.2) and the expected per-server load they induce
under the static round-robin dispatch assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .._validation import check_int_in_range, check_probability_vector
from .cluster import ClusterSpec
from .video import MEGABITS_PER_GB, VideoCollection

__all__ = ["ReplicaLayout", "LayoutViolation", "HolderTable"]


class LayoutViolation(ValueError):
    """Raised when a layout violates one of the paper's constraints."""


class HolderTable(NamedTuple):
    """Replica holders of every video, in the two shapes the engines use.

    ``holders[v]`` is the ascending tuple of plain-``int`` server ids
    holding video ``v`` (the per-request loops iterate these; numpy scalar
    boxing there would cost more than the admission check).  ``flat``,
    ``offsets`` and ``counts`` are the same lists flattened for batch
    indexing: video ``v``'s holders are
    ``flat[offsets[v] : offsets[v] + counts[v]]``.  All arrays are
    read-only ``int64``.
    """

    holders: tuple[tuple[int, ...], ...]
    flat: np.ndarray
    offsets: np.ndarray
    counts: np.ndarray


def _build_holder_table(rate_matrix: np.ndarray) -> HolderTable:
    """One ``nonzero`` pass over the layout (row-major, so each video's
    servers come out ascending)."""
    num_videos = rate_matrix.shape[0]
    videos, servers = np.nonzero(rate_matrix > 0)
    flat = servers.astype(np.int64)
    counts = np.bincount(videos, minlength=num_videos).astype(np.int64)
    offsets = np.zeros(num_videos, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    ids = flat.tolist()
    holders = tuple(
        tuple(ids[start:end])
        for start, end in zip(offsets.tolist(), (offsets + counts).tolist())
    )
    for array in (flat, offsets, counts):
        array.setflags(write=False)
    return HolderTable(holders, flat, offsets, counts)


@dataclass(frozen=True)
class ReplicaLayout:
    """Immutable assignment of video replicas (and bit rates) to servers.

    Parameters
    ----------
    rate_matrix:
        ``(M, N)`` array; ``rate_matrix[i, k]`` is the encoding bit rate
        (Mb/s) of video ``i``'s replica on server ``k``, or ``0.0`` when the
        server holds no replica of the video.

    Notes
    -----
    In the single-fixed-rate setting (Sec. 4.1) all non-zero entries share
    one value; the scalable-rate setting (Sec. 4.3) permits different rates
    per video.  The paper's model gives all replicas of one video the same
    rate ("all r_i replicas ... have the same encoding bit rate since they
    are replicated by the same video"); :meth:`validate` enforces that.
    """

    rate_matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.rate_matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"rate_matrix must be 2-D, got shape {matrix.shape}")
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ValueError("rate_matrix must have at least one video and server")
        if np.any(matrix < 0) or not np.all(np.isfinite(matrix)):
            raise ValueError("rate_matrix entries must be finite and >= 0")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "rate_matrix", matrix)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_assignment(
        cls,
        replica_servers: Sequence[Sequence[int]],
        num_servers: int,
        *,
        bit_rate_mbps: float = 4.0,
    ) -> "ReplicaLayout":
        """Build a fixed-rate layout from per-video server lists.

        ``replica_servers[i]`` lists the servers holding video ``i``.
        Duplicate servers within one video are rejected (they would merge
        into a single replica per the paper's Eq. 6 discussion).
        """
        check_int_in_range("num_servers", num_servers, 1)
        matrix = np.zeros((len(replica_servers), num_servers), dtype=np.float64)
        for video, servers in enumerate(replica_servers):
            servers = list(servers)
            if len(set(servers)) != len(servers):
                raise LayoutViolation(
                    f"video {video} assigned twice to one server: {servers}"
                )
            for server in servers:
                check_int_in_range("server index", server, 0, num_servers - 1)
                matrix[video, server] = bit_rate_mbps
        return cls(rate_matrix=matrix)

    @classmethod
    def empty(cls, num_videos: int, num_servers: int) -> "ReplicaLayout":
        """A layout with no replicas placed (useful as an SA seed)."""
        check_int_in_range("num_videos", num_videos, 1)
        check_int_in_range("num_servers", num_servers, 1)
        return cls(rate_matrix=np.zeros((num_videos, num_servers)))

    # ------------------------------------------------------------------
    # Basic views
    # ------------------------------------------------------------------
    @property
    def num_videos(self) -> int:
        """Number of videos ``M``."""
        return int(self.rate_matrix.shape[0])

    @property
    def num_servers(self) -> int:
        """Number of servers ``N``."""
        return int(self.rate_matrix.shape[1])

    @property
    def presence(self) -> np.ndarray:
        """Boolean ``(M, N)`` matrix: replica of video ``i`` on server ``k``."""
        return self.rate_matrix > 0

    @property
    def replica_counts(self) -> np.ndarray:
        """``r_i`` — number of replicas of each video."""
        return self.presence.sum(axis=1).astype(np.int64)

    @property
    def total_replicas(self) -> int:
        """Total number of replicas across the cluster."""
        return int(self.presence.sum())

    @property
    def replication_degree(self) -> float:
        """Average number of replicas per video (the paper's x-axis knob)."""
        return self.total_replicas / self.num_videos

    @property
    def video_bit_rates(self) -> np.ndarray:
        """Per-video encoding bit rate (0 for unplaced videos).

        Defined as the maximum rate over the video's replicas; equal to the
        common rate when the layout is per-video-uniform (the validated
        case).
        """
        return self.rate_matrix.max(axis=1)

    def servers_of(self, video: int) -> np.ndarray:
        """Indices of the servers holding replicas of *video* (ascending)."""
        check_int_in_range("video", video, 0, self.num_videos - 1)
        return np.flatnonzero(self.rate_matrix[video] > 0)

    @cached_property
    def holder_table(self) -> HolderTable:
        """Per-video replica holders, built once per layout (immutable).

        Every simulator, dispatcher and engine over this layout reads the
        same table, so a sweep that reuses one layout across arrival rates
        and runs indexes its replicas once.
        """
        return _build_holder_table(self.rate_matrix)

    def videos_on(self, server: int) -> np.ndarray:
        """Indices of videos with a replica on *server*."""
        check_int_in_range("server", server, 0, self.num_servers - 1)
        return np.flatnonzero(self.rate_matrix[:, server] > 0)

    def server_replica_counts(self) -> np.ndarray:
        """Number of replicas stored on each server."""
        return self.presence.sum(axis=0).astype(np.int64)

    def server_storage_used_gb(self, durations_min: np.ndarray) -> np.ndarray:
        """Per-server storage consumption (GB) given per-video durations."""
        durations = np.asarray(durations_min, dtype=np.float64)
        if durations.shape != (self.num_videos,):
            raise ValueError(
                f"durations_min must have shape ({self.num_videos},), got {durations.shape}"
            )
        # storage of replica (i, k) = rate[i, k] * duration[i] * 60 / Mb-per-GB
        per_replica_gb = self.rate_matrix * durations[:, None] * 60.0 / MEGABITS_PER_GB
        return per_replica_gb.sum(axis=0)

    # ------------------------------------------------------------------
    # Load model (Sec. 3.2)
    # ------------------------------------------------------------------
    def replica_weights(self, popularity: np.ndarray) -> np.ndarray:
        """Per-replica communication weights ``w_i = p_i / r_i`` as an (M, N) matrix.

        Entries are 0 where no replica exists.  Videos with zero replicas
        contribute nothing (their requests cannot be serviced at all).
        """
        probs = check_probability_vector("popularity", popularity)
        if probs.shape != (self.num_videos,):
            raise ValueError(
                f"popularity must have shape ({self.num_videos},), got {probs.shape}"
            )
        counts = self.replica_counts
        safe_counts = np.maximum(counts, 1)
        weights = probs / safe_counts
        return np.where(self.presence, weights[:, None], 0.0)

    def expected_server_load_mbps(
        self,
        popularity: np.ndarray,
        requests_per_peak: float,
    ) -> np.ndarray:
        """Expected outgoing load per server (Mb/s) at end of the peak.

        Under static round robin each replica of video ``i`` services
        ``w_i * R`` of the ``R`` peak requests; with video duration equal to
        the peak length each admitted stream is still active, so the load on
        server ``k`` is ``sum_{i on k} w_i * R * b_i`` (Eq. 5's left side).
        """
        if requests_per_peak < 0:
            raise ValueError("requests_per_peak must be >= 0")
        weights = self.replica_weights(popularity)
        return (weights * self.rate_matrix).sum(axis=0) * float(requests_per_peak)

    # ------------------------------------------------------------------
    # Constraint validation (Eq. 4-7)
    # ------------------------------------------------------------------
    def validate(
        self,
        cluster: ClusterSpec,
        videos: VideoCollection,
        *,
        popularity: np.ndarray | None = None,
        requests_per_peak: float | None = None,
        require_full_coverage: bool = True,
        allow_mixed_rates: bool = False,
    ) -> None:
        """Raise :class:`LayoutViolation` if any paper constraint fails.

        * Eq. (4): per-server storage.
        * Eq. (5): per-server outgoing bandwidth — only checked when both
          ``popularity`` and ``requests_per_peak`` are supplied (the paper
          notes this constraint may be violated in the fixed-rate setting
          when offered load exceeds cluster bandwidth).
        * Eq. (6): distinct servers — structural, always true here.
        * Eq. (7): ``1 <= r_i <= N`` — the lower bound is skipped when
          ``require_full_coverage`` is False (partial layouts).

        By default all replicas of one video must share a single bit rate
        (the Sec. 3.2 model); the scalable-rate framework of Sec. 4.3/6
        explicitly permits per-replica rates, enabled with
        ``allow_mixed_rates=True``.
        """
        if (self.num_videos, self.num_servers) != (videos.num_videos, cluster.num_servers):
            raise LayoutViolation(
                f"layout shape {self.rate_matrix.shape} does not match "
                f"({videos.num_videos} videos, {cluster.num_servers} servers)"
            )
        # Per-video uniform rate (unless explicitly relaxed).
        if not allow_mixed_rates:
            rates = self.rate_matrix
            row_max = rates.max(axis=1)
            nonzero = rates > 0
            mismatched = nonzero & ~np.isclose(rates, row_max[:, None])
            if np.any(mismatched):
                bad = int(np.flatnonzero(mismatched.any(axis=1))[0])
                raise LayoutViolation(
                    f"video {bad} has replicas at differing bit rates; the "
                    "model requires one rate per video (Sec. 3.2) — pass "
                    "allow_mixed_rates=True for the scalable-rate setting"
                )
        # Eq. (7)
        counts = self.replica_counts
        if require_full_coverage and np.any(counts < 1):
            bad = int(np.flatnonzero(counts < 1)[0])
            raise LayoutViolation(f"video {bad} has no replica (Eq. 7 lower bound)")
        # Upper bound r_i <= N is structural for a matrix layout.

        # Eq. (4)
        used = self.server_storage_used_gb(videos.durations_min)
        capacity = cluster.storage_gb
        over = used > capacity + 1e-9
        if np.any(over):
            bad = int(np.flatnonzero(over)[0])
            raise LayoutViolation(
                f"server {bad} storage exceeded: {used[bad]:.2f} GB used > "
                f"{capacity[bad]:.2f} GB capacity (Eq. 4)"
            )

        # Eq. (5) — optional, needs a load model.
        if popularity is not None and requests_per_peak is not None:
            load = self.expected_server_load_mbps(popularity, requests_per_peak)
            bandwidth = cluster.bandwidth_mbps
            over = load > bandwidth + 1e-9
            if np.any(over):
                bad = int(np.flatnonzero(over)[0])
                raise LayoutViolation(
                    f"server {bad} expected load {load[bad]:.1f} Mb/s exceeds "
                    f"bandwidth {bandwidth[bad]:.1f} Mb/s (Eq. 5)"
                )

    def is_valid(self, cluster: ClusterSpec, videos: VideoCollection, **kwargs) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(cluster, videos, **kwargs)
        except LayoutViolation:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicaLayout(M={self.num_videos}, N={self.num_servers}, "
            f"replicas={self.total_replicas})"
        )
