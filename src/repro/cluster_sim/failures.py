"""Server-failure schedules and recovery policies — chaos extension.

The paper motivates replication partly by *availability*: "Multiple
replicas also offer the flexibility in reconfiguration" and distributed
storage "can offer ... higher reliability".  This module quantifies that:

* :class:`FailureSchedule` crashes servers at given times (dropping their
  active streams) and optionally recovers them later.  Schedules come
  from three generative models — independent cluster-wide Poisson
  failures (:meth:`FailureSchedule.random`), correlated rack/group
  failures (:meth:`FailureSchedule.correlated`), and per-server
  MTBF/MTTR renewal processes with deterministic SeedSequence streams
  (:meth:`FailureSchedule.mtbf_process`).
* :class:`FailoverPolicy` configures retry-with-backoff dispatch: a
  request rejected while some replica holder is dead (or, with
  ``retry_saturated``, merely saturated) is re-tried across surviving
  holders after a capped exponential backoff, up to a retry budget.
  Retries that exhaust the budget (or the horizon) count as rejections.
* :class:`RereplicationPolicy` enables repair-driven re-replication: a
  recovering server re-copies the replicas it lost, serialized under a
  migration-bandwidth cap, and can only serve a video again once its
  copy completes.
* :class:`FailureSpec` is the declarative form used by the pipeline
  facade and CLI (``--failures single:t=30,server=0``); it builds a
  concrete schedule per run with SeedSequence-derived determinism.

The simulator measures dropped streams, requests lost to failures,
per-server downtime and time-to-recovery as a function of the
replication degree (see ``repro/experiments/availability.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .._validation import check_int_in_range, check_non_negative, check_positive

__all__ = [
    "FailureEvent",
    "FailureSchedule",
    "FailoverPolicy",
    "RereplicationPolicy",
    "FailureSpec",
]

#: Spawn-key namespace tag for failure-schedule RNG streams, so failure
#: draws can never collide with workload/trace streams of the same seed.
_FAILURE_SPAWN_TAG = 0xFA11


@dataclass(frozen=True)
class FailureEvent:
    """One server outage: down at ``time_min``, back after ``down_min``.

    ``down_min = inf`` means the server never returns within the run.
    """

    time_min: float
    server: int
    down_min: float = float("inf")

    def __post_init__(self) -> None:
        check_non_negative("time_min", self.time_min)
        check_int_in_range("server", self.server, 0)
        if not self.down_min > 0:
            raise ValueError(f"down_min must be > 0, got {self.down_min}")

    @property
    def recovery_min(self) -> float:
        """Absolute recovery time (may be inf)."""
        return self.time_min + self.down_min


class FailureSchedule:
    """A time-ordered set of :class:`FailureEvent` entries.

    Overlapping outages of the *same* server are rejected — a down server
    cannot fail again before recovering.  A failure at *exactly* the
    recovery instant is allowed: the simulator processes RECOVERY before
    FAILURE at equal timestamps, so the server flickers up (empty) and
    immediately crashes again.
    """

    def __init__(self, events: Iterable[FailureEvent]) -> None:
        events = sorted(events, key=lambda e: e.time_min)
        busy_until: dict[int, float] = {}
        for event in events:
            # Strict <: at equal timestamps the simulator processes
            # RECOVERY before FAILURE, so a failure at the exact recovery
            # instant hits an up server (see EventKind).
            if event.time_min < busy_until.get(event.server, -1.0):
                raise ValueError(
                    f"server {event.server} fails at {event.time_min} while "
                    "still down from a previous failure"
                )
            busy_until[event.server] = event.recovery_min
        self._events = tuple(events)

    # ------------------------------------------------------------------
    @classmethod
    def single(
        cls, time_min: float, server: int, down_min: float = float("inf")
    ) -> "FailureSchedule":
        """One server fails once — the canonical availability experiment."""
        return cls([FailureEvent(time_min, server, down_min)])

    @classmethod
    def random(
        cls,
        num_servers: int,
        horizon_min: float,
        rng: np.random.Generator,
        *,
        mtbf_min: float,
        mttr_min: float | None = None,
    ) -> "FailureSchedule":
        """Poisson failures: cluster-wide rate ``num_servers / mtbf_min``.

        Each failure hits a uniformly random *currently-up* server and (if
        ``mttr_min`` is given) heals after an exponential repair time.
        """
        check_int_in_range("num_servers", num_servers, 1)
        check_positive("horizon_min", horizon_min)
        check_positive("mtbf_min", mtbf_min)
        if mttr_min is not None:
            check_positive("mttr_min", mttr_min)

        events: list[FailureEvent] = []
        busy_until = np.zeros(num_servers)
        t = 0.0
        rate = num_servers / mtbf_min
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= horizon_min:
                break
            up = np.flatnonzero(busy_until < t)
            if up.size == 0:
                continue
            server = int(rng.choice(up))
            down = (
                float(rng.exponential(mttr_min))
                if mttr_min is not None
                else float("inf")
            )
            events.append(FailureEvent(t, server, down))
            busy_until[server] = t + down
        return cls(events)

    @classmethod
    def correlated(
        cls,
        groups: Sequence[Sequence[int]],
        horizon_min: float,
        rng: np.random.Generator,
        *,
        mtbf_min: float,
        mttr_min: float | None = None,
    ) -> "FailureSchedule":
        """Correlated rack/group failures: each group crashes as a unit.

        Failure epochs arrive as a Poisson process of cluster-wide rate
        ``len(groups) / mtbf_min``; each epoch takes down one uniformly
        random *fully-up* group, all members simultaneously, sharing one
        exponential repair draw (the rack's power/switch comes back for
        everyone at once).  Groups with any member still down are skipped,
        mirroring :meth:`random`'s up-server filter.
        """
        groups = [tuple(int(s) for s in g) for g in groups]
        if not groups or any(not g for g in groups):
            raise ValueError("groups must be non-empty lists of server ids")
        flat = [s for g in groups for s in g]
        if len(set(flat)) != len(flat):
            raise ValueError("a server may belong to at most one group")
        check_positive("horizon_min", horizon_min)
        check_positive("mtbf_min", mtbf_min)
        if mttr_min is not None:
            check_positive("mttr_min", mttr_min)

        events: list[FailureEvent] = []
        busy_until = {s: 0.0 for s in flat}
        t = 0.0
        rate = len(groups) / mtbf_min
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= horizon_min:
                break
            up_groups = [
                gi
                for gi, g in enumerate(groups)
                if all(busy_until[s] < t for s in g)
            ]
            if not up_groups:
                continue
            group = groups[int(rng.choice(np.asarray(up_groups)))]
            down = (
                float(rng.exponential(mttr_min))
                if mttr_min is not None
                else float("inf")
            )
            for server in group:
                events.append(FailureEvent(t, server, down))
                busy_until[server] = t + down
        return cls(events)

    @classmethod
    def mtbf_process(
        cls,
        num_servers: int,
        horizon_min: float,
        *,
        mtbf_min: float,
        mttr_min: float,
        entropy: int,
        spawn_prefix: tuple[int, ...] = (),
    ) -> "FailureSchedule":
        """Independent per-server MTBF/MTTR renewal processes.

        Server ``k`` alternates exponential up-times (mean ``mtbf_min``)
        and down-times (mean ``mttr_min``), drawn from its own
        ``SeedSequence(entropy, spawn_key=spawn_prefix + (k,))`` stream —
        adding or removing servers never perturbs another server's
        failure history (the same spawn-key discipline as the workload
        traces).
        """
        check_int_in_range("num_servers", num_servers, 1)
        check_positive("horizon_min", horizon_min)
        check_positive("mtbf_min", mtbf_min)
        check_positive("mttr_min", mttr_min)

        events: list[FailureEvent] = []
        for server in range(num_servers):
            seq = np.random.SeedSequence(
                entropy=entropy, spawn_key=spawn_prefix + (server,)
            )
            rng = np.random.default_rng(seq)
            t = float(rng.exponential(mtbf_min))
            while t < horizon_min:
                down = float(rng.exponential(mttr_min))
                events.append(FailureEvent(t, server, down))
                t = t + down + float(rng.exponential(mtbf_min))
        return cls(events)

    @classmethod
    def none(cls) -> "FailureSchedule":
        """No failures (the paper's base setting)."""
        return cls([])

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[FailureEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def validate_servers(self, num_servers: int) -> None:
        """Check all events reference servers within the cluster."""
        for event in self._events:
            if event.server >= num_servers:
                raise ValueError(
                    f"failure targets server {event.server} but the cluster "
                    f"has {num_servers} servers"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FailureSchedule(events={len(self._events)})"


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailoverPolicy:
    """Retry-with-backoff dispatch for requests hit by failures.

    A request rejected while at least one replica holder of its video is
    dead (or its replica lost and not yet re-copied) is retried across
    the surviving holders, least-utilized first, after a capped
    exponential backoff: attempt ``i`` (0-based) waits
    ``min(backoff_base_min * backoff_factor**i, backoff_cap_min)``
    simulated minutes.  After ``max_retries`` failed attempts — or when
    the next attempt would land past the measurement horizon — the
    request counts as rejected (a timeout *is* a rejection in the
    metrics).  With ``retry_saturated=True`` plain bandwidth rejections
    retry too, not only failure-touched ones.
    """

    max_retries: int = 3
    backoff_base_min: float = 0.5
    backoff_factor: float = 2.0
    backoff_cap_min: float = 8.0
    retry_saturated: bool = False

    def __post_init__(self) -> None:
        check_int_in_range("max_retries", self.max_retries, 1)
        check_positive("backoff_base_min", self.backoff_base_min)
        if not self.backoff_factor >= 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not self.backoff_cap_min >= self.backoff_base_min:
            raise ValueError("backoff_cap_min must be >= backoff_base_min")

    def delay_min(self, attempt: int) -> float:
        """Backoff before (0-based) retry *attempt*, in minutes."""
        return min(
            self.backoff_base_min * self.backoff_factor**attempt,
            self.backoff_cap_min,
        )


@dataclass(frozen=True)
class RereplicationPolicy:
    """Repair-driven re-replication under a migration-bandwidth cap.

    When a server crashes its replicas are lost; once it recovers, the
    lost copies are re-fetched one at a time (ascending video id) over a
    ``migration_mbps`` link, so video ``v`` becomes servable again
    ``duration_min(v) * rate_mbps(v) / migration_mbps`` minutes after the
    copies queued ahead of it finish.  Until then the recovered server
    cannot serve ``v`` and the dispatcher routes around the hole.
    """

    migration_mbps: float = 1000.0

    def __post_init__(self) -> None:
        check_positive("migration_mbps", self.migration_mbps)


# ----------------------------------------------------------------------
_SPEC_KINDS = ("none", "single", "random", "correlated", "mtbf")


@dataclass(frozen=True)
class FailureSpec:
    """Declarative failure model for the pipeline facade and CLI.

    Parsed from compact strings like ``single:t=30,server=0,down=15``,
    ``random:mtbf=200,mttr=20``, ``correlated:groups=2,mtbf=300,mttr=20``
    or ``mtbf:mtbf=200,mttr=20``; :meth:`build` instantiates a concrete
    :class:`FailureSchedule` for one run, deriving randomness from
    ``SeedSequence(seed, spawn_key=(0xFA11, run_index, ...))`` so every
    run of a multi-run experiment sees an independent but reproducible
    failure history.
    """

    kind: str = "none"
    time_min: float = 30.0
    server: int = 0
    down_min: float = float("inf")
    mtbf_min: float = 0.0
    mttr_min: float | None = None
    groups: int = 2

    def __post_init__(self) -> None:
        if self.kind not in _SPEC_KINDS:
            raise ValueError(
                f"unknown failure kind {self.kind!r}; "
                f"choose from {_SPEC_KINDS}"
            )
        if self.kind in ("random", "correlated", "mtbf"):
            check_positive("mtbf_min", self.mtbf_min)
        if self.kind == "mtbf" and self.mttr_min is None:
            raise ValueError("mtbf failure model requires mttr_min")
        if self.kind == "correlated":
            check_int_in_range("groups", self.groups, 1)

    @classmethod
    def parse(cls, text: str) -> "FailureSpec":
        """Parse ``kind[:key=value,...]`` (keys: t, server, down, mtbf,
        mttr, groups)."""
        text = text.strip()
        kind, _, rest = text.partition(":")
        kind = kind.strip().lower()
        fields: dict = {"kind": kind}
        alias = {
            "t": "time_min",
            "time": "time_min",
            "server": "server",
            "down": "down_min",
            "mtbf": "mtbf_min",
            "mttr": "mttr_min",
            "groups": "groups",
        }
        if rest:
            for item in rest.split(","):
                key, eq, value = item.partition("=")
                key = key.strip().lower()
                if not eq or key not in alias:
                    raise ValueError(
                        f"bad failure-spec item {item!r} in {text!r}"
                    )
                name = alias[key]
                if name in ("server", "groups"):
                    fields[name] = int(value)
                elif value.strip().lower() in ("inf", "infinity"):
                    fields[name] = float("inf")
                else:
                    fields[name] = float(value)
        return cls(**fields)

    def build(
        self,
        num_servers: int,
        horizon_min: float,
        *,
        seed: int,
        run_index: int = 0,
    ) -> FailureSchedule:
        """Instantiate the schedule for one run (deterministic in
        ``(spec, seed, run_index)``).

        Random kinds draw from the chaos spawn key ``(0xFA11,
        run_index)``, disjoint from every workload stream.
        """
        if self.kind == "none":
            return FailureSchedule.none()
        if self.kind == "single":
            return FailureSchedule.single(
                self.time_min, self.server, self.down_min
            )
        chaos_key = (_FAILURE_SPAWN_TAG, int(run_index))
        if self.kind == "mtbf":
            return FailureSchedule.mtbf_process(
                num_servers,
                horizon_min,
                mtbf_min=self.mtbf_min,
                mttr_min=self.mttr_min,
                entropy=int(seed),
                spawn_prefix=chaos_key,
            )
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=int(seed), spawn_key=chaos_key)
        )
        if self.kind == "random":
            return FailureSchedule.random(
                num_servers,
                horizon_min,
                rng,
                mtbf_min=self.mtbf_min,
                mttr_min=self.mttr_min,
            )
        # correlated: split the cluster into `groups` contiguous racks.
        num_groups = min(self.groups, num_servers)
        bounds = np.array_split(np.arange(num_servers), num_groups)
        return FailureSchedule.correlated(
            [g.tolist() for g in bounds if g.size],
            horizon_min,
            rng,
            mtbf_min=self.mtbf_min,
            mttr_min=self.mttr_min,
        )

    def describe(self) -> str:
        """Compact human-readable form (inverse-ish of :meth:`parse`)."""
        if self.kind == "none":
            return "none"
        if self.kind == "single":
            down = "inf" if self.down_min == float("inf") else f"{self.down_min:g}"
            return f"single:t={self.time_min:g},server={self.server},down={down}"
        parts = [f"mtbf={self.mtbf_min:g}"]
        if self.mttr_min is not None:
            parts.append(f"mttr={self.mttr_min:g}")
        if self.kind == "correlated":
            parts.append(f"groups={self.groups}")
        return f"{self.kind}:" + ",".join(parts)
