"""The private run log the engines fill when asked, and its replay.

The kernel fills an :class:`AuditLog` behind ``if log is not None``
guards, the ``vector`` engine from its admission arrays; the audit and
the observer rebuild the run from it with the functions below.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = ["AuditLog", "RunEvents", "admission_table", "server_folds", "fold"]

#: Replayed event kinds.
ADMIT, DEPART, CRASH = 0, 1, 2


class AuditLog:
    """What a logged run records (internal).

    Decision codes: 0 = not admitted on arrival (rejected, or left to a
    failover retry), ``1 + k`` = admitted on server ``k``, ``1 + N + k`` =
    redirected to server ``k`` over the backbone.
    """

    __slots__ = (
        "decisions",
        "crash_records",
        "repair_records",
        "retry_admissions",
        "retry_rejections",
        "last_event_time",
        "soa",
        "servers",
        "backbone",
        "rate_matrix",
        "best_rates",
    )

    def __init__(self) -> None:
        #: One code per simulated arrival (the kernel's bytearray while 2N
        #: fits a byte, else a list; the vector engine's array).
        self.decisions: "bytearray | list[int] | np.ndarray" = bytearray()
        #: (time, server, occupied Mb/s) per crash; (time, server) per repair.
        self.crash_records: list = []
        self.repair_records: list = []
        #: (time, arrival index, server) per failover-retry admission, and
        #: (time, arrival index) per request a RETRY event rejected.
        self.retry_admissions: list = []
        self.retry_rejections: list = []
        #: Time of the last event the final horizon drain applied.
        self.last_event_time = 0.0
        #: The run's request columns, end-state servers and backbone, and
        #: the layout's static replica rates and per-video best rates.
        self.soa = None
        self.servers: list = []
        self.backbone = None
        self.rate_matrix: np.ndarray | None = None
        self.best_rates: np.ndarray | None = None


class AdmissionTable(NamedTuple):
    """Every admitted stream, in admission order (``index``: its arrival)."""

    t0: np.ndarray
    te: np.ndarray
    sid: np.ndarray
    rate: np.ndarray
    red: np.ndarray
    vid: np.ndarray
    index: np.ndarray
    retried: np.ndarray


def admission_table(log: AuditLog) -> AdmissionTable:
    """Rebuild the admission table from a filled log.

    Rows follow the kernel's admission order: by start time, a failover
    retry before an arrival at the same instant (heap events apply
    first).  Rates come from the layout, not the loop: a stream plays its
    server's replica rate, a redirected one the video's best copy.
    """
    soa = log.soa
    num_servers = len(log.servers)
    dec = np.asarray(log.decisions)
    index = np.flatnonzero(dec)
    codes = dec[index].astype(np.intp) - 1
    red = codes >= num_servers
    sid = np.where(red, codes - num_servers, codes)
    t0 = soa.times.take(index)
    retried = np.zeros(len(index), dtype=bool)
    if log.retry_admissions:
        # Retries first, so the stable sort keeps them before arrivals.
        r_t0, r_idx, r_sid = (np.array(c) for c in zip(*log.retry_admissions))
        order = np.argsort(np.concatenate((r_t0, t0)), kind="stable")
        t0 = np.concatenate((r_t0, t0))[order]
        index = np.concatenate((r_idx, index))[order]
        sid = np.concatenate((r_sid, sid))[order]
        red = np.concatenate((np.zeros(len(r_t0), dtype=bool), red))[order]
        retried = order < len(r_t0)
    vid = soa.videos.take(index)
    rate = np.where(red, log.best_rates[vid], log.rate_matrix[vid, sid])
    te = t0 + soa.holds.take(index)
    return AdmissionTable(t0, te, sid, rate, red, vid, index, retried)


#: Within one instant the kernel applies heap events by (EventKind, push
#: order), then arrivals by index; :class:`RunEvents` encodes that as
#: one key.  Arrival ``i`` has key ``ARRIVAL_KEY + 2 * i``; an odd key is
#: a zero-hold departure, which pops right after its own admission.
_KIND_KEY = 1 << 40
ARRIVAL_KEY = 8 * _KIND_KEY


class RunEvents:
    """A run's admissions, departures and crashes, grouped by server.

    Server ``k``'s events are ``[bounds[k], bounds[k + 1])``, in the
    kernel's order: by ``time``, then ``key``.  ``row`` is the admission
    row (-1: a crash), ``delta`` the Mb/s added (``-rate`` on departure).
    ``time``, ``key`` and ``row`` are gathered on first use.
    """

    def __init__(self, log: AuditLog, table: AdmissionTable, horizon_min):
        rows = np.arange(len(table.t0))
        departs = table.te <= horizon_min
        for time_min, server, _ in log.crash_records:
            # A stream a crash dropped never departs (its departure is stale).
            departs &= (table.sid != server) | (table.t0 > time_min) | (
                table.te <= time_min
            )
        departs = np.flatnonzero(departs)
        crashes = np.array(log.crash_records, dtype=float).reshape(-1, 3)
        own = ARRIVAL_KEY + 2 * table.index  # each admission's key
        if log.retry_admissions:  # EventKind.RETRY = 6
            own = np.where(table.retried, 6 * _KIND_KEY + 2 * rows, own)
        departure_key = 2 * departs  # EventKind.DEPARTURE = 0
        zero = np.flatnonzero(table.te == table.t0)  # zero holds: all depart
        departure_key[np.searchsorted(departs, zero)] = own[zero] + 1
        self._key = np.concatenate(
            (departure_key, 2 * _KIND_KEY + 2 * np.arange(len(crashes)), own)
        )  # EventKind.FAILURE = 2
        self._time = np.concatenate((table.te[departs], crashes[:, 0], table.t0))
        self._row = np.concatenate((departs, np.full(len(crashes), -1), rows))
        server = np.concatenate(
            (table.sid[departs], crashes[:, 1], table.sid)
        ).astype(np.min_scalar_type(len(log.servers)))
        order = np.lexsort((self._key, self._time))
        # Then group by server: a stable radix pass on the small ids.
        self.order = order = order[np.argsort(server[order], kind="stable")]
        self.server = server[order]
        self.kind = np.repeat(
            np.array([DEPART, CRASH, ADMIT], dtype=np.int8),
            [len(departs), len(crashes), len(rows)],
        )[order]
        self.delta = np.concatenate(
            (-table.rate[departs], np.zeros(len(crashes)), table.rate)
        )[order]
        self.bounds = np.searchsorted(self.server, np.arange(len(log.servers) + 1))

    @cached_property
    def time(self) -> np.ndarray:
        return self._time[self.order]

    @cached_property
    def key(self) -> np.ndarray:
        return self._key[self.order]

    @cached_property
    def row(self) -> np.ndarray:
        return self._row[self.order]


def server_folds(events: RunEvents) -> list[tuple]:
    """``(events slice, running Mb/s, stream count)`` of each server.

    ``np.cumsum`` is a sequential left fold, so it reproduces a server's
    ``used_mbps`` bit for bit; :func:`fold` takes a server that crashes
    or whose residue below zero the kernel clamps.
    """
    # Stream counts are integers: one global cumsum, rebased per server.
    streams = np.cumsum(np.where(events.kind == DEPART, -1, 1))
    crashed = set(events.server[events.kind == CRASH].tolist())
    folds = []
    edges = events.bounds.tolist()
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        span = slice(a, b)
        run = np.cumsum(events.delta[span])
        if k in crashed or (b > a and run.min() < 0.0):
            folds.append((span, *fold(events, np.arange(a, b))))
        else:
            folds.append((span, run, streams[span] - (streams[a - 1] if a else 0)))
    return folds


def fold(events: RunEvents, mine: np.ndarray, backbone: bool = False):
    """An account's running Mb/s and stream count over ``events[mine]``.

    The kernel's arithmetic, one event at a time: a departure's residue
    below zero is clamped, a crash empties a server, and on the backbone
    (*mine*: its redirected streams and every crash) a crash releases what
    the crashed server carried.
    """
    used = 0.0
    count = 0
    carried: dict = {}
    runs = []
    counts = []
    for kind, step, k in zip(
        events.kind[mine].tolist(),
        events.delta[mine].tolist(),
        events.server[mine].tolist(),
    ):
        if kind != CRASH:
            used += step
            if used < 0.0:
                used = 0.0
            count += 1 if step > 0 else -1
            carried[k] = carried.get(k, 0.0) + step
        elif not backbone:
            used = 0.0
            count = 0
        elif carried.get(k, 0.0) > 0:
            used = max(used - carried[k], 0.0)
            carried[k] = 0.0
        runs.append(used)
        counts.append(count)
    return np.array(runs), np.array(counts, dtype=np.intp)
