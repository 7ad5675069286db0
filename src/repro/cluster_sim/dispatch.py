"""Request-dispatch policies.

The paper's model assumes a *static round-robin* scheduling policy among the
replicas of a video (Sec. 3.2): the dispatcher cycles through the replica
holders per video regardless of their current load, and the admission
control rejects the request if the selected server lacks bandwidth.  That
policy is what makes the per-replica communication weight ``w_i = p_i /
r_i`` the right placement currency, and it is the default in the
reproduction.

Two dynamic policies are provided for the ablation study (E7): least-loaded
(among holders) and first-fit.  Dynamic policies return multiple candidates;
the simulator admits on the first with free bandwidth.

The event kernel (:class:`~repro.cluster_sim.simulator.VoDClusterSimulator`)
does not call :meth:`LeastLoadedDispatcher.candidates` on arrivals: it picks
the least-utilized holder with room in one unsorted pass, which is the same
decision.  ``candidates()`` remains the policy's specification, run verbatim
by :class:`~repro.cluster_sim.reference.ReferenceClusterSimulator` (and by
the kernel for subclasses), and the parity is tested case by case in
``tests/test_least_loaded_parity.py``.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence

from ..model.layout import ReplicaLayout
from .server import StreamingServer

__all__ = [
    "Dispatcher",
    "StaticRoundRobinDispatcher",
    "LeastLoadedDispatcher",
    "FirstFitDispatcher",
    "make_dispatcher_factory",
    "failover_order",
]


def failover_order(
    holders: Sequence[int], servers: Sequence[StreamingServer]
) -> list[int]:
    """Retry order for failover dispatch: least utilized holder first.

    A stable sort, so equal-utilization holders keep ascending-id order —
    the same tie rule as :class:`LeastLoadedDispatcher`.  The kernel's
    failover retries and wait list, and the reference loop's retries,
    all order holders through this single helper, which is what keeps
    their candidate ordering bit-identical by construction.  (The
    kernel's arrival path under :class:`LeastLoadedDispatcher` makes the
    equivalent one-pass pick instead; see the module docstring.)
    """
    return sorted(holders, key=lambda s: servers[s].utilization)


class Dispatcher(abc.ABC):
    """Maps a request for a video to an ordered list of candidate servers.

    A dispatcher instance holds per-run state (e.g. round-robin counters)
    and must not be shared across simulation runs; use
    :func:`make_dispatcher_factory` to create one per run.
    """

    #: Short machine-friendly name used in experiment tables.
    name: str = "dispatcher"

    def __init__(self, layout: ReplicaLayout) -> None:
        # Shared, immutable per-layout table: building a dispatcher per
        # run costs nothing after the layout's first run.
        self._servers_of = layout.holder_table.holders

    def holders(self, video: int) -> tuple[int, ...]:
        """Servers holding a replica of *video* (ascending ids)."""
        return self._servers_of[video]

    @abc.abstractmethod
    def candidates(
        self, video: int, servers: Sequence[StreamingServer]
    ) -> Sequence[int]:
        """Ordered candidate servers for a request (may be empty)."""


class StaticRoundRobinDispatcher(Dispatcher):
    """The paper's policy: cycle replicas per video, single candidate.

    The counter advances on every request (admitted or not) — the policy is
    static, so a rejection does not re-route to another replica.
    """

    name = "static_rr"

    def __init__(self, layout: ReplicaLayout) -> None:
        super().__init__(layout)
        self._counters = [0] * layout.num_videos

    def candidates(
        self, video: int, servers: Sequence[StreamingServer]
    ) -> Sequence[int]:
        del servers  # static: ignores load
        holders = self._servers_of[video]
        if not holders:
            return ()
        counters = self._counters
        index = counters[video]
        counters[video] = index + 1
        return (holders[index % len(holders)],)


class LeastLoadedDispatcher(Dispatcher):
    """Dynamic policy: try holders from least to most utilized.

    Admitting on the first of these with room means admitting on the
    least-utilized holder with room, ties to the lower id.  The event
    kernel evaluates exactly that in one pass when the dispatcher is this
    class (not a subclass); :meth:`candidates` is the readable spec the
    reference loop runs.
    """

    name = "least_loaded"

    def candidates(
        self, video: int, servers: Sequence[StreamingServer]
    ) -> Sequence[int]:
        holders = self._servers_of[video]
        if not holders:
            return ()
        # Stable sort == np.argsort(kind="stable"): equal-utilization
        # holders keep ascending-id order.
        return sorted(holders, key=lambda s: servers[s].utilization)


class FirstFitDispatcher(Dispatcher):
    """Dynamic policy: try holders in fixed (server-id) order."""

    name = "first_fit"

    def candidates(
        self, video: int, servers: Sequence[StreamingServer]
    ) -> Sequence[int]:
        del servers
        return list(self._servers_of[video])


def make_dispatcher_factory(
    kind: str,
) -> Callable[[ReplicaLayout], Dispatcher]:
    """Factory by name: ``static_rr`` (default), ``least_loaded``, ``first_fit``."""
    table = {
        StaticRoundRobinDispatcher.name: StaticRoundRobinDispatcher,
        LeastLoadedDispatcher.name: LeastLoadedDispatcher,
        FirstFitDispatcher.name: FirstFitDispatcher,
    }
    try:
        cls = table[kind]
    except KeyError:
        raise ValueError(
            f"unknown dispatcher {kind!r}; choose from {sorted(table)}"
        ) from None
    return cls
