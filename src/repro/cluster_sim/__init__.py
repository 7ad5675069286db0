"""Discrete-event VoD cluster simulator (systems S11, S15, S17-S18, S20, S24).

Implements the evaluation testbed of Sec. 5: bandwidth-constrained streaming
servers, a dispatcher that routes each request to a replica of the requested
video (static round robin by default, matching the paper's model), a simple
admission control that rejects a request when the dispatched server lacks
outgoing bandwidth, and time-weighted load/rejection metrics.

Extensions layered on the same event machinery:

* request redirection over an internal backbone (the companion strategy
  [19], :mod:`.redirection`);
* chaos & recovery: correlated/MTBF failure injection, failover dispatch
  with retry/backoff, and repair-driven re-replication (:mod:`.failures`);
* deterministic K-way scale-out: struct-of-arrays request columns shared
  by all three simulation loops (:mod:`.soa`) and shard/merge machinery
  whose merged results are bit-identical to an unsharded block run
  (:mod:`.sharding`);
* a vectorized event-batch engine over the SoA columns (:mod:`.vector`)
  behind the lockstep engine registry (:mod:`.engines`);
* the wide-striping shared-storage architecture the paper argues against
  (:mod:`.striping`);
* multicast batching delivery (:mod:`.batching`);
* wait-queue admission with bounded patience (:mod:`.queueing`).
"""

from .batching import BatchingClusterSimulator, BatchingResult
from .engines import (
    DEFAULT_ENGINE,
    ENGINES,
    engine_run_kwargs,
    make_simulator,
    validate_engine,
)
from .dispatch import (
    Dispatcher,
    FirstFitDispatcher,
    LeastLoadedDispatcher,
    StaticRoundRobinDispatcher,
    make_dispatcher_factory,
)
from .events import EventKind, EventQueue
from .dispatch import failover_order
from .failures import (
    FailoverPolicy,
    FailureEvent,
    FailureSchedule,
    FailureSpec,
    RereplicationPolicy,
)
from .metrics import SimulationResult
from .queueing import QueueingClusterSimulator, QueueingResult
from .redirection import BackboneLink
from .reference import ReferenceClusterSimulator
from .server import StreamingServer
from .sharding import (
    fold_unsharded,
    merge_results,
    run_sharded,
    shard_failure_schedules,
    shard_spawn_key,
    shard_traces,
    unsharded_equivalent,
)
from .simulator import VoDClusterSimulator
from .soa import RequestSoA
from .striping import StripedClusterSimulator
from .vector import VectorClusterSimulator

__all__ = [
    "BatchingClusterSimulator",
    "BatchingResult",
    "DEFAULT_ENGINE",
    "ENGINES",
    "engine_run_kwargs",
    "make_simulator",
    "validate_engine",
    "Dispatcher",
    "FirstFitDispatcher",
    "LeastLoadedDispatcher",
    "StaticRoundRobinDispatcher",
    "make_dispatcher_factory",
    "EventKind",
    "EventQueue",
    "failover_order",
    "FailoverPolicy",
    "FailureEvent",
    "FailureSchedule",
    "FailureSpec",
    "RereplicationPolicy",
    "RequestSoA",
    "SimulationResult",
    "BackboneLink",
    "QueueingClusterSimulator",
    "QueueingResult",
    "ReferenceClusterSimulator",
    "StreamingServer",
    "StripedClusterSimulator",
    "VectorClusterSimulator",
    "VoDClusterSimulator",
    "fold_unsharded",
    "merge_results",
    "run_sharded",
    "shard_failure_schedules",
    "shard_spawn_key",
    "shard_traces",
    "unsharded_equivalent",
]
