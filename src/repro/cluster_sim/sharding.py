"""Deterministic K-way sharding of a simulation, with an exact merge.

Scale-out model (weak scaling / federation): a run with ``K`` shards
simulates ``K`` independent *pods*, each a full copy of the base system —
same cluster, same catalog, same layout and dispatcher — each fed its own
independent Poisson arrival stream at the configured rate.  Pods share no
servers and no dispatch state, so the shards are embarrassingly parallel
(fanned across processes via
:meth:`repro.runtime.parallel.ParallelRunner.map_simulations`) and the
merge of their :class:`~repro.cluster_sim.metrics.SimulationResult`
objects is *exact*, not approximate: a K-shard run is bit-identical to one
genuine unsharded simulation of the K-pod block system (see
:func:`unsharded_equivalent` and the ``scale`` block of
``BENCH_hotpaths.json``).

With ``backbone_mbps = B > 0`` the contract is the *per-pod backbone
split*: each shard owns an independent B-Mb/s backbone link and
redirects requests only within its own pod's servers (the block system
encodes this via ``redirection_pods``, one link per shard).  Shard
results then merge exactly — ``num_redirected`` sums — because no
redirected stream ever crosses a pod boundary.  Modeling one *shared*
B-Mb/s link across all pods is a different system (its admission
decisions couple the shards) and is intentionally not what a sharded
run means.

Spawn-key discipline (extends ``runtime/``'s):

* workload: shard 0 of run ``r`` draws from ``SeedSequence(seed,
  spawn_key=(r,))`` — exactly the plain run's stream, so ``K=1`` is
  bitwise the unsharded run — and shard ``k >= 1`` from ``(r, k)``;
* chaos: shard 0 keeps ``(0xFA11, r)`` and shard ``k >= 1`` uses
  ``(0xFA11, r, k)``, staying inside the ``0xFA11`` failure namespace and
  disjoint from every workload stream (workload keys always start with a
  run index, far below ``0xFA11`` in practice).

Because shard ``k``'s streams never depend on ``K``, per-shard traces and
results are a *prefix-stable* family: the first 2 shards of a 4-shard run
are the 2 shards of a 2-shard run, which is what makes the merge
associative across regroupings.

Merge contract (the fixed-order reduction of the ISSUE's bugfix):

* integer counters sum; ``per_video_*`` histograms (shared catalog) sum
  elementwise;
* per-server arrays (loads, peaks, served, bandwidth, downtime) —
  including every floating-point utilization integral — concatenate in
  **shard-index order**, never re-reduced, so no float addition is
  reordered by scheduling;
* ``mean_time_to_recovery_min`` is re-derived from a left fold of
  ``mean * count`` over the leaf results in shard-index order;
* ``wall_time_sec`` is the max over shards (the parallel critical path);
  it is excluded from ``same_outcome`` as always.

The merge therefore depends only on the shard *indices*, never on arrival
order of the results — reproducible across ``--jobs`` values and input
permutations (``tests/test_sharding.py`` pins this).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import replace as dataclass_replace

import numpy as np

from .._validation import check_int_in_range
from ..model.cluster import ClusterSpec
from ..model.layout import ReplicaLayout
from ..model.video import Video, VideoCollection
from ..workload.requests import RequestTrace
from .failures import FailureEvent, FailureSchedule, FailureSpec
from .metrics import SimulationResult

__all__ = [
    "shard_spawn_key",
    "shard_traces",
    "shard_failure_schedules",
    "merge_results",
    "run_sharded",
    "unsharded_equivalent",
    "fold_unsharded",
]


def shard_spawn_key(run_index: int, shard_index: int) -> tuple[int, ...]:
    """SeedSequence spawn key of one shard's workload stream.

    Shard 0 keeps the plain run's key ``(run_index,)`` — a ``K=1``
    sharded run is bitwise the unsharded run — and shard ``k >= 1`` gets
    ``(run_index, k)``.  Keys are independent of ``K`` (prefix-stable).
    """
    check_int_in_range("run_index", run_index, 0)
    check_int_in_range("shard_index", shard_index, 0)
    if shard_index == 0:
        return (int(run_index),)
    return (int(run_index), int(shard_index))


def shard_traces(
    generator,
    duration_min: float,
    *,
    seed: int,
    num_shards: int,
    run_index: int = 0,
) -> list[RequestTrace]:
    """Generate the ``num_shards`` arrival sub-streams of one run.

    ``generator`` is a :class:`~repro.workload.generator.WorkloadGenerator`;
    each shard draws a full-rate trace from its own spawned stream (see
    :func:`shard_spawn_key`), so shard ``k``'s trace is reproducible
    independently of ``num_shards``.
    """
    check_int_in_range("num_shards", num_shards, 1)
    traces = []
    for shard in range(int(num_shards)):
        child = np.random.SeedSequence(
            entropy=int(seed), spawn_key=shard_spawn_key(run_index, shard)
        )
        traces.append(
            generator.generate(duration_min, np.random.default_rng(child))
        )
    return traces


def shard_failure_schedules(
    spec: FailureSpec,
    num_servers: int,
    horizon_min: float,
    *,
    seed: int,
    num_shards: int,
    run_index: int = 0,
) -> list[FailureSchedule]:
    """Build each shard's failure schedule from one declarative recipe.

    Shard 0 reproduces the unsharded schedule (chaos spawn key
    ``(0xFA11, run_index)``); shard ``k >= 1`` extends the key with its
    shard index, staying disjoint from every workload stream.
    Deterministic recipes (``single``) repeat identically in every pod.
    """
    check_int_in_range("num_shards", num_shards, 1)
    return [
        spec.build(
            num_servers,
            horizon_min,
            seed=seed,
            run_index=run_index,
            shard=shard,
        )
        for shard in range(int(num_shards))
    ]


# ----------------------------------------------------------------------
def merge_results(
    results: "Sequence[SimulationResult]",
    *,
    shard_indices: "Sequence[int] | None" = None,
) -> SimulationResult:
    """Reduce per-shard results into the cluster-of-pods view.

    ``results`` must be ordered by shard index; pass ``shard_indices``
    to merge results collected in any other order — they are sorted by
    index first, so the reduction order (and every floating-point fold)
    is a function of the shard identities alone, never of scheduling.

    The merged result has ``K * N`` servers (per-server arrays
    concatenated in shard order) over the shared ``M``-video catalog
    (per-video histograms summed elementwise).  A single input is
    returned unchanged, making ``K=1`` merges bitwise no-ops.
    """
    results = list(results)
    if not results:
        raise ValueError("merge_results needs at least one shard result")
    if shard_indices is not None:
        indices = [int(i) for i in shard_indices]
        if len(indices) != len(results):
            raise ValueError(
                f"{len(indices)} shard indices for {len(results)} results"
            )
        if len(set(indices)) != len(indices):
            raise ValueError("shard indices must be distinct")
        order = sorted(range(len(results)), key=indices.__getitem__)
        results = [results[i] for i in order]
    if len(results) == 1:
        return results[0]

    first = results[0]
    horizon = first.horizon_min
    num_videos = int(first.per_video_requests.size)
    for result in results[1:]:
        if result.horizon_min != horizon:
            raise ValueError(
                "shards disagree on the measurement horizon: "
                f"{result.horizon_min} vs {horizon}"
            )
        if int(result.per_video_requests.size) != num_videos:
            raise ValueError("shards disagree on the catalog size")

    # Elementwise integer sums over the shared catalog, accumulated in
    # shard-index order (exact regardless of order; fixed anyway).
    per_video_requests = first.per_video_requests.copy()
    per_video_rejected = first.per_video_rejected.copy()
    for result in results[1:]:
        per_video_requests += result.per_video_requests
        per_video_rejected += result.per_video_rejected

    num_recoveries = sum(r.num_recoveries for r in results)
    # Recovery-weighted left fold in shard-index order: each term is the
    # shard's exact downtime sum (mean * count), so the merged MTTR is
    # reproducible bit-for-bit across --jobs values and permutations.
    ttr_sum = 0.0
    for result in results:
        ttr_sum += result.mean_time_to_recovery_min * result.num_recoveries

    def concat(name: str) -> np.ndarray:
        return np.concatenate([getattr(r, name) for r in results])

    def common(name: str):
        # Provenance survives the merge only where every shard agrees.
        values = {getattr(r, name) for r in results}
        return values.pop() if len(values) == 1 else None

    fallbacks = [r.vector_fallbacks for r in results]

    return SimulationResult(
        num_requests=sum(r.num_requests for r in results),
        num_rejected=sum(r.num_rejected for r in results),
        per_video_requests=per_video_requests,
        per_video_rejected=per_video_rejected,
        server_time_avg_load_mbps=concat("server_time_avg_load_mbps"),
        server_peak_load_mbps=concat("server_peak_load_mbps"),
        server_served=concat("server_served"),
        server_bandwidth_mbps=concat("server_bandwidth_mbps"),
        horizon_min=horizon,
        num_redirected=sum(r.num_redirected for r in results),
        streams_dropped=sum(r.streams_dropped for r in results),
        num_truncated=sum(r.num_truncated for r in results),
        num_events=sum(r.num_events for r in results),
        num_failures=sum(r.num_failures for r in results),
        num_recoveries=num_recoveries,
        num_retries=sum(r.num_retries for r in results),
        num_failovers=sum(r.num_failovers for r in results),
        num_lost_to_failure=sum(r.num_lost_to_failure for r in results),
        num_rereplicated=sum(r.num_rereplicated for r in results),
        mean_time_to_recovery_min=(
            ttr_sum / num_recoveries if num_recoveries else 0.0
        ),
        server_downtime_min=concat("server_downtime_min"),
        wall_time_sec=max(r.wall_time_sec for r in results),
        engine_path=common("engine_path"),
        handoff_reason=common("handoff_reason"),
        vector_fallbacks=None if None in fallbacks else sum(fallbacks),
    )


# ----------------------------------------------------------------------
def run_sharded(
    simulator,
    traces: "Iterable[RequestTrace]",
    *,
    runner=None,
    failure_schedules: "Sequence[FailureSchedule] | None" = None,
    **run_kwargs,
) -> tuple[SimulationResult, list[SimulationResult]]:
    """Run one simulation split across shards; return (merged, per-shard).

    Each trace (built by :func:`shard_traces`) is one shard; shards fan
    out through ``runner.map_simulations`` (the active runner when none
    is given — install a multi-worker :class:`ParallelRunner` to use all
    cores).  ``failure_schedules``, when given, supplies one schedule per
    shard (see :func:`shard_failure_schedules`); remaining ``run_kwargs``
    (``horizon_min``, policies, …) apply to every shard.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("run_sharded needs at least one shard trace")
    per_trace_kwargs = None
    if failure_schedules is not None:
        schedules = list(failure_schedules)
        if len(schedules) != len(traces):
            raise ValueError(
                f"{len(schedules)} failure schedules for "
                f"{len(traces)} shards"
            )
        per_trace_kwargs = [{"failures": s} for s in schedules]
    if runner is None:
        # Lazy import: cluster_sim must stay importable without runtime
        # (which itself imports cluster_sim).
        from ..runtime.parallel import get_runner

        runner = get_runner()
    shard_results = runner.map_simulations(
        simulator,
        traces,
        per_trace_kwargs=per_trace_kwargs,
        **run_kwargs,
    )
    return merge_results(shard_results), shard_results


# ----------------------------------------------------------------------
def unsharded_equivalent(
    simulator,
    traces: "Sequence[RequestTrace]",
    *,
    failure_schedules: "Sequence[FailureSchedule] | None" = None,
):
    """Build the genuine single-simulation form of a K-shard run.

    Returns ``(block_simulator, merged_trace, block_failures)``: one
    simulator over the K-pod *block system* — ``K * N`` servers, ``K * M``
    videos, the base rate matrix repeated block-diagonally — fed the
    time-sorted union of the shard traces with video ids offset by
    ``shard * M`` (and failure schedules offset by ``shard * N``).
    Running it through any of the three lockstep loops and folding with
    :func:`fold_unsharded` must reproduce :func:`merge_results` exactly;
    :func:`repro.verify.shard_audit.audit_shard_merge` automates the
    comparison.

    Pods decompose exactly because all dispatch state is per-video or
    per-holder (round-robin counters, least-loaded/first-fit candidate
    sets, failover orderings all consider replica holders only) and
    equal-time events in different pods touch disjoint servers.  Backbone
    redirection scans servers and meters a shared link, so it only
    decomposes under the *per-pod backbone* contract: a K-shard run with
    ``backbone_mbps = B`` means each shard owns an independent B-Mb/s
    backbone and redirects within its own servers.  The block system
    realizes exactly that via ``redirection_pods = K * P`` (P the base
    simulator's own pod count): block video ``s*M + v`` lands in pod
    ``s*P + v // (M/P)`` and block server ``s*N + n`` in pod
    ``s*P + n // (N/P)``, so every block pod is one shard-local pod with
    its own link, and the merge is exact with no reconciliation step.
    """
    traces = list(traces)
    num_shards = len(traces)
    if num_shards < 1:
        raise ValueError("unsharded_equivalent needs at least one shard")
    layout = simulator._layout
    num_videos = layout.num_videos
    num_servers = layout.num_servers
    base_rates = layout.rate_matrix
    block = np.zeros((num_shards * num_videos, num_shards * num_servers))
    for shard in range(num_shards):
        block[
            shard * num_videos : (shard + 1) * num_videos,
            shard * num_servers : (shard + 1) * num_servers,
        ] = base_rates
    videos = VideoCollection(
        Video(
            shard * num_videos + video.video_id,
            video.bit_rate_mbps,
            video.duration_min,
        )
        for shard in range(num_shards)
        for video in simulator._videos
    )
    cluster = ClusterSpec(
        spec for _ in range(num_shards) for spec in simulator._cluster
    )
    limits = simulator._stream_limits
    block_sim = type(simulator)(
        cluster,
        videos,
        ReplicaLayout(block),
        dispatcher_factory=simulator._dispatcher_factory,
        backbone_mbps=simulator._backbone_mbps,
        redirection_pods=num_shards * simulator._redirection_pods,
        stream_limits=(list(limits) * num_shards if limits else None),
        # The base layout was validated at simulator construction and the
        # block layout is its K-fold direct sum; skip the O((KM)(KN))
        # re-validation.
        validate_layout=False,
    )

    all_times = np.concatenate([t.arrival_min for t in traces])
    all_videos = np.concatenate(
        [t.videos + shard * num_videos for shard, t in enumerate(traces)]
    )
    watches = [t.watch_min for t in traces]
    if any(w is not None for w in watches):
        if any(w is None for w in watches):
            raise ValueError(
                "shard traces must agree on carrying watch times"
            )
        all_watch = np.concatenate(watches)
    else:
        all_watch = None
    # Stable sort of the shard-ordered concatenation: equal-time arrivals
    # stay in shard-index order (any tie order gives identical per-pod
    # behavior — pods are disjoint — but a fixed one keeps the union
    # trace itself reproducible).
    order = np.argsort(all_times, kind="stable")
    merged_trace = RequestTrace(
        all_times[order],
        all_videos[order],
        all_watch[order] if all_watch is not None else None,
    )

    block_failures = None
    if failure_schedules is not None:
        schedules = list(failure_schedules)
        if len(schedules) != num_shards:
            raise ValueError(
                f"{len(schedules)} failure schedules for "
                f"{num_shards} shards"
            )
        block_failures = FailureSchedule(
            FailureEvent(
                event.time_min,
                event.server + shard * num_servers,
                event.down_min,
            )
            for shard, schedule in enumerate(schedules)
            for event in schedule
        )
    return block_sim, merged_trace, block_failures


def fold_unsharded(
    result: SimulationResult, num_shards: int
) -> SimulationResult:
    """Fold a block-system result onto the shared catalog view.

    The block system indexes ``K * M`` videos; the merged shard view sums
    pod copies of the same title, so the per-video histograms reshape to
    ``(K, M)`` and sum over pods (exact — integer counts).  Every other
    field is already in the merged result's shape.
    """
    check_int_in_range("num_shards", num_shards, 1)
    num_videos, remainder = divmod(
        int(result.per_video_requests.size), int(num_shards)
    )
    if remainder:
        raise ValueError(
            f"catalog size {result.per_video_requests.size} is not a "
            f"multiple of {num_shards} shards"
        )
    shape = (int(num_shards), num_videos)
    return dataclass_replace(
        result,
        per_video_requests=result.per_video_requests.reshape(shape).sum(axis=0),
        per_video_rejected=result.per_video_rejected.reshape(shape).sum(axis=0),
    )
