"""The benchmark's four workloads and one measured pass of each.

A *pass* builds its inputs from the seed through the library's own
generators, builds a fresh engine, serves every request once and checks
the end state.  A run repeats passes of identical work and reports
medians and rates over them (see ``run.py``), so each pass returns only
what it measured.

Closed-loop workloads (``stream-*``, ``shard-migrate``) serve a fixed
request count per pass: the carryover depth of a hot-key stream grows
with the count, so a fixed duration would change the work.  The
open-loop workload (``serve-open``) offers Poisson arrivals at a fixed
rate to a multi-process cluster, well below saturation.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from spans import SpanTracer

#: Shared state sizes of every workload.
TABLE_SIZE = 509
N_CELLS = 256
KEY_SPACE = 4096

#: A request meets its latency objective within this many seconds.
SLO_S = 0.050


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: Tuple[str, ...]
    skew: float
    batch: int
    requests: int  # per pass
    tiny_requests: int  # per pass under --tiny (the self-test)
    shards: int = 0  # > 0 = ShardCoordinator with live rebalancing
    workers: int = 0  # > 0 = ProcessCluster behind the asyncio frontend
    rate: float = 0.0  # open-loop offered load, requests per second


#: Why each workload exists, and which layer it stresses: README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "stream-uniform", ("hash", "list"), 0.0, 128, 20_000, 2_000,
        ),
        Workload(
            "stream-hot", ("hash", "xfer"), 1.2, 128, 20_000, 1_000,
        ),
        Workload(
            "shard-migrate", ("hash", "list", "xfer"), 0.9, 256, 40_000,
            2_000, shards=4,
        ),
        Workload(
            "serve-open", ("hash", "list", "xfer", "bst"), 1.2, 256, 1_500,
            300, workers=2, rate=300.0,
        ),
    )
}


class Batch(NamedTuple):
    """One engine ``execute`` call as the benchmark saw it."""

    seconds: float
    size: int
    carried: int
    rounds: int
    multiplicity: int
    cross_units: int
    migrations: int
    shard_sizes: Tuple[int, ...]
    worker_s: float  # slowest worker's own exec span (serve-open)
    exchange_s: float  # claim/commit phase (serve-open)


@dataclass
class PassResult:
    """What one pass measured and whether its end state was correct."""

    offered: int
    completed: int
    setup_s: float  # start until serving began (see FirstAdmission)
    run_s: float  # first admission until the last request completed
    call_s: float  # wall time of the whole serving call
    generate_s: float  # request generation through the library
    latencies: np.ndarray  # seconds, one per completed request
    counts: Dict[str, float]  # paper quantities; exact for one seed
    digest: str  # end-state fingerprint
    errors: List[str] = field(default_factory=list)
    batches: List[Batch] = field(default_factory=list)
    lags: Optional[np.ndarray] = None  # serve-open admission lag, seconds
    carry_depth: int = 0
    carried: int = 0
    spans: Optional[dict] = None


class FirstAdmission:
    """Stamps the wall time of a queue's first admitted offer, then
    removes itself so later offers run unwrapped.  Methods are looked up
    on the class at call time, so a :class:`SpanTracer` installed later
    still sees every call.

    ``serving_from`` is when serving began: the admission time less the
    request's scheduled arrival offset, which in an open loop is time
    spent waiting for the first arrival, not set-up."""

    def __init__(self, queue) -> None:
        self.at: Optional[float] = None
        self.serving_from: Optional[float] = None
        self._queue = queue
        queue.offer = self._first

    def _first(self, req, now):
        queue = self._queue
        admitted = type(queue).offer(queue, req, now)
        if admitted:
            self.at = time.perf_counter()
            self.serving_from = self.at - req.arrival
            del self._queue.offer
        return admitted


class BatchProbe:
    """Wraps one engine's ``execute`` to record every batch result and,
    for closed loops, each request's in-service latency: from the start
    of the first batch it joined to the end of the batch that completed
    it.  Per-request work is done only for carried lanes.  Like
    :class:`FirstAdmission`, it calls the class's method at call time."""

    def __init__(self, engine, in_service: bool) -> None:
        self.batches: List[Batch] = []
        self.first_pass: List[Tuple[float, int]] = []  # (duration, count)
        self.carried_latency: List[float] = []
        self._entered: Dict[int, float] = {}
        self._in_service = in_service
        cls = type(engine)

        def execute(batch):
            t0 = time.perf_counter()
            result = cls.execute(engine, batch)
            t1 = time.perf_counter()
            self._observe(batch, result, t0, t1)
            return result

        engine.execute = execute

    def _observe(self, batch, result, t0: float, t1: float) -> None:
        self.batches.append(
            Batch(
                t1 - t0,
                len(batch),
                len(result.carried),
                result.rounds,
                result.multiplicity,
                result.cross_units,
                result.migrations,
                result.shard_sizes,
                max(result.shard_exec_spans, default=0.0),
                result.exchange_span,
            )
        )
        if not self._in_service:
            return
        entered = self._entered
        first = 0
        for req in result.completed:
            if req.attempts:
                self.carried_latency.append(t1 - entered.pop(req.rid))
            else:
                first += 1
        if first:
            self.first_pass.append((t1 - t0, first))
        for req in result.carried:
            if not req.attempts:
                entered[req.rid] = t0

    def latencies(self) -> np.ndarray:
        if not self.first_pass:
            return np.asarray(self.carried_latency)
        durations, counts = zip(*self.first_pass)
        return np.concatenate(
            [np.repeat(durations, counts), self.carried_latency]
        )


def batch_counts(batches: List[Batch], requests) -> Dict[str, float]:
    """Paper quantities of one pass, from its batch results.  They
    depend only on the seed, so they must repeat exactly."""
    lanes = sum(b.size for b in batches)
    mults = [b.multiplicity for b in batches]
    return {
        "batches": len(batches),
        "rounds": sum(b.rounds for b in batches),
        "multiplicity_max": max(mults, default=0),
        "multiplicity_mean": float(np.mean(mults)) if mults else 0.0,
        "filtered_frac": sum(b.carried for b in batches) / lanes if lanes else 0.0,
        "attempts_mean": float(np.mean([r.attempts for r in requests])),
        "cross_units": sum(b.cross_units for b in batches),
        "migrations": sum(b.migrations for b in batches),
        "lane_imbalance": lane_imbalance(batches),
    }


def lane_imbalance(batches: List[Batch]) -> float:
    """Mean over sharded batches of busiest shard's lanes / mean lanes."""
    ratios = [
        max(b.shard_sizes) * len(b.shard_sizes) / sum(b.shard_sizes)
        for b in batches
        if sum(b.shard_sizes)
    ]
    return float(np.mean(ratios)) if ratios else 0.0


def canonical_digest(engine) -> str:
    """Order-independent end-state digest (chain multisets, cell values,
    tree contents): equal for two runs that applied the same requests
    in different batch orders."""
    h = hashlib.sha256()
    h.update(repr(sorted(engine.chain_multisets().items())).encode())
    h.update(repr(engine.list_values()).encode())
    h.update(repr(engine.bst_inorder()).encode())
    return h.hexdigest()


def verify(
    engine, applied, completed: int, offered: int, oracle: bool
) -> List[str]:
    """Correctness gate of one pass: every offered request completed
    and, with ``oracle``, the end state equals the scalar oracle's over
    the ``applied`` requests.  (A run diffs its first pass against the
    oracle and requires every later pass of the seed to end in the same
    state.)"""
    from repro.audit.oracle import diff_stream_state

    errors = []
    if completed != offered:
        errors.append(f"{offered - completed} requests not completed")
    if not oracle:
        return errors
    divergence = diff_stream_state(
        engine, applied, table_size=TABLE_SIZE, n_cells=N_CELLS,
        key_space=KEY_SPACE,
    )
    if divergence is not None:
        errors.append(f"oracle divergence: {divergence}")
    return errors


def serve(call, tracer: Optional[SpanTracer]):
    """Time ``call()``, traced when ``tracer`` is given; returns
    (start, end, span totals or None)."""
    if tracer is not None:
        tracer.reset()
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        call()
        end = time.perf_counter()
    return start, end, tracer.totals() if tracer is not None else None


# ----------------------------------------------------------------------
# in-process closed loop
# ----------------------------------------------------------------------
def closed_loop_pass(
    wl: Workload, seed: int, n: int, tracer: Optional[SpanTracer] = None,
    oracle: bool = True,
) -> PassResult:
    from repro.runtime import (
        FixedBatcher,
        StreamExecutor,
        StreamService,
        closed_loop_workload,
    )
    from repro.shard import ShardCoordinator

    gc.collect()
    t0 = time.perf_counter()
    requests = closed_loop_workload(
        np.random.default_rng(seed), n, kinds=wl.kinds, skew=wl.skew,
        key_space=KEY_SPACE, n_cells=N_CELLS,
    )
    t_gen = time.perf_counter()
    sizes = dict(
        table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE,
        backend="native", seed=seed,
    )
    if wl.shards:
        engine = ShardCoordinator.for_workload(
            requests, shards=wl.shards, rebalance=True, **sizes
        )
    else:
        engine = StreamExecutor.for_workload(requests, **sizes)
    service = StreamService(engine, batcher=FixedBatcher(wl.batch))
    first = FirstAdmission(service.queue)
    probe = BatchProbe(engine, in_service=True)
    t_call, t_end, spans = serve(lambda: service.run(requests), tracer)
    completed = service.metrics.total_completed
    return PassResult(
        offered=n,
        completed=completed,
        setup_s=first.serving_from - t0,
        run_s=t_end - first.at,
        call_s=t_end - t_call,
        generate_s=t_gen - t0,
        latencies=probe.latencies(),
        counts=batch_counts(probe.batches, requests),
        digest=engine.state_fingerprint(),
        errors=verify(engine, requests, completed, n, oracle),
        batches=probe.batches,
        carry_depth=service.carry.max_depth,
        carried=service.carry.total_carried,
        spans=spans,
    )


# ----------------------------------------------------------------------
# multi-process open loop
# ----------------------------------------------------------------------
def shm_names(cluster) -> List[str]:
    """Names of every shared-memory segment the cluster created."""
    return [
        link[key].name
        for link in cluster._links
        for key in ("state", "inbox", "outbox")
    ]


def leaked_segments(names: List[str]) -> List[str]:
    """Segments among ``names`` that still exist (unlinking them)."""
    from multiprocessing import shared_memory

    leaked = []
    for name in names:
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        leaked.append(name)
        shm.close()
        shm.unlink()
    return leaked


def open_loop_pass(
    wl: Workload, seed: int, n: int, tracer: Optional[SpanTracer] = None,
    oracle: bool = True,
) -> PassResult:
    from repro.runtime import BoundedQueue, FixedBatcher
    from repro.serve import ProcessCluster, ServeFrontend
    from repro.serve.loadgen import timed_workload

    gc.collect()
    t0 = time.perf_counter()
    requests = timed_workload(
        np.random.default_rng(seed), n, kinds=wl.kinds, skew=wl.skew,
        key_space=KEY_SPACE, n_cells=N_CELLS, rate=wl.rate,
    )
    t_gen = time.perf_counter()
    cluster = ProcessCluster.for_workload(
        requests, shards=wl.workers, backend="native", table_size=TABLE_SIZE,
        n_cells=N_CELLS, key_space=KEY_SPACE, seed=seed,
    )
    names = shm_names(cluster)
    try:
        frontend = ServeFrontend(
            cluster, batcher=FixedBatcher(wl.batch),
            queue=BoundedQueue(8192), linger=0.002,
        )
        first = FirstAdmission(frontend.queue)
        probe = BatchProbe(cluster, in_service=False)
        # The tracer goes in after the workers forked: they run unwrapped.
        t_call, t_end, spans = serve(
            lambda: asyncio.run(frontend.run(requests)), tracer
        )
    finally:
        cluster.shutdown()
    done = frontend.completed
    errors = verify(cluster.coordinator, done, len(done), n, oracle)
    leaked = leaked_segments(names)
    if leaked:
        errors.append(f"leaked shared-memory segments: {leaked}")
    return PassResult(
        offered=n,
        completed=len(done),
        setup_s=first.serving_from - t0,
        run_s=t_end - first.at,
        call_s=t_end - t_call,
        generate_s=t_gen - t0,
        latencies=np.asarray([r.latency for r in done]),
        lags=np.asarray([r.enqueued - r.arrival for r in done]),
        counts=batch_counts(probe.batches, done),
        digest=canonical_digest(cluster.coordinator),
        errors=errors,
        batches=probe.batches,
        carry_depth=frontend.carry.max_depth,
        carried=frontend.carry.total_carried,
        spans=spans,
    )


def run_pass(
    wl: Workload, seed: int, n: int, tracer: Optional[SpanTracer] = None,
    oracle: bool = True,
) -> PassResult:
    if wl.workers:
        return open_loop_pass(wl, seed, n, tracer, oracle)
    return closed_loop_pass(wl, seed, n, tracer, oracle)


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker process, if one was
    started, and wait for it to exit."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
