"""Layer spans timed from outside the program.

:class:`SpanTracer` wraps the public entry points of each layer for the
duration of a ``with`` block and restores the originals afterwards, so
nothing under ``src/`` changes.  Every wrapped call is one span; spans
nest on a per-thread stack (service run -> executor execute -> spec run
-> backend run_fol), and a span's *self* time is its duration minus the
durations of its direct children.  Self times of spans nested under one
root therefore add up to the root's duration: that sum is the layer
ladder.

Spans are kept as per-thread running totals (self time, calls, units),
not as event lists: the benchmark reports totals per pass, and a list
of millions of queue-offer events would cost more than the offers.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Tuple

#: (span name, module, class, method).  Spans of one name are summed.
#: Inherited methods are patched on the class that defines them, once.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("runtime.service", "repro.runtime.service", "StreamService", "run"),
    ("runtime.executor", "repro.runtime.executor", "StreamExecutor", "execute"),
    ("runtime.queue.offer", "repro.runtime.queue", "BoundedQueue", "offer"),
    ("runtime.queue.take", "repro.runtime.queue", "BoundedQueue", "take"),
    ("runtime.carryover.drain", "repro.runtime.carryover", "CarryoverBuffer", "drain_ready"),
    ("runtime.carryover.put", "repro.runtime.carryover", "CarryoverBuffer", "put"),
    ("backend.run_fol", "repro.backend.native", "NativeBackend", "run_fol"),
    ("shard.split", "repro.shard.router", "Router", "split"),
    ("shard.coordinator", "repro.shard.coordinator", "ShardCoordinator", "execute"),
    ("shard.migrate", "repro.shard.coordinator", "ShardCoordinator", "migrate_index"),
    ("serve.cluster", "repro.serve.cluster", "ProcessCluster", "execute"),
    ("obs.record", "repro.runtime.metrics", "StreamMetrics", "record_batch"),
    ("obs.record", "repro.obs.core", "MetricsBase", "record_completion"),
    ("obs.record", "repro.serve.metrics", "ServeMetrics", "record_exchange"),
)

#: Span for every registered ``WorkloadSpec.run`` (patched per instance,
#: since kinds override ``run`` or inherit the plan-dispatching default).
SPEC_SPAN = "engine.spec_run"

#: Extra per-span counters: span name -> f(args) giving the amount to add.
#: ``run_fol(self, executor, plan, reqs, result)`` counts its lanes.
COUNTERS: Dict[str, Callable[[tuple], int]] = {
    "backend.run_fol": lambda args: len(args[3]),
}


class SpanStats:
    """Running totals of one span name on one thread."""

    __slots__ = ("self_time", "calls", "units")

    def __init__(self) -> None:
        self.self_time = 0.0
        self.calls = 0
        self.units = 0


class SpanTracer:
    """Times calls into each layer while installed (``with tracer:``)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, SpanStats]] = []
        self._restore: List[Callable[[], None]] = []

    # -- per-thread state ----------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return local

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` timed as span ``name``."""
        counter = COUNTERS.get(name)
        perf = time.perf_counter

        def timed(*args, **kwargs):
            local = self._state()
            stack = local.stack
            frame = [0.0]  # time covered by direct children
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats = local.table.get(name)
                if stats is None:
                    stats = local.table[name] = SpanStats()
                stats.self_time += dur - frame[0]
                stats.calls += 1
                if counter is not None:
                    stats.units += counter(args)

        timed.__wrapped__ = fn
        return timed

    # -- install / restore ----------------------------------------------
    def __enter__(self) -> "SpanTracer":
        import importlib

        from repro.engine.spec import specs

        done = set()
        for name, module, cls_name, attr in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            owner = next(k for k in cls.__mro__ if attr in k.__dict__)
            if (owner, attr) in done:
                continue
            done.add((owner, attr))
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, name))
            self._restore.append(
                lambda o=owner, a=attr, f=original: setattr(o, a, f)
            )
        for spec in specs():
            spec.run = self.wrap(spec.run, SPEC_SPAN)
            self._restore.append(lambda s=spec: s.__dict__.pop("run"))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results ----------------------------------------------------------
    def reset(self) -> None:
        """Zero every total (call between passes, with no span open)."""
        with self._lock:
            for table in self._tables:
                table.clear()

    def totals(self) -> Dict[str, SpanStats]:
        """Totals per span name, merged over threads."""
        out: Dict[str, SpanStats] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, stats in list(table.items()):
                acc = out.setdefault(name, SpanStats())
                acc.self_time += stats.self_time
                acc.calls += stats.calls
                acc.units += stats.units
        return out

