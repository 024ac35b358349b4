"""The repository's benchmark: four workloads, every layer, one command.

Run from the repository root::

    python3 perfbench/run.py --workload stream-uniform --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30        # every workload

A run repeats *passes* of identical work (inputs built from ``--seed``
through the library's generators, a fresh engine, every request served
once, the end state checked) for ``--seconds`` of wall time, and
reports medians over passes (throughput: completed requests over the
summed serving time of all passes).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics: wall-time speed (throughput and
latency, which follow the shared host too closely to be gated) from the
untraced passes, the layer ladder from the traced ones.  End-to-end
metrics never come from a traced pass.  The metric tables and what
each layer metric should move are in ``perfbench/README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any pass diverges from the scalar oracle, leaks a
shared-memory segment, or repeats a seed with a different end state or
different counts; 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: At least this many measured passes per arm, so set-up time is a
#: median of several set-ups.
MIN_PASSES = 3

#: Counts that depend only on the seed; they must repeat exactly across
#: passes of the in-process workloads (serve-open batches by wall time).
EXACT_COUNTS = (
    "batches", "rounds", "multiplicity_max", "multiplicity_mean",
    "filtered_frac", "attempts_mean", "cross_units", "migrations",
    "lane_imbalance", "carried",
)

E2E_UNITS = {
    "setup_s": "s",
    "slo_met_frac": "ratio",
    "completed_frac": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "throughput.rps": "1/s",
    "latency.p50_ms": "ms",
    "latency.p99_ms": "ms",
    "runtime.queue.busy_s": "s",
    "runtime.queue.offers": "count",
    "runtime.service.self_s": "s",
    "obs.record_s": "s",
    "runtime.carryover.drain_s": "s",
    "runtime.carryover.put_s": "s",
    "runtime.carryover.lanes_carried": "count",
    "runtime.carryover.max_depth": "count",
    "runtime.executor.self_s": "s",
    "runtime.executor.batches": "count",
    "engine.make_request_us": "us",
    "engine.plan_self_s": "s",
    "backend.run_fol_s": "s",
    "backend.run_fol_calls": "count",
    "backend.lanes": "count",
    "fol.rounds": "count",
    "fol.multiplicity_max": "count",
    "fol.multiplicity_mean": "count",
    "fol.filtered_frac": "ratio",
    "fol.attempts_mean": "count",
    "shard.split_s": "s",
    "shard.coordinator_self_s": "s",
    "shard.cross_units": "count",
    "shard.lane_imbalance": "ratio",
    "shard.migrate_s": "s",
    "shard.migrations": "count",
    "serve.exchanges": "count",
    "serve.batch_mean": "count",
    "serve.exchange_ms_p50": "ms",
    "serve.exchange_ms_p99": "ms",
    "serve.worker_ms_p50": "ms",
    "serve.ipc_ms_p50": "ms",
    "serve.loadgen_lag_ms_p99": "ms",
    "trace.ladder_gap_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def measure(wl, seed: int, seconds: float, trace: bool, tiny: bool):
    """Warm up once, then repeat passes (alternating untraced and traced
    under ``trace``) for ``seconds`` of wall time: no pass starts that
    would be expected to end after it, once :data:`MIN_PASSES` are done.
    The warm-up and the first measured pass are diffed against the
    scalar oracle; later passes must end in the first pass's state.
    Returns (warm-up, untraced passes, traced passes)."""
    from spans import SpanTracer
    from workloads import run_pass

    n = wl.tiny_requests if tiny else wl.requests
    warmup = run_pass(wl, seed, max(n // 10, 100))
    tracer = SpanTracer() if trace else None
    plain, traced, walls = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(wl, seed, n, oracle=len(plain) == 0))
        if tracer is not None:
            traced.append(run_pass(wl, seed, n, tracer, oracle=False))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(plain) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            return warmup, plain, traced


def consistency_errors(wl, passes) -> List[Tuple[int, str]]:
    """(pass index, error) for every pass whose end state or exact
    counts differ from the first pass of the same seed."""
    ref = passes[0]
    errors = []
    for i, p in enumerate(passes[1:], start=1):
        if p.digest != ref.digest:
            errors.append((i, f"nondeterminism: pass {i} end state "
                              f"{p.digest[:12]} != {ref.digest[:12]}"))
        if wl.workers:
            continue  # serve-open batch composition follows wall time
        for key in EXACT_COUNTS:
            a, b = pass_counts(ref)[key], pass_counts(p)[key]
            if a != b:
                errors.append((i, f"nondeterminism: pass {i} count "
                                  f"{key}={b!r} != {a!r}"))
    return errors


def pass_counts(p) -> Dict[str, float]:
    return dict(p.counts, carried=p.carried)


def peak_rss_mb(workers: int) -> float:
    """Peak resident set of this process plus, on serve-open, each
    worker at the largest worker's peak (getrusage reports the largest
    reaped child)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def percentile_ms(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def median_percentile_ms(passes, q: float) -> float:
    """Median over passes of each pass's latency percentile ``q``, so one
    pass hit by a host stall does not set the run's figure."""
    return statistics.median(percentile_ms(p.latencies, q) for p in passes)


def rate(passes) -> float:
    """Completed requests per second of serving time, over all passes.
    Every second of serving weighs alike; cut from traces of identical
    passes into runs, it spread less than a median of per-pass rates."""
    return sum(p.completed for p in passes) / sum(p.run_s for p in passes)


def end_to_end(wl, passes, good) -> Dict[str, float]:
    """Set-up is a median over passes; the fractions count every
    offered request of the run."""
    from workloads import SLO_S

    kept = [p for p, g in zip(passes, good) if g]
    offered = sum(p.offered for p in passes)
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "slo_met_frac": sum(
            int((p.latencies <= SLO_S).sum()) for p in kept
        ) / offered,
        "completed_frac": sum(p.completed for p in kept) / offered,
        "peak_rss_mb": peak_rss_mb(wl.workers),
    }


def mean_spans(traced) -> Dict[str, "SpanStats"]:
    """Span totals averaged per traced pass."""
    from spans import SpanStats

    out: Dict[str, SpanStats] = {}
    for p in traced:
        for name, stats in p.spans.items():
            acc = out.setdefault(name, SpanStats())
            for field in SpanStats.__slots__:
                value = getattr(acc, field) + getattr(stats, field) / len(traced)
                setattr(acc, field, value)
    return out


def per_layer(wl, plain, traced) -> Dict[str, float]:
    """Per-layer metrics: span times averaged per traced pass, counts of
    the first traced pass (they repeat exactly in-process)."""
    import numpy as np

    spans = mean_spans(traced)

    def self_s(*names):
        return sum(spans[n].self_time for n in names if n in spans)

    def calls(name):
        return spans[name].calls if name in spans else 0

    first = traced[0]
    c = first.counts
    out = {
        # Speed is reported here, ungated, from the untraced passes: it
        # follows the shared host's load more than the code.
        "throughput.rps": rate(plain),
        "latency.p50_ms": median_percentile_ms(plain, 50),
        "latency.p99_ms": median_percentile_ms(plain, 99),
        "runtime.queue.busy_s": self_s("runtime.queue.offer", "runtime.queue.take"),
        "runtime.queue.offers": calls("runtime.queue.offer"),
        "runtime.service.self_s": self_s("runtime.service"),
        "obs.record_s": self_s("obs.record"),
        "runtime.carryover.drain_s": self_s("runtime.carryover.drain"),
        "runtime.carryover.put_s": self_s("runtime.carryover.put"),
        "runtime.carryover.lanes_carried": first.carried,
        "runtime.carryover.max_depth": first.carry_depth,
        "runtime.executor.self_s": self_s("runtime.executor"),
        "runtime.executor.batches": calls("runtime.executor"),
        "engine.make_request_us": statistics.median(
            p.generate_s / p.offered for p in plain + traced
        ) * 1e6,
        "engine.plan_self_s": self_s("engine.spec_run"),
        "backend.run_fol_s": self_s("backend.run_fol"),
        "backend.run_fol_calls": calls("backend.run_fol"),
        "backend.lanes": spans["backend.run_fol"].units
        if "backend.run_fol" in spans else 0,
        "fol.rounds": c["rounds"],
        "fol.multiplicity_max": c["multiplicity_max"],
        "fol.multiplicity_mean": c["multiplicity_mean"],
        "fol.filtered_frac": c["filtered_frac"],
        "fol.attempts_mean": c["attempts_mean"],
        "shard.split_s": self_s("shard.split"),
        "shard.coordinator_self_s": self_s("shard.coordinator"),
        "shard.cross_units": c["cross_units"],
        "shard.lane_imbalance": c["lane_imbalance"],
        "shard.migrate_s": self_s("shard.migrate"),
        "shard.migrations": c["migrations"],
    }
    serve = {k: 0.0 for k in LAYER_UNITS if k.startswith("serve.")}
    if wl.workers:
        batches = [b for p in traced for b in p.batches]
        exchange = np.asarray([b.seconds for b in batches])
        worker = np.asarray([b.worker_s for b in batches])
        ipc = exchange - worker - np.asarray([b.exchange_s for b in batches])
        lags = np.concatenate([p.lags for p in traced])
        serve = {
            "serve.exchanges": calls("serve.cluster"),
            "serve.batch_mean": float(np.mean([b.size for b in batches])),
            "serve.exchange_ms_p50": percentile_ms(exchange, 50),
            "serve.exchange_ms_p99": percentile_ms(exchange, 99),
            "serve.worker_ms_p50": percentile_ms(worker, 50),
            "serve.ipc_ms_p50": percentile_ms(ipc, 50),
            "serve.loadgen_lag_ms_p99": percentile_ms(lags, 99),
        }
    out.update(serve)
    # The ladder: in-process spans all nest under the service run, so
    # their self times must add up to the measured serving call.
    call_s = statistics.fmean(p.call_s for p in traced)
    out["trace.ladder_gap_frac"] = (
        0.0 if wl.workers
        else abs(sum(v.self_time for v in spans.values()) - call_s) / call_s
    )
    if wl.workers:  # open loop: throughput is the offered rate
        base = median_percentile_ms(plain, 50)
        slow = median_percentile_ms(traced, 50)
        out["trace.overhead_frac"] = slow / base - 1.0
    else:
        out["trace.overhead_frac"] = rate(plain) / rate(traced) - 1.0
    return out


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def stamp(seed: int) -> Dict[str, object]:
    """The machine and code a result ran on."""
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def run_workload(name: str, args):
    """Measure one workload and print its report; returns (correct,
    attempted, failed, metrics, units)."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    warmup, plain, traced = measure(
        wl, args.seed, args.seconds, bool(args.trace), args.tiny
    )
    passes = plain + traced
    good = [not p.errors for p in passes]
    problems = [f"warm-up: {e}" for e in warmup.errors]
    for i, p in enumerate(passes):
        problems += [f"pass {i}: {e}" for e in p.errors]
    for i, err in consistency_errors(wl, passes):
        good[i] = False
        problems.append(err)
    correct = not problems

    if args.trace:
        measured, kept = traced, good[len(plain):]
        metrics, units = per_layer(wl, plain, traced), LAYER_UNITS
    else:
        measured, kept = plain, good[: len(plain)]
        metrics, units = end_to_end(wl, plain, kept), E2E_UNITS
    attempted = sum(p.offered for p in measured)
    failed = attempted - sum(p.completed for p, g in zip(measured, kept) if g)

    print(f"== {name}")
    print(
        f"   {len(plain)} untraced + {len(traced)} traced passes of "
        f"{plain[0].offered} requests; "
        f"{sum(len(p.latencies) for p in measured)} latency samples"
    )
    print("   per untraced pass: requests/s, p50 ms: " + ", ".join(
        f"{p.completed / p.run_s:.0f} {percentile_ms(p.latencies, 50):.3f}"
        for p in plain
    ))
    for key, value in metrics.items():
        print(f"   {key:34s} {value:14.6g} {units[key]}")
    if args.trace:
        total = statistics.fmean(p.call_s for p in traced)
        print(f"   ladder (self time per traced pass, run {total:.4f} s):")
        spans = sorted(mean_spans(traced).items(), key=lambda kv: -kv[1].self_time)
        for span, stats in spans:
            secs = stats.self_time
            print(f"     {span:30s} {secs:10.4f} s {secs / total:7.1%}")
    for msg in problems:
        print(f"   FAIL {msg}")
    info = dict(stamp(args.seed), workload=name, fingerprint=passes[0].digest[:16])
    print("stamp " + json.dumps(info, sort_keys=True))
    return correct, attempted, failed, metrics, units


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark on one workload (or all)."
    )
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall time of the measured passes per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from traced passes")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny passes (the self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, stop_resource_tracker

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")

    all_ok, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, a, f, values, units = run_workload(name, args)
            all_ok &= ok
            attempted += a
            failed += f
            prefix = "" if len(names) == 1 else f"{name}."
            for key, value in values.items():
                metrics[prefix + key] = {"value": value, "unit": units[key]}
    finally:
        stop_resource_tracker()
    print(json.dumps({
        "correct": all_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
