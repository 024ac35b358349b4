"""Tiny-size self-test of the benchmark.

Runs every workload end to end through the command, checks that every
metric named in BENCHMARK.json is printed with its unit, and checks
that the correctness gate fails a run on an oracle divergence, on a
nondeterministic end state, on a leaked shared-memory segment and when
the library sources are missing.  From the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
IN_PROCESS = [w for w, spec in workloads.WORKLOADS.items() if not spec.workers]
#: Per-layer counts that must repeat exactly for a seed, in-process.
EXACT = (
    "fol.rounds", "fol.multiplicity_max", "fol.multiplicity_mean",
    "fol.filtered_frac", "fol.attempts_mean",
    "runtime.carryover.lanes_carried", "runtime.executor.batches",
    "shard.migrations", "shard.cross_units",
)


def invoke(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return invoke(
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--tiny",
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stamp(proc: subprocess.CompletedProcess) -> dict:
    line = next(l for l in proc.stdout.splitlines() if l.startswith("stamp "))
    return json.loads(line[len("stamp "):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    proc = tiny(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert f" {m['name']} " in proc.stdout  # human-readable table too
    if not trace:
        for m in ("setup_s", "completed_frac", "peak_rss_mb"):
            assert out["metrics"][m]["value"] > 0, m
    info = stamp(proc)
    for key in ("nproc", "cpu", "python", "numpy", "commit", "seed"):
        assert info[key] not in ("", None), key


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_counts_and_state_repeat_for_a_seed(workload):
    first, second = tiny(workload, 1), tiny(workload, 1)
    assert first.returncode == 0 and second.returncode == 0
    a, b = last_json(first)["metrics"], last_json(second)["metrics"]
    for name in EXACT:
        assert a[name]["value"] == b[name]["value"], name
    assert stamp(first)["fingerprint"] == stamp(second)["fingerprint"]
    # The layer self times add up to the serving call.
    assert a["trace.ladder_gap_frac"]["value"] < 0.01


def _corrupt_cells_after_run(monkeypatch, on_calls):
    """Make StreamService.run shift one shared cell after the runs whose
    1-based call numbers are in ``on_calls`` (1 is the warm-up)."""
    from repro.runtime import StreamService

    original = StreamService.run
    calls = []

    def run(self, requests):
        metrics = original(self, requests)
        calls.append(1)
        if len(calls) in on_calls:
            ex = self.executor
            addr = int(ex._cell_ptrs[0]) + ex.cells.cells.offset("car")
            ex.vm.mem.poke(addr, ex.vm.mem.peek(addr) - 1)
        return metrics

    monkeypatch.setattr(StreamService, "run", run)


def _main(capsys, *args):
    code = bench.main(list(args))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_oracle_divergence_fails_the_run(monkeypatch, capsys):
    _corrupt_cells_after_run(monkeypatch, on_calls=range(1, 100))
    code, out = _main(capsys, "--workload", "stream-uniform", "--seconds", "0",
                      "--tiny")
    assert code == 1
    assert out["correct"] is False
    assert out["metrics"]["completed_frac"]["value"] < 1.0


def test_nondeterministic_state_fails_the_run(monkeypatch, capsys):
    _corrupt_cells_after_run(monkeypatch, on_calls={3})  # 2nd measured pass
    code, out = _main(capsys, "--workload", "stream-uniform", "--seconds", "0",
                      "--tiny")
    assert code == 1
    assert out["correct"] is False
    assert out["failed"] > 0


def test_leaked_segment_is_found_and_removed():
    from repro.serve.transport import ShmBlock

    block = ShmBlock.create((4,))
    name = block.name
    block.close()
    assert workloads.leaked_segments([name]) == [name]
    assert workloads.leaked_segments([name]) == []


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("--workload", "stream-uniform", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
