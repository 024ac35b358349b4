"""The native backend: FOL plans as raw NumPy, no cycle accounting.

Same plans, same end states, real wall-clock speed.  Three pieces:

* :class:`NativeMemory` / :class:`NativeOps` — the machine facade with
  every cycle charge and address check compiled out.  Crucially the
  ``"arbitrary"`` conflict policy still draws from the *same seeded
  rng in the same order* as the simulator (both funnel through
  :meth:`~repro.machine.memory.Memory._raw_scatter`), which is what
  makes end states bit-identical across backends under fixed seeds —
  the cross-backend parity suite depends on it.
* A drjit/Enoki-style **recorded loop**: the first time a plan shape
  (arity, work offset, policy) is seen, the round's typed op program
  (scatter labels → gather → compare → filter) is compiled into one
  fused closure over ``memory.words``; subsequent rounds replay the
  closure, amortising per-op Python dispatch.  Kinds that drive the
  facade directly (the BST claim-descend loop, the sort probe/shift
  rounds) never reach it.
* :class:`NativeBackend.run_fol` — carryover mode runs one recorded
  round per batch; retry mode replays it until the index vector drains
  (the plan's :class:`~repro.backend.plan.LoopUntilEmpty`).

Uncalibrated: the counter is a null ledger pinned at zero, simulated-
cycle features (tracing, deadline batching, cost-model overrides) are
rejected up front, and invariant auditing is unavailable (audit hooks
live on the charged scatter path).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import DeadlockError, ReproError
from ..machine.counter import CycleCounter
from ..machine.memory import WORD_DTYPE, Memory
from ..machine.vm import VectorMachine
from . import Backend, register_backend
from .plan import CompareLabels, FilterSurvivors, FolPlan, GatherBack, ScatterLabels


class NullCounter(CycleCounter):
    """A cycle ledger that ignores every charge (total stays 0.0)."""

    def charge_scalar(self, cycles: float, category: str = "scalar") -> None:
        self.scalar_instructions += 1

    def charge_vector(self, cycles: float, n: int, category: str = "vector") -> None:
        self.vector_instructions += 1


class NativeMemory(Memory):
    """Word storage with uncharged, unchecked access paths.

    Only :meth:`~repro.machine.memory.Memory._raw_scatter` is shared
    with the simulator — deliberately, so the ``"arbitrary"`` policy's
    permutation draws stay in lock-step between backends.
    """

    def __init__(self, size: int, seed: int = 0) -> None:
        super().__init__(size, counter=NullCounter(), seed=seed)

    # -- scalar port ----------------------------------------------------
    def sload(self, addr: int) -> int:
        return int(self.words[addr])

    def sstore(self, addr: int, value: int) -> None:
        self.words[int(addr)] = value

    # -- vector port ----------------------------------------------------
    def vload(self, base: int, n: int) -> np.ndarray:
        return self.words[base : base + n].copy()

    def vstore(self, base: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=WORD_DTYPE)
        self.words[base : base + values.size] = values

    def fill(self, base: int, n: int, value: int) -> None:
        self.words[base : base + n] = value

    def gather(self, addrs: np.ndarray) -> np.ndarray:
        # Fancy indexing already copies; no extra .copy() needed.
        return self.words[np.asarray(addrs, dtype=np.int64)]

    def scatter(self, addrs, values, policy: str = "arbitrary") -> None:
        self._raw_scatter(
            np.asarray(addrs, dtype=np.int64),
            np.asarray(values, dtype=WORD_DTYPE),
            policy,
        )

    def scatter_masked(self, addrs, values, mask, policy: str = "arbitrary") -> None:
        mask = np.asarray(mask, dtype=bool)
        self._raw_scatter(
            np.asarray(addrs, dtype=np.int64)[mask],
            np.asarray(values, dtype=WORD_DTYPE)[mask],
            policy,
        )


class NativeOps(VectorMachine):
    """The ops facade with all cycle charges compiled out."""

    def _charge_alu(self, n: int) -> None:
        pass

    def _charge_compress(self, n: int) -> None:
        pass

    def _charge_reduce(self, n: int) -> None:
        pass

    def loop_overhead(self) -> None:
        pass

    def attach_audit(self, auditor) -> None:
        if auditor is not None:
            raise ReproError(
                "invariant auditing needs the charged scatter path; "
                "run the sim backend to audit"
            )
        self.mem.audit = None


# ----------------------------------------------------------------------
# recorded-loop compilation
# ----------------------------------------------------------------------
def compile_round(round_ops: Tuple[object, ...]):
    """Compile one plan round (the typed op tuple from
    :meth:`FolPlan.round_ops`) into a fused closure.

    ``replay(mem, addr_vectors, label_vectors) -> (winners, losers)``
    performs the whole scatter→gather→compare→filter round with direct
    array code — one Python call per round instead of one per op.  The
    scatter still routes through ``mem._raw_scatter`` (rng parity);
    with ``scalar_tail`` the last tuple's labels land via scalar
    stores after the vector scatters, mirroring §3.3 exactly.
    """
    if len(round_ops) != 4 or not (
        isinstance(round_ops[0], ScatterLabels)
        and isinstance(round_ops[1], GatherBack)
        and isinstance(round_ops[2], CompareLabels)
        and isinstance(round_ops[3], FilterSurvivors)
    ):
        raise ReproError(
            f"cannot record round: unexpected op shape "
            f"{tuple(type(op).__name__ for op in round_ops)}"
        )
    scatter = round_ops[0]
    offset = int(scatter.work_offset)
    policy = scatter.policy
    scalar_tail = bool(scatter.scalar_tail)

    def replay(mem, addr_vectors, label_vectors):
        words = mem.words
        works = [v + offset for v in addr_vectors] if offset else addr_vectors
        if scalar_tail:
            for wa, lb in zip(works, label_vectors):
                mem._raw_scatter(wa[:-1], lb[:-1], policy)
            for wa, lb in zip(works, label_vectors):
                words[wa[-1]] = lb[-1]
        else:
            for wa, lb in zip(works, label_vectors):
                mem._raw_scatter(wa, lb, policy)
        survived = None
        for wa, lb in zip(works, label_vectors):
            mask = words[wa] == lb
            survived = mask if survived is None else survived & mask
        winners = np.flatnonzero(survived)
        if winners.size == 0:
            raise DeadlockError(
                "recorded FOL round produced no survivors — ELS condition violated"
            )
        return winners, np.flatnonzero(~survived)

    return replay


def _labels_for(n: int, arity: int) -> List[np.ndarray]:
    """Unique-across-vectors labels, uncharged (native has no ledger)."""
    return [
        np.arange(k * n, (k + 1) * n, dtype=np.int64) for k in range(arity)
    ]


@register_backend
class NativeBackend(Backend):
    """Raw-NumPy execution with recorded-loop replay (no cycle model)."""

    name = "native"
    calibrated = False

    def __init__(self) -> None:
        self._rounds: Dict[Tuple[int, int, str], object] = {}

    def make_machine(self, words: int, *, cost_model=None, seed: int = 0):
        if cost_model is not None:
            raise ReproError(
                "the native backend has no cycle model; cost_model "
                "overrides only apply to the sim backend"
            )
        return NativeOps(NativeMemory(words, seed=seed))

    def _recorded(self, plan: FolPlan):
        key = (plan.arity, plan.work_offset, plan.policy)
        fn = self._rounds.get(key)
        if fn is None:
            fn = compile_round(plan.round_ops())
            self._rounds[key] = fn
        return fn

    # ------------------------------------------------------------------
    def run_fol(self, executor, plan: FolPlan, reqs, result) -> int:
        from ..engine.spec import _max_multiplicity

        ops = executor.vm
        result.completed.extend(reqs[i] for i in plan.precompleted)
        if plan.live.size:
            self._run_recorded(executor, ops, plan, reqs, result)
        return _max_multiplicity(plan.measure)

    # -- recorded: fused round, replayed --------------------------------
    def _run_recorded(self, executor, ops, plan, reqs, result) -> None:
        replay = self._recorded(plan)
        live = plan.live
        n = live.size
        labels = _labels_for(n, plan.arity)
        if executor.carryover:
            winners, losers = replay(ops.mem, plan.addrs, labels)
            plan.commit(ops, winners)
            result.completed.extend(reqs[i] for i in live[winners])
            for i in live[losers]:
                reqs[i].group = plan.group_of(int(i))
                result.carried.append(reqs[i])
            result.rounds += 1
        else:
            positions = np.arange(n, dtype=np.int64)
            rounds = 0
            max_rounds = n + plan.arity
            deferred: List[np.ndarray] = []
            while positions.size:
                if rounds >= max_rounds:
                    raise DeadlockError(
                        f"recorded loop exceeded {max_rounds} rounds with "
                        f"{positions.size} lanes remaining"
                    )
                sub_addrs = [v[positions] for v in plan.addrs]
                sub_labels = [x[positions] for x in labels]
                winners, losers = replay(ops.mem, sub_addrs, sub_labels)
                if plan.arity == 1:
                    # fol1 interleaves each set's main processing with
                    # the rounds; match its (rng-visible) order exactly.
                    plan.commit(ops, positions[winners])
                else:
                    # fol_star computes the whole decomposition first
                    # and commits the sets afterwards; commits draw from
                    # the shared rng, so the order is parity-critical.
                    deferred.append(positions[winners])
                positions = positions[losers]
                rounds += 1
            for s in deferred:
                plan.commit(ops, s)
            result.completed.extend(reqs[i] for i in live)
            result.rounds += rounds
