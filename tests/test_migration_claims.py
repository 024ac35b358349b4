"""Migration ∩ two-phase claim/commit: a bin handoff racing an
in-flight cross-shard FOL* transfer must neither drop nor double-apply
the claim.

The hazard: an ``"xfer"`` tuple routed to a bin that is mid-handoff.
If it executed against the moving bin, its claim could land on the old
owner while the state lands on the new one (a dropped update), or
replay against both (a double-apply).  The engine's defence is
*parking* — the router diverts any request touching an in-flight bin
onto the carryover path *before* the claim phase sees it, and the lane
replays on the new owner once the bin flips.  These tests drive that
window deterministically:

* batched pacing with ``bins_per_gap=1`` and two bins admitted holds
  the xfer's bin in flight across two consecutive micro-batches while
  the xfer keeps arriving (parked, parked, replayed);
* a claim *loser* carried out of a genuine cross-shard claim round is
  replayed across a bin flip (its destination cell changes owner while
  it waits), and must apply exactly once on the new owner;
* the in-process :class:`ShardCoordinator` and the multi-OS-process
  :class:`ProcessCluster` run the same schedules (the cluster's mover
  ships state over mp queues — query/export/import — instead of direct
  memory access).

Every test closes by checking the merged state against one-shot FOL1
on a single pipeline (the equivalence oracle), so exactly-once is
verified on the *values*, not just the completion counts.
"""

import pytest

from repro.audit.oracle import diff_stream_state
from repro.machine import CostModel
from repro.runtime import Request, StreamExecutor
from repro.shard import (
    Migration,
    MigrationController,
    ShardCoordinator,
)

FREE = CostModel.free()
TABLE_SIZE = 11
N_CELLS = 8
KEY_SPACE = 13
SHARDS = 2
BINS = 2  # 2 bins over 8 cells -> 4 cells per bin


def fresh(requests):
    """Re-materialise requests (execution mutates group/home/arrival)."""
    return [
        Request(rid=r.rid, kind=r.kind, key=r.key, key2=r.key2,
                delta=r.delta)
        for r in requests
    ]


def one_shot_state(requests):
    """Reference: the stream as one batch of in-batch-retry FOL1."""
    reqs = fresh(requests)
    executor = StreamExecutor.for_workload(
        reqs, table_size=TABLE_SIZE, n_cells=N_CELLS,
        carryover=False, cost_model=FREE,
    )
    result = executor.execute(reqs)
    assert not result.carried
    chains = {
        slot: sorted(executor.table.chain(slot))
        for slot in range(TABLE_SIZE)
        if executor.table.chain(slot)
    }
    return chains, executor.list_values()


def build_coordinator(all_requests, *, strategy, bins_per_gap=1):
    """K=2 coordinator with migration under manual control: the
    rebalancer's threshold is unreachable (no organic plans) and the
    test admits bin moves directly to a controller with the requested
    pacing."""
    coord = ShardCoordinator.for_workload(
        fresh(all_requests),
        shards=SHARDS,
        partitioner="hash",
        rebalance=True,
        rebalance_threshold=1e9,
        table_size=TABLE_SIZE,
        n_cells=N_CELLS,
        key_space=KEY_SPACE,
        cost_model=FREE,
        bins=BINS,
    )
    ctl = MigrationController(
        coord.router.partition,
        strategy=strategy,
        bins_per_gap=bins_per_gap,
    )
    coord.controller = ctl
    coord.router.controller = ctl
    return coord, ctl


PRIME = [
    Request(rid=100 + c, kind="list", key=c, delta=10)
    for c in range(N_CELLS)
]
FILLERS = [Request(rid=200 + i, kind="hash", key=i, delta=1)
           for i in range(8)]


class TestInProcessRaces:
    def test_xfer_parked_across_batches_applies_once(self):
        """An xfer arriving while its source cell's bin is mid-handoff
        parks (never claims), keeps parking while the bin waits its
        turn in the batched queue, and applies exactly once after the
        flips."""
        xfer = Request(rid=0, kind="xfer", key=0, key2=1, delta=3)
        coord, ctl = build_coordinator(
            PRIME + FILLERS + [xfer], strategy="batched", bins_per_gap=1
        )
        applied = []

        r = coord.execute(fresh(PRIME))
        applied.extend(r.completed)
        assert len(r.completed) == len(PRIME)

        # Under the 2-bin hash layout the list domain's bin 0 = cells
        # {0, 2, 4, 6} on shard 0 and bin 1 = {1, 3, 5, 7} on shard 1.
        # Swap them, xfer's source bin second: one bin ships per gap.
        table = coord.router.partition.domain("list")
        assert sorted(table.indices_in_bin(0)) == [0, 2, 4, 6]
        assert table.bin_owner_of(0) == 0 and table.bin_owner_of(1) == 1
        ctl.admit([Migration("list", 1, 1, 0, 1.0),
                   Migration("list", 0, 0, 1, 1.0)])
        assert ctl.pending == 2

        live = fresh([xfer])
        fillers = fresh(FILLERS)
        r = coord.execute(live + fillers[:2])
        applied.extend(r.completed)
        # Parked, not claimed: the xfer rode the carryover path and the
        # cells are untouched while its bins are in flight.
        assert r.parked == 1
        assert live[0] in r.carried
        assert live[0] not in r.completed
        assert coord.list_values()[0] == 10 and coord.list_values()[1] == 10
        assert ctl.pending == 1  # bin 1 flipped, bin 0 still queued
        assert table.bin_owner_of(1) == 0 and table.bin_owner_of(0) == 0

        # Re-offering the parked lane while bin 0 waits parks it again
        # — it can never slip in mid-handoff.
        r = coord.execute([live[0], fillers[2]])
        applied.extend(r.completed)
        assert r.parked == 1 and live[0] in r.carried
        assert ctl.pending == 0
        assert table.bin_owner_of(0) == 1
        assert ctl.parked_requests == 2

        # Replay on the new owners: a cross-shard transfer that must
        # complete through the claim/commit path.
        r = coord.execute([live[0]])
        applied.extend(r.completed)
        assert live[0] in r.completed

        rids = [req.rid for req in applied]
        assert sorted(rids) == sorted(set(rids)), "a lane applied twice"
        assert xfer.rid in rids
        chains, cells = one_shot_state(applied)
        assert coord.chain_multisets() == chains
        assert coord.list_values() == cells
        assert cells[0] == 7 and cells[1] == 13

    def test_claim_loser_replays_exactly_once_across_flip(self):
        """A genuine claim *loser* (it lost a first-come claim round to
        a competing cross-shard xfer) is carried, then its destination
        cell's bin flips owner before the replay.  The replay must park
        during the handoff and apply exactly once afterwards."""
        xfer_a = Request(rid=0, kind="xfer", key=0, key2=1, delta=3)
        xfer_b = Request(rid=1, kind="xfer", key=1, key2=2, delta=5)
        coord, ctl = build_coordinator(
            PRIME + FILLERS + [xfer_a, xfer_b], strategy="all-at-once"
        )
        applied = []

        r = coord.execute(fresh(PRIME))
        applied.extend(r.completed)

        # Both xfers are cross-shard; they contend on cell 1, so A
        # (earlier in batch order) wins both claims and B is carried.
        live_a = fresh([xfer_a])[0]
        live_b = fresh([xfer_b])[0]
        r = coord.execute([live_a, live_b])
        applied.extend(r.completed)
        assert r.completed == [live_a]
        assert live_b in r.carried
        assert coord.total_cross == 2
        values = coord.list_values()
        assert values[0] == 7 and values[1] == 13 and values[2] == 10

        # Flip the bin holding B's destination cell (2) mid-wait.
        table = coord.router.partition.domain("list")
        ctl.admit([Migration("list", 0, 0, 1, 1.0)])
        r = coord.execute([live_b] + fresh(FILLERS)[:1])
        applied.extend(r.completed)
        assert r.parked == 1 and live_b in r.carried
        # all-at-once: the whole bin landed in that gap's step.
        assert ctl.pending == 0
        assert table.bin_owner_of(0) == 1

        r = coord.execute([live_b])
        applied.extend(r.completed)
        assert live_b in r.completed

        rids = [req.rid for req in applied]
        assert sorted(rids) == sorted(set(rids)), "a lane applied twice"
        chains, cells = one_shot_state(applied)
        assert coord.chain_multisets() == chains
        assert coord.list_values() == cells
        assert cells[0] == 7 and cells[1] == 8 and cells[2] == 15

    @pytest.mark.parametrize("strategy", ["all-at-once", "batched"])
    def test_whole_bin_strategies_flip_within_one_gap(self, strategy):
        """all-at-once and batched move whole bins per gap, so a parked
        xfer replays successfully on the very next batch."""
        xfer = Request(rid=0, kind="xfer", key=0, key2=1, delta=3)
        coord, ctl = build_coordinator(
            PRIME + FILLERS + [xfer], strategy=strategy
        )
        applied = []
        r = coord.execute(fresh(PRIME))
        applied.extend(r.completed)
        ctl.admit([Migration("list", 0, 0, 1, 1.0)])
        live = fresh([xfer])[0]
        r = coord.execute([live] + fresh(FILLERS)[:1])
        applied.extend(r.completed)
        assert r.parked == 1 and ctl.pending == 0
        r = coord.execute([live])
        applied.extend(r.completed)
        assert live in r.completed
        chains, cells = one_shot_state(applied)
        assert coord.chain_multisets() == chains
        assert coord.list_values() == cells


class TestProcessClusterRaces:
    """The same handoff window over real OS processes: the cluster's
    mover ships bin state through the mp-queue migration protocol
    (query room → export → import) while requests park on the parent's
    router exactly as in-process."""

    def _build(self, all_requests, *, strategy, bins_per_gap=1):
        from repro.serve import ProcessCluster

        cluster = ProcessCluster.for_workload(
            fresh(all_requests),
            shards=SHARDS,
            backend="native",
            table_size=TABLE_SIZE,
            n_cells=N_CELLS,
            key_space=KEY_SPACE,
            bins=BINS,
            rebalance=True,
            migration=strategy,
        )
        coord = cluster.coordinator
        coord.rebalancer.threshold = 1e9  # no organic plans
        ctl = MigrationController(
            coord.router.partition,
            strategy=strategy,
            bins_per_gap=bins_per_gap,
        )
        coord.controller = ctl
        coord.router.controller = ctl
        return cluster, ctl

    def test_xfer_parked_across_batches_applies_once(self):
        xfer = Request(rid=0, kind="xfer", key=0, key2=1, delta=3)
        cluster, ctl = self._build(
            PRIME + FILLERS + [xfer], strategy="batched", bins_per_gap=1
        )
        applied = []
        try:
            r = cluster.execute(fresh(PRIME))
            applied.extend(r.completed)
            assert len(r.completed) == len(PRIME)

            table = cluster.coordinator.router.partition.domain("list")
            ctl.admit([Migration("list", 1, 1, 0, 1.0),
                       Migration("list", 0, 0, 1, 1.0)])

            live = fresh([xfer])[0]
            fillers = fresh(FILLERS)
            r = cluster.execute([live] + fillers[:2])
            applied.extend(r.completed)
            assert r.parked == 1 and live in r.carried
            assert ctl.pending == 1

            r = cluster.execute([live, fillers[2]])
            applied.extend(r.completed)
            assert r.parked == 1 and live in r.carried
            assert ctl.pending == 0
            assert table.bin_owner_of(0) == 1 and table.bin_owner_of(1) == 0

            r = cluster.execute([live])
            applied.extend(r.completed)
            assert live in r.completed

            rids = [req.rid for req in applied]
            assert sorted(rids) == sorted(set(rids)), "a lane applied twice"
            assert diff_stream_state(
                cluster.coordinator, applied,
                table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE,
            ) is None
            values = cluster.coordinator.list_values()
            assert values[0] == 7 and values[1] == 13
        finally:
            cluster.shutdown()

    def test_claim_loser_replays_exactly_once_across_flip(self):
        xfer_a = Request(rid=0, kind="xfer", key=0, key2=1, delta=3)
        xfer_b = Request(rid=1, kind="xfer", key=1, key2=2, delta=5)
        cluster, ctl = self._build(
            PRIME + FILLERS + [xfer_a, xfer_b], strategy="all-at-once"
        )
        applied = []
        try:
            r = cluster.execute(fresh(PRIME))
            applied.extend(r.completed)

            live_a = fresh([xfer_a])[0]
            live_b = fresh([xfer_b])[0]
            r = cluster.execute([live_a, live_b])
            applied.extend(r.completed)
            assert r.completed == [live_a]
            assert live_b in r.carried

            table = cluster.coordinator.router.partition.domain("list")
            ctl.admit([Migration("list", 0, 0, 1, 1.0)])
            r = cluster.execute([live_b] + fresh(FILLERS)[:1])
            applied.extend(r.completed)
            assert r.parked == 1 and live_b in r.carried
            assert ctl.pending == 0
            assert table.bin_owner_of(0) == 1

            r = cluster.execute([live_b])
            applied.extend(r.completed)
            assert live_b in r.completed

            rids = [req.rid for req in applied]
            assert sorted(rids) == sorted(set(rids)), "a lane applied twice"
            assert diff_stream_state(
                cluster.coordinator, applied,
                table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE,
            ) is None
            values = cluster.coordinator.list_values()
            assert values[0] == 7 and values[1] == 8 and values[2] == 15
        finally:
            cluster.shutdown()
