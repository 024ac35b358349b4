"""K shard processes behind the single-engine ``execute(batch)`` surface.

:class:`ProcessCluster` is a process *transport* under the one sharded
engine, :class:`~repro.shard.coordinator.ShardCoordinator`.  The
coordinator routes, claims, commits, migrates and assembles every
:class:`~repro.runtime.executor.BatchResult` exactly as it does
in-process; the cluster only supplies its workers.  Each is a
:class:`ProcessShard`: a mirror :class:`~repro.shard.worker.ShardWorker`
built with the identical layout and rebound onto the shared arena of
one OS process that owns the shard.

* **reads** go zero-copy through the mirror: chain keys, cell values
  and the merged-state accessors (``list_values``/``chain_multisets``/
  ``bst_inorder``, the scalar oracle) see the live shared words.  Reads
  happen only between messages, when the owner is idle at its queue;
* **writes** never happen in the parent.  Every mutator is a message to
  the owner: ``batch`` (inbox rows in, outbox rows back), ``commit``
  (the ``(addr, value)`` words the coordinator recorded for this shard
  in one exchange) and the migration handoff (query room → export →
  import).  The arena's single writer stays its owner process.

The coordinator starts every busy shard before collecting any, so all
busy workers run their FOL pipelines at the same time — the wall-clock
analogue of the in-process ``max``-over-shards cycle accounting.
Process shards report wall seconds (worker-measured ``exec_s`` per
shard, parent-measured claim/commit and migration phases); ``cycles``
stays 0.0.

The cluster itself spawns the processes, owns the shared segments
(``_links``), runs the reply protocol (:meth:`ProcessCluster._expect`)
and shuts down.  ``shutdown`` is always safe to call (idempotent): it
stops workers, joins them, snapshots each arena into its mirror (so
merged state stays inspectable post-mortem), and unlinks every shared
segment.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Dict, List, Optional, Sequence

from ..engine.spec import MIGRATE_CELL, MIGRATE_CHAIN
from ..errors import ReproError
from ..runtime.executor import BatchResult
from ..runtime.queue import Request
from ..shard.coordinator import ShardCoordinator, shard_capacities
from ..shard.worker import ShardWorker
from . import transport
from .proc_worker import worker_main
from .transport import (
    MSG_BATCH,
    MSG_COMMIT,
    MSG_COMMITTED,
    MSG_DONE,
    MSG_ERROR,
    MSG_MIG_DONE,
    MSG_MIG_EXPORT,
    MSG_MIG_IMPORT,
    MSG_MIG_QUERY,
    MSG_MIG_ROOM,
    MSG_MIG_STATE,
    MSG_READY,
    MSG_STOP,
    MSG_STOPPED,
    ROW_COLS,
    ShmBlock,
    WorkerConfig,
)

#: Default seconds to wait for a worker reply before declaring it dead.
REPLY_TIMEOUT = 120.0


class ProcessShard(ShardWorker):
    """A mirror shard whose owner is a worker process: reads go through
    the shared arena, every mutation runs in the owner (see module
    docstring)."""

    wall_clock = True

    def __init__(self, cluster: "ProcessCluster", shard_id: int, **layout):
        super().__init__(shard_id, **layout)
        self._cluster = cluster
        self._link = cluster._links[shard_id]
        self.vm.mem.words = self._link["state"].array
        self._seq = 0
        self._sub: List[Request] = []

    def _post(self, tag: str, *payload) -> None:
        self._seq += 1
        self._link["cmd"].put((tag, self._seq, *payload))

    def _reply(self, tag: str):
        msg = self._cluster._expect(self.shard_id, tag)
        assert msg[2] == self._seq, f"shard {self.shard_id}: stale reply"
        return msg

    # -- execution ----------------------------------------------------
    def execute(self, batch: Sequence[Request]) -> BatchResult:
        self.start(batch)
        return self.collect()

    def start(self, batch: Sequence[Request]) -> None:
        n = transport.encode_requests(batch, self._link["inbox"].array)
        self._sub = list(batch)
        self._post(MSG_BATCH, n)

    def collect(self) -> BatchResult:
        """Fold the owner's outbox rows back onto the parent's request
        objects (by rid); ``shard_exec_spans`` carries the owner's
        measured execute seconds."""
        _, _, _, n_done, n_carried, rounds, mult, exec_s = self._reply(
            MSG_DONE
        )
        result = BatchResult(
            rounds=rounds, multiplicity=mult, shard_exec_spans=(exec_s,)
        )
        out = self._link["outbox"].array
        by_rid = {req.rid: req for req in self._sub}
        for i in range(n_done + n_carried):
            req = by_rid[int(out[i, transport.COL_RID])]
            transport.apply_row(req, out[i])
            (result.completed if i < n_done else result.carried).append(req)
        self._sub = []
        return result

    def apply_commit(self, writes) -> None:
        self._post(MSG_COMMIT, list(writes))
        self._reply(MSG_COMMITTED)

    # -- migration: the owner moves its state --------------------------
    def can_import_chain(self, n_keys: int) -> bool:
        # The mirror's bump allocator never advances (allocations happen
        # in the owner), so only the owner knows its headroom.
        self._post(MSG_MIG_QUERY, n_keys)
        return bool(self._reply(MSG_MIG_ROOM)[3])

    def export_chain(self, slot: int) -> List[int]:
        self._post(MSG_MIG_EXPORT, MIGRATE_CHAIN, slot)
        return self._reply(MSG_MIG_STATE)[3]

    def import_chain(self, slot: int, keys: List[int]) -> None:
        self._post(MSG_MIG_IMPORT, MIGRATE_CHAIN, slot, list(keys))
        self._reply(MSG_MIG_DONE)

    def export_cell(self, cell: int) -> int:
        self._post(MSG_MIG_EXPORT, MIGRATE_CELL, cell)
        return int(self._reply(MSG_MIG_STATE)[3])

    def import_cell(self, cell: int, value: int) -> None:
        self._post(MSG_MIG_IMPORT, MIGRATE_CELL, cell, int(value))
        self._reply(MSG_MIG_DONE)


class ProcessCluster:
    """K shard worker processes + shared arenas under one coordinator."""

    def __init__(
        self,
        *,
        shards: int,
        table_size: int = 509,
        n_cells: int = 64,
        key_space: int = 4096,
        capacities: Dict[str, int],
        carryover: bool = True,
        conflict_policy: str = "arbitrary",
        backend: str = "native",
        partitioner: str = "hash",  # no-kind-lint
        seed: int = 0,
        inbox_rows: int = 8192,
        reply_timeout: float = REPLY_TIMEOUT,
        bins: Optional[int] = None,
        rebalance: bool = False,
        rebalance_objective: str = "imbalance",
        migration: str = "all-at-once",
    ) -> None:
        from ..backend import get_backend
        from ..engine.spec import EngineContext, machine_words

        if shards <= 0:
            raise ReproError(f"worker count must be positive, got {shards}")
        get_backend(backend)  # fail fast on unknown names, in this process
        self.shards = shards
        self.reply_timeout = reply_timeout
        self._alive = False
        ctx = EngineContext(
            table_size=table_size, n_cells=n_cells, key_space=key_space
        )
        words = machine_words(capacities, ctx)
        layout = dict(
            table_size=table_size,
            n_cells=n_cells,
            key_space=key_space,
            capacities=dict(capacities),
            carryover=carryover,
            conflict_policy=conflict_policy,
            backend=backend,
            seed=seed,
        )

        # -- shared segments + worker processes ------------------------
        mp_ctx = mp.get_context()
        self._links = []
        for s in range(shards):
            state = ShmBlock.create((words,))
            inbox = ShmBlock.create((inbox_rows, ROW_COLS))
            outbox = ShmBlock.create((inbox_rows, ROW_COLS))
            cfg = WorkerConfig(
                shard_id=s,
                words=words,
                inbox_rows=inbox_rows,
                state_name=state.name,
                inbox_name=inbox.name,
                outbox_name=outbox.name,
                **layout,
            )
            cmd_q = mp_ctx.Queue()
            res_q = mp_ctx.Queue()
            proc = mp_ctx.Process(
                target=worker_main,
                args=(cfg, cmd_q, res_q),
                name=f"repro-serve-shard-{s}",
                daemon=True,
            )
            self._links.append(
                {
                    "proc": proc,
                    "cmd": cmd_q,
                    "res": res_q,
                    "state": state,
                    "inbox": inbox,
                    "outbox": outbox,
                }
            )
        for link in self._links:
            link["proc"].start()
        self._alive = True
        try:
            for s in range(shards):
                self._expect(s, MSG_READY)
        except Exception:
            self.shutdown()
            raise

        #: The one sharded engine, over process-backed shards: routing,
        #: claim/commit, migration and the merged-state accessors.
        self.coordinator = ShardCoordinator.assemble(
            [ProcessShard(self, s, **layout) for s in range(shards)],
            table_size=table_size,
            n_cells=n_cells,
            key_space=key_space,
            partitioner=partitioner,
            rebalance=rebalance,
            rebalance_objective=rebalance_objective,
            bins=bins,
            migration=migration,
        )

    # ------------------------------------------------------------------
    @classmethod
    def for_workload(
        cls,
        requests: Sequence[Request],
        *,
        shards: int,
        inbox_rows: Optional[int] = None,
        **kwargs,
    ) -> "ProcessCluster":
        """Size arenas and inboxes for ``requests`` the way
        :meth:`ShardCoordinator.for_workload` does: every worker can
        hold the whole workload (skew can land it all on one shard)."""
        if inbox_rows is None:
            inbox_rows = max(4096, len(list(requests)) + 1024)
        return cls(
            shards=shards,
            capacities=shard_capacities(requests),
            inbox_rows=inbox_rows,
            **kwargs,
        )

    # ------------------------------------------------------------------
    def _expect(self, shard: int, tag: str, timeout: Optional[float] = None):
        """Next reply from ``shard``, which must carry ``tag``; raises
        on worker errors (with the child traceback) and timeouts."""
        import queue as _queue

        link = self._links[shard]
        timeout = self.reply_timeout if timeout is None else timeout
        try:
            msg = link["res"].get(timeout=timeout)
        except _queue.Empty:
            raise ReproError(
                f"shard {shard} did not reply within {timeout}s "
                f"(alive={link['proc'].is_alive()})"
            ) from None
        if msg[0] == MSG_ERROR:
            raise ReproError(f"shard {shard} failed:\n{msg[2]}")
        if msg[0] != tag:
            raise ReproError(
                f"shard {shard}: expected {tag!r} reply, got {msg[0]!r}"
            )
        return msg

    # ------------------------------------------------------------------
    def execute(self, batch: Sequence[Request]) -> BatchResult:
        """One lockstep exchange through the coordinator (see module
        docstring); ``cycles`` stays 0.0 — this engine is measured in
        wall-clock seconds, not simulated cycles."""
        if batch and not self._alive:
            raise ReproError("cluster is shut down")
        return self.coordinator.execute(batch)

    # ------------------------------------------------------------------
    def shutdown(self, join_timeout: float = 10.0) -> None:
        """Stop workers, snapshot arenas into the mirrors, release every
        shared segment.  Idempotent; always leaves no segments behind."""
        if not self._alive:
            return
        self._alive = False
        for link in self._links:
            if link["proc"].is_alive():
                try:
                    link["cmd"].put((MSG_STOP,))
                except Exception:  # pragma: no cover - queue torn down
                    pass
        for s, link in enumerate(self._links):
            try:
                self._expect(s, MSG_STOPPED, timeout=join_timeout)
            except ReproError:
                pass  # worker already dead; join/terminate below
        for link in self._links:
            link["proc"].join(timeout=join_timeout)
            if link["proc"].is_alive():  # pragma: no cover - stuck worker
                link["proc"].terminate()
                link["proc"].join(timeout=join_timeout)
        # Keep merged state readable after the arenas are gone: swap
        # each mirror onto a private copy of its shard's final words.
        if hasattr(self, "coordinator"):
            for mirror, link in zip(self.coordinator.workers, self._links):
                mirror.vm.mem.words = link["state"].array.copy()
        for link in self._links:
            for key in ("state", "inbox", "outbox"):
                link[key].close()
                link[key].unlink()
            link["cmd"].close()
            link["res"].close()

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - backstop only
        try:
            self.shutdown()
        except Exception:
            pass
