"""Worker nodes of the mini-cluster.

A :class:`Worker` holds CSR shard blocks (Section V: "we distribute the
large social graph structure to the workers") and serves two kinds of
requests from the master: batched adjacency slices out of a resident
block, and the per-pass gain/cut state of a block against its local
replica of the side vector. Every response's size is charged to the
network simulator by the caller.

The side-vector replica is what the delta-broadcast protocol keeps in
sync: the master installs the full vector once per run
(:meth:`install_sides`) and afterwards sends only the ids of nodes that
switched since the last sync (:meth:`apply_side_delta`), so broadcast
bytes scale with churn instead of graph size.

Workers can *fail* (:meth:`Worker.fail`), dropping everything they hold
— shard blocks, block references, the sides replica — and refusing
every later request. Blocks survive only on their other replicas
(:meth:`repro.cluster.rdd.ClusterContext.block_replica_for`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .blocks import BlockRef, BlockSlices, ShardBlock

__all__ = ["Worker", "WorkerFailure"]


class WorkerFailure(RuntimeError):
    """Raised when a request reaches a failed worker."""


class Worker:
    """One simulated cluster worker holding in-memory shard blocks."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.alive = True
        #: storage key -> resident CSR shard block
        self.blocks: Dict[Any, ShardBlock] = {}
        #: storage key -> snapshot reference, materialized into
        #: ``blocks`` on first access (reference-mode distribution)
        self.block_refs: Dict[Any, BlockRef] = {}
        #: local replica of the master's side vector (delta-synced)
        self.sides: Optional[List[int]] = None
        self._sides_np = None

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash this worker: all resident state is lost."""
        self.alive = False
        self.blocks.clear()
        self.block_refs.clear()
        self.sides = None
        self._sides_np = None

    def _check_alive(self) -> None:
        if not self.alive:
            raise WorkerFailure(f"worker {self.worker_id} is down")

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def store_block(self, key: Any, block: ShardBlock) -> None:
        """Install one CSR shard block under its storage key."""
        self._check_alive()
        self.blocks[key] = block

    def store_block_ref(self, key: Any, ref: BlockRef) -> None:
        """Install a snapshot *reference* for a block. The adjacency is
        mapped out of the shared snapshot file on first access, not
        shipped over the wire."""
        self._check_alive()
        self.block_refs[key] = ref

    def has_block(self, key: Any) -> bool:
        return key in self.blocks or key in self.block_refs

    def _resolve_block(self, key: Any) -> Optional[ShardBlock]:
        """The resident block for ``key``, materializing a stored
        reference on first use (maps the slice; no network traffic —
        the file is local to every worker by construction)."""
        block = self.blocks.get(key)
        if block is None:
            ref = self.block_refs.get(key)
            if ref is not None:
                block = ref.materialize()
                self.blocks[key] = block
        return block

    # ------------------------------------------------------------------
    # Side-vector replica (delta-broadcast protocol)
    # ------------------------------------------------------------------
    def install_sides(self, sides: Sequence[int]) -> None:
        """Full sync: replace the local side-vector replica."""
        self._check_alive()
        self.sides = list(sides)
        self._sides_np = None

    def apply_side_delta(self, switched: Sequence[int]) -> None:
        """Delta sync: flip the side of each listed node."""
        self._check_alive()
        if self.sides is None:
            raise RuntimeError(
                f"worker {self.worker_id} received a side delta before any "
                "full side-vector sync"
            )
        sides = self.sides
        for node in switched:
            sides[node] = 1 - sides[node]
        if self._sides_np is not None:
            for node in switched:
                self._sides_np[node] = sides[node]

    def _sides_view(self, backend: str):
        """The replica in the form the block's kernel backend wants:
        a cached int64 array for numpy, the plain list otherwise."""
        if self.sides is None:
            raise RuntimeError(
                f"worker {self.worker_id} has no side-vector replica installed"
            )
        if backend != "numpy":
            return self.sides
        if self._sides_np is None:
            import numpy as np

            self._sides_np = np.asarray(self.sides, dtype=np.int64)
        return self._sides_np

    # ------------------------------------------------------------------
    # Block-slice fetches and per-pass gain state
    # ------------------------------------------------------------------
    def block_slices(self, key: Any, nodes: Sequence[int]) -> BlockSlices:
        """Serve one batched adjacency fetch out of a resident block."""
        self._check_alive()
        block = self._resolve_block(key)
        if block is None:
            raise KeyError(
                f"worker {self.worker_id} does not hold block {key!r}"
            )
        return block.slices(nodes)

    def block_pass_state(
        self, key: Any, k: float
    ) -> Tuple[List[float], int, int]:
        """Per-pass contribution of one block against the local side
        replica: ``(gains, f_cross_part, r_cross_part)``."""
        self._check_alive()
        block = self._resolve_block(key)
        if block is None:
            raise KeyError(
                f"worker {self.worker_id} does not hold block {key!r}"
            )
        return block.pass_state(self._sides_view(block.backend), k)
