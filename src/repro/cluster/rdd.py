"""The master's view of the simulated cluster: block placement,
distribution and failover.

The Rejecto prototype stores the social graph as Spark RDDs (Section V).
Here the graph travels as contiguous CSR shard blocks
(:mod:`repro.cluster.blocks`): :meth:`ClusterContext.distribute_csr`
places each partition's block on ``replication`` workers round robin,
charging every upload to the
:class:`repro.cluster.netsim.NetworkSimulator`, and
:meth:`ClusterContext.block_replica_for` fails reads over to the next
surviving replica. There is no lineage: a block whose replicas have all
failed is lost, and reading it raises :class:`DataLossError`.

Everything runs in one process; "distribution" means block ownership
and traffic accounting, not parallel speedup. The point is to preserve
the *data layout* of the paper's implementation (graph on the workers,
algorithm state on the master) so Table II's scaling shape and the
prefetching ablation are measurable.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from .blocks import (
    BlockRef,
    ShardBlock,
    ShardedCSR,
    block_payload_bytes,
    partition_bounds,
)
from .netsim import NetworkSimulator
from .worker import Worker

__all__ = ["ClusterContext", "DataLossError"]


class DataLossError(RuntimeError):
    """Raised when every replica holding a shard block has failed.

    Blocks are not rebuilt from their source graph, so a block with no
    surviving replica is gone.
    """


class ClusterContext:
    """The driver's handle on the simulated cluster.

    Parameters
    ----------
    num_workers:
        Cluster size (one master is implicit; these are the workers).
    network:
        Traffic accountant charged with every upload through this
        context (the engine shares it for the run's other traffic).
    replication:
        Number of workers each partition's block is stored on; a block
        survives as long as one of them is alive.
    """

    def __init__(
        self,
        num_workers: int,
        network: Optional[NetworkSimulator] = None,
        replication: int = 1,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if not 1 <= replication <= num_workers:
            raise ValueError(
                f"replication must be in [1, {num_workers}], got {replication}"
            )
        self.workers = [Worker(i) for i in range(num_workers)]
        self.network = network or NetworkSimulator()
        self.replication = replication
        self._next_shard_id = itertools.count()

    def workers_for(self, partition_id: int) -> List[Worker]:
        """All replicas of a partition, primary first."""
        count = len(self.workers)
        return [
            self.workers[(partition_id + offset) % count]
            for offset in range(self.replication)
        ]

    def distribute_csr(
        self, csr, num_partitions: int, transport: str = "auto"
    ) -> ShardedCSR:
        """Shard a finalized :class:`CSRGraph` across the workers as
        contiguous :class:`ShardBlock` ranges.

        ``transport`` picks how blocks travel. ``"payload"`` installs
        each partition's block on its replicas with the upload charged at
        the block's exact flat-array wire size. ``"reference"`` requires
        a snapshot-backed graph (``csr.snapshot_path`` set by
        :meth:`CSRGraph.open`) and ships O(1) :class:`BlockRef` messages
        instead — workers map their slices out of the shared file on
        first access, and the payload bytes that did *not* travel are
        recorded as ``bytes_avoided``. ``"auto"`` (default) uses
        references exactly when the graph is snapshot-backed. Returns the
        master-side :class:`ShardedCSR` handle (bounds + keys only).
        """
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        if transport not in ("auto", "payload", "reference"):
            raise ValueError(
                f"transport must be 'auto', 'payload', or 'reference', "
                f"got {transport!r}"
            )
        snapshot_path = getattr(csr, "snapshot_path", None)
        if transport == "reference" and snapshot_path is None:
            raise ValueError(
                "transport='reference' requires a snapshot-backed graph "
                "(open it with CSRGraph.open, or pack it first)"
            )
        use_refs = snapshot_path is not None and transport != "payload"
        bounds = partition_bounds(csr.num_nodes, num_partitions)
        sharded = ShardedCSR(next(self._next_shard_id), bounds, csr.backend)
        for pid in range(num_partitions):
            lo, hi = sharded.range_of(pid)
            key = sharded.key(pid)
            if use_refs:
                ref = BlockRef(snapshot_path, lo, hi)
                full_bytes = block_payload_bytes(csr, lo, hi)
                for worker in self.workers_for(pid):
                    if not worker.alive:
                        continue
                    worker.store_block_ref(key, ref)
                    self.network.send("upload", ref.payload_bytes())
                    self.network.avoided(
                        "upload", max(0, full_bytes - ref.payload_bytes())
                    )
            else:
                block = ShardBlock.from_csr(csr, lo, hi)
                for worker in self.workers_for(pid):
                    if not worker.alive:
                        continue
                    worker.store_block(key, block)
                    self.network.send("upload", block.payload_bytes())
        return sharded

    def block_replica_for(self, partition_id: int, key) -> Worker:
        """The first surviving replica still holding ``key``'s block, or
        raise :class:`DataLossError` when the block is gone everywhere."""
        for worker in self.workers_for(partition_id):
            if worker.alive and worker.has_block(key):
                return worker
        raise DataLossError(
            f"all {self.replication} replicas of block {key!r} "
            f"(partition {partition_id}) have failed"
        )

    def alive_workers(self) -> List[Worker]:
        return [worker for worker in self.workers if worker.alive]
