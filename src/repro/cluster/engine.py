"""Distributed extended-KL engine on the mini-cluster.

Implements the architecture of Section V:

* the **workers** hold the graph — contiguous CSR *shard blocks*
  (:mod:`repro.cluster.blocks`), flat offset/adjacency arrays sliced out
  of the same :class:`~repro.core.csr.CSRGraph` the local engine runs
  on — plus a replica of the side vector, kept in sync by the broadcast
  protocol below;
* the **master** keeps the per-node status (side assignment) and the
  gain bucket list, so the hot update path never crosses the network;
* each pass opens with one **gains** exchange per partition: the owning
  worker runs the :func:`repro.core.kernels.shard_gain_deltas` /
  :func:`~repro.core.kernels.shard_cut_counts` batch kernels over its
  block (vectorized on the numpy backend) and replies with the block's
  per-node gains and its exact boundary-counter parts — the master never
  re-derives either from adjacency;
* node structure is pulled through an LRU **prefetch buffer**: each miss
  issues one batched *block-slice* fetch whose reply is a flat mini-CSR
  over the missed node plus the current top-gain candidates, which are
  exactly the nodes the greedy loop will pop next;
* status updates travel as **delta broadcasts**: the full side vector is
  installed once per run (1 byte per node), and each subsequent pass
  ships only the ids of the nodes its best prefix actually switched
  (8 bytes per id) — broadcast volume scales with churn, not graph size.

Every message's size follows from its array lengths (see the wire
constants in :mod:`repro.cluster.blocks`), so the per-kind byte
breakdown in :class:`~repro.cluster.netsim.NetworkStats` is exact.

The engine executes the same greedy single-node-switch discipline as
:func:`repro.core.kl.extended_kl` (same gain arithmetic, same LIFO
bucket tie-breaks, same best-prefix rollback), so given identical inputs
it returns *identical* partitions — and identical per-pass objective
histories — property-tested across backends in
``tests/cluster/test_engine.py``. The worker-side gains double as the
protocol check: they are computed from the *replica* side vectors, so
any delta-broadcast bug breaks parity immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.maar import MAARConfig, geometric_k_sequence
from ..core.objectives import LEGITIMATE, SUSPICIOUS, acceptance_rate
from .blocks import (
    COUNTER_BYTES,
    INT_BYTES,
    MESSAGE_HEADER_BYTES,
    SIDE_BYTE,
    BlockSlices,
)
from .master import MasterState, NodeRecord
from .netsim import NetworkSimulator, NetworkStats
from .prefetch import PrefetchBuffer
from .rdd import ClusterContext

__all__ = ["ClusterConfig", "ClusterRunStats", "DistributedKL", "distributed_maar"]

_EPS = 1e-9


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster and engine shape.

    Defaults mirror the paper's five-node evaluation cluster. A
    ``buffer_capacity`` of 0 disables prefetching (the "fetch per node
    on demand" strawman of Section V). ``shard_transport`` selects how
    blocks reach the workers: ``"auto"`` (default) ships O(1) snapshot
    references when the graph was opened from a ``.csrbin`` snapshot
    and falls back to array payloads otherwise; ``"payload"`` /
    ``"reference"`` force one mode (reference requires a snapshot-backed
    graph). Results are identical either way — only the distribution
    bytes differ, recorded as ``NetworkStats.bytes_avoided``.
    """

    num_workers: int = 5
    num_partitions: int = 20
    buffer_capacity: int = 4096
    prefetch_batch: int = 64
    gain_index: str = "bucket"
    resolution: int = 8
    max_passes: int = 30
    replication: int = 1
    shard_transport: str = "auto"

    def __post_init__(self) -> None:
        if self.shard_transport not in ("auto", "payload", "reference"):
            raise ValueError(
                f"shard_transport must be 'auto', 'payload', or "
                f"'reference', got {self.shard_transport!r}"
            )


@dataclass
class ClusterRunStats:
    """Diagnostics of one (or several accumulated) distributed KL runs."""

    passes: int = 0
    switches_tested: int = 0
    switches_applied: int = 0
    network: NetworkStats = field(default_factory=NetworkStats)
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    fetch_batches: int = 0
    records_fetched: int = 0
    #: start-of-pass objective ``f_cross − k·r_cross``, one entry per
    #: pass — comparable entry-for-entry with ``KLStats.objective_history``
    objective_history: List[float] = field(default_factory=list)

    @property
    def prefetch_hit_rate(self) -> float:
        total = self.prefetch_hits + self.prefetch_misses
        return self.prefetch_hits / total if total else 0.0


class DistributedKL:
    """Extended KL with worker-resident graph and master-resident state."""

    def __init__(
        self,
        graph,
        config: Optional[ClusterConfig] = None,
        network: Optional[NetworkSimulator] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        # Blocks are sliced out of the CSR snapshot (builder inputs
        # finalize through their cache), so adjacency is sorted ascending
        # — the same iteration order as the core CSR engine, which keeps
        # the two engines' bucket tie-breaks, and hence their outputs,
        # identical.
        csr = graph.csr()
        self.graph_size = csr.num_nodes
        self.network = network or NetworkSimulator()
        self.context = ClusterContext(
            self.config.num_workers,
            self.network,
            replication=self.config.replication,
        )
        self.sharded = self.context.distribute_csr(
            csr,
            self.config.num_partitions,
            transport=self.config.shard_transport,
        )
        # Degree maxima for the gain-bound computation at each k. A bound
        # from two different nodes is looser than the per-node maximum,
        # which is harmless: a gain bound only sizes the bucket array
        # (a uniform offset shift) and never alters pop order.
        fp, _, op, _, ip_, _ = csr.hot()
        self._max_f_degree = max(
            (fp[u + 1] - fp[u] for u in range(csr.num_nodes)), default=1
        )
        self._max_r_degree = max(
            (
                (op[u + 1] - op[u]) + (ip_[u + 1] - ip_[u])
                for u in range(csr.num_nodes)
            ),
            default=0,
        )

    def _max_abs_gain(self, k: float) -> float:
        """Lifetime gain bound at weight ``k``: each incident friendship
        contributes at most 1 and each incident rejection at most ``k``."""
        return max(self._max_f_degree + k * self._max_r_degree, 1.0)

    # ------------------------------------------------------------------
    # Wire protocol: broadcasts, gains collection, block-slice fetches
    # ------------------------------------------------------------------
    def _broadcast_full(self, sides: Sequence[int]) -> None:
        """Install the full side vector on every live worker (1 packed
        byte per node on the wire)."""
        targets = self.context.alive_workers()
        for worker in targets:
            worker.install_sides(sides)
        self.network.send(
            "broadcast",
            (MESSAGE_HEADER_BYTES + SIDE_BYTE * self.graph_size) * len(targets),
            messages=len(targets),
        )

    def _broadcast_delta(self, switched: Sequence[int]) -> None:
        """Ship only the switched node ids; each replica flips them."""
        targets = self.context.alive_workers()
        for worker in targets:
            worker.apply_side_delta(switched)
        self.network.send(
            "delta",
            (MESSAGE_HEADER_BYTES + INT_BYTES * len(switched)) * len(targets),
            messages=len(targets),
        )

    def _collect_pass_state(
        self, k: float
    ) -> Tuple[List[Tuple[int, float]], int, int]:
        """One gains exchange per partition: each owning worker runs the
        shard kernels over its block against its side replica and replies
        ``(gains, f_cross_part, r_cross_part)``.

        The per-block counter parts sum to the exact graph-wide counters
        (cross friendships are deduped globally by ``u < v``). Gains come
        back in ascending node order — partitions are contiguous
        ascending ranges — which is the insertion order the bucket
        index's LIFO tie-breaks are defined against.
        """
        sharded = self.sharded
        pairs: List[Tuple[int, float]] = []
        f_cross = r_cross = 0
        for pid in range(sharded.num_partitions):
            lo, hi = sharded.range_of(pid)
            if lo == hi:
                continue
            worker = self.context.block_replica_for(pid, sharded.key(pid))
            gains, f_part, r_part = worker.block_pass_state(sharded.key(pid), k)
            self.network.send(
                "gains",
                MESSAGE_HEADER_BYTES + INT_BYTES * len(gains) + COUNTER_BYTES,
            )
            f_cross += f_part
            r_cross += r_part
            pairs.extend((lo + r, gains[r]) for r in range(len(gains)))
        return pairs, f_cross, r_cross

    def _fetch_records(
        self, nodes: Sequence[int]
    ) -> List[Tuple[int, NodeRecord]]:
        """One batched block-slice fetch: group the wanted nodes by owning
        partition, pull each group's adjacency as a flat mini-CSR from a
        surviving replica, charge one message per partition touched at
        the reply's exact wire size."""
        sharded = self.sharded
        by_partition: Dict[int, List[int]] = {}
        for node in nodes:
            by_partition.setdefault(sharded.partition_of(node), []).append(node)
        fetched: List[Tuple[int, NodeRecord]] = []
        payload = 0
        for pid, wanted in by_partition.items():
            worker = self.context.block_replica_for(pid, sharded.key(pid))
            slices: BlockSlices = worker.block_slices(sharded.key(pid), wanted)
            payload += slices.payload_bytes()
            fetched.extend(
                (record[0], record) for record in slices.records()
            )
        self.network.send("fetch", payload, messages=len(by_partition))
        return fetched

    # ------------------------------------------------------------------
    # The KL pass loop
    # ------------------------------------------------------------------
    def run(
        self,
        k: float,
        initial_sides: Sequence[int],
        locked: Optional[Sequence[bool]] = None,
        stats: Optional[ClusterRunStats] = None,
    ) -> Tuple[List[int], int, int]:
        """Minimize ``|F(Ū,U)| − k·|R⃗⟨Ū,U⟩|`` from ``initial_sides``.

        Returns ``(sides, f_cross, r_cross)`` of the improved partition.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        n = self.graph_size
        config = self.config
        if locked is None:
            locked = [False] * n
        sides = list(initial_sides)
        if len(sides) != n:
            raise ValueError(f"initial_sides has length {len(sides)}, expected {n}")

        buffer = PrefetchBuffer(
            capacity=config.buffer_capacity,
            fetch_batch=self._fetch_records,
            batch_size=config.prefetch_batch,
        )
        # Full sync opens every run: replicas must start from this run's
        # initial sides, whatever a previous run left behind.
        self._broadcast_full(sides)
        f_cross = r_cross = 0
        for pass_index in range(config.max_passes):
            gains, f_cross, r_cross = self._collect_pass_state(k)
            if stats is not None:
                stats.passes += 1
                stats.objective_history.append(f_cross - k * r_cross)

            state = MasterState.for_pass(
                n,
                k,
                sides,
                f_cross,
                r_cross,
                gains,
                locked,
                gain_index_kind=config.gain_index,
                max_abs_gain=self._max_abs_gain(k),
                resolution=config.resolution,
            )

            cumulative = 0.0
            best_cumulative = 0.0
            best_length = 0
            while True:
                popped = state.pop_best()
                if popped is None:
                    break
                u, gain = popped
                # Offer a deep candidate walk so the buffer can fill its
                # batch with nodes it does not already hold. The walk is
                # lazy and reads the live index: get() draws from it only
                # on a miss and is done with it before apply_switch
                # mutates the index.
                record = buffer.get(
                    u,
                    prefetch_candidates=state.prefetch_candidates(
                        config.prefetch_batch * 4
                    ),
                )
                state.apply_switch(record)
                cumulative += gain
                if stats is not None:
                    stats.switches_tested += 1
                if cumulative > best_cumulative + _EPS:
                    best_cumulative = cumulative
                    best_length = state.switches_applied

            # Roll back past the best prefix (master-local state only).
            state.rollback_to(best_length)
            switched = state.applied_nodes()
            sides, f_cross, r_cross = state.snapshot()
            if stats is not None:
                stats.switches_applied += best_length
            if best_length == 0:
                break
            # Sync the replicas for the next pass: each surviving switch
            # flipped its node exactly once, so the applied prefix *is*
            # the side-vector delta.
            self._broadcast_delta(switched)

        if stats is not None:
            stats.network = self.network.stats
            stats.prefetch_hits += buffer.stats.hits
            stats.prefetch_misses += buffer.stats.misses
            stats.fetch_batches += buffer.stats.fetch_batches
            stats.records_fetched += buffer.stats.records_fetched
        return sides, f_cross, r_cross


def distributed_maar(
    graph,
    cluster_config: Optional[ClusterConfig] = None,
    maar_config: Optional[MAARConfig] = None,
    stats: Optional[ClusterRunStats] = None,
) -> Tuple[List[int], float, Optional[float]]:
    """MAAR sweep on the cluster engine.

    Mirrors :func:`repro.core.maar.solve_maar`'s sweep (rejection-init
    partition, geometric ``k`` grid, lowest-acceptance-rate winner) and
    returns ``(suspicious_nodes, acceptance_rate, best_k)``. ``graph``
    may be an :class:`AugmentedSocialGraph` builder or a finalized
    :class:`repro.core.csr.CSRGraph`.
    """
    maar_config = maar_config or MAARConfig()
    csr = graph.csr()
    engine = DistributedKL(csr, cluster_config)
    init_sides = [
        SUSPICIOUS if csr.rejections_received(u) else LEGITIMATE
        for u in range(csr.num_nodes)
    ]
    best_sides: List[int] = []
    best_key = (float("inf"), 0)
    best_k: Optional[float] = None
    for k in geometric_k_sequence(
        maar_config.k_min, maar_config.k_factor, maar_config.k_steps
    ):
        sides, f_cross, r_cross = engine.run(k, init_sides, stats=stats)
        suspicious = sum(sides)
        size_ok = (
            maar_config.min_suspicious
            <= suspicious
            <= maar_config.max_suspicious_fraction * graph.num_nodes
        )
        if not size_ok or suspicious >= graph.num_nodes or r_cross == 0:
            continue
        rate = acceptance_rate(f_cross, r_cross)
        key = (rate, -r_cross)
        if key < best_key:
            best_key = key
            best_sides = list(sides)
            best_k = k
    suspicious_nodes = [u for u, s in enumerate(best_sides) if s == SUSPICIOUS]
    rate = best_key[0] if best_k is not None else 1.0
    return suspicious_nodes, rate, best_k
