"""Distributed extended-KL engine on the mini-cluster.

Implements the architecture of Section V:

* the **workers** hold the graph — contiguous CSR *shard blocks*
  (:mod:`repro.cluster.blocks`), flat offset/adjacency arrays sliced out
  of the same :class:`~repro.core.csr.CSRGraph` the local engine runs
  on — plus a replica of the side vector, kept in sync by the broadcast
  protocol below;
* the **master** keeps the per-node status (side assignment) and the
  gain bucket list, so the hot update path never crosses the network.
  It runs the pass with :func:`repro.core.kl._bucket_pass`, the fused
  integer bucket body local KL runs, reading adjacency from the
  prefetch buffer instead of a local CSR;
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

Sharing the pass body, the engine returns the partitions and per-pass
objective histories :func:`repro.core.kl.extended_kl` returns at grid
``k`` — checked across backends in ``tests/cluster/test_engine.py``.
That parity now checks the protocol: worker gains and shard counters
computed from the *replica* side vectors, fetched records and delta
broadcasts, so any of them going wrong breaks it. The pass body's own
oracle is the frozen hashes of ``tests/cluster/test_cluster_frozen.py``,
which also pin every fetch batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.gains import _lowest_terms, _on_grid
from ..core.kl import _bucket_pass, _check_k
from ..core.maar import (
    MAARConfig,
    geometric_k_sequence,
    initial_partition,
    is_valid_cut,
    run_k_sweep,
)
from ..core.objectives import SUSPICIOUS
from .blocks import (
    COUNTER_BYTES,
    INT_BYTES,
    MESSAGE_HEADER_BYTES,
    SIDE_BYTE,
    BlockSlices,
)
from .master import MasterState, NodeRecord, prefetch_source
from .netsim import NetworkSimulator, NetworkStats
from .prefetch import PrefetchBuffer
from .rdd import ClusterContext

__all__ = ["ClusterConfig", "ClusterRunStats", "DistributedKL", "distributed_maar"]


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

    The master runs the integer bucket pass, so ``k`` must sit on the
    ``1/resolution`` grid (``resolution`` is a positive int). As in
    local KL, each run's buckets use ``k``'s reduced denominator, not
    ``resolution`` itself.
    """

    num_workers: int = 5
    num_partitions: int = 20
    buffer_capacity: int = 4096
    prefetch_batch: int = 64
    resolution: int = 8
    max_passes: int = 30
    replication: int = 1
    shard_transport: str = "auto"

    def __post_init__(self) -> None:
        # Each of these would otherwise fail late (at the first run) or
        # silently turn the search off (max_passes=0 returns the input
        # cut with zeroed counters).
        res = self.resolution
        if isinstance(res, bool) or not isinstance(res, int):
            raise ValueError(f"resolution must be a positive int, got {res!r}")
        for name, floor in (
            ("buffer_capacity", 0),
            ("prefetch_batch", 1),
            ("resolution", 1),
            ("max_passes", 1),
        ):
            value = getattr(self, name)
            if value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
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
        # Degree maxima for the bucket offset at each k. A bound from two
        # different nodes is looser than the per-node maximum, which is
        # harmless: the offset only sizes the bucket array (a uniform
        # shift) and never alters pop order.
        fp, _, op, _, ip_, _ = csr.hot()
        self._max_f_degree = max(
            (fp[u + 1] - fp[u] for u in range(csr.num_nodes)), default=0
        )
        self._max_r_degree = max(
            (
                (op[u + 1] - op[u]) + (ip_[u + 1] - ip_[u])
                for u in range(csr.num_nodes)
            ),
            default=0,
        )

    def _bucket_offset(self, k_scaled: int, res: int) -> int:
        """Bucket index of a zero gain at the bucket scale ``(k_scaled,
        res)``: one past the lifetime bound on a scaled gain, where each
        incident friendship contributes at most ``res`` and each incident
        rejection at most ``k_scaled``."""
        return self._max_f_degree * res + k_scaled * self._max_r_degree + 1

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

    def _collect_pass_state(self, k: float) -> Tuple[List[float], int, int]:
        """One gains exchange per partition: each owning worker runs the
        shard kernels over its block against its side replica and replies
        ``(gains, f_cross_part, r_cross_part)``.

        The per-block counter parts sum to the exact graph-wide counters
        (cross friendships are deduped globally by ``u < v``). Partitions
        are contiguous ascending ranges, so the concatenated gains are
        indexed by node id — ascending node order is the load order the
        bucket list's LIFO tie-breaks are defined against.
        """
        sharded = self.sharded
        gains: List[float] = []
        f_cross = r_cross = 0
        for pid in range(sharded.num_partitions):
            lo, hi = sharded.range_of(pid)
            if lo == hi:
                continue
            worker = self.context.block_replica_for(pid, sharded.key(pid))
            block_gains, f_part, r_part = worker.block_pass_state(
                sharded.key(pid), k
            )
            self.network.send(
                "gains",
                MESSAGE_HEADER_BYTES + INT_BYTES * len(block_gains) + COUNTER_BYTES,
            )
            f_cross += f_part
            r_cross += r_part
            gains.extend(block_gains)
        return gains, f_cross, r_cross

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
    # The KL passes
    # ------------------------------------------------------------------
    def run(
        self,
        k: float,
        initial_sides: Sequence[int],
        locked: Optional[Sequence[bool]] = None,
        stats: Optional[ClusterRunStats] = None,
    ) -> Tuple[List[int], int, int]:
        """Minimize ``|F(Ū,U)| − k·|R⃗⟨Ū,U⟩|`` from ``initial_sides``.

        Each pass collects the workers' gains and counters, loads the
        unlocked gains into a :class:`MasterState`, runs kl's bucket pass
        over it with records from the prefetch buffer, and broadcasts the
        applied prefix as the next side-vector delta.

        Returns ``(sides, f_cross, r_cross)`` of the improved partition.
        """
        _check_k(k)
        n = self.graph_size
        config = self.config
        res = config.resolution
        if not _on_grid(k, res):
            raise ValueError(
                f"k={k} is off the 1/{res} bucket grid the cluster master's "
                "integer bucket pass runs on"
            )
        sides = list(initial_sides)
        if len(sides) != n:
            raise ValueError(f"initial_sides has length {len(sides)}, expected {n}")
        if not set(sides) <= {0, 1}:
            bad = next(s for s in sides if s not in (0, 1))
            raise ValueError(f"initial_sides must hold 0 or 1, got {bad!r}")
        if locked is None:
            locked = [False] * n
        elif len(locked) != n:
            raise ValueError(f"locked has length {len(locked)}, expected {n}")
        # Lowest terms, as in local KL: a uniform rescale of every gain,
        # so pops, prefixes and every fetch batch stay the same.
        k_scaled, res = _lowest_terms(k, res)
        offset = self._bucket_offset(k_scaled, res)

        buffer = PrefetchBuffer(
            capacity=config.buffer_capacity,
            fetch_batch=self._fetch_records,
            batch_size=config.prefetch_batch,
        )
        # Walk four batches deep so a miss can fill its batch with nodes
        # the buffer does not already hold.
        source = prefetch_source(buffer, 4 * config.prefetch_batch)
        # Full sync opens every run: replicas must start from this run's
        # initial sides, whatever a previous run left behind.
        self._broadcast_full(sides)
        for _ in range(config.max_passes):
            gains, f_cross, r_cross = self._collect_pass_state(k)
            if stats is not None:
                stats.passes += 1
                stats.objective_history.append(f_cross - k * r_cross)

            state = MasterState.for_pass(
                n, sides, f_cross, r_cross, gains, locked, res, offset
            )
            applied, tested = _bucket_pass(
                state, state.eligible, state.gain_b, None, None, k_scaled,
                res, offset, None, source=source,
            )
            sides, f_cross, r_cross = state.sides, state.f_cross, state.r_cross
            if stats is not None:
                stats.switches_tested += tested
                stats.switches_applied += len(applied)
            if not applied:
                break
            # Sync the replicas for the next pass: each surviving switch
            # flipped its node exactly once, so the applied prefix *is*
            # the side-vector delta.
            self._broadcast_delta(applied)

        if stats is not None:
            stats.network = self.network.stats
            stats.prefetch_hits += buffer.stats.hits
            stats.prefetch_misses += buffer.stats.misses
            stats.fetch_batches += buffer.stats.fetch_batches
            stats.records_fetched += buffer.stats.records_fetched
        return sides, f_cross, r_cross


class _Cut(NamedTuple):
    """One :meth:`DistributedKL.run` outcome, as the sweep driver reads
    it. The sweep holds every step's cut until it ends, so the sides are
    kept as one byte per node."""

    sides: bytes
    f_cross: int
    r_cross: int


def distributed_maar(
    graph,
    cluster_config: Optional[ClusterConfig] = None,
    maar_config: Optional[MAARConfig] = None,
    stats: Optional[ClusterRunStats] = None,
) -> Tuple[List[int], float, Optional[float]]:
    """MAAR sweep on the cluster engine.

    Mirrors :func:`repro.core.maar.solve_maar`'s sweep — the same
    starting cut (:func:`~repro.core.maar.initial_partition`), geometric
    ``k`` grid run upward under the same stop rule
    (:func:`~repro.core.maar.run_k_sweep`) and validity rule
    (:func:`~repro.core.maar.is_valid_cut`, ``min_evidence`` included),
    lowest-acceptance-rate winner — and returns ``(suspicious_nodes,
    acceptance_rate, best_k)``. ``graph`` may be an
    :class:`AugmentedSocialGraph` builder or a finalized
    :class:`repro.core.csr.CSRGraph`.
    """
    maar_config = maar_config or MAARConfig()
    csr = graph.csr()
    engine = DistributedKL(csr, cluster_config)
    init_sides = initial_partition(csr, maar_config).sides

    def solve(k):
        sides, f_cross, r_cross = engine.run(k, init_sides, stats=stats)
        return _Cut(bytes(sides), f_cross, r_cross)

    steps, winner = run_k_sweep(
        geometric_k_sequence(
            maar_config.k_min, maar_config.k_factor, maar_config.k_steps
        ),
        solve,
        lambda cut: is_valid_cut(
            sum(cut.sides), graph.num_nodes, cut.r_cross, maar_config
        ),
    )
    if winner is None:
        return [], 1.0, None
    best = steps[winner]
    suspicious_nodes = [u for u, s in enumerate(best.cut.sides) if s == SUSPICIOUS]
    return suspicious_nodes, best.key()[0], best.k
