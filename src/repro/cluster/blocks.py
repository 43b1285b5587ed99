"""CSR shard blocks — the worker-resident graph representation.

Section V distributes "the large social graph structure to the workers";
this module holds the flat form it travels and lives in. Each worker
stores one :class:`ShardBlock` per owned partition: a contiguous node
range ``[lo, hi)`` carrying three rebased CSR pairs (friendships,
rejections cast, rejections received) as flat ``array("q")`` buffers,
with cached plain-list and numpy views mirroring
:class:`repro.core.csr.CSRGraph`. Replacing the earlier one-dict-record
-per-node layout with contiguous blocks buys three things:

* **batched block-slice fetches** — one request pulls the adjacency of
  many nodes as request-ordered records plus the exact reply size (8
  bytes per int64 element plus a fixed header) instead of a per-tuple
  structural estimate;
* **vectorized per-pass state** — the per-pass gains (already scaled
  to the master's integer buckets) and the cross-cut recount run the
  :func:`repro.core.kernels.shard_gain_deltas` /
  :func:`~repro.core.kernels.shard_cut_counts` batch kernels over each
  block (numpy on the numpy backend, bit-identical scalar loops
  otherwise);
* **delta-friendly wire accounting** — every message's size follows
  from array lengths, so the delta-broadcast protocol's byte savings
  are exact in ``NetworkSimulator``, not estimated.

:class:`ShardedCSR` is the master's O(#partitions) handle on a
distributed graph: the partition bounds and storage keys, but no
adjacency.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.kernels import buffer_tolist, shard_cut_counts, shard_gain_deltas

__all__ = [
    "ShardBlock",
    "BlockRef",
    "ShardedCSR",
    "partition_bounds",
    "block_payload_bytes",
    "MESSAGE_HEADER_BYTES",
    "COUNTER_BYTES",
    "SIDE_BYTE",
    "INT_BYTES",
]

#: Fixed per-message framing: kind tag, shard/partition key, length field.
MESSAGE_HEADER_BYTES = 24
#: The two int64 cut counters riding along with a gains reply.
COUNTER_BYTES = 16
#: One packed status byte per node in a full side-vector broadcast.
SIDE_BYTE = 1
#: Wire width of one node id / pointer / scaled gain (int64).
INT_BYTES = 8

#: Per-node adjacency as a block-slice fetch serves it and the master's
#: bucket pass reads it: ``(friends, rej_out, rej_in)``, each a list
#: sliced once off the block's rows.
NodeRecord = Tuple[Sequence[int], Sequence[int], Sequence[int]]


def block_payload_bytes(csr, lo: int, hi: int) -> int:
    """Exact wire size a ``[lo, hi)`` block upload *would* cost, read
    straight off the graph's pointer arrays — no block is built. This is
    what reference-mode distribution charges as avoided bytes."""
    f_ptr, ro_ptr, ri_ptr = csr.f_ptr, csr.ro_ptr, csr.ri_ptr
    elements = 3 * (hi - lo + 1) + (
        (int(f_ptr[hi]) - int(f_ptr[lo]))
        + (int(ro_ptr[hi]) - int(ro_ptr[lo]))
        + (int(ri_ptr[hi]) - int(ri_ptr[lo]))
    )
    return MESSAGE_HEADER_BYTES + INT_BYTES * elements


def partition_bounds(num_nodes: int, num_partitions: int) -> List[int]:
    """Near-even contiguous ranges: partition ``p`` owns nodes
    ``[bounds[p], bounds[p+1])``. The first ``num_nodes %
    num_partitions`` partitions take one extra node."""
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    base, rem = divmod(num_nodes, num_partitions)
    bounds = [0]
    for p in range(num_partitions):
        bounds.append(bounds[-1] + base + (1 if p < rem else 0))
    return bounds


class ShardBlock:
    """One contiguous CSR slice of the graph, resident on a worker.

    Pointers are rebased to the block (``f_ptr[0] == 0``); neighbour ids
    stay global, so gain kernels index the full side vector directly.
    Canonical storage is ``array("q")``; :meth:`hot` and
    :meth:`numpy_state` cache the plain-list and ``int64`` views the two
    kernel backends run on.
    """

    __slots__ = (
        "lo",
        "hi",
        "backend",
        "f_ptr",
        "f_idx",
        "ro_ptr",
        "ro_idx",
        "ri_ptr",
        "ri_idx",
        "_hot_cache",
        "_np_cache",
    )

    def __init__(self, lo: int, hi: int, arrays: Tuple[array, ...], backend: str) -> None:
        self.lo, self.hi = lo, hi
        (
            self.f_ptr,
            self.f_idx,
            self.ro_ptr,
            self.ro_idx,
            self.ri_ptr,
            self.ri_idx,
        ) = arrays
        self.backend = backend
        self._hot_cache: Optional[Tuple[List[int], ...]] = None
        self._np_cache: Optional[Dict[str, object]] = None

    @classmethod
    def from_csr(cls, csr, lo: int, hi: int) -> "ShardBlock":
        """Slice a block out of a finalized :class:`CSRGraph`."""
        return cls(lo, hi, csr.block_arrays(lo, hi), csr.backend)

    @property
    def num_nodes(self) -> int:
        return self.hi - self.lo

    @property
    def num_edges(self) -> int:
        return len(self.f_idx) + len(self.ro_idx) + len(self.ri_idx)

    def payload_bytes(self) -> int:
        """Exact upload size of the block's six flat arrays."""
        elements = (
            len(self.f_ptr)
            + len(self.f_idx)
            + len(self.ro_ptr)
            + len(self.ro_idx)
            + len(self.ri_ptr)
            + len(self.ri_idx)
        )
        return MESSAGE_HEADER_BYTES + INT_BYTES * elements

    def hot(self) -> Tuple[List[int], ...]:
        """Cached plain-list views, mirroring :meth:`CSRGraph.hot`."""
        cache = self._hot_cache
        if cache is None:
            # buffer_tolist (not list()) so blocks sliced as views of a
            # memory-mapped snapshot still yield native ints here — the
            # scalar kernels' backend parity depends on it.
            cache = (
                buffer_tolist(self.f_ptr),
                buffer_tolist(self.f_idx),
                buffer_tolist(self.ro_ptr),
                buffer_tolist(self.ro_idx),
                buffer_tolist(self.ri_ptr),
                buffer_tolist(self.ri_idx),
            )
            self._hot_cache = cache
        return cache

    def numpy_state(self) -> Dict[str, object]:
        """Cached zero-copy ``int64`` views plus per-slot *local* row ids
        (``f_row[i]`` is the block-local row owning slot ``i``)."""
        cache = self._np_cache
        if cache is None:
            import numpy as np

            def view(buf):
                # frombuffer keeps array("q") zero-copy; asarray keeps
                # the ndarray views a snapshot-mapped block slices out.
                if isinstance(buf, array):
                    return np.frombuffer(buf, dtype=np.int64)
                return np.asarray(buf, dtype=np.int64)

            cache = {
                "f_ptr": view(self.f_ptr),
                "f_idx": view(self.f_idx),
                "ro_ptr": view(self.ro_ptr),
                "ro_idx": view(self.ro_idx),
                "ri_ptr": view(self.ri_ptr),
                "ri_idx": view(self.ri_idx),
            }
            rows = np.arange(self.num_nodes, dtype=np.int64)
            cache["f_row"] = np.repeat(rows, np.diff(cache["f_ptr"]))
            cache["ro_row"] = np.repeat(rows, np.diff(cache["ro_ptr"]))
            cache["ri_row"] = np.repeat(rows, np.diff(cache["ri_ptr"]))
            self._np_cache = cache
        return cache

    def slices(self, nodes: Sequence[int]) -> Tuple[List[NodeRecord], int]:
        """Batched block-slice read: the requested (global-id) nodes'
        ``(friends, rej_out, rej_in)`` records in request order, plus
        the reply's exact wire size. For ``m`` nodes the reply carries
        the ids, three offset arrays of ``m + 1`` entries and the
        adjacency, one int64 each, behind the fixed header; the
        adjacency length is read off the offsets."""
        fp, fi, op, oi, ip_, ii = self.hot()
        lo, size = self.lo, self.hi - self.lo
        records: List[NodeRecord] = []
        adjacency = 0
        for node in nodes:
            r = node - lo
            if not 0 <= r < size:
                raise KeyError(
                    f"node {node} outside block range [{lo}, {self.hi})"
                )
            f0, f1 = fp[r], fp[r + 1]
            o0, o1 = op[r], op[r + 1]
            i0, i1 = ip_[r], ip_[r + 1]
            adjacency += f1 - f0 + o1 - o0 + i1 - i0
            records.append((fi[f0:f1], oi[o0:o1], ii[i0:i1]))
        elements = 3 + 4 * len(records) + adjacency
        return records, MESSAGE_HEADER_BYTES + INT_BYTES * elements

    def pass_state(self, sides: Sequence[int], k_scaled: int, res: int):
        """Worker-side per-pass contribution: the block's per-node
        integer-scaled switch gains ``k_scaled·rd − fd·res`` (``k`` is
        ``k_scaled/res``) plus its exact ``(f_cross, r_cross)`` parts."""
        gains = shard_gain_deltas(self, sides, k_scaled, res)
        f_part, r_part = shard_cut_counts(self, sides)
        return gains, f_part, r_part

    def __repr__(self) -> str:
        return (
            f"ShardBlock([{self.lo}, {self.hi}), edges={self.num_edges}, "
            f"backend={self.backend!r})"
        )


class BlockRef:
    """The wire form of a shard block when a snapshot file backs the
    graph: the snapshot path plus the block's node bounds, instead of
    the six flat arrays.

    A reference costs a fixed header plus the path string and two int64
    bounds — O(1) regardless of block size — and the receiving worker
    *maps* its slice out of the shared snapshot
    (:func:`repro.core.storage.open_snapshot_cached` +
    :meth:`CSRGraph.block_arrays`), so distribution ships kilobytes
    where payload mode ships the graph. The master-side accounting
    records the difference as avoided bytes
    (:class:`repro.cluster.netsim.NetworkStats`).
    """

    __slots__ = ("path", "lo", "hi")

    def __init__(self, path: str, lo: int, hi: int) -> None:
        self.path = path
        self.lo, self.hi = lo, hi

    def payload_bytes(self) -> int:
        """Exact wire size of the reference message: header, the UTF-8
        path, and the two int64 bounds."""
        return MESSAGE_HEADER_BYTES + len(self.path.encode("utf-8")) + 2 * INT_BYTES

    def materialize(self, backend: str = "auto") -> ShardBlock:
        """Map the referenced slice out of the snapshot. Workers share
        one cached open per file, so N blocks of the same graph cost one
        mapping — the in-process analogue of shared read-only pages."""
        from ..core.storage import open_snapshot_cached

        csr = open_snapshot_cached(self.path, mode="mmap", backend=backend)
        return ShardBlock.from_csr(csr, self.lo, self.hi)

    def __repr__(self) -> str:
        return f"BlockRef({self.path!r}, [{self.lo}, {self.hi}))"


class ShardedCSR:
    """The master's handle on a block-distributed CSR graph: partition
    bounds and storage keys only — O(#partitions) memory, no adjacency
    (Section V's master never holds graph structure)."""

    __slots__ = ("shard_id", "bounds", "backend")

    def __init__(self, shard_id: int, bounds: Sequence[int], backend: str) -> None:
        self.shard_id = shard_id
        self.bounds = list(bounds)
        self.backend = backend

    @property
    def num_partitions(self) -> int:
        return len(self.bounds) - 1

    @property
    def num_nodes(self) -> int:
        return self.bounds[-1]

    def key(self, partition_id: int) -> Tuple[str, int, int]:
        """Storage key of one block on its workers."""
        return ("csr", self.shard_id, partition_id)

    def range_of(self, partition_id: int) -> Tuple[int, int]:
        return self.bounds[partition_id], self.bounds[partition_id + 1]
