"""Flat-array CSR core: immutable graph storage plus the partition engine state.

The list-of-lists adjacency of :class:`repro.core.graph.AugmentedSocialGraph`
is convenient to *build* but wasteful to *search*: every KL pass walks every
adjacency list, and the iterative detector used to deep-copy the whole graph
each round. This module provides the flat substrate the hot paths run on:

* :class:`CSRGraph` — an immutable compressed-sparse-row snapshot of the
  augmented graph ``G = (V, F, R⃗)``. Three CSR pairs (``ptr``/``idx``) hold
  the friendship adjacency and the two rejection directions; every edge
  counts once. Adjacency is **sorted ascending**, which makes every
  downstream iteration order — and therefore every FM bucket-list
  tie-break — deterministic and independent of edge insertion order.
* :class:`WeightedCSRGraph` — the only graph with edge weights: one
  ``int64`` weight per slot and layer, plus a per-node member count.
  The multilevel solver coarsens onto it. Contraction of a unit-weight
  graph only ever *sums* unit edges, so every coarse weight is an exact
  integer; that keeps weighted gains integral, which gives the coarse
  levels the FM bucket index, the batch kernels, and bit-identical
  python/numpy backends (integer sums are order-insensitive).
* :class:`CSRView` — a zero-copy *residual view*: the same CSR arrays plus an
  active-node byte mask. Rejecto's rounds shrink the view instead of
  rebuilding the graph, so pruning a detected group costs O(V) instead of
  O(V+E).
* :class:`PartitionState` — sides, frozen-seed locks, and the incremental
  MAAR cut counters (``f_cross``, ``r_cross``) in one place. This replaces
  the ad hoc re-derivations that previously lived across ``partition.py``,
  ``kl.py`` and ``maar.py``; the KL engine
  (:func:`repro.core.kl.extended_kl_state`) mutates exactly this state.

Backend convention
------------------
``backend`` is ``"python"``, ``"numpy"``, or ``"auto"``, mirroring
:mod:`repro.baselines.linalg` and the SybilRank/SybilFence configs. Storage
is always stdlib ``array("q")`` int64 flat buffers (one canonical
representation keeps the two backends bit-identical); the ``"numpy"``
backend additionally exposes zero-copy ``int64`` views over those
buffers via :meth:`CSRGraph.numpy_arrays` (plus cached per-slot row ids
via :meth:`CSRGraph.numpy_rows`), which is what the batch kernels of
:mod:`repro.core.kernels` run on. The pure-Python hot loops deliberately
run on cached ``list`` views (:meth:`CSRGraph.hot`): CPython indexes
plain lists faster than either ``array`` or numpy scalars. The
``REPRO_BACKEND`` environment variable pins the ``"auto"`` resolution
(e.g. ``REPRO_BACKEND=python`` in CI keeps the scalar fallbacks covered).
"""

from __future__ import annotations

import mmap
import os
from array import array
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .kernels import (
    _segment_sums,
    buffer_tolist,
    buffer_typecode,
    contract_arrays,
    node_deltas,
    recount_active,
    scaled_gain_bound,
)
from .objectives import (
    LEGITIMATE,
    SUSPICIOUS,
    acceptance_rate,
    friends_to_rejections_ratio,
)

__all__ = [
    "CSRGraph",
    "WeightedCSRGraph",
    "CSRView",
    "PartitionState",
    "resolve_backend",
]


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy is a hard dependency here
        return False
    return True


def resolve_backend(backend: str) -> str:
    """Normalize a ``backend`` request to ``"python"`` or ``"numpy"``.

    ``"auto"`` prefers numpy when importable, matching the convention of
    :mod:`repro.baselines.linalg`; the ``REPRO_BACKEND`` environment
    variable overrides the ``"auto"`` resolution (CI pins it to
    ``"python"`` to keep the scalar fallbacks covered on hosts where
    numpy is installed). Explicit requests are never overridden.
    Unknown names raise ``ValueError``.
    """
    if backend == "auto":
        override = os.environ.get("REPRO_BACKEND")
        if override and override != "auto":
            return resolve_backend(override)
        return "numpy" if _numpy_available() else "python"
    if backend in ("python", "numpy"):
        if backend == "numpy" and not _numpy_available():
            raise ValueError("backend 'numpy' requested but numpy is not importable")
        return backend
    raise ValueError(f"unknown backend {backend!r}")


def _picklable(buf) -> array:
    """An int64 ``array`` copy of ``buf`` suitable for pickling
    (``array`` instances pass through untouched)."""
    if isinstance(buf, array):
        return buf
    out = array("q")
    out.frombytes(buf.tobytes())
    return out


def _build_csr(
    num_nodes: int, adjacency: Sequence[Sequence[int]]
) -> Tuple[array, array]:
    """Pack per-node neighbour lists into (ptr, idx) arrays, sorted per row."""
    ptr = array("q", [0] * (num_nodes + 1))
    total = 0
    for u in range(num_nodes):
        total += len(adjacency[u])
        ptr[u + 1] = total
    idx = array("q", [0] * total)
    pos = 0
    for u in range(num_nodes):
        for v in sorted(adjacency[u]):
            idx[pos] = v
            pos += 1
    return ptr, idx


def _mapped_zeros(np, shape, dtype):
    """A zeroed numpy array in its own anonymous memory map: unmapped
    when the last reference dies, whatever the malloc heap looks like."""
    count = 1
    for dim in shape:
        count *= dim
    nbytes = count * np.dtype(dtype).itemsize
    buf = mmap.mmap(-1, max(nbytes, 1))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


#: Largest node count whose ``u·n + v`` pair keys fit in int64.
_MAX_KEYED_NODES = 3_037_000_499


def _edge_pairs(np, edges):
    """``edges`` as an ``(m, 2)`` int64 array (a list of pairs, any
    iterable of pairs, or an ``(m, 2)`` integer array)."""
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise ValueError("edges must be (u, v) pairs of integer node ids")
    return pairs.astype(np.int64, copy=False)


def _keys(np, num_nodes: int, rows, cols):
    """Pair keys ``rows·n + cols``; ids outside ``[0, n)`` raise."""
    if rows.size and (
        min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= num_nodes
    ):
        raise IndexError(f"edge endpoint out of range [0, {num_nodes})")
    return rows * num_nodes + cols


def _sorted_unique(np, keys):
    """``np.unique(keys)`` by sort and neighbour compare (numpy 2's hashed
    ``unique`` is ~20x slower on 10^5 int64 keys)."""
    keys = np.sort(keys)
    keep = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _csr_from_keys(np, num_nodes: int, keys) -> Tuple[array, array]:
    """(ptr, idx) ``array('q')`` buffers from sorted unique pair keys."""
    rows, cols = np.divmod(keys, num_nodes)
    ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=ptr[1:])
    out_ptr, out_idx = array("q"), array("q")
    out_ptr.frombytes(ptr.tobytes())
    out_idx.frombytes(cols.tobytes())
    return out_ptr, out_idx


def _pack_edges_numpy(num_nodes: int, friendships, rejections) -> Tuple[array, ...]:
    """The numpy twin of :meth:`CSRGraph.from_edges`' loops: one int64
    key per edge, self-loops and duplicates dropped, rows cut from the
    sorted keys. Gives the same six buffers."""
    import numpy as np

    f = _edge_pairs(np, friendships)
    lo, hi = np.minimum(f[:, 0], f[:, 1]), np.maximum(f[:, 0], f[:, 1])
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    f_keys = _sorted_unique(np, _keys(np, num_nodes, lo, hi))
    lo, hi = np.divmod(f_keys, num_nodes)
    f_keys = np.sort(np.concatenate((f_keys, hi * num_nodes + lo)))

    r = _edge_pairs(np, rejections)
    r = r[r[:, 0] != r[:, 1]]
    ro_keys = _sorted_unique(np, _keys(np, num_nodes, r[:, 0], r[:, 1]))
    rejecter, sender = np.divmod(ro_keys, num_nodes)
    ri_keys = np.sort(sender * num_nodes + rejecter)
    return (
        *_csr_from_keys(np, num_nodes, f_keys),
        *_csr_from_keys(np, num_nodes, ro_keys),
        *_csr_from_keys(np, num_nodes, ri_keys),
    )


class CSRGraph:
    """Immutable CSR snapshot of a rejection-augmented social graph.

    Layout (all adjacency sorted ascending within each row):

    * ``f_ptr``/``f_idx`` — undirected friendships; each edge appears in
      both endpoints' rows, so ``len(f_idx) == 2·|F|``.
    * ``ro_ptr``/``ro_idx`` — rejections *cast*: row ``u`` lists the users
      whose requests ``u`` rejected.
    * ``ri_ptr``/``ri_idx`` — rejections *received*: row ``u`` lists the
      users that rejected ``u``'s requests. ``len(ro_idx) == len(ri_idx)
      == |R⃗|``.
    * ``f_wt``/``ro_wt``/``ri_wt`` — always ``None`` here; only
      :class:`WeightedCSRGraph` carries (int64) edge weights.

    Instances are immutable by convention: every mutation path goes through
    the :class:`~repro.core.graph.AugmentedSocialGraph` builder, which
    finalizes into a (cached) ``CSRGraph`` via its ``csr()`` method.
    """

    __slots__ = (
        "num_nodes",
        "backend",
        "f_ptr",
        "f_idx",
        "ro_ptr",
        "ro_idx",
        "ri_ptr",
        "ri_idx",
        "f_wt",
        "ro_wt",
        "ri_wt",
        "snapshot_path",
        "_hot_cache",
        "_hot_wt_cache",
        "_np_cache",
        "_bound_cache",
    )

    def __init__(
        self,
        num_nodes: int,
        f_ptr: array,
        f_idx: array,
        ro_ptr: array,
        ro_idx: array,
        ri_ptr: array,
        ri_idx: array,
        backend: str = "auto",
    ) -> None:
        self.num_nodes = num_nodes
        self.backend = resolve_backend(backend)
        self.f_ptr, self.f_idx = f_ptr, f_idx
        self.ro_ptr, self.ro_idx = ro_ptr, ro_idx
        self.ri_ptr, self.ri_idx = ri_ptr, ri_idx
        self.f_wt = self.ro_wt = self.ri_wt = None
        #: set by :func:`repro.core.storage.load_snapshot` on graphs
        #: opened from a binary snapshot file — consumers (the cluster
        #: engine) use it to ship shard *references* instead of payloads
        self.snapshot_path: Optional[str] = None
        self._hot_cache: Optional[Tuple[List[int], ...]] = None
        self._hot_wt_cache: Optional[Tuple[List[int], ...]] = None
        self._np_cache: Optional[Dict[str, object]] = None
        self._bound_cache: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_builder(cls, graph, backend: str = "auto") -> "CSRGraph":
        """Finalize an :class:`AugmentedSocialGraph` builder into CSR form."""
        n = graph.num_nodes
        f_ptr, f_idx = _build_csr(n, graph.friends)
        ro_ptr, ro_idx = _build_csr(n, graph.rej_out)
        ri_ptr, ri_idx = _build_csr(n, graph.rej_in)
        return cls(n, f_ptr, f_idx, ro_ptr, ro_idx, ri_ptr, ri_idx, backend=backend)

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        friendships: Iterable[Tuple[int, int]] = (),
        rejections: Iterable[Tuple[int, int]] = (),
        backend: str = "auto",
    ) -> "CSRGraph":
        """Build directly from edge lists (duplicates collapse, as in the
        builder).

        On the ``"numpy"`` backend the edges (pairs, or ``(m, 2)`` int
        arrays) are packed in batch; the ``"python"`` loops below are
        the no-numpy path and the oracle the batch packer is pinned to
        (same buffers, byte for byte). Both reject every id outside
        ``[0, num_nodes)`` with ``IndexError``; self-loops are dropped
        before the check.
        """
        if resolve_backend(backend) == "numpy" and num_nodes <= _MAX_KEYED_NODES:
            buffers = _pack_edges_numpy(num_nodes, friendships, rejections)
            return cls(num_nodes, *buffers, backend=backend)
        friends: List[List[int]] = [[] for _ in range(num_nodes)]
        rej_out: List[List[int]] = [[] for _ in range(num_nodes)]
        rej_in: List[List[int]] = [[] for _ in range(num_nodes)]
        friend_set = set()
        for u, v in friendships:
            if u == v:
                continue
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise IndexError(f"edge endpoint out of range [0, {num_nodes})")
            key = (u, v) if u <= v else (v, u)
            if key in friend_set:
                continue
            friend_set.add(key)
            friends[u].append(v)
            friends[v].append(u)
        rej_set = set()
        for rejecter, sender in rejections:
            if rejecter == sender:
                continue
            if not (0 <= rejecter < num_nodes and 0 <= sender < num_nodes):
                raise IndexError(f"edge endpoint out of range [0, {num_nodes})")
            if (rejecter, sender) in rej_set:
                continue
            rej_set.add((rejecter, sender))
            rej_out[rejecter].append(sender)
            rej_in[sender].append(rejecter)
        f_ptr, f_idx = _build_csr(num_nodes, friends)
        ro_ptr, ro_idx = _build_csr(num_nodes, rej_out)
        ri_ptr, ri_idx = _build_csr(num_nodes, rej_in)
        return cls(
            num_nodes, f_ptr, f_idx, ro_ptr, ro_idx, ri_ptr, ri_idx, backend=backend
        )

    # ------------------------------------------------------------------
    # Array views
    # ------------------------------------------------------------------
    @property
    def weighted(self) -> bool:
        """Whether this is a :class:`WeightedCSRGraph` (int64 weights)."""
        return self.f_wt is not None

    def hot(self) -> Tuple[List[int], ...]:
        """Cached plain-list views ``(f_ptr, f_idx, ro_ptr, ro_idx, ri_ptr,
        ri_idx)`` for the pure-Python hot loops. Elements are native
        ``int`` whatever the storage (``array``, ``np.memmap`` segment,
        or ``memoryview`` over an mmap)."""
        cache = self._hot_cache
        if cache is None:
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

    def hot_weights(self) -> Optional[Tuple[List[int], ...]]:
        """Cached ``int`` list views of ``(f_wt, ro_wt, ri_wt)``; ``None``
        when the graph is unweighted."""
        if self.f_wt is None:
            return None
        cache = self._hot_wt_cache
        if cache is None:
            cache = (
                buffer_tolist(self.f_wt),
                buffer_tolist(self.ro_wt),
                buffer_tolist(self.ri_wt),
            )
            self._hot_wt_cache = cache
        return cache

    def numpy_arrays(self) -> Dict[str, object]:
        """Zero-copy ``int64`` numpy views over the CSR buffers (weights
        included on weighted graphs). Available on any instance with
        numpy importable; the ``"numpy"`` backend guarantees it."""
        cache = self._np_cache
        if cache is None:
            import numpy as np

            cache = {
                "f_ptr": np.frombuffer(self.f_ptr, dtype=np.int64),
                "f_idx": np.frombuffer(self.f_idx, dtype=np.int64),
                "ro_ptr": np.frombuffer(self.ro_ptr, dtype=np.int64),
                "ro_idx": np.frombuffer(self.ro_idx, dtype=np.int64),
                "ri_ptr": np.frombuffer(self.ri_ptr, dtype=np.int64),
                "ri_idx": np.frombuffer(self.ri_idx, dtype=np.int64),
            }
            if self.f_wt is not None:
                cache["f_wt"] = np.frombuffer(self.f_wt, dtype=np.int64)
                cache["ro_wt"] = np.frombuffer(self.ro_wt, dtype=np.int64)
                cache["ri_wt"] = np.frombuffer(self.ri_wt, dtype=np.int64)
            self._np_cache = cache
        return cache

    def numpy_rows(self) -> Tuple[object, object, object]:
        """Cached per-slot *row* index arrays ``(f_row, ro_row, ri_row)``
        — the inverse of the ``ptr`` compression, i.e. ``f_row[i]`` is
        the node whose adjacency row holds slot ``i``. The batch kernels
        pair them with the ``idx`` arrays to evaluate per-edge terms
        without any per-row Python loop."""
        cache = self.numpy_arrays()
        if "f_row" not in cache:
            import numpy as np

            ids = np.arange(self.num_nodes, dtype=np.int64)
            cache["f_row"] = np.repeat(ids, np.diff(cache["f_ptr"]))
            cache["ro_row"] = np.repeat(ids, np.diff(cache["ro_ptr"]))
            cache["ri_row"] = np.repeat(ids, np.diff(cache["ri_ptr"]))
        return cache["f_row"], cache["ro_row"], cache["ri_row"]

    def numpy_matrices(self) -> Dict[str, object]:
        """Cached dense ``n × n`` row matrices for the matrix FM pass
        (:func:`repro.core.kl._matrix_pass`), built from
        :meth:`numpy_arrays` on first use and dropped with the graph:

        * ``"fr"`` — int64 ``(n, 2, n)``: ``fr[u, 0, v]`` is the
          friendship weight of ``(u, v)`` and ``fr[u, 1, v]`` the
          rejection weight ``u`` cast on ``v`` plus the weight it
          received from ``v`` (a pair can carry both).
        * ``"occ"`` — bool: ``v`` occurs in ``u``'s friends, rejections
          cast or rejections received.
        * ``"rank"`` — the slot rank of ``v``'s *last* occurrence in
          ``u``'s friends → rejections cast → rejections received sweep
          (the order the bucket pass relinks neighbours in); 0 where
          ``occ`` is false.
        * ``"step"`` — one more than the largest rank.
        * ``"f_sum"``/``"ri_sum"`` — per-row friendship and
          received-rejection weight sums, as lists.

        The three matrices live in anonymous memory maps, not on the
        malloc heap, so their pages go back to the system as soon as the
        level is released instead of raising the process's peak for the
        finer levels that follow.
        """
        cache = self.numpy_arrays()
        mats = cache.get("matrices")
        if mats is None:
            import numpy as np

            n = self.num_nodes
            layers = []
            for row, name in zip(self.numpy_rows(), ("f", "ro", "ri")):
                idx, ptr = cache[name + "_idx"], cache[name + "_ptr"]
                wt = cache.get(name + "_wt")
                if wt is None:
                    wt = np.ones(len(idx), dtype=np.int64)
                layers.append((row, idx, ptr, wt))
            sweep = sum(np.diff(ptr) for _, _, ptr, _ in layers)
            step = int(sweep.max(initial=0)) + 1
            fr = _mapped_zeros(np, (n, 2, n), np.int64)
            occ = _mapped_zeros(np, (n, n), np.bool_)
            rank = _mapped_zeros(np, (n, n), np.int16 if step <= 2**15 else np.int32)
            base = np.zeros(n, dtype=np.int64)
            for layer, (row, idx, ptr, wt) in enumerate(layers):
                # Rows are duplicate-free within a layer, so fancy ``+=``
                # is exact; a later layer's rank overwrites an earlier
                # one's, which leaves the *last* occurrence.
                fr[row, min(layer, 1), idx] += wt
                occ[row, idx] = True
                rank[row, idx] = np.arange(len(idx)) - ptr[row] + base[row]
                base += np.diff(ptr)
            mats = {
                "fr": fr,
                "occ": occ,
                "rank": rank,
                "step": step,
                "f_sum": _segment_sums(np, layers[0][3], layers[0][2]).tolist(),
                "ri_sum": _segment_sums(np, layers[2][3], layers[2][2]).tolist(),
            }
            cache["matrices"] = mats
        return mats

    def block_arrays(self, lo: int, hi: int) -> Tuple[array, ...]:
        """Rebased CSR slices for the contiguous node range ``[lo, hi)``.

        Returns ``(f_ptr, f_idx, ro_ptr, ro_idx, ri_ptr, ri_idx)`` where
        each ``ptr`` array is local (``ptr[0] == 0``, length
        ``hi − lo + 1``) and each ``idx`` array keeps *global* neighbour
        ids — exactly the layout a cluster worker stores per shard block
        (:class:`repro.cluster.blocks.ShardBlock`). The ``idx`` slices
        are flat C-level copies of the parent buffers; only the pointer
        rebase walks Python-level.
        """
        if not 0 <= lo <= hi <= self.num_nodes:
            raise ValueError(
                f"block range [{lo}, {hi}) invalid for graph with "
                f"{self.num_nodes} nodes"
            )
        out: List[array] = []
        for ptr, idx in (
            (self.f_ptr, self.f_idx),
            (self.ro_ptr, self.ro_idx),
            (self.ri_ptr, self.ri_idx),
        ):
            base = int(ptr[lo])
            out.append(
                array("q", (int(ptr[i]) - base for i in range(lo, hi + 1)))
            )
            # On memmap-backed graphs this slice is a zero-copy view of
            # the mapped file (numpy) or mmap buffer (memoryview); only
            # array-module storage pays a flat C-level copy here.
            out.append(idx[ptr[lo] : ptr[hi]])
        return tuple(out)

    def contract(
        self, mapping: Sequence[int], num_coarse: int
    ) -> "WeightedCSRGraph":
        """Contract this graph under ``mapping`` (fine node → coarse id).

        Weights between distinct coarse nodes accumulate (an unweighted
        graph contributes unit weights); edges internal to a coarse node
        vanish; ``node_weight`` sums per super-node — exactly the
        semantics that keep every coarse cut's weight equal to the
        projected fine cut's weight. Runs as a flat-array kernel
        (:func:`repro.core.kernels.contract_arrays`): sort/bincount/
        scatter-add passes on the numpy backend, dict accumulation in
        pure python — identical int64 outputs either way.
        """
        arrays = contract_arrays(self, mapping, num_coarse)
        return WeightedCSRGraph(num_coarse, *arrays, backend=self.backend)

    def bucket_gain_bound(self, resolution: int, k_scaled: int) -> int:
        """Memoized :func:`repro.core.kernels.scaled_gain_bound`.

        The bound is pass-invariant *and* view-invariant (full-graph
        degrees dominate active-filtered ones), so one entry per
        ``(resolution, k_scaled)`` serves every pass of every KL solve
        at that ``k`` — the whole MAAR ``k``-sweep and all of Rejecto's
        residual rounds share this cache instead of re-scanning O(V)
        degrees per KL solve. KL keys it by ``k``'s lowest terms
        (:func:`repro.core.gains._lowest_terms`): a ``k = 2`` solve on
        the grid of 8 stores ``(1, 2)``."""
        key = (resolution, k_scaled)
        bound = self._bound_cache.get(key)
        if bound is None:
            bound = scaled_gain_bound(self, resolution, k_scaled)
            self._bound_cache[key] = bound
        return bound

    # ------------------------------------------------------------------
    # Binary snapshot persistence (repro.core.storage)
    # ------------------------------------------------------------------
    def save(self, path):
        """Write this graph as a versioned binary snapshot (``.csrbin``).

        The file layout is backend-independent — the same graph saved
        from the python and numpy backends is byte-identical. See
        :mod:`repro.core.storage` for the format. Returns the final
        :class:`~pathlib.Path`.
        """
        from .storage import save_snapshot

        return save_snapshot(self, path)

    @classmethod
    def open(
        cls, path, mode: str = "mmap", backend: str = "auto"
    ) -> "CSRGraph":
        """Open a snapshot written by :meth:`save`.

        ``mode="mmap"`` (default) maps the segments zero-copy —
        millisecond opens regardless of graph size, read-only pages
        shared between every process mapping the same file.
        ``mode="copy"`` reads them into fresh ``array`` buffers.
        Weighted snapshots come back as :class:`WeightedCSRGraph`.
        """
        from .storage import load_snapshot

        return load_snapshot(path, mode=mode, backend=backend)

    # ------------------------------------------------------------------
    # Queries (builder-compatible surface)
    # ------------------------------------------------------------------
    def csr(self, backend: str = "auto") -> "CSRGraph":
        """A CSR graph finalizes to itself — lets callers accept either a
        builder or a finalized graph uniformly."""
        return self

    def degree(self, u: int) -> int:
        return self.f_ptr[u + 1] - self.f_ptr[u]

    def rejections_cast(self, u: int) -> int:
        return self.ro_ptr[u + 1] - self.ro_ptr[u]

    def rejections_received(self, u: int) -> int:
        return self.ri_ptr[u + 1] - self.ri_ptr[u]

    def has_friendship(self, u: int, v: int) -> bool:
        lo, hi = self.f_ptr[u], self.f_ptr[u + 1]
        pos = bisect_left(self.f_idx, v, lo, hi)
        return pos < hi and self.f_idx[pos] == v

    def has_rejection(self, rejecter: int, sender: int) -> bool:
        lo, hi = self.ro_ptr[rejecter], self.ro_ptr[rejecter + 1]
        pos = bisect_left(self.ro_idx, sender, lo, hi)
        return pos < hi and self.ro_idx[pos] == sender

    @property
    def num_friendships(self) -> int:
        return len(self.f_idx) // 2

    @property
    def num_rejections(self) -> int:
        return len(self.ro_idx)

    def friendships(self) -> Iterator[Tuple[int, int]]:
        """Iterate friendships as canonical ``(min, max)`` pairs, sorted."""
        f_ptr, f_idx = self.f_ptr, self.f_idx
        for u in range(self.num_nodes):
            for i in range(f_ptr[u], f_ptr[u + 1]):
                v = f_idx[i]
                if u < v:
                    yield (u, v)

    def rejections(self) -> Iterator[Tuple[int, int]]:
        """Iterate rejections as ``(rejecter, sender)`` pairs, sorted."""
        ro_ptr, ro_idx = self.ro_ptr, self.ro_idx
        for u in range(self.num_nodes):
            for i in range(ro_ptr[u], ro_ptr[u + 1]):
                yield (u, ro_idx[i])

    def nodes(self) -> range:
        return range(self.num_nodes)

    # ------------------------------------------------------------------
    # Pickling (parallel process workers)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Tuple:
        """Pickle only the flat buffers — the derived caches (plain-list
        hot views, numpy ``frombuffer`` views) are rebuilt lazily on the
        receiving side, so a spawn-platform worker transfer is just the
        CSR arrays. Memmap-backed segments are materialized into
        ``array`` buffers (an mmap cannot travel in a pickle); the
        receiving side gets an ordinary in-memory graph."""
        return (
            self.num_nodes,
            self.backend,
            _picklable(self.f_ptr),
            _picklable(self.f_idx),
            _picklable(self.ro_ptr),
            _picklable(self.ro_idx),
            _picklable(self.ri_ptr),
            _picklable(self.ri_idx),
        )

    def __setstate__(self, state: Tuple) -> None:
        (
            self.num_nodes,
            self.backend,
            self.f_ptr,
            self.f_idx,
            self.ro_ptr,
            self.ro_idx,
            self.ri_ptr,
            self.ri_idx,
        ) = state
        self.f_wt = self.ro_wt = self.ri_wt = None
        self.snapshot_path = None
        self._hot_cache = None
        self._hot_wt_cache = None
        self._np_cache = None
        self._bound_cache = {}

    def view(self) -> "CSRView":
        """An all-active residual view of this graph."""
        return CSRView(self)

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        kind = "weighted " if self.weighted else ""
        return (
            f"CSRGraph({kind}nodes={self.num_nodes}, "
            f"friendships={self.num_friendships}, "
            f"rejections={self.num_rejections}, backend={self.backend!r})"
        )


class WeightedCSRGraph(CSRGraph):
    """Integer-weight CSR graph — the multilevel coarse representation.

    Contraction of a unit-weight augmented graph only ever *sums* unit
    edges, so every coarse friendship/rejection weight is an exact
    integer. Storing weights as ``array("q")`` int64 (plus the per-node
    member count ``node_weight``) keeps weighted switch gains integral,
    which gives these graphs everything the unweighted fast path has:
    the FM bucket gain index, the batch kernels of
    :mod:`repro.core.kernels`, and bit-identical python/numpy backends
    (integer sums are order-insensitive). This is the only graph type
    with edge weights, and its weights are int64 by construction.

    ``node_weight[u]`` counts the original (level-0) nodes merged into
    super-node ``u``; validity rules that cap the suspicious region's
    *original* population weight by it (:meth:`weighted_suspicious_size`).
    """

    __slots__ = ("node_weight",)

    def __init__(
        self,
        num_nodes: int,
        f_ptr: array,
        f_idx: array,
        ro_ptr: array,
        ro_idx: array,
        ri_ptr: array,
        ri_idx: array,
        f_wt: array,
        ro_wt: array,
        ri_wt: array,
        node_weight: Optional[array] = None,
        backend: str = "auto",
    ) -> None:
        for name, wt in (("f_wt", f_wt), ("ro_wt", ro_wt), ("ri_wt", ri_wt)):
            if buffer_typecode(wt) != "q":
                raise ValueError(
                    f"WeightedCSRGraph requires int64 ('q') weight arrays; "
                    f"{name} is not"
                )
        super().__init__(
            num_nodes, f_ptr, f_idx, ro_ptr, ro_idx, ri_ptr, ri_idx, backend=backend
        )
        self.f_wt, self.ro_wt, self.ri_wt = f_wt, ro_wt, ri_wt
        if node_weight is None:
            node_weight = array("q", [1]) * num_nodes
        else:
            if buffer_typecode(node_weight) != "q":
                node_weight = array("q", node_weight)
            if len(node_weight) != num_nodes:
                raise ValueError(
                    f"node_weight has length {len(node_weight)}, "
                    f"expected {num_nodes}"
                )
        self.node_weight = node_weight

    @classmethod
    def from_unit(cls, csr: CSRGraph) -> "WeightedCSRGraph":
        """Embed an unweighted CSR graph with all-ones weights — the
        identity contraction, i.e. level 0 of the multilevel hierarchy.
        Shares the index buffers with the source graph (zero copy)."""
        if csr.weighted:
            raise ValueError("from_unit embeds *unweighted* graphs only")
        one = array("q", [1])
        return cls(
            csr.num_nodes,
            csr.f_ptr,
            csr.f_idx,
            csr.ro_ptr,
            csr.ro_idx,
            csr.ri_ptr,
            csr.ri_idx,
            f_wt=one * len(csr.f_idx),
            ro_wt=one * len(csr.ro_idx),
            ri_wt=one * len(csr.ri_idx),
            backend=csr.backend,
        )

    def total_node_weight(self) -> int:
        """Original (level-0) node count this graph represents, as a
        plain ``int`` (a memory-mapped ``node_weight`` holds numpy
        scalars, which ``json`` refuses)."""
        return int(sum(self.node_weight))

    def weighted_suspicious_size(
        self, sides: Sequence[int], active: Optional[Sequence[int]] = None
    ) -> int:
        """Original-node population of side 1, as a plain ``int`` — every
        super-node counts its merged members. Only ``active`` nodes count
        when a mask is given."""
        nw = self.node_weight
        if active is None:
            return int(sum(nw[u] for u in range(self.num_nodes) if sides[u]))
        return int(
            sum(nw[u] for u in range(self.num_nodes) if active[u] and sides[u])
        )

    def __getstate__(self) -> Tuple:
        return super().__getstate__() + tuple(
            _picklable(buf)
            for buf in (self.f_wt, self.ro_wt, self.ri_wt, self.node_weight)
        )

    def __setstate__(self, state: Tuple) -> None:
        super().__setstate__(state[:8])
        self.f_wt, self.ro_wt, self.ri_wt, self.node_weight = state[8:]

    def __repr__(self) -> str:
        return (
            f"WeightedCSRGraph(nodes={self.num_nodes}, "
            f"friendships={self.num_friendships}, "
            f"rejections={self.num_rejections}, "
            f"total_weight={self.total_node_weight()}, "
            f"backend={self.backend!r})"
        )


class CSRView:
    """A zero-copy residual view: shared CSR arrays + an active-node mask.

    ``active`` is a bytearray of 0/1 flags. Views are cheap to derive
    (:meth:`without` copies only the mask, O(V)) and never touch the edge
    arrays, which is what removes the per-round O(V+E) subgraph copies from
    the iterative detector.
    """

    __slots__ = ("csr", "active", "num_active", "_hot_active")

    def __init__(
        self,
        csr: CSRGraph,
        active: Optional[bytearray] = None,
        num_active: Optional[int] = None,
    ) -> None:
        self.csr = csr
        if active is None:
            active = bytearray(b"\x01") * csr.num_nodes
            num_active = csr.num_nodes
        elif num_active is None:
            num_active = sum(active)
        self.active = active
        self.num_active = num_active
        self._hot_active: Optional[Tuple[List[int], ...]] = None

    def hot_active(self) -> Tuple[List[int], ...]:
        """Active-filtered plain-list CSR adjacency, cached on the view.

        Same ``(f_ptr, f_idx, ro_ptr, ro_idx, ri_ptr, ri_idx)`` shape as
        :meth:`CSRGraph.hot` but with inactive neighbours dropped from
        the index arrays, so the bucket engine's hot loops need no
        per-edge active checks. Filtering preserves relative order —
        every retained entry is visited in the same sequence as with the
        mask checks, so engines on either representation are
        bit-identical. All-active views return :meth:`CSRGraph.hot`
        as-is (zero cost); residual views pay one O(V+E) build shared
        across every ``k`` of the sweep and every pass: a masked gather
        and a cumulative count per layer on the numpy backend, the
        :meth:`_hot_active_py` loop (the no-numpy path and its oracle)
        otherwise. Unweighted use only: the weighted engines index
        weight arrays positionally, which filtering would misalign.
        """
        cached = self._hot_active
        if cached is None:
            csr = self.csr
            if self.num_active == csr.num_nodes:
                cached = csr.hot()
            elif csr.backend == "numpy":
                cached = self._hot_active_np()
            else:
                cached = self._hot_active_py()
            self._hot_active = cached
        return cached

    def _hot_active_np(self) -> Tuple[List[int], ...]:
        import numpy as np

        arrs = self.csr.numpy_arrays()
        active = np.frombuffer(self.active, dtype=np.uint8).astype(bool)
        filtered: List[List[int]] = []
        for name in ("f", "ro", "ri"):
            ptr, idx = arrs[name + "_ptr"], arrs[name + "_idx"]
            keep = active[idx]
            kept = np.zeros(len(idx) + 1, dtype=np.int64)
            np.cumsum(keep, out=kept[1:])
            filtered.append(kept[ptr].tolist())
            filtered.append(idx[keep].tolist())
        return tuple(filtered)

    def _hot_active_py(self) -> Tuple[List[int], ...]:
        csr = self.csr
        active = self.active
        fp, fi, op, oi, ip_, ii = csr.hot()
        filtered: List[List[int]] = []
        for ptr, idx in ((fp, fi), (op, oi), (ip_, ii)):
            new_ptr = [0] * (csr.num_nodes + 1)
            new_idx: List[int] = []
            append = new_idx.append
            for u in range(csr.num_nodes):
                for i in range(ptr[u], ptr[u + 1]):
                    v = idx[i]
                    if active[v]:
                        append(v)
                new_ptr[u + 1] = len(new_idx)
            filtered.append(new_ptr)
            filtered.append(new_idx)
        return tuple(filtered)

    def _check_node(self, u: int) -> None:
        """Reject out-of-range ids. Without this, ``active[-1]`` would
        silently deactivate node ``num_nodes - 1`` via Python's negative
        indexing instead of failing."""
        if not 0 <= u < self.csr.num_nodes:
            raise ValueError(
                f"node id {u} out of range for graph with "
                f"{self.csr.num_nodes} nodes"
            )

    def without(self, removed: Iterable[int]) -> "CSRView":
        """A new view with the given nodes deactivated (idempotent).

        Raises ``ValueError`` on ids outside ``[0, num_nodes)``.
        """
        active = bytearray(self.active)
        dropped = 0
        for u in removed:
            self._check_node(u)
            if active[u]:
                active[u] = 0
                dropped += 1
        return CSRView(self.csr, active, self.num_active - dropped)

    def is_active(self, u: int) -> bool:
        self._check_node(u)
        return bool(self.active[u])

    def active_nodes(self) -> List[int]:
        return [u for u in range(self.csr.num_nodes) if self.active[u]]

    def degree(self, u: int) -> int:
        """Friend count of ``u`` restricted to active neighbours."""
        csr, active = self.csr, self.active
        return sum(
            1
            for i in range(csr.f_ptr[u], csr.f_ptr[u + 1])
            if active[csr.f_idx[i]]
        )

    def rejections_received(self, u: int) -> int:
        """In-rejection count of ``u`` restricted to active rejecters."""
        csr, active = self.csr, self.active
        return sum(
            1
            for i in range(csr.ri_ptr[u], csr.ri_ptr[u + 1])
            if active[csr.ri_idx[i]]
        )

    def __repr__(self) -> str:
        return f"CSRView(active={self.num_active}/{self.csr.num_nodes})"


class PartitionState:
    """Sides, frozen-seed locks, and incremental MAAR cut counters over a
    residual view — the single state object the KL engine mutates.

    The one cut type: every solver starts from one
    (:func:`repro.core.maar.initial_partition`) and returns one.
    ``f_cross`` counts active-active cross friendships ``|F(Ū, U)|`` and
    ``r_cross`` counts rejections cast by active side-0 nodes onto
    active side-1 nodes ``|R⃗⟨Ū, U⟩|``; on a :class:`WeightedCSRGraph`
    both are exact ``int`` weight sums. Their dict-adjacency reference
    is the test oracle in ``tests/core/partition_oracle.py``.
    """

    __slots__ = ("view", "sides", "locked", "f_cross", "r_cross", "side_sizes")

    def __init__(
        self,
        view: CSRView,
        sides: Sequence[int],
        locked: Optional[Sequence[bool]] = None,
    ) -> None:
        n = view.csr.num_nodes
        if len(sides) != n:
            raise ValueError(f"sides has length {len(sides)}, expected {n}")
        bad = [s for s in sides if s not in (LEGITIMATE, SUSPICIOUS)]
        if bad:
            raise ValueError(f"sides must be 0 or 1, found {bad[0]!r}")
        if locked is None:
            locked = [False] * n
        elif len(locked) != n:
            raise ValueError(f"locked has length {len(locked)}, expected {n}")
        self.view = view
        self.sides: List[int] = list(sides)
        self.locked: List[bool] = list(locked)
        self.recount()

    @classmethod
    def from_counts(
        cls,
        view: CSRView,
        sides: Sequence[int],
        locked: Optional[Sequence[bool]],
        f_cross,
        r_cross,
    ) -> "PartitionState":
        """Build a state from already-known cut counters, skipping the
        O(V+E) :meth:`recount`.

        The boundary-only multilevel refinement tracks exact integer
        counter deltas through every projection (cut weights are
        preserved) and region merge, so re-deriving the counters from
        scratch at each level would be pure waste; this trusts the
        caller's ``f_cross``/``r_cross`` and only tallies the O(V) side
        sizes. ``verify_counts`` remains the audit hook.
        """
        n = view.csr.num_nodes
        if len(sides) != n:
            raise ValueError(f"sides has length {len(sides)}, expected {n}")
        if locked is None:
            locked = [False] * n
        elif len(locked) != n:
            raise ValueError(f"locked has length {len(locked)}, expected {n}")
        state = cls.__new__(cls)
        state.view = view
        state.sides = list(sides)
        state.locked = list(locked)
        state.f_cross = f_cross
        state.r_cross = r_cross
        active = view.active
        ones = 0
        for u in range(n):
            if active[u] and sides[u]:
                ones += 1
        state.side_sizes = [view.num_active - ones, ones]
        return state

    @classmethod
    def counting_deltas(
        cls,
        view: CSRView,
        sides: List[int],
        locked: Sequence[bool],
    ) -> "PartitionState":
        """A state that switches the caller's ``sides`` list in place and
        whose cut counters start at zero, so after any run of switches
        ``f_cross``/``r_cross`` hold the exact counter deltas.

        Region refinement (:func:`repro.core.kl.refine_subset`) runs on
        such a state: it only ever needs the deltas its moves caused, so
        neither the O(V+E) recount nor the O(V) side copy is paid per
        region. ``side_sizes`` starts at ``[0, 0]`` and is not kept as
        totals. The caller checks the lengths of ``sides`` and ``locked``.
        """
        state = cls.__new__(cls)
        state.view = view
        state.sides = sides
        state.locked = locked
        state.f_cross = 0
        state.r_cross = 0
        state.side_sizes = [0, 0]
        return state

    def recount(self) -> None:
        """Recompute the counters and side sizes from scratch (O(V+E))
        with :func:`repro.core.kernels.recount_active` (vectorized on the
        numpy backend, scalar otherwise — bit-identical either way,
        since both sum integers)."""
        view = self.view
        self.f_cross, self.r_cross, ones = recount_active(view, self.sides)
        self.side_sizes = [view.num_active - ones, ones]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _deltas(self, u: int) -> Tuple[int, int]:
        """``(Δf_cross, Δr_cross)`` of switching ``u``: the shared rule
        :func:`repro.core.kernels.node_deltas` over active neighbours."""
        view = self.view
        csr = view.csr
        active = None if view.num_active == csr.num_nodes else view.active
        sides = self.sides
        return node_deltas(csr.hot(), csr.hot_weights(), active, sides, u, sides[u])

    def switch(self, u: int) -> None:
        """Move active node ``u`` to the other side, updating the counters.

        A rejection ⟨a, b⟩ counts only while ``a`` is on side 0 and
        ``b`` on side 1; inactive neighbours contribute to no counter.
        """
        friends_delta, rej_delta = self._deltas(u)
        s = self.sides[u]
        self.f_cross += friends_delta
        self.r_cross += rej_delta
        self.side_sizes[s] -= 1
        self.side_sizes[1 - s] += 1
        self.sides[u] = 1 - s

    def switch_gain(self, u: int, k: float) -> float:
        """Gain (decrease in ``W = f_cross − k·r_cross``) of switching ``u``.

        Pure query; the reference against which the engine's incremental
        gain indexes are property-tested.
        """
        friends_delta, rej_delta = self._deltas(u)
        return -(friends_delta - k * rej_delta)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_active(self) -> int:
        return self.view.num_active

    def suspicious_nodes(self) -> List[int]:
        """Active node ids currently on side 1, ascending."""
        active, sides = self.view.active, self.sides
        return [
            u
            for u in range(self.view.csr.num_nodes)
            if active[u] and sides[u] == SUSPICIOUS
        ]

    @property
    def suspicious_size(self) -> int:
        return self.side_sizes[SUSPICIOUS]

    @property
    def legitimate_size(self) -> int:
        return self.side_sizes[LEGITIMATE]

    def acceptance_rate(self) -> float:
        return acceptance_rate(self.f_cross, self.r_cross)

    def ratio(self) -> float:
        return friends_to_rejections_ratio(self.f_cross, self.r_cross)

    def objective(self, k: float) -> float:
        return self.f_cross - k * self.r_cross

    def verify_counts(self) -> bool:
        """Check the incremental counters against a from-scratch recount."""
        f, r = self.f_cross, self.r_cross
        sizes = list(self.side_sizes)
        self.recount()
        ok = (f, r) == (self.f_cross, self.r_cross) and sizes == self.side_sizes
        self.f_cross, self.r_cross, self.side_sizes = f, r, sizes
        return ok

    def copy(self) -> "PartitionState":
        """Independent sides/counters sharing the view and lock vector."""
        clone = PartitionState.__new__(PartitionState)
        clone.view = self.view
        clone.sides = list(self.sides)
        clone.locked = self.locked
        clone.f_cross = self.f_cross
        clone.r_cross = self.r_cross
        clone.side_sizes = list(self.side_sizes)
        return clone

    def __repr__(self) -> str:
        return (
            f"PartitionState(active={self.num_active}, "
            f"suspicious={self.suspicious_size}, f_cross={self.f_cross}, "
            f"r_cross={self.r_cross})"
        )
