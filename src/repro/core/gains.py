"""Gain indexes for the extended Kernighan-Lin search.

During a KL pass every unlocked node carries a *gain* — the decrease in
the linearized objective ``W(U) = |F(Ū,U)| − k·|R⃗⟨Ū,U⟩|`` that switching
the node to the other side would produce. The search repeatedly needs the
maximum-gain node and O(1)-ish gain updates for the neighbours of a
switched node.

Two interchangeable implementations are provided:

* :class:`BucketGainIndex` — the classic Fiduccia-Mattheyses *bucket
  list* the paper adopts (Section IV-C, [21]): an array of intrusive
  doubly-linked lists indexed by gain, with a moving max pointer. Gains
  must lie on a ``1/resolution`` grid, which holds whenever ``k`` is a
  multiple of ``1/resolution`` (friendship edges contribute ±1 and ±2
  deltas; rejection edges contribute ±k).
* :class:`HeapGainIndex` — a lazy-deletion binary heap that accepts
  arbitrary float gains, used when ``k`` falls off the bucket grid.

Both expose the same interface and are property-tested against each
other and against a naive dictionary scan.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["GainIndex", "BucketGainIndex", "HeapGainIndex", "make_gain_index"]


class GainIndex:
    """Interface shared by the gain containers."""

    def insert(self, node: int, gain: float) -> None:
        """Add ``node`` with the given gain. The node must not be present."""
        raise NotImplementedError

    def bulk_load(self, items: Iterable[Tuple[int, float]]) -> None:
        """Insert many ``(node, gain)`` pairs at once.

        Equivalent to sequential :meth:`insert` calls in iteration order
        — same contents, same pop order. Subclasses may override with a
        faster batch build (the heap heapifies instead of sifting each
        push).
        """
        for node, gain in items:
            self.insert(node, gain)

    def adjust(self, node: int, delta: float) -> None:
        """Add ``delta`` to the gain of a present ``node``."""
        raise NotImplementedError

    def remove(self, node: int) -> None:
        """Remove ``node`` if present; no-op otherwise."""
        raise NotImplementedError

    def pop_max(self) -> Optional[Tuple[int, float]]:
        """Extract and return ``(node, gain)`` with the maximum gain.

        Ties are broken deterministically in favour of the node whose
        gain was most recently inserted or adjusted (the classic
        Fiduccia-Mattheyses LIFO discipline). Returns ``None`` when the
        index is empty.
        """
        raise NotImplementedError

    def top_nodes(self, count: int) -> Iterator[int]:
        """Lazily walk up to ``count`` highest-gain nodes, removing none.

        Used by the cluster engine's prefetcher ("the prefetched nodes
        are those with the highest potential move gains in the bucket
        list", Section V). Gains come out in descending order, and the
        order within equal gains is fixed by each implementation: the
        cluster's fetch batches, and so its wire ledger, depend on it.
        Nothing is computed until the first node is drawn. The walk reads
        the live index, so finish (or drop) it before the next mutation.
        """
        raise NotImplementedError

    def __contains__(self, node: int) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class BucketGainIndex(GainIndex):
    """Fiduccia-Mattheyses bucket list over a fixed-resolution gain grid.

    Parameters
    ----------
    num_nodes:
        Upper bound (exclusive) on node ids.
    max_abs_gain:
        Bound on ``|gain|`` valid for the whole lifetime of the index.
        For MAAR gains, ``deg_F(u) + k·deg_R(u)`` bounds node ``u``'s
        gain at all times, so the caller passes the graph maximum.
    resolution:
        Gains are multiples of ``1/resolution``; they are stored scaled
        to integers. A gain off the grid raises ``ValueError``.
    """

    __slots__ = (
        "resolution",
        "_offset",
        "_heads",
        "_next",
        "_prev",
        "_bucket_of",
        "_max_bucket",
        "_size",
        "_steps",
    )

    _ABSENT = -1
    #: Most distinct deltas :meth:`adjust` remembers the bucket step of.
    #: Unweighted KL sees four (±2, ±k); weighted graphs see a pair per
    #: distinct edge weight, so the memo is capped rather than unbounded.
    _STEP_MEMO_LIMIT = 64

    def __init__(self, num_nodes: int, max_abs_gain: float, resolution: int = 8) -> None:
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        self.resolution = resolution
        scaled_bound = int(max_abs_gain * resolution + 0.5) + 1
        self._offset = scaled_bound
        # Buckets cover scaled gains in [-scaled_bound, +scaled_bound].
        self._heads: List[int] = [self._ABSENT] * (2 * scaled_bound + 1)
        self._next: List[int] = [self._ABSENT] * num_nodes
        self._prev: List[int] = [self._ABSENT] * num_nodes
        self._bucket_of: List[int] = [self._ABSENT] * num_nodes
        self._max_bucket = -1
        self._size = 0
        # delta -> integer bucket step, filled by adjust on first use.
        self._steps: Dict[float, int] = {}

    def _scale(self, gain: float) -> int:
        scaled = gain * self.resolution
        nearest = round(scaled)
        if abs(scaled - nearest) > 1e-6:
            raise ValueError(
                f"gain {gain} is not on the 1/{self.resolution} grid; "
                "use HeapGainIndex for off-grid k values"
            )
        return int(nearest)

    def insert(self, node: int, gain: float) -> None:
        if self._bucket_of[node] != self._ABSENT:
            raise ValueError(f"node {node} already present")
        idx = self._scale(gain) + self._offset
        if not 0 <= idx < len(self._heads):
            raise ValueError(f"gain {gain} exceeds the declared max_abs_gain bound")
        self._link(node, idx)
        self._size += 1

    def _link(self, node: int, idx: int) -> None:
        head = self._heads[idx]
        self._next[node] = head
        self._prev[node] = self._ABSENT
        if head != self._ABSENT:
            self._prev[head] = node
        self._heads[idx] = node
        self._bucket_of[node] = idx
        if idx > self._max_bucket:
            self._max_bucket = idx

    def _unlink(self, node: int) -> None:
        idx = self._bucket_of[node]
        nxt, prv = self._next[node], self._prev[node]
        if prv != self._ABSENT:
            self._next[prv] = nxt
        else:
            self._heads[idx] = nxt
        if nxt != self._ABSENT:
            self._prev[nxt] = prv
        self._bucket_of[node] = self._ABSENT

    def adjust(self, node: int, delta: float) -> None:
        idx = self._bucket_of[node]
        if idx == self._ABSENT:
            raise KeyError(f"node {node} not present")
        step = self._steps.get(delta)
        if step is None:
            # _scale raises on an off-grid delta before it is remembered,
            # so a bad delta fails on every call, not just the first.
            step = self._scale(delta)
            if len(self._steps) < self._STEP_MEMO_LIMIT:
                self._steps[delta] = step
        if step == 0:
            return
        new_idx = idx + step
        if not 0 <= new_idx < len(self._heads):
            raise ValueError("adjusted gain exceeds the declared max_abs_gain bound")
        self._unlink(node)
        self._link(node, new_idx)

    def remove(self, node: int) -> None:
        if self._bucket_of[node] == self._ABSENT:
            return
        self._unlink(node)
        self._size -= 1

    def gain_of(self, node: int) -> float:
        """Current gain of a present node."""
        idx = self._bucket_of[node]
        if idx == self._ABSENT:
            raise KeyError(f"node {node} not present")
        return (idx - self._offset) / self.resolution

    def pop_max(self) -> Optional[Tuple[int, float]]:
        if self._size == 0:
            return None
        # Walk the max pointer down to the first non-empty bucket. The
        # pointer only rises on insert/adjust, so this walk is amortized
        # across the pass.
        while self._max_bucket >= 0 and self._heads[self._max_bucket] == self._ABSENT:
            self._max_bucket -= 1
        idx = self._max_bucket
        # LIFO within a bucket: the head is the most recently linked node.
        node = self._heads[idx]
        self._unlink(node)
        self._size -= 1
        return node, (idx - self._offset) / self.resolution

    def top_nodes(self, count: int) -> Iterator[int]:
        """Buckets in descending order, LIFO within a bucket: the order
        successive :meth:`pop_max` calls would return."""
        remaining = min(count, self._size)
        if remaining < 1:
            return
        heads, nxt, absent = self._heads, self._next, self._ABSENT
        idx = self._max_bucket
        while idx >= 0:
            node = heads[idx]
            while node != absent:
                yield node
                remaining -= 1
                if remaining == 0:
                    return
                node = nxt[node]
            idx -= 1

    def __contains__(self, node: int) -> bool:
        return self._bucket_of[node] != self._ABSENT

    def __len__(self) -> int:
        return self._size


class HeapGainIndex(GainIndex):
    """Max-heap with lazy deletion; accepts arbitrary float gains."""

    __slots__ = ("_heap", "_gain", "_entry_id")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, int]] = []
        self._gain: Dict[int, float] = {}
        self._entry_id = 0

    def _push(self, node: int, gain: float) -> None:
        # Heap orders by (-gain, -entry_id) so ties resolve to the most
        # recently touched node, matching the bucket index's LIFO
        # discipline. Stale copies of a node are skipped on pop.
        self._entry_id += 1
        heapq.heappush(self._heap, (-gain, -self._entry_id, node))

    def insert(self, node: int, gain: float) -> None:
        if node in self._gain:
            raise ValueError(f"node {node} already present")
        self._gain[node] = gain
        self._push(node, gain)

    def bulk_load(self, items: Iterable[Tuple[int, float]]) -> None:
        # One O(m) heapify instead of m O(log m) sift-ups. Entry ids
        # are assigned in iteration order, so every heap key is unique
        # and the pop order is identical to sequential inserts.
        heap = self._heap
        gain_map = self._gain
        eid = self._entry_id
        for node, gain in items:
            if node in gain_map:
                raise ValueError(f"node {node} already present")
            gain_map[node] = gain
            eid += 1
            heap.append((-gain, -eid, node))
        self._entry_id = eid
        heapq.heapify(heap)

    def adjust(self, node: int, delta: float) -> None:
        if node not in self._gain:
            raise KeyError(f"node {node} not present")
        if delta == 0:
            return
        self._gain[node] += delta
        self._push(node, self._gain[node])

    def remove(self, node: int) -> None:
        self._gain.pop(node, None)

    def gain_of(self, node: int) -> float:
        return self._gain[node]

    def pop_max(self) -> Optional[Tuple[int, float]]:
        while self._heap:
            neg_gain, _neg_eid, node = heapq.heappop(self._heap)
            gain = self._gain.get(node)
            if gain is not None and -neg_gain == gain:
                del self._gain[node]
                return node, gain
        return None

    def top_nodes(self, count: int) -> Iterator[int]:
        """Descending gain; equal gains in insertion order (an adjust
        keeps a node's place). ``nlargest`` is documented equal to the stable
        ``sorted(..., reverse=True)[:count]``, at O(n log count)."""
        if count < 1:
            return
        for node, _ in heapq.nlargest(count, self._gain.items(), key=itemgetter(1)):
            yield node

    def __contains__(self, node: int) -> bool:
        return node in self._gain

    def __len__(self) -> int:
        return len(self._gain)


def _on_grid(value: float, resolution: int) -> bool:
    scaled = value * resolution
    return abs(scaled - round(scaled)) < 1e-9


def make_gain_index(
    kind: str,
    num_nodes: int,
    max_abs_gain: float,
    k: float,
    resolution: int = 8,
) -> GainIndex:
    """Factory for gain indexes.

    ``kind`` is ``"bucket"``, ``"heap"``, or ``"auto"``. ``"auto"`` picks
    the bucket list when ``k`` sits on the ``1/resolution`` grid (the
    default geometric ``k`` sequence does) and otherwise falls back to
    the heap.
    """
    if kind == "auto":
        kind = "bucket" if _on_grid(k, resolution) else "heap"
    if kind == "bucket":
        if not _on_grid(k, resolution):
            raise ValueError(
                f"k={k} is off the 1/{resolution} bucket grid; "
                "pass gain_index='heap' or 'auto'"
            )
        return BucketGainIndex(num_nodes, max_abs_gain, resolution)
    if kind == "heap":
        return HeapGainIndex()
    raise ValueError(f"unknown gain index kind {kind!r}")
