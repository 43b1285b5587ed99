"""The float gain index of the extended Kernighan-Lin search.

During a KL pass every unlocked node carries a *gain* — the decrease in
the linearized objective ``W(U) = |F(Ū,U)| − k·|R⃗⟨Ū,U⟩|`` that switching
the node to the other side would produce. The search repeatedly needs the
maximum-gain node and O(1)-ish gain updates for the neighbours of a
switched node.

On the ``1/RESOLUTION`` grid (every ``k`` of the default geometric
sequence) both needs are met by the Fiduccia-Mattheyses bucket list
(Section IV-C, [21]) that :func:`repro.core.kl._bucket_pass` inlines as
flat integer arrays — for local KL, multilevel region refinement and the
cluster master alike. Off the grid, and on weighted residual views,
:func:`repro.core.kl._heap_pass` runs on :class:`HeapGainIndex`, a
lazy-deletion binary heap that accepts arbitrary float gains with the
same LIFO tie-breaks; it is property-tested against a naive dictionary
scan.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["HeapGainIndex", "RESOLUTION"]

#: Denominator of the bucket grid: a ``k`` that is a multiple of
#: ``1/RESOLUTION`` can run the integer bucket pass. Every ``k`` of the
#: default geometric sequence (``1/8 · 2^i``) is. The grid only decides
#: which pass body runs; each pass buckets at ``k``'s reduced
#: denominator (:func:`_lowest_terms`).
RESOLUTION = 8


class HeapGainIndex:
    """Max-heap with lazy deletion; accepts arbitrary float gains.

    :meth:`pop_max` breaks ties in favour of the node whose gain was most
    recently inserted or adjusted (the Fiduccia-Mattheyses LIFO
    discipline) and returns ``None`` once the index is empty.
    """

    __slots__ = ("_heap", "_gain", "_entry_id")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int]] = []
        self._gain: Dict[int, float] = {}
        self._entry_id = 0

    def _push(self, node: int, gain: float) -> None:
        # Heap orders by (-gain, -entry_id) so ties resolve to the most
        # recently touched node, matching the bucket list's LIFO
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

    def __contains__(self, node: int) -> bool:
        return node in self._gain

    def __len__(self) -> int:
        return len(self._gain)


def _on_grid(value: float, resolution: int) -> bool:
    """Whether ``value`` is a multiple of ``1/resolution``."""
    scaled = value * resolution
    return abs(scaled - round(scaled)) < 1e-9


def _lowest_terms(k: float, resolution: int) -> Tuple[int, int]:
    """The bucket scale ``(k_scaled, res)`` of an on-grid ``k``: the
    fraction ``round(k·resolution)/resolution`` in lowest terms.

    A bucket pass multiplies every gain by ``res``, so the gains of one
    pass are all multiples of ``g = gcd(round(k·resolution),
    resolution)`` at the grid's scale (at ``k = 2`` and resolution 8:
    multiples of 8). Dividing by ``g`` is a uniform positive rescale:
    pop order, LIFO ties, best prefixes and every counter stay the same,
    while the bucket array shrinks by ``g`` and the pop loop no longer
    steps through the ``g − 1`` empty buckets between two reachable
    ones.
    """
    k_scaled = round(k * resolution)
    g = math.gcd(k_scaled, resolution)
    return k_scaled // g, resolution // g
