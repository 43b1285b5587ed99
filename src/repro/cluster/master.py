"""Master-resident algorithm state (Section V).

"We keep on the master the node status with the potential switching gain
and the bucket list that indexes the nodes. This reduces the network I/O
during node status updates, at the cost of constant memory consumption
per node on the master."

:class:`MasterState` is exactly that object: the side assignment, the
incremental cut counters, and the gain index — everything the KL loop
touches per switch — with the O(1)-per-edge update rules shared with the
single-machine implementation. The engine drives it; the workers only
ever see structure fetches.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.gains import GainIndex, make_gain_index
from ..core.objectives import LEGITIMATE, SUSPICIOUS

__all__ = ["MasterState", "NodeRecord"]

#: Per-node adjacency as unpacked from a block-slice fetch:
#: ``(node, friends, rej_out, rej_in)`` with each adjacency an id
#: sequence (list slices off the wire arrays; tuples in older tests).
NodeRecord = Tuple[int, Sequence[int], Sequence[int], Sequence[int]]


class MasterState:
    """Side assignments, cut counters, and the gain index, master-side.

    Memory cost is O(1) per node (the paper's 20-bytes-per-node
    estimate); no adjacency is stored here — switch application takes
    the switched node's record, fetched by the caller.
    """

    __slots__ = ("num_nodes", "k", "sides", "f_cross", "r_cross", "index", "_sequence")

    def __init__(
        self,
        num_nodes: int,
        k: float,
        sides: Sequence[int],
        f_cross: int,
        r_cross: int,
        gain_index: GainIndex,
    ) -> None:
        if len(sides) != num_nodes:
            raise ValueError(
                f"sides has length {len(sides)}, expected {num_nodes}"
            )
        self.num_nodes = num_nodes
        self.k = k
        self.sides: List[int] = list(sides)
        self.f_cross = f_cross
        self.r_cross = r_cross
        self.index = gain_index
        #: applied switches this pass: (node, friends_delta, rej_delta)
        self._sequence: List[Tuple[int, int, int]] = []

    @classmethod
    def for_pass(
        cls,
        num_nodes: int,
        k: float,
        sides: Sequence[int],
        f_cross: int,
        r_cross: int,
        gains: Sequence[Tuple[int, float]],
        locked: Sequence[bool],
        gain_index_kind: str = "bucket",
        max_abs_gain: float = 1.0,
        resolution: int = 8,
    ) -> "MasterState":
        """Build the state for one KL pass, loading unlocked gains."""
        index = make_gain_index(
            gain_index_kind, num_nodes, max_abs_gain, k, resolution
        )
        state = cls(num_nodes, k, sides, f_cross, r_cross, index)
        for node, gain in gains:
            if not locked[node]:
                index.insert(node, gain)
        return state

    # ------------------------------------------------------------------
    # The per-switch hot path
    # ------------------------------------------------------------------
    def pop_best(self) -> Optional[Tuple[int, float]]:
        """Next node to tentatively switch (max gain), or ``None``."""
        return self.index.pop_max()

    def prefetch_candidates(self, count: int) -> Iterator[int]:
        """Lazy walk over the current top-gain nodes — the prefetcher's
        ride-along set.

        The walk reads the live gain index, so it must be consumed (or
        dropped) before :meth:`apply_switch` or :meth:`pop_best` mutates
        the index. The engine hands it straight to
        :meth:`PrefetchBuffer.get`, which draws from it only on a miss
        and only inside that call.
        """
        return self.index.top_nodes(count)

    def apply_switch(self, record: NodeRecord) -> None:
        """Apply one tentative switch given the node's adjacency record.

        Updates side, cut counters, and the still-indexed neighbours'
        gains — all O(deg) with O(1) per incident edge, entirely
        master-local (Section V's design goal).
        """
        node, friends, rej_out, rej_in = record
        sides = self.sides
        s = sides[node]
        friends_delta = 0
        for v in friends:
            friends_delta += 1 if sides[v] == s else -1
        rej_delta = 0
        if s == LEGITIMATE:
            for v in rej_out:
                if sides[v] == SUSPICIOUS:
                    rej_delta -= 1
            for w in rej_in:
                if sides[w] == LEGITIMATE:
                    rej_delta += 1
        else:
            for v in rej_out:
                if sides[v] == SUSPICIOUS:
                    rej_delta += 1
            for w in rej_in:
                if sides[w] == LEGITIMATE:
                    rej_delta -= 1
        self.f_cross += friends_delta
        self.r_cross += rej_delta
        sides[node] = 1 - s
        self._sequence.append((node, friends_delta, rej_delta))

        index = self.index
        prev_side = s
        for v in friends:
            if v in index:
                index.adjust(v, 2.0 if sides[v] == prev_side else -2.0)
        rej_sign = self.k * (1 - 2 * prev_side)
        for v in rej_out:
            if v in index:
                index.adjust(v, (2 * sides[v] - 1) * rej_sign)
        for w in rej_in:
            if w in index:
                index.adjust(w, (2 * sides[w] - 1) * rej_sign)

    # ------------------------------------------------------------------
    # Pass bookkeeping
    # ------------------------------------------------------------------
    @property
    def switches_applied(self) -> int:
        return len(self._sequence)

    def applied_nodes(self) -> List[int]:
        """Ids of the currently applied switches, in application order.

        After :meth:`rollback_to`, this is exactly the set of nodes whose
        side differs from the start of the pass (each node is popped at
        most once per pass), i.e. the delta the broadcast protocol ships
        to the worker replicas.
        """
        return [node for node, _, _ in self._sequence]

    def rollback_to(self, keep: int) -> None:
        """Undo every switch beyond the best prefix of length ``keep``."""
        if keep < 0 or keep > len(self._sequence):
            raise ValueError(
                f"keep must be in [0, {len(self._sequence)}], got {keep}"
            )
        for node, friends_delta, rej_delta in reversed(self._sequence[keep:]):
            self.sides[node] = 1 - self.sides[node]
            self.f_cross -= friends_delta
            self.r_cross -= rej_delta
        del self._sequence[keep:]

    def snapshot(self) -> Tuple[List[int], int, int]:
        """(sides, f_cross, r_cross) copies of the current partition."""
        return list(self.sides), self.f_cross, self.r_cross
