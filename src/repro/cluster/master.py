"""Master-resident algorithm state (Section V).

"We keep on the master the node status with the potential switching gain
and the bucket list that indexes the nodes. This reduces the network I/O
during node status updates, at the cost of constant memory consumption
per node on the master."

:class:`MasterState` is that state for one pass: the side assignment,
the cut counters, and every unlocked node's start-of-pass gain as an
integer bucket index. The pass itself is kl's fused integer bucket pass
(:func:`repro.core.kl._bucket_pass`), the body local KL runs; only the
origin of adjacency differs. :func:`prefetch_source` serves each
switched node's record out of the prefetch buffer and, on a miss, walks
the live bucket list for the top-gain nodes to fetch along with it. The
workers only ever see structure fetches.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from .blocks import NodeRecord
from .prefetch import PrefetchBuffer

__all__ = ["MasterState", "NodeRecord", "prefetch_source"]

#: ``source(u, heads, nxt, max_b, size) -> (friends, rej_out, rej_in)``
RecordSource = Callable[..., Tuple[Sequence[int], Sequence[int], Sequence[int]]]


class MasterState:
    """Side assignments, cut counters and bucket-indexed gains, master-side.

    Memory cost is O(1) per node (the paper's 20-bytes-per-node
    estimate); no adjacency is stored here — the pass reads each switched
    node's record through its source.
    """

    __slots__ = ("sides", "f_cross", "r_cross", "eligible", "gain_b")

    def __init__(
        self,
        sides: List[int],
        f_cross: int,
        r_cross: int,
        eligible: List[int],
        gain_b: List[int],
    ) -> None:
        self.sides = sides
        self.f_cross = f_cross
        self.r_cross = r_cross
        #: unlocked nodes, ascending: the bucket list's load order
        self.eligible = eligible
        #: per-node bucket index ``round(gain·res) + offset``
        self.gain_b = gain_b

    @classmethod
    def for_pass(
        cls,
        num_nodes: int,
        sides: Sequence[int],
        f_cross: int,
        r_cross: int,
        gains: Sequence[float],
        locked: Sequence[bool],
        resolution: int,
        offset: int,
    ) -> "MasterState":
        """Build the state for one KL pass from the worker-reported
        per-node ``gains`` (ascending node order).

        Each gain becomes the bucket index ``round(gain·resolution) +
        offset``. ``resolution`` is the pass's bucket scale — ``k``'s
        reduced denominator (:func:`repro.core.gains._lowest_terms`), not
        the configured grid — so every gain is an exact multiple of
        ``1/resolution`` and the integer pass pops in the float order.
        ``offset`` must exceed every scaled gain magnitude the pass can
        reach; it is the bucket index of a zero gain.
        """
        if len(sides) != num_nodes:
            raise ValueError(
                f"sides has length {len(sides)}, expected {num_nodes}"
            )
        if len(gains) != num_nodes:
            raise ValueError(
                f"gains has length {len(gains)}, expected {num_nodes}"
            )
        eligible = [u for u in range(num_nodes) if not locked[u]]
        gain_b = [round(g * resolution) + offset for g in gains]
        return cls(list(sides), f_cross, r_cross, eligible, gain_b)


def prefetch_source(buffer: PrefetchBuffer, depth: int) -> RecordSource:
    """The record source the master's bucket pass reads adjacency from.

    A node resident in ``buffer`` is served without walking. On a miss
    the source walks the live bucket list top-down, LIFO within a bucket
    — the order the next pops would take — over at most ``depth`` nodes,
    and hands the non-resident ones to :meth:`PrefetchBuffer.get` as the
    ride-along candidates ("the prefetched nodes are those with the
    highest potential move gains in the bucket list", Section V).
    Resident nodes count toward ``depth``, and the walk stops once it
    holds the batch's room, so the list is exactly what ``get`` would
    draw from the whole walk.
    """
    resident = buffer.keys()
    get = buffer.get
    room = min(buffer.batch_size, buffer.capacity) - 1

    def source(u, heads, nxt, max_b, size):
        if room < 1 or u in resident:
            _, friends, rej_out, rej_in = get(u)
            return friends, rej_out, rej_in
        walk = []
        need = room
        budget = min(depth, size)
        b = max_b
        while budget and b >= 0:
            v = heads[b]
            while v >= 0 and budget:
                budget -= 1
                if v not in resident:
                    walk.append(v)
                    need -= 1
                    if not need:
                        budget = 0
                v = nxt[v]
            b -= 1
        _, friends, rej_out, rej_in = get(u, walk)
        return friends, rej_out, rej_in

    return source
