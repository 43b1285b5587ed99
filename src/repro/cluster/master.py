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

#: ``source(u, heads, nxt, max_b, bucket_of) -> (friends, rej_out, rej_in)``
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


def prefetch_source(buffer: PrefetchBuffer) -> RecordSource:
    """The record source the master's bucket pass reads adjacency from.

    A node resident in ``buffer`` is served without walking. On a miss
    the source walks the live bucket list for the ride-along candidates
    ("the prefetched nodes are those with the highest potential move
    gains in the bucket list", Section V), taking up to
    :meth:`PrefetchBuffer.room` nodes the buffer does not hold, in the
    order the next pops would take them (buckets descending, LIFO within
    a bucket):

    1. from the top bucket down, giving up after ``2·batch_size``
       resident nodes — the unread prefetches of earlier misses, which
       pile up at the top of the list;
    2. if room is left, from just after the *cursor* — the last node
       the previous miss fetched — provided it is still in the list
       (``bucket_of[cursor] >= 0``), giving up after ``4·batch_size``
       resident or already taken nodes.

    So one miss visits fewer than ``7·batch_size`` list entries (the
    walk this replaced went ``4·batch_size`` deep from the top and met
    mostly resident nodes), and hands ``get`` distinct, non-resident
    candidates.
    """
    unread = buffer.unread
    read = buffer.read
    get = buffer.get
    batch = buffer.batch_size
    cursor = -1

    def walk_from(v, b, heads, nxt, skips, walk, room, taken):
        """Take non-resident nodes not in ``taken`` from node ``v`` of
        bucket ``b`` on, until ``walk`` holds ``room`` or ``skips``
        nodes were passed over."""
        while True:
            while v >= 0:
                if v in unread or v in read or v in taken:
                    skips -= 1
                    if not skips:
                        return
                else:
                    walk.append(v)
                    taken.add(v)
                    if len(walk) == room:
                        return
                v = nxt[v]
            b -= 1
            if b < 0:
                return
            v = heads[b]

    def source(u, heads, nxt, max_b, bucket_of):
        nonlocal cursor
        if u in unread or u in read:
            _, friends, rej_out, rej_in = get(u)
            return friends, rej_out, rej_in
        room = buffer.room()
        walk = []
        if room > 0:
            taken = set()
            walk_from(
                heads[max_b], max_b, heads, nxt, 2 * batch, walk, room, taken
            )
            c = cursor
            if len(walk) < room and c >= 0 and bucket_of[c] >= 0:
                walk_from(
                    nxt[c], bucket_of[c], heads, nxt, 4 * batch, walk, room, taken
                )
        cursor = walk[-1] if walk else u
        _, friends, rej_out, rej_in = get(u, walk)
        return friends, rej_out, rej_in

    return source
