"""Master-resident algorithm state (Section V).

"We keep on the master the node status with the potential switching gain
and the bucket list that indexes the nodes. This reduces the network I/O
during node status updates, at the cost of constant memory consumption
per node on the master."

:class:`MasterState` is that state for one pass: the side assignment,
the cut counters, and every unlocked node's start-of-pass gain as an
integer bucket index; the workers send those gains already scaled, so
the index is one addition away. The pass itself is kl's fused integer
bucket pass (:func:`repro.core.kl._bucket_pass`), the body local KL
runs; only the origin of adjacency differs. :func:`prefetch_source`
serves each switched node's record out of the prefetch buffer, the
``(friends, rej_out, rej_in)`` tuple as the worker sent it, and, on a
miss, walks the live bucket list for the top-gain nodes to fetch along
with it, testing one residency byte per node.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from .blocks import NodeRecord
from .prefetch import UNREAD, PrefetchBuffer

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
        #: per-node bucket index ``scaled gain + offset``
        self.gain_b = gain_b

    @classmethod
    def for_pass(
        cls,
        num_nodes: int,
        sides: Sequence[int],
        f_cross: int,
        r_cross: int,
        gains: Sequence[int],
        eligible: List[int],
        offset: int,
    ) -> "MasterState":
        """Build the state for one KL pass over the ``eligible``
        (unlocked, ascending) nodes from the worker-reported per-node
        integer-scaled ``gains`` (ascending node order).

        Each gain is ``k_scaled·rd − fd·res`` at the pass's bucket scale
        ``(k_scaled, res)`` — ``k`` in lowest terms
        (:func:`repro.core.gains._lowest_terms`), not the configured grid
        — so the integer pass pops in the float order, and its bucket
        index is ``gain + offset``. ``offset`` must exceed every scaled
        gain magnitude the pass can reach; it is the bucket index of a
        zero gain.
        """
        if len(sides) != num_nodes:
            raise ValueError(
                f"sides has length {len(sides)}, expected {num_nodes}"
            )
        if len(gains) != num_nodes:
            raise ValueError(
                f"gains has length {len(gains)}, expected {num_nodes}"
            )
        gain_b = [g + offset for g in gains]
        return cls(list(sides), f_cross, r_cross, eligible, gain_b)


def prefetch_source(buffer: PrefetchBuffer) -> RecordSource:
    """The record source the master's bucket pass reads adjacency from.

    A node whose record ``buffer`` holds is served without walking. On a
    miss the source walks the live bucket list for the ride-along
    candidates ("the prefetched nodes are those with the highest
    potential move gains in the bucket list", Section V), taking up to
    :meth:`PrefetchBuffer.room` nodes whose records the buffer does not
    hold, in the order the next pops would take them (buckets
    descending, LIFO within a bucket):

    1. from the top bucket down, giving up after ``2·batch_size``
       resident nodes — the unread prefetches of earlier misses, which
       pile up at the top of the list;
    2. if room is left, from just after the *cursor* — the last node
       the previous miss fetched — provided it is still in the list
       (``bucket_of[cursor] >= 0``), giving up after ``4·batch_size``
       resident nodes;
    3. if that walk ran off the end of the list with room left, from
       just after where the top walk gave up: the gap between there and
       the cursor holds the only nodes not yet fetched.

    Residency is one byte per node (``buffer.resident``). Each node a
    walk takes is marked :data:`~repro.cluster.prefetch.UNREAD` at once,
    ahead of its fetch, so a later walk of the same miss passes it over
    like any resident node. Steps 2 and 3 share one skip budget, so one
    miss visits fewer than ``7·batch_size`` list entries and hands
    ``get`` distinct, non-resident candidates.
    """
    resident = buffer.resident
    get = buffer.get
    batch = buffer.batch_size
    cursor = -1

    def walk_from(v, b, heads, nxt, skips, walk, room):
        """Take non-resident nodes from node ``v`` of bucket ``b`` on,
        until ``walk`` holds ``room`` or ``skips`` resident nodes were
        passed over. Returns the node it stopped at (``-1`` once it ran
        off the end of the list), that node's bucket and the skips
        left."""
        while True:
            while v >= 0:
                if resident[v]:
                    skips -= 1
                    if not skips:
                        return v, b, 0
                else:
                    resident[v] = UNREAD
                    walk.append(v)
                    if len(walk) == room:
                        return v, b, skips
                v = nxt[v]
            b -= 1
            if b < 0:
                return -1, b, skips
            v = heads[b]

    def source(u, heads, nxt, max_b, bucket_of):
        nonlocal cursor
        if resident[u]:
            return get(u)
        room = buffer.room()
        walk = []
        if room > 0:
            top, b, _ = walk_from(
                heads[max_b], max_b, heads, nxt, 2 * batch, walk, room
            )
            c = cursor
            if len(walk) < room and c >= 0 and bucket_of[c] >= 0:
                end, _, skips = walk_from(
                    nxt[c], bucket_of[c], heads, nxt, 4 * batch, walk, room
                )
                if end < 0 and top >= 0:
                    # Off the end with room left, after a top walk that
                    # gave up: the gap holds the last unfetched nodes.
                    walk_from(nxt[top], b, heads, nxt, skips, walk, room)
        cursor = walk[-1] if walk else u
        return get(u, walk)

    return source
