"""A clairvoyant prefetch buffer: the yardstick for the live one.

The master's bucket pass pops every eligible node once per pass, so the
records a run reads are known before it starts; only their order is
not. :func:`clairvoyant_batches` replays a run's logged read sequence
through a buffer that does know the order:

* on a miss it fetches the missed key plus the next ``batch − 1``
  distinct future reads that are not resident (never more than the
  buffer holds);
* it evicts the record whose next read lies farthest in the future
  (Belady's rule; a record never read again goes first).

The live buffer cannot see the future, so its batch count on the same
sequence is expected to be at least the replay's.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence


def clairvoyant_batches(reads: Sequence[int], capacity: int, batch: int) -> int:
    """Fetch batches the clairvoyant buffer of ``capacity`` records and
    ``batch`` keys a fetch spends on ``reads``, one run's record reads
    in order (the buffer starts empty, as each run's does)."""
    end = len(reads)
    next_read: List[int] = [end] * end
    last: Dict[int, int] = {}
    for i in range(end - 1, -1, -1):
        next_read[i] = last.get(reads[i], end)
        last[reads[i]] = i
    room = min(batch, capacity) - 1
    #: resident key -> position of its next read (``end``: none)
    resident: Dict[int, int] = {}
    farthest: List[tuple] = []  # (-next read, key), stale entries skipped
    batches = 0
    for i, key in enumerate(reads):
        if key not in resident:
            batches += 1
            taken = 0
            j = i + 1
            while taken < room and j < end:
                ahead = reads[j]
                if ahead != key and ahead not in resident:
                    resident[ahead] = j
                    heapq.heappush(farthest, (-j, ahead))
                    taken += 1
                j += 1
        resident[key] = next_read[i]
        heapq.heappush(farthest, (-next_read[i], key))
        while len(resident) > capacity:
            position, victim = heapq.heappop(farthest)
            if resident.get(victim) == -position:
                del resident[victim]
    return batches


def distinct_batches(reads: Sequence[int], batch: int) -> int:
    """``⌈distinct/batch⌉``: the batches a run needs if every fetch is
    full and no record is fetched twice."""
    return -(-len(set(reads)) // batch)
