"""Two-tier prefetch buffer for per-node graph structure.

Section V: "we prefetch a set of nodes each time instead of just one
node... The prefetched nodes are those with the highest potential move
gains in the bucket list... Rejecto uses a LRU replacement strategy to
evict nodes from the buffer."

The buffer fronts the workers' block-slice reads: a hit costs nothing; a
miss triggers one batched *block-slice* fetch — the missed node *plus*
the current top-gain candidates travel back as one reply per partition
touched, request-ordered records plus the exact reply size (see
:meth:`repro.cluster.blocks.ShardBlock.slices`) — so the next pops of
the bucket list land in the buffer. The buffer itself is key→record and
protocol-agnostic; the engine's fetch callback does the grouping and the
byte-exact accounting.

Records live in two tiers. A prefetched record is *unread* until its
node pops; unread records are never evicted, and a miss asks for at
most the room they leave. Once read, a record joins the *read* tier,
which keeps the paper's LRU order for later passes and is the only one
evicted. A single LRU would promote the record just read (which a pass
never reads again: each node pops once) over prefetches nobody has read
yet, and evict those instead.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Any, Callable, Dict, Iterable, List, Sequence

__all__ = ["PrefetchBuffer", "PrefetchStats"]

_MISSING = object()


class PrefetchStats:
    """Hit/miss counters of one buffer lifetime."""

    __slots__ = ("hits", "misses", "fetch_batches", "records_fetched", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fetch_batches = 0
        self.records_fetched = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PrefetchBuffer:
    """Keyed records in an unread and a read tier, with batched misses.

    Parameters
    ----------
    capacity:
        Maximum resident records, both tiers together; 0 disables
        caching entirely (every access is a miss of batch size 1 — the
        "no prefetch" ablation).
    fetch_batch:
        Callback fetching a list of records for the requested keys from
        the workers (one network round trip per call).
    batch_size:
        Most keys one miss fetches, the missed key included.
    """

    def __init__(
        self,
        capacity: int,
        fetch_batch: Callable[[Sequence[Any]], List[tuple]],
        batch_size: int = 64,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.capacity = capacity
        self.batch_size = batch_size
        self._fetch_batch = fetch_batch
        #: prefetched, not yet read: never evicted
        self.unread: Dict[Any, Any] = {}
        #: read at least once, least recently read first: evicted first
        self.read: "OrderedDict[Any, Any]" = OrderedDict()
        self.stats = PrefetchStats()

    def __contains__(self, key: Any) -> bool:
        return key in self.unread or key in self.read

    def __len__(self) -> int:
        return len(self.unread) + len(self.read)

    def room(self) -> int:
        """How many candidates the next miss may fetch along with its key.

        At most ``batch_size − 1``, and never more than the unread tier
        leaves free beside the missed key, so a fetch can evict neither
        an unread record nor the record it was issued for.
        """
        return min(self.batch_size, self.capacity - len(self.unread)) - 1

    def get(
        self, key: Any, prefetch_candidates: Iterable[Any] = ()
    ) -> Any:
        """Fetch one record, prefetching candidates on a miss.

        A hit moves the record to the most recent end of the read tier.
        On a miss, the first :meth:`room` of ``prefetch_candidates`` ride
        along with ``key`` in one fetch and join the unread tier, and
        ``key`` joins the read tier as its most recent record; read
        records are then evicted, least recent first, down to
        ``capacity``. The candidates must be distinct and not resident:
        the buffer takes them as given. They may be a lazy iterable: a
        hit never iterates it, and a miss stops drawing once the batch is
        full.
        """
        record = self.unread.pop(key, _MISSING)
        if record is not _MISSING:
            self.stats.hits += 1
            self.read[key] = record
            return record
        record = self.read.get(key, _MISSING)
        if record is not _MISSING:
            self.stats.hits += 1
            self.read.move_to_end(key)
            return record

        self.stats.misses += 1
        wanted: List[Any] = [key]
        room = self.room()
        if room > 0:
            wanted.extend(islice(prefetch_candidates, room))
        fetched = self._fetch_batch(wanted)
        self.stats.fetch_batches += 1
        self.stats.records_fetched += len(fetched)
        result = _MISSING
        unread = self.unread
        for fetched_key, record in fetched:
            if fetched_key == key:
                result = record
            else:
                unread[fetched_key] = record
        if result is _MISSING:
            raise KeyError(f"fetch_batch did not return requested key {key!r}")
        if self.capacity:
            read = self.read
            read[key] = result
            while len(unread) + len(read) > self.capacity:
                read.popitem(last=False)
                self.stats.evictions += 1
        return result
