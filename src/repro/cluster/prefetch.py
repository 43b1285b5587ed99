"""LRU prefetch buffer for per-node graph structure.

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
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Iterable, List, Sequence

__all__ = ["PrefetchBuffer", "PrefetchStats"]


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
    """LRU cache of keyed records with batched miss handling.

    Parameters
    ----------
    capacity:
        Maximum resident records; 0 disables caching entirely (every
        access is a miss of batch size 1 — the "no prefetch" ablation).
    fetch_batch:
        Callback fetching a list of records for the requested keys from
        the workers (one network round trip per call).
    batch_size:
        How many extra candidate keys to pull per miss.
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
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self.stats = PrefetchStats()

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        """Live view of the resident keys (membership at dict speed)."""
        return self._entries.keys()

    def get(
        self, key: Any, prefetch_candidates: Iterable[Any] = ()
    ) -> Any:
        """Fetch one record, prefetching candidates on a miss.

        ``prefetch_candidates`` should be the current highest-gain nodes
        (likely next accesses); at most ``batch_size − 1`` of them ride
        along with the missed key. It may be a lazy iterable: a hit never
        iterates it, and a miss stops drawing once the batch is full, all
        before this call returns. The effective batch is further capped
        at ``capacity``, and the requested key is inserted as the most
        recently used entry — so a fetch batch can never evict the very
        record it was issued for.
        """
        if key in self._entries:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]

        self.stats.misses += 1
        wanted: List[Any] = [key]
        room = min(self.batch_size, self.capacity) - 1
        if room > 0:
            entries = self._entries
            seen = {key}
            for candidate in prefetch_candidates:
                if candidate in entries or candidate in seen:
                    continue
                wanted.append(candidate)
                seen.add(candidate)
                room -= 1
                if room == 0:
                    break
        fetched = self._fetch_batch(wanted)
        self.stats.fetch_batches += 1
        self.stats.records_fetched += len(fetched)
        result = None
        found = False
        for fetched_key, record in fetched:
            if fetched_key == key:
                result = record
                found = True
            else:
                self._insert(fetched_key, record)
        if not found:
            raise KeyError(f"fetch_batch did not return requested key {key!r}")
        # Inserted last: the requested key ends up most recently used, so
        # the ride-along candidates can neither evict it nor thrash it
        # out before the caller's next access.
        self._insert(key, result)
        return result

    def _insert(self, key: Any, record: Any) -> None:
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = record
            return
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = record

    def invalidate(self, key: Any) -> None:
        """Drop one entry (e.g. after the node is pruned)."""
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()
