"""Prefetch buffer for per-node graph structure.

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

A buffer serves one run, whose keys (the run's eligible nodes) it is
given up front; each key has one residency byte, :data:`UNREAD` or
:data:`READ` when its record is held, 0 otherwise. A prefetched record
is *unread* until its node pops; unread records are never evicted, and
a miss asks for at most the room they leave. What happens to a record
once read follows from the fact that every pass pops each key exactly
once, in an order that changes from pass to pass:

* if every key fits the buffer, read records are kept, so each pass
  after the first is served without a fetch;
* otherwise a record is dropped as soon as it is read: its pass never
  reads it again, and a later pass reads all keys in a new order, which
  cycles an LRU read tier smaller than the key set out before it pays
  (0.5 % of the reads on the 8,000-node Table II sweep at 4,096
  records).
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterable, List, Sequence

__all__ = ["PrefetchBuffer", "PrefetchStats", "UNREAD", "READ"]

#: Residency byte of a key whose record is held and not yet read.
UNREAD = 1
#: Residency byte of a key whose read record is kept for later passes.
READ = 2

_MISSING = object()


class PrefetchStats:
    """Hit/miss counters of one buffer lifetime."""

    __slots__ = ("hits", "misses", "fetch_batches", "records_fetched")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fetch_batches = 0
        self.records_fetched = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PrefetchBuffer:
    """Records of a fixed key set, one residency byte per key, with
    batched misses.

    Parameters
    ----------
    capacity:
        Maximum resident records; 0 disables caching entirely (every
        access is a miss of batch size 1 — the "no prefetch" ablation).
    fetch_batch:
        Callback fetching ``(key, record)`` pairs for the requested keys
        from the workers (one network round trip per call).
    batch_size:
        Most keys one miss fetches, the missed key included.
    keys:
        The non-negative integer keys the buffer may be asked for — a
        run's eligible nodes. Read records are kept only when all of
        them fit in ``capacity``.
    """

    def __init__(
        self,
        capacity: int,
        fetch_batch: Callable[[Sequence[int]], List[tuple]],
        batch_size: int = 64,
        *,
        keys: Sequence[int],
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.capacity = capacity
        self.batch_size = batch_size
        self._fetch_batch = fetch_batch
        span = max(keys, default=-1) + 1
        #: per key: :data:`UNREAD`, :data:`READ` or 0 (not held)
        self.resident = bytearray(span)
        self._records: List[Any] = [None] * span
        #: held records not yet read
        self.unread = 0
        #: whether read records stay: all keys fit the buffer
        self.keep_read = len(keys) <= capacity
        self._kept = 0
        self.stats = PrefetchStats()

    def __contains__(self, key: int) -> bool:
        return bool(self.resident[key])

    def __len__(self) -> int:
        return self.unread + self._kept

    def room(self) -> int:
        """How many candidates the next miss may fetch along with its key.

        At most ``batch_size − 1``, and never more than the unread
        records leave free beside the missed key, so a fetch never
        displaces an unread record. Kept read records take no room:
        they are only kept when every key fits.
        """
        return min(self.batch_size, self.capacity - self.unread) - 1

    def get(self, key: int, prefetch_candidates: Iterable[int] = ()) -> Any:
        """Fetch one record, prefetching candidates on a miss.

        A hit on an unread record reads it: it is kept or dropped as the
        module docstring says. On a miss, the first :meth:`room` of
        ``prefetch_candidates`` ride along with ``key`` in one fetch and
        are held unread; ``key`` itself is read at once. The candidates
        must be distinct keys whose records are not held; the buffer
        takes them as given, and they may already be marked
        :data:`UNREAD` by a caller that walked them. They may be a lazy
        iterable: a hit never iterates it, and a miss stops drawing once
        the batch is full.
        """
        resident = self.resident
        records = self._records
        state = resident[key]
        if state:
            self.stats.hits += 1
            record = records[key]
            if state == UNREAD:
                self.unread -= 1
                if self.keep_read:
                    resident[key] = READ
                    self._kept += 1
                else:
                    resident[key] = 0
                    records[key] = None
            return record

        self.stats.misses += 1
        wanted: List[int] = [key]
        room = self.room()
        if room > 0:
            wanted.extend(islice(prefetch_candidates, room))
        fetched = self._fetch_batch(wanted)
        self.stats.fetch_batches += 1
        self.stats.records_fetched += len(fetched)
        result = _MISSING
        for fetched_key, record in fetched:
            if fetched_key == key:
                result = record
            else:
                records[fetched_key] = record
                resident[fetched_key] = UNREAD
        if result is _MISSING:
            raise KeyError(f"fetch_batch did not return requested key {key!r}")
        self.unread += len(fetched) - 1
        if self.keep_read:
            records[key] = result
            resident[key] = READ
            self._kept += 1
        return result
