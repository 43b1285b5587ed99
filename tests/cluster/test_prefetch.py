"""Tests for the LRU prefetch buffer."""

import pytest

from repro.cluster import PrefetchBuffer


def make_store(size=100):
    """A fake worker store: key -> record, with fetch accounting."""
    store = {k: f"record-{k}" for k in range(size)}
    fetches = []

    def fetch_batch(keys):
        fetches.append(list(keys))
        return [(k, store[k]) for k in keys if k in store]

    return store, fetch_batch, fetches


class TestPrefetchBuffer:
    def test_miss_then_hit(self):
        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(capacity=10, fetch_batch=fetch, batch_size=4)
        assert buffer.get(3) == "record-3"
        assert buffer.stats.misses == 1
        assert buffer.get(3) == "record-3"
        assert buffer.stats.hits == 1
        assert len(fetches) == 1

    def test_prefetch_candidates_ride_along(self):
        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(capacity=10, fetch_batch=fetch, batch_size=4)
        buffer.get(0, prefetch_candidates=[1, 2, 3, 4, 5])
        assert fetches[0] == [0, 1, 2, 3]  # batch_size caps the ride-alongs
        # The prefetched nodes are now hits.
        buffer.get(1)
        buffer.get(2)
        assert buffer.stats.hits == 2
        assert buffer.stats.fetch_batches == 1

    def test_lru_eviction_order(self):
        _, fetch, _ = make_store()
        buffer = PrefetchBuffer(capacity=2, fetch_batch=fetch, batch_size=1)
        buffer.get(0)
        buffer.get(1)
        buffer.get(0)  # refresh 0; 1 is now least recent
        buffer.get(2)  # evicts 1
        assert 0 in buffer
        assert 1 not in buffer
        assert 2 in buffer
        assert buffer.stats.evictions == 1

    def test_zero_capacity_disables_caching(self):
        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(capacity=0, fetch_batch=fetch, batch_size=8)
        buffer.get(0, prefetch_candidates=[1, 2])
        buffer.get(0)
        assert buffer.stats.misses == 2
        assert buffer.stats.hits == 0
        # No ride-alongs when nothing can be retained.
        assert fetches == [[0], [0]]

    def test_duplicate_candidates_not_fetched_twice(self):
        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(capacity=10, fetch_batch=fetch, batch_size=8)
        buffer.get(0, prefetch_candidates=[0, 1, 1, 2])
        assert fetches[0] == [0, 1, 2]

    def test_batch_capped_at_capacity_keeps_requested_key(self):
        """Regression: a fetch batch larger than remaining capacity used
        to evict the just-fetched key (inserted first, evicted by its
        own ride-alongs), wasting the very next access."""
        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(capacity=2, fetch_batch=fetch, batch_size=8)
        buffer.get(0, prefetch_candidates=[1, 2, 3, 4, 5])
        assert fetches[0] == [0, 1]  # capacity caps the batch
        assert 0 in buffer  # the requested key stays resident...
        assert len(buffer) <= buffer.capacity
        assert buffer.stats.evictions == 0  # ...without churning the LRU
        buffer.get(0)
        assert buffer.stats.hits == 1

    def test_requested_key_is_most_recent_after_fetch(self):
        """The missed key is inserted last (MRU), so ride-alongs are
        evicted before it under pressure."""
        _, fetch, _ = make_store()
        buffer = PrefetchBuffer(capacity=2, fetch_batch=fetch, batch_size=2)
        buffer.get(0, prefetch_candidates=[1])  # buffer: {1, 0(MRU)}
        buffer.get(2)  # evicts 1, not 0
        assert 0 in buffer
        assert 1 not in buffer
        assert 2 in buffer

    def test_hit_never_iterates_candidates(self):
        """The engine hands over a lazy top-gain walk on every pop; a hit
        must not start it."""

        class Untouchable:
            def __iter__(self):
                raise AssertionError("candidates iterated on a hit")

        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(capacity=10, fetch_batch=fetch, batch_size=4)
        buffer.get(3)
        assert buffer.get(3, prefetch_candidates=Untouchable()) == "record-3"
        assert buffer.stats.hits == 1
        assert len(fetches) == 1

    def test_miss_stops_drawing_at_batch_size(self):
        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(capacity=10, fetch_batch=fetch, batch_size=4)
        buffer.get(1)
        drawn = []

        def candidates():
            for node in range(1, 50):  # 1 is already resident
                drawn.append(node)
                yield node

        buffer.get(0, prefetch_candidates=candidates())
        assert fetches[1] == [0, 2, 3, 4]
        assert drawn == [1, 2, 3, 4]  # nothing drawn past the full batch

    def test_missing_key_raises(self):
        _, fetch, _ = make_store(size=3)
        buffer = PrefetchBuffer(capacity=4, fetch_batch=fetch, batch_size=2)
        with pytest.raises(KeyError):
            buffer.get(99)

    def test_invalidate(self):
        _, fetch, _ = make_store()
        buffer = PrefetchBuffer(capacity=4, fetch_batch=fetch, batch_size=1)
        buffer.get(0)
        buffer.invalidate(0)
        buffer.get(0)
        assert buffer.stats.misses == 2

    def test_hit_rate(self):
        _, fetch, _ = make_store()
        buffer = PrefetchBuffer(capacity=10, fetch_batch=fetch, batch_size=1)
        assert buffer.stats.hit_rate == 0.0
        buffer.get(0)
        buffer.get(0)
        buffer.get(0)
        assert buffer.stats.hit_rate == pytest.approx(2 / 3)

    def test_invalid_arguments(self):
        _, fetch, _ = make_store()
        with pytest.raises(ValueError):
            PrefetchBuffer(capacity=-1, fetch_batch=fetch)
        with pytest.raises(ValueError):
            PrefetchBuffer(capacity=4, fetch_batch=fetch, batch_size=0)
