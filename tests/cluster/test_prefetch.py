"""Tests for the prefetch buffer."""

import pytest

from repro.cluster import PrefetchBuffer
from repro.cluster.master import prefetch_source
from repro.cluster.prefetch import READ, UNREAD


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
        buffer = PrefetchBuffer(10, fetch, batch_size=4, keys=range(10))
        assert buffer.get(3) == "record-3"
        assert buffer.stats.misses == 1
        assert buffer.get(3) == "record-3"
        assert buffer.stats.hits == 1
        assert len(fetches) == 1

    def test_prefetch_candidates_ride_along(self):
        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(10, fetch, batch_size=4, keys=range(100))
        buffer.get(0, prefetch_candidates=[1, 2, 3, 4, 5])
        assert fetches[0] == [0, 1, 2, 3]  # batch_size caps the ride-alongs
        # The prefetched nodes are now hits.
        buffer.get(1)
        buffer.get(2)
        assert buffer.stats.hits == 2
        assert buffer.stats.fetch_batches == 1

    def test_zero_capacity_disables_caching(self):
        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(0, fetch, batch_size=8, keys=range(100))
        buffer.get(0, prefetch_candidates=[1, 2])
        buffer.get(0)
        assert buffer.stats.misses == 2
        assert buffer.stats.hits == 0
        # No ride-alongs when nothing can be retained.
        assert fetches == [[0], [0]]
        assert len(buffer) == 0

    def test_duplicate_candidates_not_fetched_twice(self):
        """The buffer takes candidates as given, so the walk feeding it
        must not repeat one — not even when the previous miss's cursor
        sits above where the top walk gave up, and the walk after the
        cursor meets the nodes the top walk took."""
        fetches = []

        def fetch(keys):
            fetches.append(list(keys))
            return [(k, ([], [], [])) for k in keys]

        buffer = PrefetchBuffer(64, fetch, batch_size=4, keys=range(40))
        source = prefetch_source(buffer)

        def miss(u, order):
            """Miss on ``u`` with ``order`` left in the list, one node a
            bucket, top bucket first."""
            heads, nxt, bucket_of = [-1] * 32, [-1] * 40, [-1] * 40
            for i, node in enumerate(order):
                heads[31 - i] = node
                bucket_of[node] = 31 - i
            source(u, heads, nxt, 31, bucket_of)

        miss(0, [1, 2, 3])  # fetches [0, 1, 2, 3]: the cursor is 3
        for node in range(30, 38):
            buffer.get(node)
        # 9 is taken at the top, then 30..36 use up the top walk's eight
        # skips; after the cursor 3 the walk meets 9 again.
        miss(20, [3, 9, 30, 31, 32, 33, 34, 35, 36, 37, 10, 11])
        assert fetches[-1] == [20, 9, 10, 11]
        assert all(len(set(batch)) == len(batch) for batch in fetches)

    def test_batch_capped_at_capacity_keeps_requested_key(self):
        """Regression: a fetch batch larger than remaining capacity used
        to evict the just-fetched key (inserted first, evicted by its
        own ride-alongs), wasting the very next access."""
        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(2, fetch, batch_size=8, keys=range(2))
        buffer.get(0, prefetch_candidates=[1, 2, 3, 4, 5])
        assert fetches[0] == [0, 1]  # capacity caps the batch
        assert 0 in buffer  # the requested key stays resident
        assert len(buffer) <= buffer.capacity
        buffer.get(0)
        assert buffer.stats.hits == 1

    def test_unread_records_are_never_evicted(self):
        """A prefetch outlives every read record, the one just fetched
        included, until its node is read."""
        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(2, fetch, batch_size=2, keys=range(3))
        buffer.get(0, prefetch_candidates=[1])  # read and dropped: 0
        buffer.get(2)  # no room for a ride-along; 1 stays
        assert fetches == [[0, 1], [2]]
        assert buffer.unread == 1
        assert [k for k in range(3) if k in buffer] == [1]
        assert buffer.get(1) == "record-1"  # a hit, then dropped
        assert buffer.stats.hits == 1
        assert buffer.unread == 0
        assert len(buffer) == 0

    def test_room_leaves_space_for_unread_records(self):
        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(6, fetch, batch_size=4, keys=range(8))
        assert buffer.room() == 3
        buffer.get(0, prefetch_candidates=[1, 2, 3])
        assert buffer.room() == 2  # three unread beside the next key
        buffer.get(4, prefetch_candidates=[5, 6, 7])  # 7 stays behind
        assert fetches[-1] == [4, 5, 6]
        assert buffer.room() == 0
        assert len(buffer) == buffer.unread == 5

    def test_hit_never_iterates_candidates(self):
        """The engine hands over a lazy top-gain walk on every pop; a hit
        must not start it."""

        class Untouchable:
            def __iter__(self):
                raise AssertionError("candidates iterated on a hit")

        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(10, fetch, batch_size=4, keys=range(10))
        buffer.get(3)
        assert buffer.get(3, prefetch_candidates=Untouchable()) == "record-3"
        assert buffer.stats.hits == 1
        assert len(fetches) == 1

    def test_miss_stops_drawing_at_batch_size(self):
        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(10, fetch, batch_size=4, keys=range(100))
        drawn = []

        def candidates():
            for node in range(1, 50):
                drawn.append(node)
                yield node

        buffer.get(0, prefetch_candidates=candidates())
        assert fetches == [[0, 1, 2, 3]]
        assert drawn == [1, 2, 3]  # nothing drawn past the full batch

    def test_missing_key_raises(self):
        _, fetch, _ = make_store(size=3)
        buffer = PrefetchBuffer(4, fetch, batch_size=2, keys=range(100))
        with pytest.raises(KeyError):
            buffer.get(99)

    def test_hit_rate(self):
        _, fetch, _ = make_store()
        buffer = PrefetchBuffer(10, fetch, batch_size=1, keys=range(10))
        assert buffer.stats.hit_rate == 0.0
        buffer.get(0)
        buffer.get(0)
        buffer.get(0)
        assert buffer.stats.hit_rate == pytest.approx(2 / 3)

    def test_invalid_arguments(self):
        _, fetch, _ = make_store()
        with pytest.raises(ValueError):
            PrefetchBuffer(capacity=-1, fetch_batch=fetch, keys=range(4))
        with pytest.raises(ValueError):
            PrefetchBuffer(capacity=4, fetch_batch=fetch, batch_size=0, keys=range(4))


class TestReadRecords:
    """What a read record becomes: kept when every key fits, else dropped."""

    @pytest.mark.parametrize("keys, kept", [(10, True), (11, False)])
    def test_kept_only_when_every_key_fits(self, keys, kept):
        _, fetch, fetches = make_store()
        buffer = PrefetchBuffer(10, fetch, batch_size=4, keys=range(keys))
        assert buffer.keep_read is kept
        buffer.get(0, prefetch_candidates=[1, 2, 3])
        buffer.get(1)
        state = READ if kept else 0
        assert [buffer.resident[k] for k in range(4)] == [state, state, UNREAD, UNREAD]
        assert len(buffer) == (4 if kept else 2)
        buffer.get(0)
        assert len(fetches) == (1 if kept else 2)
