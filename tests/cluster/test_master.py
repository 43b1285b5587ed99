"""Unit tests for the master-resident pass state and its record source."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.master import MasterState, prefetch_source
from repro.cluster.prefetch import PrefetchBuffer
from repro.core import AugmentedSocialGraph, KLConfig, extended_kl
from repro.core.kl import _bucket_pass

from ..core.partition_oracle import Partition

RES = 8
OFFSET = 64


def record_for(graph, node):
    return (
        list(graph.friends[node]),
        list(graph.rej_out[node]),
        list(graph.rej_in[node]),
    )


def make_state(graph, sides, k=1.0, locked=None):
    """The pass state from scaled gains, as the workers report them."""
    partition = Partition(graph, sides)
    locked = locked or [False] * graph.num_nodes
    gains = [round(partition.switch_gain(u, k) * RES) for u in range(graph.num_nodes)]
    return MasterState.for_pass(
        graph.num_nodes,
        sides,
        partition.f_cross,
        partition.r_cross,
        gains,
        [u for u in range(graph.num_nodes) if not locked[u]],
        OFFSET,
    )


def run_pass(graph, state, k, buffer=None):
    """One bucket pass over ``state`` with records served from ``graph``."""
    buffer = buffer or PrefetchBuffer(
        0,
        lambda nodes: [(u, record_for(graph, u)) for u in nodes],
        keys=state.eligible,
    )
    return _bucket_pass(
        state, state.eligible, state.gain_b, None, None, round(k * RES), RES,
        OFFSET, None, source=prefetch_source(buffer),
    )


def live_buckets(heads, nxt):
    """``{node: bucket}`` of every node still in the bucket list."""
    live = {}
    for b, v in enumerate(heads):
        while v >= 0:
            live[v] = b
            v = nxt[v]
    return live


def traced_pass(graph, state, k):
    """One bucket pass over ``state``, logging ``(node, buckets, sides)``
    as the record source sees them at every pop. ``buckets`` maps each
    node still in the list to its bucket, and the popped node to the
    top bucket it left."""
    trace = []

    def source(u, heads, nxt, max_b, bucket_of):
        buckets = live_buckets(heads, nxt)
        assert buckets == {
            v: b for v, b in enumerate(bucket_of) if b >= 0
        }, "bucket_of disagrees with the live list"
        buckets[u] = max_b
        trace.append((u, buckets, list(state.sides)))
        return record_for(graph, u)

    applied, tested = _bucket_pass(
        state, state.eligible, state.gain_b, None, None, round(k * RES), RES,
        OFFSET, None, source=source,
    )
    return applied, tested, trace


def switched(graph, sides, nodes):
    """A reference :class:`Partition` of ``sides`` with ``nodes`` switched."""
    reference = Partition(graph, list(sides))
    for node in nodes:
        reference.switch(node)
    return reference


@pytest.fixture
def graph():
    return AugmentedSocialGraph.from_edges(
        5,
        friendships=[(0, 1), (1, 2), (3, 4)],
        rejections=[(0, 3), (1, 3), (2, 4)],
    )


class TestMasterState:
    def test_bucket_values_are_scaled_gains(self, graph):
        sides = [0, 1, 0, 1, 0]
        state = make_state(graph, sides, k=0.5)
        partition = Partition(graph, sides)
        for u in range(graph.num_nodes):
            scaled = partition.switch_gain(u, 0.5) * RES
            assert state.gain_b[u] == scaled + OFFSET

    def test_locked_nodes_never_indexed(self, graph):
        sides = [0, 0, 0, 0, 0]
        locked = [True, True, True, True, False]
        state = make_state(graph, sides, locked=locked)
        assert state.eligible == [4]
        _applied, tested = run_pass(graph, state, 1.0)
        assert tested == 1
        assert state.sides[:4] == sides[:4]

    def test_sides_length_validated(self):
        with pytest.raises(ValueError, match="sides has length"):
            MasterState.for_pass(3, [0, 1], 0, 0, [0] * 3, [0, 1, 2], 9)

    def test_gains_length_validated(self):
        with pytest.raises(ValueError, match="gains has length"):
            MasterState.for_pass(3, [0] * 3, 0, 0, [0] * 2, [0, 1, 2], 9)

    def test_apply_switch_tracks_partition(self, graph):
        """Every pop sees the sides of the switches made before it, and
        the pass writes back the counters of its applied prefix."""
        sides = [0, 0, 0, 0, 0]
        state = make_state(graph, sides)
        applied, tested, trace = traced_pass(graph, state, 1.0)
        assert tested == len(trace) == graph.num_nodes
        popped = [u for u, _, _ in trace]
        for i, (_, _, seen) in enumerate(trace):
            assert seen == switched(graph, sides, popped[:i]).sides
        reference = switched(graph, sides, applied)
        assert state.sides == reference.sides
        assert (state.f_cross, state.r_cross) == (
            reference.f_cross,
            reference.r_cross,
        )

    def test_pop_best_matches_gain_order(self, graph):
        """Each pop takes a node whose current gain is at least every
        gain still in the bucket list; the first is the global best."""
        sides = [0, 0, 0, 0, 0]
        state = make_state(graph, sides, k=4.0)
        _applied, _tested, trace = traced_pass(graph, state, 4.0)
        partition = Partition(graph, sides)
        best_gain = max(
            partition.switch_gain(u, 4.0) for u in range(graph.num_nodes)
        )
        assert partition.switch_gain(trace[0][0], 4.0) == best_gain
        for node, buckets, seen in trace:
            gain_b = Partition(graph, seen).switch_gain(node, 4.0) * RES + OFFSET
            assert gain_b == buckets[node] == max(buckets.values())

    def test_rollback_restores_everything(self, graph):
        """From the global optimum no prefix improves, so the pass rolls
        every tested switch back: sides and counters as they started."""
        sides = [0, 0, 0, 1, 1]
        state = make_state(graph, sides)
        start = Partition(graph, sides)
        applied, tested, trace = traced_pass(graph, state, 1.0)
        assert applied == []
        assert tested == graph.num_nodes
        assert trace[-1][2] != sides  # the pass did switch nodes
        assert state.sides == sides
        assert (state.f_cross, state.r_cross) == (start.f_cross, start.r_cross)

    def test_partial_rollback(self, graph):
        sides = [0, 0, 0, 0, 0]
        state = make_state(graph, sides)
        applied, tested, _trace = traced_pass(graph, state, 1.0)
        assert 0 < len(applied) < tested
        reference = switched(graph, sides, applied)  # keep only the prefix
        assert state.sides == reference.sides
        assert (state.f_cross, state.r_cross) == (
            reference.f_cross,
            reference.r_cross,
        )

    def test_neighbour_gains_updated_on_switch(self, graph):
        """After each switch, every node left in the bucket list (and the
        next one popped) sits at the bucket of a fresh gain recomputation
        on the updated sides."""
        sides = [0, 0, 0, 0, 0]
        state = make_state(graph, sides, k=2.0)
        _applied, _tested, trace = traced_pass(graph, state, 2.0)
        assert len(trace) > 1
        for _node, buckets, seen in trace[1:]:
            reference = Partition(graph, seen)
            for v, b in buckets.items():
                assert b == reference.switch_gain(v, 2.0) * RES + OFFSET

    @pytest.mark.parametrize("k", [0.5, 1.0, 4.0])
    def test_pass_matches_one_local_kl_pass(self, graph, k):
        """The source-fed pass keeps sides and counters exact and lands
        where one pass of local KL does."""
        sides = [0, 1, 0, 0, 1]
        state = make_state(graph, sides, k=k)
        run_pass(graph, state, k)
        local = extended_kl(
            graph, k, Partition(graph, sides), config=KLConfig(max_passes=1)
        )
        assert state.sides == local.sides
        assert (state.f_cross, state.r_cross) == (local.f_cross, local.r_cross)


class _Untouchable:
    """Bucket arrays a buffer hit must never read."""

    def __getitem__(self, index):
        raise AssertionError("the source walked the buckets on a hit")


def _buckets(entries, size=32):
    """``heads``/``nxt``/``bucket_of`` of a bucket list loaded with
    ``(node, bucket)`` in order (LIFO within a bucket), plus its top
    bucket."""
    heads = [-1] * size
    nxt = [-1] * 40
    bucket_of = [-1] * 40
    for node, b in entries:
        nxt[node] = heads[b]
        heads[b] = node
        bucket_of[node] = b
    return heads, nxt, bucket_of, max((b for _, b in entries), default=-1)


def _descending(nodes, top=31):
    """Bucket-list entries that pop ``nodes`` in the order given."""
    return [(node, top - i) for i, node in enumerate(nodes)]


def _walk(source, u, entries):
    heads, nxt, bucket_of, top = _buckets(entries)
    return source(u, heads, nxt, top, bucket_of)


class TestPrefetchSource:
    @staticmethod
    def buffer_logging(wanted_log, capacity=64, batch=8):
        def fetch(nodes):
            wanted_log.append(list(nodes))
            return [(u, ([], [], [])) for u in nodes]

        return PrefetchBuffer(capacity, fetch, batch_size=batch, keys=range(40))

    def test_hit_is_served_without_walking(self):
        log = []
        buffer = self.buffer_logging(log)
        buffer.get(3)
        source = prefetch_source(buffer)
        untouchable = _Untouchable()
        assert source(3, untouchable, untouchable, 5, untouchable) == ([], [], [])
        assert buffer.stats.hits == 1
        assert log == [[3]]

    def test_miss_walks_top_down_lifo(self):
        log = []
        buffer = self.buffer_logging(log)
        _walk(prefetch_source(buffer), 0, [(1, 4), (2, 9), (5, 4), (6, 9), (7, 2)])
        assert log == [[0, 6, 2, 5, 1, 7]]

    def test_walk_stops_at_the_batch_room(self):
        log = []
        buffer = self.buffer_logging(log, batch=3)
        _walk(prefetch_source(buffer), 0, [(1, 4), (2, 9), (5, 4), (6, 9), (7, 2)])
        assert log == [[0, 6, 2]]

    @pytest.mark.parametrize(
        "residents, taken", [(7, [20, 21]), (8, [])], ids=["7", "8"]
    )
    def test_top_walk_gives_up_after_two_batches_of_residents(
        self, residents, taken
    ):
        """From the top, the walk passes over at most ``2·batch``
        resident nodes; with no cursor to resume from, the batch may
        come back short."""
        log = []
        buffer = self.buffer_logging(log, batch=4)
        for node in range(10, 10 + residents):
            buffer.get(node)
        nodes = list(range(10, 10 + residents)) + [20, 21]
        _walk(prefetch_source(buffer), 0, _descending(nodes))
        assert log[-1] == [0] + taken

    def test_resumes_after_the_cursor(self):
        """A miss that meets ``2·batch`` residents at the top resumes
        just after the last node the previous miss fetched, skipping the
        nodes in between."""
        log = []
        buffer = self.buffer_logging(log, batch=4)
        source = prefetch_source(buffer)
        _walk(source, 0, _descending([1, 2, 3]))
        assert log == [[0, 1, 2, 3]]  # the cursor is 3
        for node in range(10, 16):  # six more residents, read ones
            buffer.get(node)
        # Residents 1, 2, 10..15 fill the top walk's skips; 30 sits
        # between them and the cursor and is passed over.
        order = [1, 2, 10, 11, 12, 13, 14, 15, 30, 3, 31, 32, 33]
        _walk(source, 4, _descending(order))
        assert log[-1] == [4, 31, 32, 33]

    def test_gap_is_walked_once_the_cursor_walk_runs_off_the_end(self):
        """When the walk after the cursor reaches the end of the list
        with room left, the nodes between where the top walk gave up and
        the cursor ride along too, in pop order, on the same skip
        budget."""
        log = []
        buffer = self.buffer_logging(log, batch=4)
        source = prefetch_source(buffer)
        _walk(source, 0, _descending([1, 2, 3]))  # the cursor is 3
        for node in range(10, 16):
            buffer.get(node)
        # 30 and 34 sit in the gap; 31 follows the cursor, then the end.
        order = [1, 2, 10, 11, 12, 13, 14, 15, 30, 34, 3, 31]
        _walk(source, 4, _descending(order))
        assert log[-1] == [4, 31, 30, 34]

    def test_gap_walk_stops_at_the_room(self):
        log = []
        buffer = self.buffer_logging(log, batch=3)
        source = prefetch_source(buffer)
        _walk(source, 0, _descending([1, 2]))  # the cursor is 2
        for node in range(10, 15):
            buffer.get(node)
        # Six residents end the top walk at 14; nothing follows the
        # cursor 2, so the gap after 14 fills the room of two.
        order = [10, 11, 12, 13, 1, 14, 30, 34, 35, 2]
        _walk(source, 4, _descending(order))
        assert log[-1] == [4, 30, 34]

    def test_popped_cursor_is_not_resumed(self):
        log = []
        buffer = self.buffer_logging(log, batch=4)
        source = prefetch_source(buffer)
        _walk(source, 0, _descending([1, 2, 3]))
        for node in range(10, 16):
            buffer.get(node)
        # The cursor 3 has left the list: nothing past the top walk.
        order = [1, 2, 10, 11, 12, 13, 14, 15, 30, 31]
        _walk(source, 4, _descending(order))
        assert log[-1] == [4]

    @pytest.mark.parametrize(
        "residents, taken", [(15, [39]), (16, [])], ids=["15", "16"]
    )
    def test_walk_after_the_cursor_is_bounded(self, residents, taken):
        """After the cursor the walk passes over at most ``4·batch``
        resident nodes."""
        log = []
        buffer = self.buffer_logging(log, capacity=64, batch=4)
        source = prefetch_source(buffer)
        _walk(source, 0, _descending([1]))  # the cursor is 1
        for node in range(10, 17 + residents):
            buffer.get(node)
        # 10..16 and the cursor 1 spend the top walk's eight skips; the
        # residents after the cursor follow, then the free node 39.
        order = list(range(10, 17)) + [1] + list(range(17, 17 + residents)) + [39]
        _walk(source, 4, _descending(order))
        assert log[-1] == [4] + taken

    @pytest.mark.parametrize(
        "capacity, batch, unread",
        [(0, 8, 0), (64, 1, 0), (4, 8, 3)],
        ids=["no-capacity", "batch-of-one", "unread-fill-the-buffer"],
    )
    def test_no_room_fetches_the_node_alone(self, capacity, batch, unread):
        log = []
        buffer = self.buffer_logging(log, capacity=capacity, batch=batch)
        if unread:
            buffer.get(30, list(range(31, 31 + unread)))
        assert buffer.unread == unread
        _walk(prefetch_source(buffer), 0, [(1, 4), (2, 9)])
        assert log[-1] == [0]

    @given(
        st.lists(
            st.tuples(st.integers(1, 15), st.integers(0, 7)),
            unique_by=lambda e: e[0],
            max_size=15,
        ),
        st.integers(1, 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_walk_is_the_pop_order(self, entries, batch):
        """With nothing resident, the ride-along candidates are exactly
        the next pops of the bucket list: buckets descending, LIFO
        within a bucket."""
        log = []
        buffer = self.buffer_logging(log, capacity=64, batch=batch)
        _walk(prefetch_source(buffer), 0, entries)
        order = sorted(
            range(len(entries)), key=lambda i: (-entries[i][1], -i)
        )
        expected = [entries[i][0] for i in order][: batch - 1]
        assert log == [[0] + expected]
