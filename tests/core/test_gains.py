"""Tests for the FM bucket list and heap gain indexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AugmentedSocialGraph,
    BucketGainIndex,
    HeapGainIndex,
    PartitionState,
    make_gain_index,
)
from repro.core.kl import adjust_neighbor_gains

from ..conftest import graphs_with_sides


def make_bucket(num_nodes=64, max_abs_gain=32, resolution=8):
    return BucketGainIndex(num_nodes, max_abs_gain, resolution)


class TestBucketGainIndex:
    def test_insert_and_pop_max(self):
        idx = make_bucket()
        idx.insert(0, 1.0)
        idx.insert(1, 3.0)
        idx.insert(2, -2.0)
        assert idx.pop_max() == (1, 3.0)
        assert idx.pop_max() == (0, 1.0)
        assert idx.pop_max() == (2, -2.0)
        assert idx.pop_max() is None

    def test_lifo_tie_break(self):
        idx = make_bucket()
        idx.insert(5, 1.0)
        idx.insert(7, 1.0)
        node, _ = idx.pop_max()
        assert node == 7  # most recently inserted wins

    def test_fractional_grid_gains(self):
        idx = make_bucket(resolution=8)
        idx.insert(0, 0.125)
        idx.insert(1, -0.375)
        assert idx.pop_max() == (0, 0.125)
        assert idx.pop_max() == (1, -0.375)

    def test_off_grid_gain_rejected(self):
        idx = make_bucket(resolution=8)
        with pytest.raises(ValueError):
            idx.insert(0, 0.1)

    def test_adjust_moves_between_buckets(self):
        idx = make_bucket()
        idx.insert(0, 1.0)
        idx.insert(1, 2.0)
        idx.adjust(0, 4.0)
        assert idx.gain_of(0) == 5.0
        assert idx.pop_max() == (0, 5.0)

    def test_adjust_missing_node_raises(self):
        idx = make_bucket()
        with pytest.raises(KeyError):
            idx.adjust(3, 1.0)

    def test_remove_is_idempotent(self):
        idx = make_bucket()
        idx.insert(0, 1.0)
        idx.remove(0)
        idx.remove(0)
        assert len(idx) == 0
        assert 0 not in idx

    def test_duplicate_insert_rejected(self):
        idx = make_bucket()
        idx.insert(0, 1.0)
        with pytest.raises(ValueError):
            idx.insert(0, 2.0)

    def test_gain_beyond_bound_rejected(self):
        idx = BucketGainIndex(4, max_abs_gain=2, resolution=1)
        with pytest.raises(ValueError):
            idx.insert(0, 10.0)

    def test_contains_and_len(self):
        idx = make_bucket()
        idx.insert(3, 0.0)
        assert 3 in idx
        assert 4 not in idx
        assert len(idx) == 1

    def test_off_grid_adjust_rejected_every_time(self):
        """adjust remembers the bucket step of each delta; an off-grid
        delta must fail on first use and on every later use, and must
        leave the gain untouched."""
        idx = make_bucket(resolution=8)
        idx.insert(0, 1.0)
        for _ in range(3):
            with pytest.raises(ValueError):
                idx.adjust(0, 0.1)
        assert idx.gain_of(0) == 1.0
        idx.adjust(0, 0.125)  # on-grid deltas still apply
        with pytest.raises(ValueError):
            idx.adjust(0, 0.1)
        assert idx.gain_of(0) == 1.125

    def test_adjust_beyond_bound_rejected_with_known_step(self):
        """The bound check runs on every adjust, also once the delta's
        step is remembered from an earlier in-bound call."""
        idx = BucketGainIndex(4, max_abs_gain=4, resolution=1)
        idx.insert(0, 0.0)
        idx.adjust(0, 2.0)
        idx.adjust(0, 2.0)
        with pytest.raises(ValueError):
            idx.adjust(0, 2.0)
        assert idx.gain_of(0) == 4.0

    def test_top_nodes_is_a_lazy_capped_walk(self):
        idx = make_bucket()
        for node, gain in ((0, 1.0), (1, 3.0), (2, 1.0), (3, -2.0)):
            idx.insert(node, gain)
        walk = idx.top_nodes(3)
        assert not isinstance(walk, list)
        assert list(walk) == [1, 2, 0]  # LIFO within the 1.0 bucket
        assert list(idx.top_nodes(10)) == [1, 2, 0, 3]
        assert list(idx.top_nodes(0)) == []
        assert [idx.pop_max()[0] for _ in range(4)] == [1, 2, 0, 3]
        assert list(idx.top_nodes(5)) == []


class TestHeapGainIndex:
    def test_insert_and_pop_max(self):
        idx = HeapGainIndex()
        idx.insert(0, 0.7)
        idx.insert(1, -0.3)
        idx.insert(2, 2.5)
        assert idx.pop_max() == (2, 2.5)
        assert idx.pop_max() == (0, 0.7)
        assert idx.pop_max() == (1, -0.3)
        assert idx.pop_max() is None

    def test_accepts_arbitrary_floats(self):
        idx = HeapGainIndex()
        idx.insert(0, 0.1)
        idx.insert(1, 0.3000001)
        assert idx.pop_max()[0] == 1

    def test_adjust_with_stale_entries(self):
        idx = HeapGainIndex()
        idx.insert(0, 10.0)
        idx.insert(1, 5.0)
        idx.adjust(0, -8.0)  # stale (10.0) entry remains in the heap
        assert idx.pop_max() == (1, 5.0)
        assert idx.pop_max() == (0, 2.0)

    def test_remove_then_pop_skips_node(self):
        idx = HeapGainIndex()
        idx.insert(0, 3.0)
        idx.insert(1, 1.0)
        idx.remove(0)
        assert idx.pop_max() == (1, 1.0)
        assert idx.pop_max() is None

    def test_lifo_tie_break(self):
        idx = HeapGainIndex()
        idx.insert(5, 1.0)
        idx.insert(7, 1.0)
        assert idx.pop_max()[0] == 7

    def test_top_nodes_ties_in_insertion_order(self):
        idx = HeapGainIndex()
        for node, gain in ((5, 1.0), (7, 1.0), (2, 0.5), (9, 2.0)):
            idx.insert(node, gain)
        idx.adjust(5, 0.0)  # an adjust keeps a node's place
        walk = idx.top_nodes(3)
        assert not isinstance(walk, list)
        assert list(walk) == [9, 5, 7]
        assert list(idx.top_nodes(10)) == [9, 5, 7, 2]


class TestFactory:
    def test_auto_picks_bucket_on_grid(self):
        idx = make_gain_index("auto", 8, 16, k=0.25, resolution=8)
        assert isinstance(idx, BucketGainIndex)

    def test_auto_picks_heap_off_grid(self):
        idx = make_gain_index("auto", 8, 16, k=0.3, resolution=8)
        assert isinstance(idx, HeapGainIndex)

    def test_bucket_with_off_grid_k_rejected(self):
        with pytest.raises(ValueError):
            make_gain_index("bucket", 8, 16, k=0.3, resolution=8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_gain_index("fibonacci", 8, 16, k=1.0)


# ----------------------------------------------------------------------
# Property tests: both implementations agree with a naive dict reference.
# ----------------------------------------------------------------------

_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "adjust", "remove", "pop"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=-64, max_value=64),  # gain in eighths
    ),
    max_size=60,
)


def _apply_ops(index, ops, resolution=8):
    """Drive an index and a dict model with the same operation stream."""
    model = {}
    results = []
    for op, node, eighths in ops:
        gain = eighths / resolution
        if op == "insert":
            if node in model:
                continue
            model[node] = gain
            index.insert(node, gain)
        elif op == "adjust":
            if node not in model:
                continue
            model[node] += gain
            index.adjust(node, gain)
        elif op == "remove":
            model.pop(node, None)
            index.remove(node)
        else:  # pop
            popped = index.pop_max()
            if model:
                assert popped is not None
                pnode, pgain = popped
                max_gain = max(model.values())
                assert pgain == pytest.approx(max_gain)
                assert model[pnode] == pytest.approx(max_gain)
                del model[pnode]
            else:
                assert popped is None
            results.append(popped)
        assert len(index) == len(model)
    return results


@given(_ops)
@settings(max_examples=100, deadline=None)
def test_bucket_index_matches_dict_model(ops):
    # max |gain|: 16 ops * 8 eighths each is far below 200.
    index = BucketGainIndex(16, max_abs_gain=520, resolution=8)
    _apply_ops(index, ops)


@given(_ops)
@settings(max_examples=100, deadline=None)
def test_heap_index_matches_dict_model(ops):
    _apply_ops(HeapGainIndex(), ops)


@given(_ops)
@settings(max_examples=60, deadline=None)
def test_bucket_and_heap_pop_equal_gains(ops):
    """Both indexes must pop the same *gain values* for the same stream
    (popped nodes may differ only within exact ties)."""
    bucket = BucketGainIndex(16, max_abs_gain=520, resolution=8)
    heap = HeapGainIndex()
    bucket_pops = _apply_ops(bucket, ops)
    heap_pops = _apply_ops(heap, ops)
    bucket_gains = [p[1] for p in bucket_pops if p is not None]
    heap_gains = [p[1] for p in heap_pops if p is not None]
    assert bucket_gains == pytest.approx(heap_gains)


def _eager_top_nodes(index, count):
    """The eager list ``top_nodes`` returned before it became a lazy
    walk, rebuilt from the index internals: buckets from the top of the
    array down, LIFO within a bucket; the heap's stable sort by gain."""
    if isinstance(index, BucketGainIndex):
        result = []
        idx = len(index._heads) - 1
        while idx >= 0 and len(result) < count:
            node = index._heads[idx]
            while node != BucketGainIndex._ABSENT and len(result) < count:
                result.append(node)
                node = index._next[node]
            idx -= 1
        return result
    if count < 1:
        return []
    ordered = sorted(index._gain.items(), key=lambda item: -item[1])
    return [node for node, _ in ordered[:count]]


_walk_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "adjust", "remove", "pop"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=-16, max_value=16),  # gain in eighths
        st.integers(min_value=0, max_value=20),  # walk length
    ),
    max_size=80,
)


@pytest.mark.parametrize(
    "make_index",
    [lambda: BucketGainIndex(16, max_abs_gain=260, resolution=8), HeapGainIndex],
    ids=["bucket", "heap"],
)
@given(ops=_walk_ops)
@settings(max_examples=100, deadline=None)
def test_lazy_walk_matches_eager_list(make_index, ops):
    """After every insert/adjust/remove/pop, the lazy walk yields exactly
    the eager list, whole or cut short the way the prefetch buffer cuts
    it. Narrow gains force ties, so the tie order is exercised."""
    index = make_index()
    for op, node, eighths, count in ops:
        gain = eighths / 8
        if op == "insert":
            if node not in index:
                index.insert(node, gain)
        elif op == "adjust":
            if node in index:
                index.adjust(node, gain)
        elif op == "remove":
            index.remove(node)
        else:
            index.pop_max()
        expected = _eager_top_nodes(index, count)
        assert list(index.top_nodes(count)) == expected
        walk = index.top_nodes(count)
        assert [node for node, _ in zip(walk, range(count // 2))] == (
            expected[: count // 2]
        )


# ----------------------------------------------------------------------
# CSR-path property tests: drive the *real* per-switch update
# (adjust_neighbor_gains over a PartitionState) and check every indexed
# gain against brute-force recomputation via switch_gain.
# ----------------------------------------------------------------------


def _drive_csr_switches(index, state, k, max_switches=12):
    """Pop/switch/adjust like a KL pass, checking gains at every step."""
    eligible = [u for u in state.view.active_nodes() if not state.locked[u]]
    for u in eligible:
        index.insert(u, state.switch_gain(u, k))
    for _ in range(max_switches):
        popped = index.pop_max()
        if popped is None:
            break
        u, gain = popped
        assert not state.locked[u]
        assert state.view.is_active(u)
        assert gain == pytest.approx(state.switch_gain(u, k))
        prev_side = state.sides[u]
        state.switch(u)
        adjust_neighbor_gains(index, state, u, prev_side, k)
        for v in eligible:
            if v in index:
                assert index.gain_of(v) == pytest.approx(state.switch_gain(v, k))
    assert state.verify_counts()


_node_sets = st.sets(st.integers(min_value=0, max_value=23), max_size=8)


@given(graphs_with_sides(), _node_sets)
@settings(max_examples=50, deadline=None)
def test_bucket_index_matches_brute_force_on_csr_path(graph_and_sides, locked_set):
    """On-grid k: the bucket list tracks switch_gain exactly, and frozen
    seeds (locked nodes) stay out of the index entirely."""
    graph, sides = graph_and_sides
    k = 0.625  # 5/8 — on the resolution-8 grid
    locked = [u in locked_set for u in range(graph.num_nodes)]
    state = PartitionState(graph.csr().view(), sides, locked=locked)
    index = BucketGainIndex(
        graph.num_nodes, max_abs_gain=state.max_abs_gain(k), resolution=8
    )
    _drive_csr_switches(index, state, k)
    for u in range(graph.num_nodes):
        if locked[u]:
            assert state.sides[u] == sides[u]


@given(graphs_with_sides(), _node_sets, _node_sets)
@settings(max_examples=50, deadline=None)
def test_heap_index_matches_brute_force_on_residual_view(
    graph_and_sides, locked_set, removed_set
):
    """Off-grid k on a residual view: the lazy heap tracks switch_gain
    computed over *active* neighbors only."""
    graph, sides = graph_and_sides
    k = 0.3  # off-grid: the real sweep would route this to the heap
    removed = {u for u in removed_set if u < graph.num_nodes}
    locked = [u in locked_set for u in range(graph.num_nodes)]
    view = graph.csr().view().without(removed)
    state = PartitionState(view, sides, locked=locked)
    _drive_csr_switches(HeapGainIndex(), state, k)
    for u in removed:
        assert state.sides[u] == sides[u]


def test_rejection_edge_asymmetry_on_csr_path():
    """Rejections are directed: only side-0 → side-1 rejections count,
    so flipping an edge's direction changes the indexed gains."""
    k = 1.0
    sides = [0, 0, 1]
    forward = AugmentedSocialGraph.from_edges(
        3, friendships=[(0, 1)], rejections=[(0, 2)]
    )
    reverse = AugmentedSocialGraph.from_edges(
        3, friendships=[(0, 1)], rejections=[(2, 0)]
    )
    fwd_state = PartitionState(forward.csr().view(), list(sides))
    rev_state = PartitionState(reverse.csr().view(), list(sides))
    # (0 → 2) is a cross rejection (legit caster, suspicious target);
    # (2 → 0) is not, so node 2's switch gain differs by k.
    assert fwd_state.r_cross == 1
    assert rev_state.r_cross == 0
    assert fwd_state.switch_gain(2, k) != rev_state.switch_gain(2, k)
    for state in (fwd_state, rev_state):
        index = HeapGainIndex()
        for u in range(3):
            index.insert(u, state.switch_gain(u, k))
        _u, gain = index.pop_max()
        assert gain == max(state.switch_gain(v, k) for v in range(3))
