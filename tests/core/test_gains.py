"""Tests for KL's gain indexes: the heap the off-grid pass runs on, the
pass-body rule, and the inlined integer bucket list of
:func:`repro.core.kl._bucket_pass`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AugmentedSocialGraph,
    HeapGainIndex,
    KLConfig,
    PartitionState,
)
from repro.core.kl import _bucket_pass, _use_bucket, adjust_neighbor_gains

from ..conftest import graphs_with_sides


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


class TestFactory:
    """The pass-body rule: which body runs for a ``k`` and a view."""

    @staticmethod
    def view():
        graph = AugmentedSocialGraph.from_edges(
            4, friendships=[(0, 1)], rejections=[(2, 3)]
        )
        return graph.csr().view()

    def test_auto_picks_bucket_on_grid(self):
        assert _use_bucket(self.view(), 0.25) is True

    def test_auto_picks_heap_off_grid(self):
        assert _use_bucket(self.view(), 0.3) is False

    def test_unknown_kind_rejected(self):
        """There is no gain-index kind to name: a config that names one is
        refused when it is built."""
        with pytest.raises(TypeError, match="gain_index"):
            KLConfig(gain_index="fibonacci")


# ----------------------------------------------------------------------
# Property tests: the heap agrees with a naive dict reference.
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
        assert len(index) == len(model)


@given(_ops)
@settings(max_examples=100, deadline=None)
def test_heap_index_matches_dict_model(ops):
    _apply_ops(HeapGainIndex(), ops)


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


def _live_buckets(heads, nxt):
    """``{node: bucket}`` of every node still in a bucket list."""
    live = {}
    for b, v in enumerate(heads):
        while v >= 0:
            live[v] = b
            v = nxt[v]
    return live


@given(graphs_with_sides(), _node_sets)
@settings(max_examples=50, deadline=None)
def test_bucket_index_matches_brute_force_on_csr_path(graph_and_sides, locked_set):
    """On-grid k: at every pop of the fused bucket pass, each node still
    in the bucket list sits at the bucket of its brute-force switch_gain,
    the popped node's gain tops them all, and frozen seeds (locked
    nodes) never enter the list or switch."""
    graph, sides = graph_and_sides
    k = 0.625  # 5/8 — on the resolution-8 grid
    res = 8
    k_scaled = round(k * res)
    locked = [u in locked_set for u in range(graph.num_nodes)]
    csr = graph.csr()
    state = PartitionState(csr.view(), list(sides), locked=locked)
    offset = csr.bucket_gain_bound(res, k_scaled) + 1
    eligible = [u for u in range(graph.num_nodes) if not locked[u]]
    gain_b = [
        round(state.switch_gain(u, k) * res) + offset
        for u in range(graph.num_nodes)
    ]
    pops = []

    def source(u, heads, nxt, max_b, bucket_of):
        fresh = PartitionState(csr.view(), list(state.sides))
        live = _live_buckets(heads, nxt)
        assert len(live) == len(eligible) - len(pops) - 1
        assert live == {v: b for v, b in enumerate(bucket_of) if b >= 0}
        assert not set(live) & set(pops + [u])
        assert not any(locked[v] for v in live)
        for v, b in live.items():
            assert b == fresh.switch_gain(v, k) * res + offset
        assert max_b == fresh.switch_gain(u, k) * res + offset
        assert all(max_b >= b for b in live.values())
        pops.append(u)
        return graph.friends[u], graph.rej_out[u], graph.rej_in[u]

    applied, tested = _bucket_pass(
        state, eligible, gain_b, None, None, k_scaled, res, offset, None,
        source=source,
    )
    assert tested == len(pops) == len(eligible)
    assert applied == pops[: len(applied)]
    final = PartitionState(csr.view(), list(state.sides))
    assert (state.f_cross, state.r_cross) == (final.f_cross, final.r_cross)
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
