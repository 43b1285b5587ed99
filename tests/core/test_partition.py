"""Tests for the incremental partition counters: the dict-adjacency
oracle itself, and ``PartitionState`` (the CSR cut every solver runs on)
tracking the oracles switch by switch on residual and weighted views."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AugmentedSocialGraph
from repro.core.csr import PartitionState

from ..conftest import graphs_with_sides
from .partition_oracle import Partition, cut_counts, induced
from .weighted_oracle import WeightedPartition, from_csr

try:
    import numpy  # noqa: F401

    BACKENDS = ("python", "numpy")
except ImportError:  # pragma: no cover
    BACKENDS = ("python",)


class TestConstruction:
    def test_all_legitimate(self):
        graph = AugmentedSocialGraph.from_edges(3, [(0, 1)], [(2, 0)])
        p = Partition.all_legitimate(graph)
        assert p.suspicious_size == 0
        assert p.f_cross == 0
        assert p.r_cross == 0

    def test_from_suspicious_set(self):
        graph = AugmentedSocialGraph.from_edges(3, [(0, 1)], [(0, 2)])
        p = Partition.from_suspicious_set(graph, [2])
        assert p.suspicious_nodes() == [2]
        assert p.f_cross == 0
        assert p.r_cross == 1

    def test_length_mismatch_rejected(self):
        graph = AugmentedSocialGraph(3)
        with pytest.raises(ValueError):
            Partition(graph, [0, 1])

    def test_invalid_side_rejected(self):
        graph = AugmentedSocialGraph(2)
        with pytest.raises(ValueError):
            Partition(graph, [0, 2])

    def test_initial_counts_match_scratch(self):
        graph = AugmentedSocialGraph.from_edges(
            4, friendships=[(0, 1), (1, 2), (2, 3)], rejections=[(0, 3), (3, 0)]
        )
        sides = [0, 1, 0, 1]
        p = Partition(graph, sides)
        assert (p.f_cross, p.r_cross) == cut_counts(graph, sides)


class TestSwitch:
    def test_switch_updates_sides_and_sizes(self):
        graph = AugmentedSocialGraph(3)
        p = Partition.all_legitimate(graph)
        p.switch(1)
        assert p.sides == [0, 1, 0]
        assert p.suspicious_size == 1
        assert p.legitimate_size == 2
        p.switch(1)
        assert p.sides == [0, 0, 0]

    def test_switch_friendship_counter(self):
        graph = AugmentedSocialGraph.from_edges(2, friendships=[(0, 1)])
        p = Partition.all_legitimate(graph)
        p.switch(1)
        assert p.f_cross == 1
        p.switch(0)
        assert p.f_cross == 0

    def test_switch_rejection_counter_directional(self):
        graph = AugmentedSocialGraph.from_edges(2, rejections=[(0, 1)])
        p = Partition.all_legitimate(graph)
        p.switch(1)  # 1 becomes suspicious; 0 rejects it -> counted
        assert p.r_cross == 1
        p.switch(0)  # rejecter also suspicious -> no longer counted
        assert p.r_cross == 0
        p.switch(1)  # now 0 suspicious, 1 legit; edge 0->1 points out -> 0
        assert p.r_cross == 0

    def test_switch_gain_matches_actual_change(self):
        graph = AugmentedSocialGraph.from_edges(
            5,
            friendships=[(0, 1), (1, 2), (3, 4)],
            rejections=[(0, 3), (1, 3), (4, 2)],
        )
        p = Partition.from_suspicious_set(graph, [3, 4])
        k = 1.5
        for u in range(5):
            predicted = p.switch_gain(u, k)
            before = p.objective(k)
            p.switch(u)
            after = p.objective(k)
            assert predicted == pytest.approx(before - after)
            p.switch(u)  # restore

    def test_copy_is_independent(self):
        graph = AugmentedSocialGraph.from_edges(2, friendships=[(0, 1)])
        p = Partition.all_legitimate(graph)
        q = p.copy()
        q.switch(0)
        assert p.sides == [0, 0]
        assert p.f_cross == 0
        assert q.f_cross == 1


class TestQueries:
    def test_acceptance_rate_and_ratio(self):
        graph = AugmentedSocialGraph.from_edges(
            3, friendships=[(0, 2)], rejections=[(0, 1), (1, 2)]
        )
        p = Partition.from_suspicious_set(graph, [2])
        # cross friendships: (0,2); counted rejections: (1,2).
        assert p.f_cross == 1
        assert p.r_cross == 1
        assert p.acceptance_rate() == pytest.approx(0.5)
        assert p.ratio() == pytest.approx(1.0)

    def test_verify_counts(self):
        graph = AugmentedSocialGraph.from_edges(3, [(0, 1)], [(2, 1)])
        p = Partition.from_suspicious_set(graph, [1])
        assert p.verify_counts()
        p.switch(2)
        p.switch(0)
        assert p.verify_counts()


@given(graphs_with_sides(), st.data())
@settings(max_examples=60, deadline=None)
def test_incremental_counters_match_scratch_after_random_switches(case, data):
    """Property: any sequence of switches leaves the incremental counters
    equal to a from-scratch recount."""
    graph, sides = case
    p = Partition(graph, sides)
    moves = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=graph.num_nodes - 1), max_size=30
        )
    )
    for u in moves:
        p.switch(u)
    assert (p.f_cross, p.r_cross) == cut_counts(graph, p.sides)
    assert p.side_sizes == [p.sides.count(0), p.sides.count(1)]


@given(graphs_with_sides(), st.data())
@settings(max_examples=60, deadline=None)
def test_switch_gain_is_exact_objective_delta(case, data):
    graph, sides = case
    p = Partition(graph, sides)
    u = data.draw(st.integers(min_value=0, max_value=graph.num_nodes - 1))
    k = data.draw(
        st.floats(min_value=0.125, max_value=64, allow_nan=False).map(
            lambda x: round(x * 8) / 8 or 0.125
        )
    )
    predicted = p.switch_gain(u, k)
    before = p.objective(k)
    p.switch(u)
    assert predicted == pytest.approx(before - p.objective(k))


@given(graphs_with_sides(), st.data())
@settings(max_examples=40, deadline=None)
def test_double_switch_is_identity(case, data):
    graph, sides = case
    p = Partition(graph, sides)
    u = data.draw(st.integers(min_value=0, max_value=graph.num_nodes - 1))
    snapshot = (list(p.sides), p.f_cross, p.r_cross)
    p.switch(u)
    p.switch(u)
    assert (list(p.sides), p.f_cross, p.r_cross) == snapshot


def assert_state_tracks_oracle(state, oracle, moves, k=0.75):
    """Switch ``moves`` on both; after every switch the CSR state's
    counters and every active node's gain equal the oracle's."""
    active = state.view.active
    nodes = [u for u in range(len(state.sides)) if active[u]]
    for u in moves:
        state.switch(u)
        oracle.switch(u)
        assert state.sides == oracle.sides
        assert (state.f_cross, state.r_cross) == (oracle.f_cross, oracle.r_cross)
        for v in nodes:
            assert state.switch_gain(v, k) == oracle.switch_gain(v, k)
    assert state.verify_counts()


class TestPartitionStateOracle:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(graphs_with_sides(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_residual_view_tracks_oracle(self, backend, case, data):
        graph, sides = case
        view = graph.csr(backend).view().without(range(1, graph.num_nodes, 4))
        nodes = [u for u in range(graph.num_nodes) if view.active[u]]
        moves = data.draw(st.lists(st.sampled_from(nodes), max_size=12))
        state = PartitionState(view, sides)
        oracle = Partition(induced(graph, view.active), sides)
        assert (state.f_cross, state.r_cross) == (oracle.f_cross, oracle.r_cross)
        assert_state_tracks_oracle(state, oracle, moves)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("residual", (False, True))
    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_view_tracks_oracle(self, backend, residual, seed):
        from .test_weighted_parity import coarse_state

        csr, sides = coarse_state(seed, levels=2, backend=backend)
        view = csr.view()
        if residual:
            view = view.without(range(0, csr.num_nodes, 3))
        nodes = [u for u in range(csr.num_nodes) if view.active[u]]
        moves = random.Random(seed).choices(nodes, k=15)
        state = PartitionState(view, sides)
        oracle = WeightedPartition(from_csr(csr, view.active), sides)
        assert (state.f_cross, state.r_cross) == (oracle.f_cross, oracle.r_cross)
        assert_state_tracks_oracle(state, oracle, moves)
