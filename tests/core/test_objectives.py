"""Tests for the MAAR cut-accounting primitives."""

import math

import pytest
from hypothesis import given, settings

from repro.core import (
    AugmentedSocialGraph,
    LEGITIMATE,
    SUSPICIOUS,
    acceptance_rate,
    friends_to_rejections_ratio,
)

from ..conftest import graphs_with_sides
from .partition_oracle import (
    cross_friendships,
    cross_rejections_into_suspicious,
    cut_counts,
    linear_objective,
)


class TestCrossFriendships:
    def test_counts_only_cross_edges(self):
        graph = AugmentedSocialGraph.from_edges(
            4, friendships=[(0, 1), (2, 3), (0, 2)]
        )
        sides = [0, 0, 1, 1]
        assert cross_friendships(graph, sides) == 1  # only (0, 2)

    def test_direction_free(self):
        graph = AugmentedSocialGraph.from_edges(2, friendships=[(0, 1)])
        assert cross_friendships(graph, [0, 1]) == 1
        assert cross_friendships(graph, [1, 0]) == 1


class TestCrossRejections:
    def test_counts_only_legit_to_suspicious(self):
        graph = AugmentedSocialGraph.from_edges(
            4,
            rejections=[
                (0, 2),  # legit rejects suspicious: counted
                (2, 0),  # suspicious rejects legit: NOT counted
                (2, 3),  # suspicious rejects suspicious: NOT counted
                (0, 1),  # legit rejects legit: NOT counted
            ],
        )
        sides = [LEGITIMATE, LEGITIMATE, SUSPICIOUS, SUSPICIOUS]
        assert cross_rejections_into_suspicious(graph, sides) == 1

    def test_collusion_edges_do_not_enter_objective(self):
        """Friendships and rejections internal to the fake region leave
        the cut counters unchanged — the core of collusion resistance."""
        graph = AugmentedSocialGraph.from_edges(
            4, friendships=[(0, 2)], rejections=[(1, 2), (1, 3)]
        )
        sides = [0, 0, 1, 1]
        base = cut_counts(graph, sides)
        graph.add_friendship(2, 3)  # collusion edge
        graph.add_rejection(3, 2)  # self-rejection edge
        assert cut_counts(graph, sides) == base


class TestRates:
    def test_acceptance_rate(self):
        assert acceptance_rate(6, 14) == pytest.approx(0.3)
        assert acceptance_rate(0, 10) == 0.0
        assert acceptance_rate(10, 0) == 1.0

    def test_acceptance_rate_of_empty_cut_is_least_suspicious(self):
        assert acceptance_rate(0, 0) == 1.0

    def test_ratio(self):
        assert friends_to_rejections_ratio(6, 3) == pytest.approx(2.0)
        assert friends_to_rejections_ratio(5, 0) == math.inf

    def test_ratio_and_acceptance_order_identically(self):
        """Minimizing the ratio is equivalent to minimizing the rate."""
        cuts = [(6, 14), (10, 10), (1, 9), (50, 1), (0, 5)]
        by_rate = sorted(cuts, key=lambda c: acceptance_rate(*c))
        by_ratio = sorted(cuts, key=lambda c: friends_to_rejections_ratio(*c))
        assert by_rate == by_ratio

    def test_linear_objective(self):
        assert linear_objective(10, 4, 2.5) == pytest.approx(0.0)
        assert linear_objective(10, 4, 0.125) == pytest.approx(9.5)


@given(graphs_with_sides())
@settings(max_examples=60, deadline=None)
def test_cut_counts_are_bounded_by_edge_totals(case):
    graph, sides = case
    f_cross, r_cross = cut_counts(graph, sides)
    assert 0 <= f_cross <= graph.num_friendships
    assert 0 <= r_cross <= graph.num_rejections


@given(graphs_with_sides())
@settings(max_examples=60, deadline=None)
def test_friendship_count_is_complement_invariant(case):
    """``|F(Ū,U)|`` is symmetric under swapping the two sides; the
    rejection counter is not (it is directional by design)."""
    graph, sides = case
    flipped = [1 - s for s in sides]
    assert cross_friendships(graph, sides) == cross_friendships(graph, flipped)


@given(graphs_with_sides())
@settings(max_examples=60, deadline=None)
def test_rejection_count_complement_sums_to_cross_rejections(case):
    """``R⃗⟨Ū,U⟩ + R⃗⟨U,Ū⟩`` equals the number of rejections whose
    endpoints straddle the cut."""
    graph, sides = case
    flipped = [1 - s for s in sides]
    both = cross_rejections_into_suspicious(
        graph, sides
    ) + cross_rejections_into_suspicious(graph, flipped)
    straddling = sum(1 for u, v in graph.rejections() if sides[u] != sides[v])
    assert both == straddling
