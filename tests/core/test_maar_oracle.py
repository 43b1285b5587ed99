"""The MAAR ``k`` sweep against the exact oracle of ``maar_oracle``.

The sweep (Theorem 1's geometric ``k`` grid plus extended KL, stopped
at the first step that cannot win) is a heuristic. These tests check
what must hold regardless: its winner is a valid cut whose counters
recount exactly and that never beats the exhaustive optimum, and its
``per_k`` is the full grid's prefix ending at the stop step. On a fixed,
seeded set of graphs they pin how often stopping early picks a different
winner than the full grid, and how far both land from the exact optimum.
"""

import random

import pytest
from hypothesis import given, settings

from repro.core import AugmentedSocialGraph, MAARConfig, solve_maar

from ..conftest import augmented_graphs, random_augmented_graph
from .maar_oracle import (
    MAX_EXACT_NODES,
    candidate_key,
    cut_is_valid,
    exact_maar,
    full_grid,
    grid_winner,
    per_k_values,
    stop_index,
)
from .partition_oracle import cut_counts

CONFIGS = {
    "default": MAARConfig(),
    "evidence": MAARConfig(min_evidence=1.0),
    "tight": MAARConfig(min_suspicious=2, max_suspicious_fraction=0.4),
}


class TestExactOracle:
    @given(augmented_graphs(max_nodes=9, max_edges=20))
    @settings(max_examples=40, deadline=None)
    def test_oracle_matches_brute_force(self, graph):
        """The Gray-code walk agrees with a from-scratch recount of
        every cut."""
        config = MAARConfig()
        n = graph.num_nodes
        best = None
        for mask in range(1 << n):
            sides = [mask >> u & 1 for u in range(n)]
            f_cross, r_cross = cut_counts(graph, sides)
            if cut_is_valid(sum(sides), n, r_cross, config):
                key = (f_cross / (f_cross + r_cross), -r_cross)
                if best is None or key < best:
                    best = key
        exact = exact_maar(graph, config)
        assert (exact.key() if exact else None) == best
        if exact is not None:
            sides = [1 if u in exact.suspicious else 0 for u in range(n)]
            assert cut_counts(graph, sides) == (exact.f_cross, exact.r_cross)

    def test_oracle_refuses_large_graphs(self):
        with pytest.raises(ValueError):
            exact_maar(AugmentedSocialGraph(MAX_EXACT_NODES + 1))


class TestSweepAgainstOracle:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @given(graph=augmented_graphs(max_nodes=12, max_edges=30))
    @settings(max_examples=40, deadline=None)
    def test_winner_valid_and_never_beats_exact(self, name, graph):
        config = CONFIGS[name]
        result = solve_maar(graph, config)
        exact = exact_maar(graph, config)
        if exact is None:
            assert not result.found
        if not result.found:
            return
        sides = result.partition.sides
        f_cross, r_cross = cut_counts(graph, sides)
        assert (f_cross, r_cross) == (
            result.partition.f_cross,
            result.partition.r_cross,
        )
        assert cut_is_valid(sum(sides), graph.num_nodes, r_cross, config)
        assert (result.acceptance_rate, -r_cross) >= exact.key()

    @given(augmented_graphs(max_nodes=12, max_edges=30))
    @settings(max_examples=25, deadline=None)
    def test_per_k_is_full_grid_prefix(self, graph):
        config = MAARConfig()
        result = solve_maar(graph, config)
        grid = full_grid(graph, config)
        run = grid[: stop_index(grid) + 1]
        assert per_k_values(result.per_k) == per_k_values(run)
        winner = grid_winner(run)
        assert result.found == (winner is not None)
        if winner is not None:
            assert result.k == winner.k
            assert (result.acceptance_rate, -result.partition.r_cross) == (
                candidate_key(winner)
            )


#: The fixed graph set: ``PINNED_GRAPHS`` graphs of 6–20 nodes, sizes
#: drawn from ``random.Random(2026)`` and edges from
#: ``random_augmented_graph(..., seed=i)``.
PINNED_GRAPHS = 300

#: Over the pinned set the early exit runs 2,104 of the full grid's
#: 3,000 steps. It picks a different winner than the full grid on 2 of
#: the 268 graphs with a valid cut, at a different rate on 1. Of the 182
#: graphs with at most 16 nodes, both reach the exact optimum on the
#: same 112; both are at most 5/9 above it.
PINNED_SUMMARY = {
    "found": 268,
    "steps_run": 2104,
    "winner_key_differs": 2,
    "winner_rate_differs": 1,
    "exact_graphs": 182,
    "early_at_exact": 112,
    "full_at_exact": 112,
    "early_gap": 5 / 9,
    "full_gap": 5 / 9,
}


def pinned_graphs():
    rng = random.Random(2026)
    for i in range(PINNED_GRAPHS):
        n = rng.randint(6, 20)
        yield random_augmented_graph(
            n, rng.randint(0, 2 * n), rng.randint(1, 2 * n), seed=i
        )


@pytest.fixture(scope="module")
def pinned_summary():
    """Early exit vs full grid vs exact optimum over the pinned set."""
    summary = {
        "steps_run": 0,
        "found": 0,
        "winner_key_differs": 0,
        "winner_rate_differs": 0,
        "exact_graphs": 0,
        "early_at_exact": 0,
        "full_at_exact": 0,
        "early_gap": 0.0,
        "full_gap": 0.0,
    }
    for graph in pinned_graphs():
        result = solve_maar(graph)
        grid = full_grid(graph)
        assert per_k_values(result.per_k) == per_k_values(
            grid[: stop_index(grid) + 1]
        )
        summary["steps_run"] += len(result.per_k)
        winner = grid_winner(grid)
        assert result.found == (winner is not None)
        if not result.found:
            continue
        summary["found"] += 1
        early = (result.acceptance_rate, -result.partition.r_cross)
        full = candidate_key(winner)
        summary["winner_key_differs"] += early != full
        summary["winner_rate_differs"] += early[0] != full[0]
        if graph.num_nodes > MAX_EXACT_NODES:
            continue
        exact = exact_maar(graph)
        summary["exact_graphs"] += 1
        summary["early_at_exact"] += early == exact.key()
        summary["full_at_exact"] += full == exact.key()
        summary["early_gap"] = max(
            summary["early_gap"], early[0] - exact.acceptance_rate
        )
        summary["full_gap"] = max(summary["full_gap"], full[0] - exact.acceptance_rate)
    return summary


class TestEarlyExitOnPinnedGraphs:
    """Pinned outcomes; a change to the sweep, the stop rule or KL that
    moves any of them is a result change to judge, not noise."""

    def test_steps_run(self, pinned_summary):
        assert pinned_summary["found"] == PINNED_SUMMARY["found"]
        assert pinned_summary["steps_run"] == PINNED_SUMMARY["steps_run"]
        assert pinned_summary["steps_run"] < 10 * PINNED_GRAPHS

    def test_early_exit_vs_full_grid(self, pinned_summary):
        for name in ("winner_key_differs", "winner_rate_differs"):
            assert pinned_summary[name] == PINNED_SUMMARY[name], name

    def test_gap_to_exact_optimum(self, pinned_summary):
        for name in ("exact_graphs", "early_at_exact", "full_at_exact"):
            assert pinned_summary[name] == PINNED_SUMMARY[name], name
        for name in ("early_gap", "full_gap"):
            assert pinned_summary[name] == pytest.approx(PINNED_SUMMARY[name]), name

