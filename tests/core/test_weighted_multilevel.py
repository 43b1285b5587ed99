"""Tests for the weighted substrate and the multilevel MAAR solver."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import ScenarioConfig, build_scenario
from repro.core import Partition, solve_maar
from repro.core.csr import PartitionState
from repro.core.kernels import heavy_edge_matching, matching_to_mapping
from repro.core.kl import extended_kl_state
from repro.core.multilevel import MultilevelConfig, solve_maar_multilevel
from repro.metrics import precision_recall

from ..conftest import augmented_graphs, graphs_with_sides
from .weighted_oracle import WeightedAugmentedGraph, WeightedPartition


class TestWeightedGraph:
    def test_weights_accumulate(self):
        graph = WeightedAugmentedGraph(3)
        graph.add_friendship(0, 1, 1.0)
        graph.add_friendship(1, 0, 2.5)
        assert graph.friends[0][1] == pytest.approx(3.5)
        assert graph.friends[1][0] == pytest.approx(3.5)
        graph.add_rejection(0, 2, 1.5)
        graph.add_rejection(0, 2, 0.5)
        assert graph.rej_out[0][2] == pytest.approx(2.0)
        assert graph.rej_in[2][0] == pytest.approx(2.0)

    def test_totals(self):
        graph = WeightedAugmentedGraph(3)
        graph.add_friendship(0, 1, 2.0)
        graph.add_friendship(1, 2, 3.0)
        graph.add_rejection(2, 0, 4.0)
        assert graph.total_friendship_weight() == pytest.approx(5.0)
        assert graph.total_rejection_weight() == pytest.approx(4.0)

    def test_validation(self):
        graph = WeightedAugmentedGraph(2)
        with pytest.raises(ValueError):
            graph.add_friendship(0, 0, 1.0)
        with pytest.raises(ValueError):
            graph.add_friendship(0, 1, 0.0)
        with pytest.raises(ValueError):
            graph.add_rejection(1, 1, 1.0)


@given(graphs_with_sides(max_nodes=16, max_edges=40))
@settings(max_examples=40, deadline=None)
def test_unit_weights_match_unweighted_counters(case):
    """A unit-weight embedding must reproduce the plain cut counters."""
    graph, sides = case
    weighted = WeightedAugmentedGraph.from_graph(graph)
    wp = WeightedPartition(weighted, sides)
    plain = Partition(graph, sides)
    assert wp.f_cross == pytest.approx(plain.f_cross)
    assert wp.r_cross == pytest.approx(plain.r_cross)
    for u in range(graph.num_nodes):
        assert wp.switch_gain(u, 1.5) == pytest.approx(plain.switch_gain(u, 1.5))


@given(graphs_with_sides(max_nodes=14, max_edges=30), st.data())
@settings(max_examples=30, deadline=None)
def test_weighted_switch_matches_recount(case, data):
    graph, sides = case
    weighted = WeightedAugmentedGraph.from_graph(graph)
    wp = WeightedPartition(weighted, sides)
    moves = data.draw(
        st.lists(st.integers(min_value=0, max_value=graph.num_nodes - 1), max_size=15)
    )
    for u in moves:
        wp.switch(u)
    fresh = WeightedPartition(weighted, wp.sides)
    assert wp.f_cross == pytest.approx(fresh.f_cross)
    assert wp.r_cross == pytest.approx(fresh.r_cross)


def weighted_kl(weighted, k, init):
    """Run the CSR KL engine on a weighted builder's finalization."""
    state = PartitionState(weighted.csr().view(), init)
    return extended_kl_state(state, k)


def shuffled_matching(csr, seed, locked=None):
    priority = list(range(csr.num_nodes))
    random.Random(seed).shuffle(priority)
    return heavy_edge_matching(csr, priority, locked)


def contract(csr, match):
    mapping, num_coarse = matching_to_mapping(match, csr.backend)
    return csr.contract(mapping, num_coarse), mapping


class TestCoarsening:
    def test_matching_is_valid(self):
        scenario = build_scenario(ScenarioConfig(num_legit=150, num_fakes=30))
        match = shuffled_matching(scenario.graph.csr(), 0)
        for u, v in enumerate(match):
            assert match[v] == u  # symmetric

    def test_locked_nodes_never_matched(self):
        scenario = build_scenario(ScenarioConfig(num_legit=100, num_fakes=20))
        csr = scenario.graph.csr()
        locked = [u < 10 for u in range(csr.num_nodes)]
        match = shuffled_matching(csr, 1, locked)
        for u in range(10):
            assert match[u] == u

    def test_coarsening_preserves_node_weight(self):
        scenario = build_scenario(ScenarioConfig(num_legit=100, num_fakes=20))
        csr = scenario.graph.csr()
        coarse, mapping = contract(csr, shuffled_matching(csr, 2))
        assert sum(coarse.node_weight) == csr.num_nodes
        assert coarse.num_nodes < csr.num_nodes
        assert all(0 <= c < coarse.num_nodes for c in mapping)

    def test_coarse_cut_weight_equals_projected_fine_cut(self):
        """The contraction invariant: for any coarse partition, the cut
        weights equal those of the projected fine partition (counted by
        the dict-adjacency :class:`WeightedPartition`)."""
        scenario = build_scenario(ScenarioConfig(num_legit=120, num_fakes=25))
        csr = scenario.graph.csr()
        coarse, mapping = contract(csr, shuffled_matching(csr, 3))
        rng = random.Random(4)
        coarse_sides = [rng.randint(0, 1) for _ in range(coarse.num_nodes)]
        fine_sides = [coarse_sides[mapping[u]] for u in range(csr.num_nodes)]
        cp = PartitionState(coarse.view(), coarse_sides)
        fp = WeightedPartition(
            WeightedAugmentedGraph.from_graph(scenario.graph), fine_sides
        )
        assert cp.f_cross == pytest.approx(fp.f_cross)
        assert cp.r_cross == pytest.approx(fp.r_cross)


class TestWeightedKL:
    def test_matches_detection_on_planted_instance(self):
        scenario = build_scenario(ScenarioConfig(num_legit=300, num_fakes=60))
        weighted = WeightedAugmentedGraph.from_graph(scenario.graph)
        init = [1 if scenario.graph.rej_in[u] else 0 for u in range(weighted.num_nodes)]
        partition = weighted_kl(weighted, 2.0, init)
        suspicious = {u for u, s in enumerate(partition.sides) if s == 1}
        assert len(suspicious & set(scenario.fakes)) > 55

    def test_invalid_k(self):
        graph = WeightedAugmentedGraph(2)
        with pytest.raises(ValueError):
            weighted_kl(graph, 0.0, [0, 0])


class TestMultilevelSolver:
    def test_detects_planted_spammers(self):
        scenario = build_scenario(ScenarioConfig(num_legit=1000, num_fakes=200, seed=7))
        result = solve_maar_multilevel(scenario.graph)
        assert result.found
        assert result.levels >= 2  # actually coarsened
        metrics = precision_recall(result.suspicious, scenario.fakes)
        assert metrics.recall > 0.95
        assert metrics.precision > 0.9

    def test_acceptance_close_to_flat_solver(self):
        scenario = build_scenario(ScenarioConfig(num_legit=800, num_fakes=160, seed=9))
        multilevel = solve_maar_multilevel(scenario.graph)
        flat = solve_maar(scenario.graph)
        assert multilevel.acceptance_rate <= flat.acceptance_rate + 0.05

    def test_seeds_respected(self):
        scenario = build_scenario(ScenarioConfig(num_legit=400, num_fakes=80, seed=11))
        seeds = scenario.legit[:10]
        result = solve_maar_multilevel(scenario.graph, legit_seeds=seeds)
        assert not set(result.suspicious) & set(seeds)
        spam_seed = scenario.fakes[0]
        result = solve_maar_multilevel(scenario.graph, spammer_seeds=[spam_seed])
        assert spam_seed in result.suspicious

    def test_clean_graph_finds_nothing(self):
        from repro.graphgen import barabasi_albert

        graph = barabasi_albert(300, 3, random.Random(0))
        result = solve_maar_multilevel(graph)
        assert not result.found
        assert result.acceptance_rate == 1.0

    def test_empty_graph(self):
        from repro.core import AugmentedSocialGraph

        result = solve_maar_multilevel(AugmentedSocialGraph(0))
        assert not result.found

    def test_small_graph_skips_coarsening(self):
        scenario = build_scenario(ScenarioConfig(num_legit=100, num_fakes=20, seed=13))
        config = MultilevelConfig(coarsest_nodes=500)
        result = solve_maar_multilevel(scenario.graph, config)
        assert result.levels == 1  # already below the threshold
        assert result.found


class TestMultilevelEngines:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(ScenarioConfig(num_legit=800, num_fakes=160, seed=9))

    def test_csr_backends_agree(self, scenario):
        pytest.importorskip("numpy")
        python_result = solve_maar_multilevel(
            scenario.graph, MultilevelConfig(backend="python")
        )
        numpy_result = solve_maar_multilevel(
            scenario.graph, MultilevelConfig(backend="numpy")
        )
        assert python_result.suspicious == numpy_result.suspicious
        assert python_result.k == numpy_result.k
        assert python_result.level_sizes == numpy_result.level_sizes

    def test_jobs_do_not_change_the_result(self, scenario):
        serial = solve_maar_multilevel(scenario.graph, MultilevelConfig(jobs=1))
        fanned = solve_maar_multilevel(
            scenario.graph, MultilevelConfig(jobs=2, executor="thread")
        )
        assert serial.suspicious == fanned.suspicious
        assert serial.k == fanned.k

    def test_timings_recorded(self, scenario):
        result = solve_maar_multilevel(scenario.graph)
        assert result.found
        assert len(result.timings["coarsen"]) == result.levels - 1
        assert result.timings["coarse_sweep"] > 0
        # One refine entry per uncoarsening step plus the finest level.
        assert len(result.timings["refine"]) == result.levels - 1
        assert result.timings["total_seconds"] > 0

    def test_accepts_finalized_csr_graph(self, scenario):
        from_builder = solve_maar_multilevel(scenario.graph)
        from_csr = solve_maar_multilevel(scenario.graph.csr())
        assert from_csr.suspicious == from_builder.suspicious


@given(augmented_graphs(max_nodes=16, max_edges=40))
@settings(max_examples=25, deadline=None)
def test_weighted_kl_reaches_a_valid_local_minimum_on_unit_weights(graph):
    """KL on a unit-weight embedding, checked by the dict-adjacency
    counters: the result's counters match a plain recount of its sides,
    no single switch improves its objective, and it is at least as good
    as its own initial partition."""
    k = 2.0
    init = [1 if graph.rej_in[u] else 0 for u in range(graph.num_nodes)]
    weighted = WeightedAugmentedGraph.from_graph(graph)
    out = weighted_kl(weighted, k, init)
    wp = WeightedPartition(weighted, out.sides)
    assert (out.f_cross, out.r_cross) == (wp.f_cross, wp.r_cross)
    plain_view = Partition(graph, wp.sides)
    assert wp.f_cross == pytest.approx(plain_view.f_cross)
    assert wp.r_cross == pytest.approx(plain_view.r_cross)
    for u in range(graph.num_nodes):
        assert wp.switch_gain(u, k) <= 1e-9
    assert wp.objective(k) <= Partition(graph, init).objective(k) + 1e-9
