"""Tests for SybilRank and the naive rejection filter."""

import random

import pytest

from repro.attacks import (
    ScenarioConfig,
    SybilRegionConfig,
    build_scenario,
    inject_sybil_region,
)
from repro.baselines import (
    SybilRank,
    SybilRankConfig,
    naive_rejection_filter,
    rejection_rate_scores,
)
from repro.core import AugmentedSocialGraph
from repro.graphgen import barabasi_albert
from repro.metrics import auc_from_scores


def sybil_world(attack_edges: int, seed: int = 0):
    """500 legit users + 100 Sybils joined by ``attack_edges`` edges."""
    rng = random.Random(seed)
    graph = barabasi_albert(500, 4, rng)
    fakes = inject_sybil_region(
        graph, SybilRegionConfig(num_fakes=100, intra_links_per_fake=4), rng
    )
    for _ in range(attack_edges):
        graph.add_friendship(rng.randrange(500), fakes[rng.randrange(100)])
    return graph, fakes


class TestSybilRank:
    def test_few_attack_edges_separate_well(self):
        graph, fakes = sybil_world(attack_edges=5)
        scores = SybilRank().rank(graph, trusted_seeds=list(range(20)))
        assert auc_from_scores(scores, fakes) > 0.95

    def test_many_attack_edges_blur_separation(self):
        few_graph, few_fakes = sybil_world(attack_edges=5)
        many_graph, many_fakes = sybil_world(attack_edges=800)
        ranker = SybilRank()
        auc_few = auc_from_scores(
            ranker.rank(few_graph, list(range(20))), few_fakes
        )
        auc_many = auc_from_scores(
            ranker.rank(many_graph, list(range(20))), many_fakes
        )
        assert auc_many < auc_few

    def test_trust_mass_is_conserved_before_normalization(self):
        graph, _ = sybil_world(attack_edges=5)
        config = SybilRankConfig(total_trust=1000.0, iterations=4)
        ranker = SybilRank(config)
        scores = ranker.rank(graph, trusted_seeds=list(range(10)))
        total = sum(
            scores[u] * len(graph.friends[u]) for u in range(graph.num_nodes)
        )
        assert total == pytest.approx(1000.0)

    def test_isolated_node_is_least_trusted(self):
        graph = AugmentedSocialGraph.from_edges(4, friendships=[(0, 1), (1, 2)])
        scores = SybilRank().rank(graph, trusted_seeds=[0])
        assert scores[3] == 0.0

    def test_seeds_required(self):
        graph = AugmentedSocialGraph(3)
        with pytest.raises(ValueError):
            SybilRank().rank(graph, trusted_seeds=[])

    def test_most_suspicious_orders_ascending_trust(self):
        graph, fakes = sybil_world(attack_edges=5)
        bottom = SybilRank().most_suspicious(graph, list(range(20)), 100)
        overlap = len(set(bottom) & set(fakes))
        assert overlap > 90

    def test_explicit_iteration_override(self):
        graph, fakes = sybil_world(attack_edges=5)
        ranker = SybilRank(SybilRankConfig(iterations=2))
        scores = ranker.rank(graph, trusted_seeds=list(range(20)))
        assert len(scores) == graph.num_nodes


class TestNaiveRejectionFilter:
    def test_scores_reflect_rejection_share(self):
        graph = AugmentedSocialGraph.from_edges(
            4, friendships=[(0, 1)], rejections=[(2, 3), (0, 3)]
        )
        scores = rejection_rate_scores(graph)
        assert scores[3] == 1.0  # only rejections
        assert scores[0] == 0.0  # only friends
        assert scores[2] == 0.0  # no activity at all

    def test_detects_unsophisticated_spammers(self):
        scenario = build_scenario(
            ScenarioConfig(num_legit=600, num_fakes=120, seed=13)
        )
        detected = naive_rejection_filter(scenario.graph, 120)
        assert scenario.precision_recall(detected).precision > 0.85

    def test_collusion_defeats_it(self):
        """The motivating failure (Section VI-C): intra-fake edges dilute
        every colluder's individual rejection rate."""
        scenario = build_scenario(
            ScenarioConfig(
                num_legit=600, num_fakes=120, collusion_extra_links=40, seed=13
            )
        )
        detected = naive_rejection_filter(scenario.graph, 120)
        assert scenario.precision_recall(detected).precision < 0.5

    def test_count_respected(self):
        graph = AugmentedSocialGraph.from_edges(5, rejections=[(0, 1), (0, 2)])
        assert len(naive_rejection_filter(graph, 3)) == 3
