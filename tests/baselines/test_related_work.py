"""Tests for the Section VIII related-work implementations — including
the runnable versions of the paper's critiques of each."""

import random

import pytest

from repro.attacks import ScenarioConfig, build_scenario
from repro.baselines import (
    SignedTrust,
    SybilFence,
    SybilFenceConfig,
    balance_filter,
    balance_scores,
    triad_census,
)
from repro.core import AugmentedSocialGraph, Rejecto, RejectoConfig


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(ScenarioConfig(num_legit=500, num_fakes=100, seed=31))


class TestSignedTrust:
    def test_detects_unsophisticated_spammers(self, scenario):
        seeds, _ = scenario.sample_seeds(15, 0)
        ratings = [(r, s) for r, s in scenario.graph.rejections()]
        detected = SignedTrust().most_suspicious(
            scenario.graph, seeds, 100, negative_ratings=ratings
        )
        assert scenario.precision_recall(detected).precision > 0.6

    def test_seeds_required(self):
        graph = AugmentedSocialGraph(3)
        with pytest.raises(ValueError):
            SignedTrust().rank(graph, [])

    def test_negative_ratings_lower_scores(self):
        graph = AugmentedSocialGraph.from_edges(
            4, friendships=[(0, 1), (1, 2), (2, 3)]
        )
        ranker = SignedTrust()
        clean = ranker.rank(graph, [0])
        rated = ranker.rank(graph, [0], negative_ratings=[(3, 1), (2, 1)])
        assert rated[1] < clean[1]
        assert rated[3] == pytest.approx(clean[3])

    def test_arbitrary_negative_ratings_frame_innocents(self, scenario):
        """The paper's §II-B/§VIII critique, demonstrated: attackers cast
        arbitrary negative ratings at innocent users and the signed-trust
        ranking collapses — while Rejecto is untouched, because a social
        rejection of a user who never sent a request does not exist."""
        rng = random.Random(1)
        seeds, _ = scenario.sample_seeds(15, 0)
        honest = [(r, s) for r, s in scenario.graph.rejections()]
        # Every fake smears 10 random legitimate users.
        smear = [
            (fake, rng.choice(scenario.legit))
            for fake in scenario.fakes
            for _ in range(10)
        ]
        ranker = SignedTrust()
        before = scenario.precision_recall(
            ranker.most_suspicious(scenario.graph, seeds, 100, honest)
        ).precision
        after = scenario.precision_recall(
            ranker.most_suspicious(scenario.graph, seeds, 100, honest + smear)
        ).precision
        assert after < before - 0.3
        # Rejecto on the same scenario: the smear campaign cannot even be
        # expressed as rejection edges, so nothing changes.
        result = Rejecto(RejectoConfig(estimated_spammers=100)).detect(
            scenario.graph
        )
        assert (
            scenario.precision_recall(result.detected(limit=100)).precision
            > 0.9
        )


class TestStructuralBalance:
    def test_census_on_known_triads(self):
        # Triangle of friends: balanced (+++).
        graph = AugmentedSocialGraph.from_edges(
            3, friendships=[(0, 1), (1, 2), (0, 2)]
        )
        census = triad_census(graph)
        assert census.all_positive == 1
        assert census.total == 1
        assert census.balance_fraction == 1.0

    def test_one_negative_triad_is_unbalanced(self):
        graph = AugmentedSocialGraph.from_edges(
            3, friendships=[(0, 1), (1, 2)], rejections=[(0, 2)]
        )
        census = triad_census(graph)
        assert census.one_negative == 1
        assert census.unbalanced == 1

    def test_two_negative_triad_is_balanced(self):
        graph = AugmentedSocialGraph.from_edges(
            3, friendships=[(0, 1)], rejections=[(2, 0), (2, 1)]
        )
        census = triad_census(graph)
        assert census.two_negative == 1
        assert census.balanced == 1

    def test_friend_plus_rejection_pair_counts_negative(self):
        graph = AugmentedSocialGraph.from_edges(
            3,
            friendships=[(0, 1), (1, 2), (0, 2)],
            rejections=[(0, 2)],
        )
        census = triad_census(graph)
        assert census.one_negative == 1
        assert census.all_positive == 0

    def test_balance_scores_range(self, scenario):
        scores = balance_scores(scenario.graph)
        assert all(0.0 <= s <= 1.0 for s in scores.values())

    def test_balance_detection_is_much_weaker_than_rejecto(self, scenario):
        """The paper: 'it is unclear how the structure balance theory
        could be used to detect friend spammers.' Quantified: the obvious
        balance-based filter trails Rejecto by a wide margin."""
        detected = balance_filter(scenario.graph, 100)
        balance_precision = scenario.precision_recall(detected).precision
        rejecto = Rejecto(RejectoConfig(estimated_spammers=100)).detect(
            scenario.graph
        )
        rejecto_precision = scenario.precision_recall(
            rejecto.detected(limit=100)
        ).precision
        assert rejecto_precision > balance_precision + 0.25


class TestSybilFence:
    def test_feedback_discount_beats_plain_sybilrank_under_spam(self, scenario):
        """SybilFence's own claim: negative feedback helps a social-graph
        defense when Sybils obtained attack edges via friend spam."""
        from repro.baselines import SybilRank
        from repro.metrics import auc_from_scores

        seeds, _ = scenario.sample_seeds(15, 0)
        fence_scores = SybilFence().rank(scenario.graph, seeds)
        plain_scores = SybilRank().rank(scenario.graph, seeds)
        fence_auc = auc_from_scores(fence_scores, scenario.fakes)
        plain_auc = auc_from_scores(plain_scores, scenario.fakes)
        assert fence_auc > plain_auc

    def test_seeds_required(self):
        with pytest.raises(ValueError):
            SybilFence().rank(AugmentedSocialGraph(3), [])

    def test_zero_alpha_matches_unweighted_propagation(self, scenario):
        from repro.baselines import SybilRank
        from repro.metrics import auc_from_scores

        seeds, _ = scenario.sample_seeds(15, 0)
        fence = SybilFence(SybilFenceConfig(feedback_alpha=0.0))
        fence_auc = auc_from_scores(
            fence.rank(scenario.graph, seeds), scenario.fakes
        )
        plain_auc = auc_from_scores(
            SybilRank().rank(scenario.graph, seeds), scenario.fakes
        )
        assert fence_auc == pytest.approx(plain_auc, abs=0.02)

    def test_self_rejection_whitewashes_against_sybilfence(self):
        """The paper's critique of [16]: per-account negative feedback is
        evadable. Sacrificial accounts absorb the rejections while the
        whitewashed half keeps a clean record — SybilFence misses far
        more of them than Rejecto does."""
        scenario = build_scenario(
            ScenarioConfig(
                num_legit=500,
                num_fakes=100,
                self_rejection_rate=0.9,
                seed=33,
            )
        )
        seeds, _ = scenario.sample_seeds(15, 0)
        detected = set(
            SybilFence().most_suspicious(scenario.graph, seeds, 100)
        )
        whitewashed = set(scenario.whitewashed)
        fence_caught = len(detected & whitewashed)
        rejecto = Rejecto(RejectoConfig(estimated_spammers=100)).detect(
            scenario.graph
        )
        rejecto_caught = len(rejecto.detected_set() & whitewashed)
        assert rejecto_caught > fence_caught
        assert rejecto_caught >= 0.9 * len(whitewashed)
