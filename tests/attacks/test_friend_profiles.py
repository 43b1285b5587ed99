"""Tests for the friends-of-purchased-accounts model (Figs. 3-5)."""

import random
import statistics

import pytest

from repro.attacks import (
    FriendProfileModelConfig,
    sample_friend_profiles,
)


class TestFriendProfileModel:
    def test_population_shape(self):
        profiles = sample_friend_profiles(2804, rng=random.Random(0))
        assert len(profiles) == 2804
        for profile in profiles:
            assert profile.degree >= 1
            assert profile.posts >= 0
            assert profile.photos >= 0

    def test_heavy_degree_tail(self):
        """Fig. 3's observation: some friends have degree > 1000."""
        profiles = sample_friend_profiles(2804, rng=random.Random(1))
        degrees = [p.degree for p in profiles]
        assert max(degrees) > 1000
        assert statistics.median(degrees) < 400

    def test_degree_cap_respected(self):
        config = FriendProfileModelConfig(max_degree=800)
        profiles = sample_friend_profiles(1000, config, random.Random(2))
        assert max(p.degree for p in profiles) <= 800

    def test_inactive_fraction(self):
        config = FriendProfileModelConfig(inactive_fraction=0.4)
        profiles = sample_friend_profiles(3000, config, random.Random(3))
        inactive = sum(1 for p in profiles if not p.posts and not p.photos)
        assert inactive / 3000 == pytest.approx(0.4, abs=0.04)

    def test_engagement_scales_with_content(self):
        """Friends with more posts accrue more comments and likes."""
        profiles = sample_friend_profiles(3000, rng=random.Random(4))
        busy = [p for p in profiles if p.posts >= 40]
        quiet = [p for p in profiles if 0 < p.posts <= 5]
        assert busy and quiet
        busy_likes = statistics.mean(p.post_likes for p in busy)
        quiet_likes = statistics.mean(p.post_likes for p in quiet)
        assert busy_likes > 3 * quiet_likes

    def test_deterministic_per_seed(self):
        a = sample_friend_profiles(100, rng=random.Random(9))
        b = sample_friend_profiles(100, rng=random.Random(9))
        assert a == b

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sample_friend_profiles(0)
