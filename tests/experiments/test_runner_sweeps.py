"""Tests for the experiment runner and sweeps.

Sweep tests use tiny workloads — they check plumbing and the paper's
qualitative *shape* claims, not absolute precision levels (the
benchmarks regenerate full figures).
"""

import pytest

from repro.attacks import ScenarioConfig, build_scenario
from repro.experiments import (
    SchemeSetup,
    SweepConfig,
    collusion_sweep,
    evaluate_schemes,
    legit_victim_rejection_sweep,
    request_volume_sweep,
    run_naive_filter,
    run_rejecto,
    run_votetrust,
    self_rejection_sweep,
    stealth_sweep,
)
from repro.experiments.sweeps import _subsample


@pytest.fixture(scope="module")
def small_config():
    return SweepConfig(num_legit=500, num_fakes=100, seed=3)


@pytest.fixture(scope="module")
def small_scenario():
    return build_scenario(ScenarioConfig(num_legit=500, num_fakes=100, seed=3))


class TestRunner:
    def test_run_rejecto_baseline_is_accurate(self, small_scenario):
        metrics = run_rejecto(small_scenario)
        assert metrics.precision > 0.9
        assert metrics.precision == metrics.recall  # the paper's identity

    def test_run_votetrust_baseline(self, small_scenario):
        metrics = run_votetrust(small_scenario)
        assert 0.5 < metrics.precision <= 1.0

    def test_run_naive_filter_baseline(self, small_scenario):
        metrics = run_naive_filter(small_scenario)
        assert metrics.precision > 0.8

    def test_evaluate_schemes_keys(self, small_scenario):
        results = evaluate_schemes(small_scenario, include_naive=True)
        assert set(results) == {"Rejecto", "VoteTrust", "NaiveFilter"}

    def test_seedless_setup_still_works(self, small_scenario):
        setup = SchemeSetup(rejecto_legit_seeds=0, rejecto_spammer_seeds=0)
        metrics = run_rejecto(small_scenario, setup)
        assert metrics.precision > 0.8


class TestSweeps:
    def test_request_volume_sweep_shape(self, small_config):
        result = request_volume_sweep(small_config, request_counts=(10, 30))
        assert result.x_values == [10, 30]
        assert set(result.series) == {"Rejecto", "VoteTrust"}
        assert all(len(v) == 2 for v in result.series.values())
        # Rejecto stays high at both volumes (Fig. 9's claim).
        assert min(result.series["Rejecto"]) > 0.85

    def test_stealth_caps_votetrust_at_half(self, small_config):
        """Fig. 10: VoteTrust misses the silent half of the fakes."""
        result = stealth_sweep(small_config, request_counts=(20,))
        assert result.series["VoteTrust"][0] <= 0.6
        assert result.series["Rejecto"][0] > 0.9

    def test_collusion_leaves_rejecto_flat(self, small_config):
        """Fig. 13: intra-fake edges do not affect Rejecto."""
        result = collusion_sweep(small_config, extra_links=(0, 30))
        rejecto = result.series["Rejecto"]
        assert min(rejecto) > 0.9

    def test_self_rejection_keeps_rejecto_high(self, small_config):
        """Fig. 14: self-rejection cannot whitewash against Rejecto."""
        result = self_rejection_sweep(small_config, rates=(0.3, 0.9))
        assert min(result.series["Rejecto"]) > 0.85

    def test_legit_victim_rejections_cliff(self, small_config):
        """Fig. 15: Rejecto tolerates planted rejections up to the point
        where legitimate users look like spammers, then collapses."""
        result = legit_victim_rejection_sweep(
            small_config, per_fake_rejections=(0, 8, 20)
        )
        rejecto = result.series["Rejecto"]
        assert rejecto[0] > 0.9
        assert rejecto[1] > 0.85  # below the ~14/fake legitimate level
        assert rejecto[2] < 0.5  # far beyond it: indistinguishable

    def test_render_contains_series(self, small_config):
        result = request_volume_sweep(small_config, request_counts=(10,))
        text = result.render()
        assert "Rejecto" in text and "VoteTrust" in text
        assert "requests/fake" in text


class TestSubsample:
    def test_keeps_endpoints(self):
        values = list(range(11))
        picked = _subsample(values, 5)
        assert picked[0] == 0
        assert picked[-1] == 10
        assert len(picked) == 5

    def test_count_at_least_length_returns_all(self):
        assert _subsample([1, 2, 3], 5) == [1, 2, 3]

    def test_single_point(self):
        assert _subsample([4, 5, 6], 1) == [4]


class TestMultiTrialSweeps:
    def test_trials_average_and_spread(self):
        config = SweepConfig(num_legit=300, num_fakes=60, seed=3, trials=3)
        result = request_volume_sweep(config, request_counts=(20,))
        assert result.trials == 3
        for scheme in ("Rejecto", "VoteTrust"):
            assert len(result.series[scheme]) == 1
            assert len(result.spread[scheme]) == 1
            assert 0.0 <= result.spread[scheme][0] <= 1.0
            assert 0.0 <= result.series[scheme][0] <= 1.0
        assert "mean of 3 trials" in result.render()

    def test_single_trial_has_zero_spread(self):
        config = SweepConfig(num_legit=300, num_fakes=60, seed=3)
        result = request_volume_sweep(config, request_counts=(20,))
        assert result.trials == 1
        assert result.spread["Rejecto"] == [0.0]
        assert "mean of" not in result.render()

    def test_trials_use_distinct_seeds(self):
        a = SweepConfig(num_legit=300, num_fakes=60, seed=3).base_scenario(trial=0)
        b = SweepConfig(num_legit=300, num_fakes=60, seed=3).base_scenario(trial=2)
        assert a.seed != b.seed


@pytest.mark.usefixtures("two_cpus")
class TestParallelSweeps:
    def test_parallel_matches_sequential(self):
        sequential = request_volume_sweep(
            SweepConfig(num_legit=300, num_fakes=60, seed=5, jobs=1),
            request_counts=(10, 30),
        )
        parallel = request_volume_sweep(
            SweepConfig(num_legit=300, num_fakes=60, seed=5, jobs=2),
            request_counts=(10, 30),
        )
        assert parallel.series == sequential.series
        assert parallel.spread == sequential.spread
