"""Tests for the MAAR sweep solver."""

import pytest

from repro.core import (
    AugmentedSocialGraph,
    MAARConfig,
    Rejecto,
    RejectoConfig,
    geometric_k_sequence,
    initial_partition,
    solve_maar,
)

from ..conftest import random_augmented_graph
from .maar_oracle import full_grid, grid_winner, per_k_values, stop_index
from .partition_oracle import cut_counts


class TestGeometricSequence:
    def test_default_grid(self):
        ks = geometric_k_sequence(0.125, 2.0, 10)
        assert ks[0] == 0.125
        assert ks[-1] == 64.0
        assert len(ks) == 10

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            geometric_k_sequence(0, 2, 3)
        with pytest.raises(ValueError):
            geometric_k_sequence(1, 1.0, 3)
        with pytest.raises(ValueError):
            geometric_k_sequence(1, 2, 0)


class TestInitialPartition:
    def test_rejection_init_marks_rejected_nodes(self):
        graph = AugmentedSocialGraph.from_edges(4, rejections=[(0, 2), (1, 2)])
        p = initial_partition(graph, MAARConfig(init="rejection"))
        assert p.sides == [0, 0, 1, 0]

    def test_all_legitimate_init(self):
        graph = AugmentedSocialGraph.from_edges(3, rejections=[(0, 1)])
        p = initial_partition(graph, MAARConfig(init="all_legitimate"))
        assert p.sides == [0, 0, 0]

    def test_random_init_is_deterministic_per_seed(self):
        graph = AugmentedSocialGraph(50)
        config = MAARConfig(init="random", random_seed=7)
        a = initial_partition(graph, config)
        b = initial_partition(graph, config)
        assert a.sides == b.sides
        other = initial_partition(graph, MAARConfig(init="random", random_seed=8))
        assert a.sides != other.sides

    def test_seeds_override_strategy(self):
        graph = AugmentedSocialGraph.from_edges(4, rejections=[(0, 2), (0, 3)])
        p = initial_partition(
            graph,
            MAARConfig(init="rejection"),
            legit_seeds=[2],
            spammer_seeds=[1],
        )
        assert p.sides[2] == 0  # legit seed wins over its received rejection
        assert p.sides[1] == 1

    def test_unknown_strategy_rejected(self):
        graph = AugmentedSocialGraph(2)
        with pytest.raises(ValueError):
            initial_partition(graph, MAARConfig(init="oracle"))

    def test_out_of_range_seeds_rejected(self):
        """Regression: ``sides[-1]`` used to wrap around and silently
        seed node ``num_nodes - 1`` instead of failing."""
        graph = AugmentedSocialGraph.from_edges(4, rejections=[(0, 2)])
        with pytest.raises(ValueError, match="legit_seeds.*out of range"):
            initial_partition(graph, MAARConfig(), legit_seeds=[-1])
        with pytest.raises(ValueError, match="spammer_seeds.*out of range"):
            initial_partition(graph, MAARConfig(), spammer_seeds=[4])
        # A negative seed id must not have pinned the aliased last node.
        p = initial_partition(graph, MAARConfig(init="all_legitimate"))
        assert p.sides == [0, 0, 0, 0]

    def test_overlapping_seeds_rejected(self):
        """Regression: a node in both lists used to resolve to
        SUSPICIOUS merely because the spammer loop ran last."""
        graph = AugmentedSocialGraph.from_edges(4, rejections=[(0, 2)])
        with pytest.raises(ValueError, match="both legitimate and spammer"):
            initial_partition(
                graph, MAARConfig(), legit_seeds=[1, 2], spammer_seeds=[2]
            )

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_view_rejection_init_counts_active_rejecters(self, backend):
        """On a residual view a node starts suspicious only while some
        still-active user rejects it; on an int64-weighted residual view
        the rule is the same, whatever the rejection weights."""
        from .weighted_oracle import WeightedAugmentedGraph

        if backend == "numpy":
            pytest.importorskip("numpy")
        graph = AugmentedSocialGraph.from_edges(
            5, friendships=[(0, 1)], rejections=[(0, 2), (1, 2), (3, 4), (0, 3)]
        )
        view = graph.csr(backend).view().without([3])
        config = MAARConfig(init="rejection")
        assert initial_partition(view, config).sides == [0, 0, 1, 0, 0]
        weighted = WeightedAugmentedGraph(5)
        weighted.add_friendship(0, 1, 2)
        for a, b, w in ((0, 2, 1), (1, 2, 3), (3, 4, 2), (0, 3, 4)):
            weighted.add_rejection(a, b, w)
        wview = weighted.csr(backend).view().without([3])
        assert wview.csr.weighted
        assert initial_partition(wview, config).sides == [0, 0, 1, 0, 0]

    @pytest.mark.parametrize("fraction", [2.0, -3.0, 1.5, -0.01])
    def test_random_fraction_outside_unit_interval_rejected(self, fraction):
        """Regression: 2.0 used to start every node suspicious and -3.0
        none, silently."""
        graph = AugmentedSocialGraph(5)
        config = MAARConfig(init="random", random_fraction=fraction)
        with pytest.raises(ValueError, match="random_fraction"):
            initial_partition(graph, config)
        with pytest.raises(ValueError, match="random_fraction"):
            solve_maar(graph, config)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_random_fraction_bounds_accepted(self, fraction):
        graph = AugmentedSocialGraph(5)
        p = initial_partition(
            graph, MAARConfig(init="random", random_fraction=fraction)
        )
        assert p.sides == [int(fraction)] * 5

    @pytest.mark.parametrize("init", ["rejection", "all_legitimate", "random"])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_builder_csr_and_view_inputs_agree(self, init, seeded):
        """A builder, its CSR graph and its full view are one starting
        cut: same sides, locks and counters; the rejection rule is
        "suspicious iff someone rejected you"."""
        graph = random_augmented_graph(40, 80, 30, seed=3)
        n = graph.num_nodes
        config = MAARConfig(init=init, random_seed=5, random_fraction=0.3)
        legit, spammer = ([0, 7], [3]) if seeded else ([], [])
        csr = graph.csr()
        cuts = [
            initial_partition(source, config, legit, spammer)
            for source in (graph, csr, csr.view())
        ]
        first = cuts[0]
        for cut in cuts:
            assert (cut.sides, cut.locked, cut.f_cross, cut.r_cross) == (
                first.sides, first.locked, first.f_cross, first.r_cross
            )
        assert (first.f_cross, first.r_cross) == cut_counts(graph, first.sides)
        assert first.locked == [u in legit + spammer for u in range(n)]
        assert all(first.sides[u] == 0 for u in legit)
        assert all(first.sides[u] == 1 for u in spammer)
        if init == "rejection":
            expected = [1 if graph.rej_in[u] else 0 for u in range(n)]
            for u in legit:
                expected[u] = 0
            for u in spammer:
                expected[u] = 1
            assert first.sides == expected
            assert 0 < sum(expected) < n

    def test_solve_maar_validates_seeds(self):
        graph = AugmentedSocialGraph.from_edges(4, rejections=[(0, 2)])
        config = MAARConfig()
        with pytest.raises(ValueError, match="out of range"):
            solve_maar(graph, config, legit_seeds=[-2])
        with pytest.raises(ValueError, match="both legitimate and spammer"):
            solve_maar(graph, config, legit_seeds=[3], spammer_seeds=[3])


def spam_graph(n_legit=40, n_fake=10, accepted=2, rejected=8, seed=3):
    import random

    rng = random.Random(seed)
    graph = AugmentedSocialGraph(n_legit + n_fake)
    for u in range(n_legit):
        for _ in range(4):
            v = rng.randrange(n_legit)
            if v != u:
                graph.add_friendship(u, v)
    fakes = list(range(n_legit, n_legit + n_fake))
    for f in fakes:
        other = fakes[(f - n_legit + 1) % n_fake + 0] if n_fake > 1 else None
        if other is not None and other != f:
            graph.add_friendship(f, other)
    for f in fakes:
        targets = rng.sample(range(n_legit), accepted + rejected)
        for t in targets[:accepted]:
            graph.add_friendship(f, t)
        for t in targets[accepted:]:
            graph.add_rejection(t, f)
    return graph, fakes


class TestSolveMAAR:
    def test_finds_planted_spam_cut(self):
        graph, fakes = spam_graph()
        result = solve_maar(graph)
        assert result.found
        assert sorted(result.suspicious_nodes()) == fakes
        # 2 accepted out of 10 requests per fake.
        assert result.acceptance_rate == pytest.approx(0.2)

    def test_reports_per_k_diagnostics(self):
        graph, _ = spam_graph()
        config = MAARConfig(k_steps=6)
        grid = full_grid(graph, config)
        assert len(grid) == 6
        ks = [c.k for c in grid]
        assert ks == config.k_values()
        result = solve_maar(graph, config)
        run = grid[: stop_index(grid) + 1]
        assert per_k_values(result.per_k) == per_k_values(run)
        best = grid_winner(grid)
        assert result.k == best.k
        assert result.acceptance_rate == pytest.approx(best.acceptance_rate)

    def test_no_rejections_means_no_cut(self):
        graph = AugmentedSocialGraph.from_edges(6, friendships=[(0, 1), (2, 3)])
        result = solve_maar(graph)
        assert not result.found
        assert result.suspicious_nodes() == []
        assert result.acceptance_rate == 1.0

    def test_legit_seeds_block_false_positives(self):
        """A small isolated legit community that happens to receive a few
        rejections can be protected by pinning one of its members."""
        graph = AugmentedSocialGraph(8)
        # Tight community 0-3 with one odd rejection onto it.
        for i in range(4):
            for j in range(i + 1, 4):
                graph.add_friendship(i, j)
        graph.add_rejection(4, 0)
        graph.add_rejection(5, 0)
        # Genuine spammers 6, 7.
        for f in (6, 7):
            for rejecter in range(4):
                graph.add_rejection(rejecter, f)
        unseeded = solve_maar(graph)
        assert set(unseeded.suspicious_nodes()) >= {6, 7}
        seeded = solve_maar(graph, legit_seeds=[0])
        assert 0 not in seeded.suspicious_nodes()
        assert set(seeded.suspicious_nodes()) >= {6, 7}

    def test_spammer_seed_forces_membership(self):
        graph, fakes = spam_graph()
        result = solve_maar(graph, spammer_seeds=[fakes[0]])
        assert fakes[0] in result.suspicious_nodes()

    def test_min_suspicious_filters_tiny_cuts(self):
        graph = AugmentedSocialGraph.from_edges(
            5, friendships=[(0, 1), (1, 2)], rejections=[(0, 4), (1, 4), (2, 4)]
        )
        default = solve_maar(graph)
        assert default.suspicious_nodes() == [4]
        strict = solve_maar(graph, MAARConfig(min_suspicious=2))
        # The only spam evidence points at node 4 alone; with a 2-node
        # minimum the solver may return a larger region or nothing, but
        # never a singleton.
        if strict.found:
            assert strict.partition.suspicious_size >= 2

    def test_collusion_does_not_change_best_rate(self):
        """Adding intra-fake friendships must leave the detected cut's
        aggregate acceptance rate unchanged (Section VI-C)."""
        graph, fakes = spam_graph()
        before = solve_maar(graph)
        for i in range(len(fakes)):
            for j in range(i + 1, len(fakes)):
                graph.add_friendship(fakes[i], fakes[j])
        after = solve_maar(graph)
        assert after.found
        assert set(after.suspicious_nodes()) == set(fakes)
        assert after.acceptance_rate == pytest.approx(before.acceptance_rate)

    def test_stats_accumulate_across_k_steps(self):
        graph, _ = spam_graph()
        result = solve_maar(graph, MAARConfig(k_steps=4))
        assert result.stats.passes >= 4
        assert result.stats.switches_tested > 0


class TestIgnoredJobsWarnings:
    """A ``jobs > 1`` sweep fans out and logs no warning."""

    def test_parallel_sweep_does_not_warn(self, caplog, two_cpus):
        graph, _ = spam_graph()
        with caplog.at_level("WARNING", logger="repro.core.maar"):
            solve_maar(graph, MAARConfig(jobs=2))
        assert not caplog.records


class TestJobsBelowOne:
    """``jobs`` below 1 is an error, not a quiet serial run."""

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_solve_maar_rejects(self, jobs):
        graph, _ = spam_graph()
        with pytest.raises(ValueError, match="jobs"):
            solve_maar(graph, MAARConfig(jobs=jobs))

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejecto_detect_rejects(self, jobs):
        graph, _ = spam_graph()
        with pytest.raises(ValueError, match="jobs"):
            Rejecto(RejectoConfig(maar=MAARConfig(jobs=jobs))).detect(graph)


class TestMAARResult:
    def test_not_found_result_shape(self):
        graph = AugmentedSocialGraph(3)
        result = solve_maar(graph)
        assert not result.found
        assert result.k is None
        assert result.partition is None


class TestDinkelbachRefinement:
    def test_refinement_never_worsens(self):
        graph, fakes = spam_graph()
        plain = solve_maar(graph, MAARConfig(refine_rounds=0))
        refined = solve_maar(graph, MAARConfig(refine_rounds=3))
        assert refined.found
        assert refined.acceptance_rate <= plain.acceptance_rate + 1e-9

    def test_refinement_recorded_in_per_k(self):
        graph, fakes = spam_graph()
        config = MAARConfig(k_steps=4, refine_rounds=2)
        result = solve_maar(graph, config)
        # At least one refinement candidate beyond the grid steps.
        assert len(result.per_k) > 4

    def test_refinement_improves_on_coarse_grid(self):
        """With a deliberately coarse grid the sweep lands off k*; the
        ratio-refinement rounds recover (or match) the fine-grid cut."""
        graph, fakes = spam_graph()
        coarse = MAARConfig(k_min=0.125, k_factor=16.0, k_steps=2)
        refined = solve_maar(
            graph,
            MAARConfig(k_min=0.125, k_factor=16.0, k_steps=2, refine_rounds=4),
        )
        plain = solve_maar(graph, coarse)
        assert refined.acceptance_rate <= plain.acceptance_rate + 1e-9

    def test_refinement_respects_seeds(self):
        graph, fakes = spam_graph()
        result = solve_maar(
            graph, MAARConfig(refine_rounds=3), legit_seeds=[0, 1]
        )
        assert 0 not in result.suspicious_nodes()
        assert 1 not in result.suspicious_nodes()
