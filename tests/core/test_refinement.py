"""Boundary-only refinement: frontier kernels, scoped engines, regions.

Pins the three layers the boundary refinement path is built from:

* the frontier kernels (``boundary_nodes``/``weighted_boundary_nodes``)
  return identical sorted lists on both backends and always contain
  every positive-gain node;
* ``KLConfig(frontier="boundary")`` is bit-identical to the full
  frontier — sides *and* per-pass objective history — on refinement
  workloads (a converged cut perturbed by a few flips, the shape every
  uncoarsening level hands the engine), across backend × gain index ×
  weighted/unweighted;
* ``refine_subset`` over region decompositions composes exactly:
  counter deltas match a recount, merges are independent of worker
  count and execution order, and the multilevel solver is bit-identical
  at ``refine_jobs=N`` and ``refine_jobs=1``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import ScenarioConfig, build_scenario
from repro.core import AugmentedSocialGraph, solve_maar_multilevel
from repro.core.csr import PartitionState
from repro.core.kernels import (
    boundary_nodes,
    cut_regions,
    gain_deltas,
    movable_frontier,
    weighted_boundary_nodes,
    weighted_gain_deltas,
)
from repro.core.kl import (
    KLConfig,
    KLStats,
    extended_kl_state,
    refine_subset,
)
from repro.core.multilevel import (
    MultilevelConfig,
    _sides_valid,
)

from ..conftest import random_augmented_graph


def _as_csr(graph: AugmentedSocialGraph, backend: str, weighted: bool):
    csr = graph.csr(backend)
    if weighted:
        # Identity contraction: same topology, unit int64 weights.
        csr = csr.contract(list(range(graph.num_nodes)), graph.num_nodes)
    return csr


def _random_graph(rng: random.Random, n: int) -> AugmentedSocialGraph:
    return random_augmented_graph(
        n, int(n * 2.5), int(n * 1.5), seed=rng.randrange(1 << 30)
    )


def _refinement_workload(rng: random.Random, csr, k: float):
    """A converged partition with a handful of perturbing flips — the
    state shape every uncoarsening level hands the refinement engine."""
    n = csr.num_nodes
    sides = [rng.randrange(2) for _ in range(n)]
    converged = extended_kl_state(
        PartitionState(csr.view(), sides), k, KLConfig()
    )
    perturbed = list(converged.sides)
    for _ in range(max(1, n // 10)):
        perturbed[rng.randrange(n)] ^= 1
    return perturbed


class TestFrontierKernels:
    def test_backends_identical(self):
        rng = random.Random(0)
        for trial in range(12):
            n = rng.randrange(10, 50)
            weighted = trial % 2 == 1
            graph = _random_graph(rng, n)
            sides = [rng.randrange(2) for _ in range(n)]
            k = rng.choice([0.125, 0.5, 1.0, 2.5])
            kernel = weighted_boundary_nodes if weighted else boundary_nodes
            got_py = kernel(_as_csr(graph, "python", weighted).view(), sides, k)
            got_np = kernel(_as_csr(graph, "numpy", weighted).view(), sides, k)
            assert got_py == got_np
            assert got_py == sorted(set(got_py))

    def test_positive_gain_nodes_always_in_frontier(self):
        rng = random.Random(1)
        for trial in range(12):
            n = rng.randrange(10, 50)
            weighted = trial % 2 == 1
            graph = _random_graph(rng, n)
            sides = [rng.randrange(2) for _ in range(n)]
            k = rng.choice([0.25, 1.0, 2.0])
            csr = _as_csr(graph, "python", weighted)
            view = csr.view()
            if weighted:
                frontier = weighted_boundary_nodes(view, sides, k)
                fd, rd = weighted_gain_deltas(view, sides)
            else:
                frontier = boundary_nodes(view, sides, k)
                fd, rd = gain_deltas(view, sides)
            positive = {u for u in range(n) if k * rd[u] > fd[u]}
            assert positive <= set(frontier)

    def test_weighted_kernel_rejects_unweighted_and_vice_versa(self):
        graph = _random_graph(random.Random(2), 16)
        sides = [0] * 16
        with pytest.raises(ValueError):
            weighted_boundary_nodes(graph.csr("python").view(), sides, 1.0)
        weighted = _as_csr(graph, "python", True)
        with pytest.raises(ValueError):
            boundary_nodes(weighted.view(), sides, 1.0)


class TestScopedEngineParity:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("gain_index", ["auto", "heap"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_boundary_bit_identical_to_full(self, backend, gain_index, weighted):
        # Pinned refinement workloads (fixed seeds): the scoped pass is
        # empirically bit-identical to the full one here — partitions,
        # counters, and objective history. On arbitrary workloads the
        # two may rarely take different compound-move paths (see the
        # KLConfig.frontier docstring); the local-optimality test below
        # covers that general case.
        rng = random.Random(
            (backend == "numpy") * 100 + (gain_index == "heap") * 10 + weighted
        )
        for _ in range(6):
            n = rng.randrange(12, 60)
            csr = _as_csr(_random_graph(rng, n), backend, weighted)
            k = rng.choice([0.125, 0.5, 1.0, 2.0])
            perturbed = _refinement_workload(rng, csr, k)
            base = PartitionState(csr.view(), perturbed)
            full_stats, bound_stats = KLStats(), KLStats()
            full = extended_kl_state(
                base, k, KLConfig(gain_index=gain_index), full_stats
            )
            bound = extended_kl_state(
                base,
                k,
                KLConfig(gain_index=gain_index, frontier="boundary"),
                bound_stats,
            )
            assert bound.sides == full.sides
            assert bound_stats.objective_history == full_stats.objective_history
            assert (bound.f_cross, bound.r_cross) == (full.f_cross, full.r_cross)

    def test_boundary_result_is_single_switch_optimal(self):
        # The closure invariant: the scoped search never terminates
        # while a profitable single switch exists anywhere — true on
        # EVERY workload, not just the pinned ones above.
        rng = random.Random(99)
        for trial in range(12):
            n = rng.randrange(12, 60)
            weighted = trial % 2 == 1
            csr = _as_csr(_random_graph(rng, n), "numpy", weighted)
            k = rng.choice([0.125, 0.5, 1.0, 2.0])
            perturbed = _refinement_workload(rng, csr, k)
            bound = extended_kl_state(
                PartitionState(csr.view(), perturbed),
                k,
                KLConfig(frontier="boundary"),
            )
            view = csr.view()
            if weighted:
                fd, rd = weighted_gain_deltas(view, bound.sides)
            else:
                fd, rd = gain_deltas(view, bound.sides)
            assert not any(k * rd[u] > fd[u] for u in range(n))

    def test_unknown_frontier_rejected(self):
        csr = _random_graph(random.Random(3), 10).csr("python")
        state = PartitionState(csr.view(), [0] * 10)
        with pytest.raises(ValueError, match="unknown frontier"):
            extended_kl_state(state, 1.0, KLConfig(frontier="bogus"))


class TestRefineSubset:
    def test_whole_graph_subset_matches_heap_engine(self):
        rng = random.Random(5)
        for trial in range(8):
            n = rng.randrange(12, 50)
            weighted = trial % 2 == 1
            csr = _as_csr(_random_graph(rng, n), "python", weighted)
            k = rng.choice([0.3, 1.0, 1.7])
            perturbed = _refinement_workload(rng, csr, k)
            state = extended_kl_state(
                PartitionState(csr.view(), perturbed),
                k,
                KLConfig(gain_index="heap"),
            )
            sides = list(perturbed)
            locked = [False] * n
            moved, delta_f, delta_r, tested, applied = refine_subset(
                csr.view(), sides, locked, range(n), k, KLConfig()
            )
            assert sides == state.sides
            base = PartitionState(csr.view(), perturbed)
            assert base.f_cross + delta_f == state.f_cross
            assert base.r_cross + delta_r == state.r_cross
            assert moved == sorted(
                u for u in range(n) if sides[u] != perturbed[u]
            )
            assert tested >= applied >= len(moved)

    def test_locked_and_out_of_subset_nodes_never_move(self):
        rng = random.Random(6)
        csr = _random_graph(rng, 30).csr("python")
        perturbed = _refinement_workload(rng, csr, 1.0)
        locked = [u % 5 == 0 for u in range(30)]
        subset = list(range(0, 30, 2))
        sides = list(perturbed)
        moved, *_ = refine_subset(
            csr.view(), sides, locked, subset, 1.0, KLConfig()
        )
        for u in range(30):
            if locked[u] or u not in subset:
                assert sides[u] == perturbed[u]
        assert all(u in subset and not locked[u] for u in moved)

    def test_counter_deltas_match_recount(self):
        rng = random.Random(7)
        for _ in range(6):
            n = rng.randrange(15, 45)
            csr = _random_graph(rng, n).csr("numpy")
            k = rng.choice([0.5, 1.0, 2.0])
            perturbed = _refinement_workload(rng, csr, k)
            base = PartitionState(csr.view(), perturbed)
            sides = list(perturbed)
            _, delta_f, delta_r, _, _ = refine_subset(
                csr.view(), sides, [False] * n, range(n), k, KLConfig()
            )
            fresh = PartitionState(csr.view(), sides)
            assert base.f_cross + delta_f == fresh.f_cross
            assert base.r_cross + delta_r == fresh.r_cross


class TestRegions:
    def _frontier_and_regions(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(20, 60)
        csr = _random_graph(rng, n).csr("python")
        k = rng.choice([0.5, 1.0])
        sides = _refinement_workload(rng, csr, k)
        bnodes = movable_frontier(csr.view(), sides, k)
        return csr, sides, k, bnodes, cut_regions(csr, bnodes)

    def test_regions_partition_the_frontier(self):
        for seed in range(8):
            _, _, _, bnodes, regions = self._frontier_and_regions(seed)
            flat = [u for region in regions for u in region]
            assert sorted(flat) == bnodes
            assert len(flat) == len(set(flat))
            for region in regions:
                assert region == sorted(region)

    def test_no_edge_crosses_regions(self):
        for seed in range(8):
            csr, _, _, _, regions = self._frontier_and_regions(seed)
            owner = {}
            for i, region in enumerate(regions):
                for u in region:
                    owner[u] = i
            layers = (
                (csr.f_ptr, csr.f_idx),
                (csr.ro_ptr, csr.ro_idx),
                (csr.ri_ptr, csr.ri_idx),
            )
            for u, i in owner.items():
                for ptr, idx in layers:
                    for j in range(ptr[u], ptr[u + 1]):
                        v = idx[j]
                        if v in owner:
                            assert owner[v] == i

    def test_region_refinement_is_order_independent(self):
        for seed in range(6):
            csr, sides, k, _, regions = self._frontier_and_regions(seed)
            if len(regions) < 2:
                continue
            locked = [False] * csr.num_nodes
            outcomes = []
            for order in (regions, list(reversed(regions))):
                local = list(sides)
                total_f = total_r = 0
                for region in order:
                    _, df, dr, _, _ = refine_subset(
                        csr.view(), local, locked, region, k, KLConfig()
                    )
                    total_f += df
                    total_r += dr
                outcomes.append((local, total_f, total_r))
            assert outcomes[0] == outcomes[1]


class TestMultilevelBoundary:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(
            ScenarioConfig(num_legit=900, num_fakes=180, seed=7)
        )

    def test_boundary_quality_close_to_full(self, scenario):
        full = solve_maar_multilevel(
            scenario.graph, MultilevelConfig(frontier="full")
        )
        bound = solve_maar_multilevel(
            scenario.graph, MultilevelConfig(frontier="boundary")
        )
        assert bound.found and full.found
        assert bound.acceptance_rate <= full.acceptance_rate + 0.01
        overlap = len(set(bound.suspicious) & set(full.suspicious))
        assert overlap >= 0.95 * len(full.suspicious)

    def test_refine_jobs_bit_identical(self, scenario):
        results = [
            solve_maar_multilevel(
                scenario.graph,
                MultilevelConfig(
                    frontier="boundary", refine_jobs=jobs, executor=executor
                ),
            )
            for jobs, executor in (
                (1, "serial"),
                (2, "thread"),
                (2, "process"),
            )
        ]
        for other in results[1:]:
            assert other.suspicious == results[0].suspicious
            assert other.k == results[0].k
            assert other.acceptance_rate == results[0].acceptance_rate

    def test_refine_detail_recorded(self, scenario):
        result = solve_maar_multilevel(
            scenario.graph, MultilevelConfig(frontier="boundary")
        )
        detail = result.timings["refine_detail"]
        assert len(detail) == len(result.timings["refine"])
        assert detail[-1]["level"] == 0
        assert all(
            d["scope"] in ("boundary", "dense", "full", "skipped")
            for d in detail
        )
        assert result.timings["early_exits"] == 0

    def test_early_exit_skips_levels_and_records_them(self, scenario):
        config = MultilevelConfig(
            frontier="boundary", refine_tolerance=1.0, coarsest_nodes=100
        )
        result = solve_maar_multilevel(scenario.graph, config)
        assert result.found
        skipped = [
            d for d in result.timings["refine_detail"] if d["skipped"]
        ]
        assert len(skipped) == result.timings["early_exits"]
        assert result.timings["early_exits"] > 0
        assert all(d["scope"] == "skipped" for d in skipped)
        # The finest level always refines.
        assert not result.timings["refine_detail"][-1]["skipped"]

    def test_unknown_frontier_rejected(self, scenario):
        with pytest.raises(ValueError, match="unknown frontier"):
            solve_maar_multilevel(
                scenario.graph, MultilevelConfig(frontier="bogus")
            )

    @pytest.mark.parametrize("refine_stall", [0, -1])
    def test_non_positive_refine_stall_rejected(self, scenario, refine_stall):
        # refine_stall=0 used to skip every region pass silently.
        with pytest.raises(ValueError, match="refine_stall"):
            solve_maar_multilevel(
                scenario.graph, MultilevelConfig(refine_stall=refine_stall)
            )

    @settings(deadline=None, max_examples=6)
    @given(
        tolerance=st.floats(min_value=0.001, max_value=0.5),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_early_exit_never_worsens_acceptance_beyond_tolerance(
        self, tolerance, seed
    ):
        scenario = build_scenario(
            ScenarioConfig(num_legit=400, num_fakes=80, seed=seed)
        )
        config = MultilevelConfig(frontier="boundary", coarsest_nodes=80)
        baseline = solve_maar_multilevel(scenario.graph, config)
        relaxed = solve_maar_multilevel(
            scenario.graph,
            MultilevelConfig(
                frontier="boundary",
                coarsest_nodes=80,
                refine_tolerance=tolerance,
            ),
        )
        assert relaxed.found == baseline.found
        if baseline.found:
            # Skipping intermediate levels may only cost what the final
            # always-run refinement cannot recover — bounded by the
            # tolerance itself.
            assert (
                relaxed.acceptance_rate
                <= baseline.acceptance_rate + tolerance
            )


class TestPolishGuard:
    """The Dinkelbach polish must never replace a valid cut with one the
    final validity gate would discard.

    On dilute large scenarios an unguarded polish inflates the
    suspicious side toward a near-half-graph blob (the rate improves
    while the size blows through ``max_suspicious_fraction``), after
    which the final gate throws the whole result away. The inflation
    only manifests at scales too large for tier-1, so these tests pin
    the predicate the guard and both validity gates share.
    """

    def test_sides_valid_bounds(self):
        config = MultilevelConfig(min_suspicious=2, max_suspicious_fraction=0.5)
        total = 10
        assert _sides_valid([1, 1, 0, 0, 0, 0, 0, 0, 0, 0], total, config)
        assert _sides_valid([1] * 5 + [0] * 5, total, config)
        # Below min_suspicious.
        assert not _sides_valid([1] + [0] * 9, total, config)
        # Above the fraction cap.
        assert not _sides_valid([1] * 6 + [0] * 4, total, config)

    def test_sides_valid_rejects_whole_graph(self):
        config = MultilevelConfig(max_suspicious_fraction=1.0)
        assert not _sides_valid([1] * 8, 8, config)
        assert _sides_valid([1] * 7 + [0], 8, config)

    def test_solve_respects_fraction_cap(self):
        scenario = build_scenario(
            ScenarioConfig(num_legit=400, num_fakes=80, seed=7)
        )
        total = scenario.graph.num_nodes
        for cap in (0.6, 0.25):
            result = solve_maar_multilevel(
                scenario.graph,
                MultilevelConfig(max_suspicious_fraction=cap),
            )
            assert len(result.suspicious) <= cap * total
