"""Boundary-only refinement: region passes and multilevel levels.

Pins the layers the multilevel refinement path is built from (the
frontier and region kernels themselves are pinned to scalar references
in ``tests/core/test_region_kernels.py``):

* ``refine_subset`` over region decompositions composes exactly:
  counter deltas match a recount and merges are independent of
  execution order;
* every refined multilevel level runs the frontier → regions →
  ``refine_subset`` rounds, whatever share of the level the frontier
  covers.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import ScenarioConfig, build_scenario
from repro.attacks.spam import (
    add_careless_requests,
    send_friend_spam,
    simulate_legitimate_rejections,
)
from repro.attacks.sybil import SybilRegionConfig, inject_sybil_region
from repro.core import AugmentedSocialGraph, solve_maar_multilevel
from repro.core.csr import PartitionState
from repro.core.kernels import boundary_nodes, cut_regions
from repro.core.kl import KLConfig, extended_kl_state, refine_subset
from repro.core.maar import is_valid_cut, solve_maar
from repro.core.multilevel import MultilevelConfig
from repro.graphgen import barabasi_albert

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
        bnodes = boundary_nodes(csr.view(), sides, k)
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
        """Boundary-only multilevel refinement stays close to the flat
        sweep, which runs KL over the full graph at every ``k``."""
        full = solve_maar(scenario.graph)
        bound = solve_maar_multilevel(scenario.graph)
        assert bound.found and full.found
        assert bound.acceptance_rate <= full.acceptance_rate + 0.01
        flat = full.suspicious_nodes()
        overlap = len(set(bound.suspicious) & set(flat))
        assert overlap >= 0.95 * len(flat)

    def test_refine_detail_recorded(self, scenario):
        result = solve_maar_multilevel(scenario.graph)
        detail = result.timings["refine_detail"]
        assert len(detail) == len(result.timings["refine"])
        assert detail[-1]["level"] == 0
        assert all(d["scope"] in ("boundary", "skipped") for d in detail)
        assert result.timings["early_exits"] == 0

    def test_early_exit_skips_levels_and_records_them(self, scenario):
        config = MultilevelConfig(refine_tolerance=1.0, coarsest_nodes=100)
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

    @pytest.mark.parametrize("refine_stall", [0, -1])
    def test_non_positive_refine_stall_rejected(self, scenario, refine_stall):
        # refine_stall=0 used to skip every region pass silently.
        with pytest.raises(ValueError, match="refine_stall"):
            solve_maar_multilevel(
                scenario.graph, MultilevelConfig(refine_stall=refine_stall)
            )

    @pytest.mark.parametrize("refine_passes", [0, -1])
    def test_non_positive_refine_passes_rejected(self, scenario, refine_passes):
        # refine_passes=0 used to run one round anyway.
        with pytest.raises(ValueError, match="refine_passes"):
            solve_maar_multilevel(
                scenario.graph, MultilevelConfig(refine_passes=refine_passes)
            )

    def test_saturated_frontier_refines_by_regions(self):
        """A level whose movable frontier covers nearly all of it (106 of
        its 108 nodes here: a spam-attacked BA graph coarsened to 40
        nodes) refines through the region passes like every other level,
        so its tallies count the switches it tested."""
        rng = random.Random(5)
        graph = barabasi_albert(500, 4, rng)
        legit = list(range(graph.num_nodes))
        simulate_legitimate_rejections(graph, legit, 0.2, rng)
        fakes = inject_sybil_region(graph, SybilRegionConfig(num_fakes=120), rng)
        send_friend_spam(graph, fakes, legit, 20, 0.7, rng)
        add_careless_requests(graph, legit, fakes, 0.15, rng)
        result = solve_maar_multilevel(
            graph, MultilevelConfig(max_levels=48, coarsest_nodes=40)
        )
        assert result.found
        detail = result.timings["refine_detail"]
        assert all(d["scope"] == "boundary" for d in detail)
        assert all(d["tested"] >= d["moves"] for d in detail)
        saturated = [
            d
            for d in detail
            if d["boundary"] > 0.98 * result.level_sizes[d["level"]]
        ]
        assert saturated and all(d["moves"] > 0 for d in saturated)

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
        config = MultilevelConfig(coarsest_nodes=80)
        baseline = solve_maar_multilevel(scenario.graph, config)
        relaxed = solve_maar_multilevel(
            scenario.graph,
            MultilevelConfig(coarsest_nodes=80, refine_tolerance=tolerance),
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
        assert is_valid_cut(2, total, 1, config)
        assert is_valid_cut(5, total, 1, config)
        # Below min_suspicious.
        assert not is_valid_cut(1, total, 1, config)
        # Above the fraction cap.
        assert not is_valid_cut(6, total, 1, config)
        # No cross rejection: no spam evidence.
        assert not is_valid_cut(5, total, 0, config)

    def test_sides_valid_rejects_whole_graph(self):
        config = MultilevelConfig(max_suspicious_fraction=1.0)
        assert not is_valid_cut(8, 8, 1, config)
        assert is_valid_cut(7, 8, 1, config)

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
