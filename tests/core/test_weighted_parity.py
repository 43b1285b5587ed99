"""Parity suite for the integer-weight CSR pipeline.

Pins the reproducibility contract of the weighted hot path: on
int64-weighted graphs the numpy batch kernels, the pure-python
fallbacks, the fused weighted bucket engine, the heap engine, and the
engine against its full-rebuild reference (:func:`full_rebuild_kl`)
are all *bit-identical* — same sides, same integer counters, same
objective history. Plus the two
structural properties the multilevel solver rests on: unit-weight
contraction always yields exact integer coarse weights, and every
projection between levels preserves the cut weights exactly.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.core.csr import PartitionState, WeightedCSRGraph
from repro.core.kernels import (
    contract_arrays,
    heap_gains,
    heavy_edge_matching,
    matching_to_mapping,
    recount_active,
    weighted_gain_deltas,
)
from repro.core.kl import KLConfig, KLStats, extended_kl_state
from repro.core.objectives import LEGITIMATE, SUSPICIOUS

from ..conftest import augmented_graphs, graphs_with_sides, random_augmented_graph

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy-free hosts
    HAVE_NUMPY = False

BACKENDS = ("python", "numpy") if HAVE_NUMPY else ("python",)

requires_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def coarse_state(seed: int, levels: int = 1, backend: str = "python"):
    """A deterministic int64-weighted state: contract a random graph
    ``levels`` times and carry the projected sides along."""
    graph = random_augmented_graph(
        num_nodes=60, num_friendships=130, num_rejections=50, seed=seed
    )
    rng = random.Random(seed + 1)
    csr = graph.csr(backend)
    sides = [rng.randint(0, 1) for _ in range(csr.num_nodes)]
    for _ in range(levels):
        priority = list(range(csr.num_nodes))
        rng.shuffle(priority)
        match = heavy_edge_matching(csr, priority)
        mapping, num_coarse = matching_to_mapping(match, backend)
        coarse = csr.contract(mapping, num_coarse)
        coarse_sides = [LEGITIMATE] * num_coarse
        for u, cu in enumerate(mapping):
            if sides[u] == SUSPICIOUS:
                coarse_sides[cu] = SUSPICIOUS
        csr, sides = coarse, coarse_sides
    return csr, sides


def full_rebuild_kl(state, k, config=None, stats=None):
    """The engine's full-rebuild reference: one
    ``extended_kl_state(..., max_passes=1)`` call per pass, so every
    pass opens with a full gain refresh instead of the dirty-frontier
    one, all counted into one :class:`KLStats`. Stops after a pass that
    applies nothing, or after ``config.max_passes`` passes, like the
    engine. Same signature as :func:`extended_kl_state`."""
    config = config or KLConfig()
    stats = stats if stats is not None else KLStats()
    one_pass = replace(config, max_passes=1)
    for _ in range(config.max_passes):
        applied = stats.switches_applied
        state = extended_kl_state(state, k, one_pass, stats)
        if stats.switches_applied == applied:
            break
    return state


def run_signature(csr, sides, k, config, engine=extended_kl_state):
    stats = KLStats()
    state = PartitionState(csr.view(), sides, [False] * csr.num_nodes)
    out = engine(state, k, config, stats=stats)
    return (
        list(out.sides),
        out.f_cross,
        out.r_cross,
        list(out.side_sizes),
        stats.objective_history,
    )


def nontrivial(signature) -> bool:
    """A compared run that proves something: it applied at least one
    switch (a second pass starts only after an applied prefix) and ends
    on a suspicious side that is neither empty nor the whole graph."""
    _sides, _f, _r, side_sizes, history = signature
    return len(history) >= 2 and 0 < side_sizes[1] < sum(side_sizes)


class TestIntegerCoarseWeights:
    @settings(max_examples=40, deadline=None)
    @given(augmented_graphs())
    def test_unit_weight_contraction_is_integral(self, graph):
        csr = graph.csr("python")
        match = heavy_edge_matching(csr, list(range(csr.num_nodes)))
        mapping, num_coarse = matching_to_mapping(match, "python")
        coarse = csr.contract(mapping, num_coarse)
        assert isinstance(coarse, WeightedCSRGraph)
        for buffer in (coarse.f_wt, coarse.ro_wt, coarse.ri_wt):
            assert buffer.typecode == "q"
            assert all(w >= 1 for w in buffer)
        assert coarse.total_node_weight() == csr.num_nodes
        # Re-contracting keeps integrality (the million-node hierarchy
        # never leaves the int64 representation).
        match2 = heavy_edge_matching(coarse, list(range(num_coarse)))
        mapping2, num_coarse2 = matching_to_mapping(match2, "python")
        coarse2 = coarse.contract(mapping2, num_coarse2)
        assert isinstance(coarse2, WeightedCSRGraph)
        assert coarse2.total_node_weight() == csr.num_nodes

    @settings(max_examples=40, deadline=None)
    @given(graphs_with_sides())
    def test_projection_preserves_cut_weights_exactly(self, case):
        graph, sides = case
        csr = graph.csr("python")
        n = csr.num_nodes
        match = heavy_edge_matching(csr, list(range(n)))
        mapping, num_coarse = matching_to_mapping(match, "python")
        coarse = csr.contract(mapping, num_coarse)
        # Coarse sides chosen freely, then projected up: the coarse
        # counters must equal a from-scratch fine recount.
        rng = random.Random(7)
        coarse_sides = [rng.randint(0, 1) for _ in range(num_coarse)]
        projected = [coarse_sides[mapping[u]] for u in range(n)]
        fine_state = PartitionState(csr.view(), projected, [False] * n)
        coarse_state_ = PartitionState(
            coarse.view(), coarse_sides, [False] * num_coarse
        )
        assert coarse_state_.f_cross == fine_state.f_cross
        assert coarse_state_.r_cross == fine_state.r_cross
        assert coarse.weighted_suspicious_size(coarse_sides) == sum(
            1 for s in projected if s == SUSPICIOUS
        )


@requires_numpy
class TestCoarseningKernelParity:
    @settings(max_examples=30, deadline=None)
    @given(augmented_graphs())
    def test_matching_and_contraction_match_python(self, graph):
        rng = random.Random(13)
        priority = list(range(graph.num_nodes))
        rng.shuffle(priority)
        locked = [rng.random() < 0.15 for _ in range(graph.num_nodes)]
        py = graph.csr("python")
        np_ = graph.csr("numpy")
        match_py = heavy_edge_matching(py, priority, locked=locked)
        match_np = heavy_edge_matching(np_, priority, locked=locked)
        assert match_py == match_np
        mapping_py, nc_py = matching_to_mapping(match_py, "python")
        mapping_np, nc_np = matching_to_mapping(match_np, "numpy")
        assert nc_py == nc_np
        assert list(mapping_py) == list(mapping_np)
        buffers_py = contract_arrays(py, mapping_py, nc_py)
        buffers_np = contract_arrays(np_, mapping_np, nc_np)
        for buffer_py, buffer_np in zip(buffers_py, buffers_np):
            assert list(buffer_py) == list(buffer_np)

    def test_weighted_kernels_match_python(self):
        for seed in range(5):
            csr_py, sides = coarse_state(seed, backend="python")
            csr_np, _ = coarse_state(seed, backend="numpy")
            view_py, view_np = csr_py.view(), csr_np.view()
            fd_py, rd_py = weighted_gain_deltas(view_py, sides)
            fd_np, rd_np = weighted_gain_deltas(view_np, sides)
            assert list(fd_py) == list(fd_np)
            assert list(rd_py) == list(rd_np)
            assert heap_gains(view_py, sides, 2.0) == heap_gains(view_np, sides, 2.0)
            assert recount_active(view_py, sides) == recount_active(view_np, sides)


class TestWeightedKLParity:
    """Backend × engine × full-rebuild reference: all bit-identical."""

    K_VALUES = (0.25, 1.0, 4.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_bucket_heap_and_modes_agree(self, seed):
        signatures = set()
        proper = False
        for backend in BACKENDS:
            csr, sides = coarse_state(seed, backend=backend)
            for k in self.K_VALUES:
                for gain_index in ("bucket", "heap"):
                    for engine in (full_rebuild_kl, extended_kl_state):
                        config = KLConfig(gain_index=gain_index)
                        signature = run_signature(csr, sides, k, config, engine)
                        signatures.add((k, repr(signature)))
                        proper = proper or nontrivial(signature)
        # One distinct signature per k, whatever the backend/engine/mode.
        assert len(signatures) == len(self.K_VALUES)
        assert proper

    @pytest.mark.parametrize("seed", range(4))
    def test_two_level_coarse_graphs_agree(self, seed):
        proper = False
        for k in (0.5, 2.0):
            reference = None
            for backend in BACKENDS:
                csr, sides = coarse_state(seed, levels=2, backend=backend)
                assert isinstance(csr, WeightedCSRGraph)
                for gain_index in ("bucket", "heap"):
                    signature = run_signature(
                        csr, sides, k, KLConfig(gain_index=gain_index)
                    )
                    if reference is None:
                        reference = signature
                    assert signature == reference
            proper = proper or nontrivial(reference)
        assert proper

    def test_unit_weight_graph_matches_unweighted_solve(self):
        for seed in range(5):
            proper = False
            graph = random_augmented_graph(
                num_nodes=40, num_friendships=90, num_rejections=35, seed=seed
            )
            rng = random.Random(seed)
            sides = [rng.randint(0, 1) for _ in range(graph.num_nodes)]
            plain = graph.csr("python")
            unit = WeightedCSRGraph.from_unit(plain)
            for k in (0.25, 1.0):
                signature = run_signature(plain, sides, k, KLConfig())
                assert run_signature(unit, sides, k, KLConfig()) == signature
                proper = proper or nontrivial(signature)
            assert proper

    def test_weighted_auto_uses_bucket_on_grid(self):
        csr, sides = coarse_state(3)
        assert isinstance(csr, WeightedCSRGraph)
        # Off-grid k falls back to the heap instead of raising.
        proper = False
        for k in (0.3, 1.3):
            off_grid = run_signature(csr, sides, k, KLConfig())
            heap = run_signature(csr, sides, k, KLConfig(gain_index="heap"))
            assert off_grid == heap
            proper = proper or nontrivial(heap)
        assert proper
        with pytest.raises(ValueError, match="bucket grid"):
            run_signature(csr, sides, 0.3, KLConfig(gain_index="bucket"))

    def test_float_weighted_graph_rejects_bucket(self):
        """Fractional weights never reach a pass body: neither the
        oracle builder nor :class:`WeightedCSRGraph` accepts them."""
        from array import array

        from .weighted_oracle import WeightedAugmentedGraph

        graph = WeightedAugmentedGraph(4)
        graph.add_friendship(0, 1, 0.5)
        graph.add_rejection(2, 3, 1.5)
        with pytest.raises(ValueError, match="int64"):
            graph.csr("python")
        base = coarse_state(0)[0]
        weights = [array("d", [1.0] * len(base.f_idx)), base.ro_wt, base.ri_wt]
        with pytest.raises(ValueError, match="int64"):
            WeightedCSRGraph(
                base.num_nodes, base.f_ptr, base.f_idx, base.ro_ptr,
                base.ro_idx, base.ri_ptr, base.ri_idx, *weights,
            )

    def test_residual_weighted_view_falls_back_to_heap(self):
        from repro.core.csr import CSRView

        csr, sides = coarse_state(2)
        assert isinstance(csr, WeightedCSRGraph)
        active = bytearray(b"\x01") * csr.num_nodes
        active[0] = 0
        view = CSRView(csr, active)
        state = PartitionState(view, sides, [False] * csr.num_nodes)
        with pytest.raises(ValueError, match="all-active"):
            extended_kl_state(state, 1.0, KLConfig(gain_index="bucket"))
        # auto silently takes the heap on the residual view.
        out = extended_kl_state(state, 1.0, KLConfig())
        assert out.verify_counts()
