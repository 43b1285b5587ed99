"""Property tests for the batch kernels of :mod:`repro.core.kernels`.

Every kernel has a numpy variant and a pure-Python scalar fallback, and
both must be *bit-identical* to the scalar reference computations the
engines used before the kernels existed (``PartitionState.switch_gain``,
``PartitionState.recount``, ``CSRView.rejections_received``). The tests
run each kernel on residual views with inactive nodes — the case where
an off-by-one in the active-mask handling would hide on all-active
graphs.
"""

import pytest
from hypothesis import given, settings

from repro.core import AugmentedSocialGraph
from repro.core.csr import PartitionState, WeightedCSRGraph
from repro.core.gains import HeapGainIndex
from repro.core.kernels import (
    active_in_rejections,
    gain_deltas,
    heap_gains,
    recount_active,
    scaled_gain_bound,
    weighted_gain_deltas,
    weighted_recount_active,
)

from ..conftest import graphs_with_sides

try:
    import numpy  # noqa: F401

    HAS_NUMPY = True
except ImportError:  # pragma: no cover
    HAS_NUMPY = False

BACKENDS = ("python", "numpy") if HAS_NUMPY else ("python",)
K_VALUES = (0.125, 1.0, 4.0, 0.3)


def residual_view(graph, backend):
    """A residual view dropping every fifth node (exercises the active
    mask) on the requested backend."""
    removed = [u for u in range(graph.num_nodes) if u % 5 == 4]
    return graph.csr(backend).view().without(removed)


class TestGainDeltas:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_matches_switch_gain_on_residual_views(self, backend, graph_and_sides):
        graph, sides = graph_and_sides
        view = residual_view(graph, backend)
        state = PartitionState(view, list(sides))
        fd, rd = gain_deltas(view, state.sides)
        active = view.active
        for u in range(graph.num_nodes):
            if not active[u]:
                assert (fd[u], rd[u]) == (0, 0)
                continue
            for k in K_VALUES:
                assert -(fd[u] - k * rd[u]) == state.switch_gain(u, k)

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_backends_identical(self, graph_and_sides):
        graph, sides = graph_and_sides
        py = gain_deltas(residual_view(graph, "python"), list(sides))
        np_ = gain_deltas(residual_view(graph, "numpy"), list(sides))
        assert np_ == py

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(graphs_with_sides())
    @settings(max_examples=30, deadline=None)
    def test_heap_gains_float_exact(self, backend, graph_and_sides):
        graph, sides = graph_and_sides
        view = residual_view(graph, backend)
        state = PartitionState(view, list(sides))
        for k in K_VALUES:
            gains = heap_gains(view, state.sides, k)
            for u in range(graph.num_nodes):
                if view.active[u]:
                    assert gains[u] == state.switch_gain(u, k)


class TestRecountActive:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_matches_state_counters(self, backend, graph_and_sides):
        graph, sides = graph_and_sides
        view = residual_view(graph, backend)
        state = PartitionState(view, list(sides))
        f_cross, r_cross, ones = recount_active(view, state.sides)
        assert f_cross == state.f_cross
        assert r_cross == state.r_cross
        assert ones == state.side_sizes[1]
        assert view.num_active - ones == state.side_sizes[0]

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_backends_identical(self, graph_and_sides):
        graph, sides = graph_and_sides
        py = recount_active(residual_view(graph, "python"), list(sides))
        np_ = recount_active(residual_view(graph, "numpy"), list(sides))
        assert np_ == py


class TestActiveInRejections:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_matches_view_rejections_received(self, backend, graph_and_sides):
        graph, _ = graph_and_sides
        view = residual_view(graph, backend)
        counts = active_in_rejections(view)
        assert counts == [
            view.rejections_received(u) for u in range(graph.num_nodes)
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_graph_counts_rejecters(self, backend, seed):
        """On a weighted residual view the kernel still counts active
        rejecters, whatever their edge weights."""
        from .test_weighted_parity import coarse_state

        csr, _ = coarse_state(seed, levels=2, backend=backend)
        view = csr.view().without(range(0, csr.num_nodes, 5))
        counts = active_in_rejections(view)
        assert counts == [
            view.rejections_received(u) for u in range(csr.num_nodes)
        ]
        assert any(w > 1 for w in csr.ri_wt)


class TestScaledGainBound:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_covers_every_scaled_gain(self, backend, graph_and_sides):
        graph, sides = graph_and_sides
        csr = graph.csr(backend)
        view = residual_view(graph, backend)
        res = 8
        fd, rd = gain_deltas(view, list(sides))
        for k_scaled in (1, 8, 32):
            bound = scaled_gain_bound(csr, res, k_scaled)
            assert bound == csr.bucket_gain_bound(res, k_scaled)
            for u in range(graph.num_nodes):
                assert abs(k_scaled * rd[u] - fd[u] * res) <= bound

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_backends_identical(self, graph_and_sides):
        graph, _ = graph_and_sides
        py = scaled_gain_bound(graph.csr("python"), 8, 8)
        np_ = scaled_gain_bound(graph.csr("numpy"), 8, 8)
        assert np_ == py


class TestWeightedRejected:
    def test_kernels_refuse_weighted_graphs(self):
        """The unweighted gain kernels refuse a weighted graph, and their
        weighted twins refuse an unweighted one, on both backends."""
        from .test_weighted_parity import coarse_state

        for backend in BACKENDS:
            csr, sides = coarse_state(0, backend=backend)
            view = csr.view()
            with pytest.raises(ValueError, match="unweighted-only"):
                gain_deltas(view, sides)
            with pytest.raises(ValueError, match="unweighted-only"):
                heap_gains(view, sides, 1.0)
            with pytest.raises(ValueError, match="unweighted-only"):
                recount_active(view, sides)
            plain = AugmentedSocialGraph.from_edges(3, [(0, 1)], [(2, 0)])
            plain_view = plain.csr(backend).view()
            for kernel in (weighted_gain_deltas, weighted_recount_active):
                with pytest.raises(ValueError, match="WeightedCSRGraph"):
                    kernel(plain_view, [0, 1, 0])

    def test_unweighted_kernels_refuse_int_weighted_graphs(self):
        from .weighted_oracle import WeightedAugmentedGraph

        graph = WeightedAugmentedGraph(4)
        graph.add_friendship(0, 1, 2.0)
        graph.add_rejection(2, 3, 3.0)
        view = graph.csr().view()
        assert isinstance(view.csr, WeightedCSRGraph)
        with pytest.raises(ValueError, match="unweighted-only"):
            gain_deltas(view, [0, 1, 0, 1])
        with pytest.raises(ValueError, match="unweighted-only"):
            recount_active(view, [0, 1, 0, 1])
        # scaled_gain_bound supports int64 weights: weighted degrees
        # (max over nodes of deg_F·res + k_scaled·deg_R — here node 2's
        # weight-3 rejection dominates node 0's weight-2 friendship).
        assert scaled_gain_bound(view.csr, 8, 8) == max(2 * 8, 8 * 3)


class TestHeapBulkLoad:
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_pop_order_matches_sequential_insert(self, graph_and_sides):
        graph, sides = graph_and_sides
        view = residual_view(graph, "python")
        state = PartitionState(view, list(sides))
        items = [
            (u, state.switch_gain(u, 0.3))
            for u in range(graph.num_nodes)
            if view.active[u]
        ]
        sequential = HeapGainIndex()
        for u, gain in items:
            sequential.insert(u, gain)
        bulk = HeapGainIndex()
        bulk.bulk_load(items)
        assert len(bulk) == len(sequential)
        while True:
            a, b = sequential.pop_max(), bulk.pop_max()
            assert a == b
            if a is None:
                break

    def test_bulk_load_rejects_duplicates(self):
        index = HeapGainIndex()
        with pytest.raises(ValueError, match="already present"):
            index.bulk_load([(1, 0.5), (1, 0.25)])
