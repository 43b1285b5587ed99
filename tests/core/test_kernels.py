"""Property tests for the batch kernels of :mod:`repro.core.kernels`.

Every kernel has a numpy variant and a pure-Python scalar fallback, and
both must be *bit-identical* to each other and to the scalar queries
(``PartitionState.switch_gain``, ``PartitionState.recount``,
``CSRView.rejections_received``). Those queries share the switch rule
with the kernels, so a comparison between them proves little: the
gain and counter kernels and the queries are judged, on both backends,
by the dict-adjacency oracles
(``partition_oracle.Partition``, ``weighted_oracle.WeightedPartition``),
which share no code with them.
The tests run each kernel on residual views with inactive nodes — the
case where an off-by-one in the active-mask handling would hide on
all-active graphs — and on weighted coarse graphs.
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
)

from ..conftest import graphs_with_sides
from .partition_oracle import Partition, induced, switch_deltas
from .weighted_oracle import WeightedPartition, from_csr

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


def weighted_view(seed, backend, residual):
    """A weighted coarse graph's all-active or residual view, its sides,
    and the weighted oracle over the same active edges."""
    from .test_weighted_parity import coarse_state

    csr, sides = coarse_state(seed, levels=2, backend=backend)
    view = csr.view()
    if residual:
        view = view.without(range(2, csr.num_nodes, 5))
    assert any(w > 1 for w in csr.f_wt) and any(w > 1 for w in csr.ro_wt)
    return view, sides, WeightedPartition(from_csr(csr, view.active), sides)


def assert_kernels_match_oracle(view, sides, oracle):
    """Deltas, heap gains and cut counters of ``view`` equal the
    oracle's: per active node its switch's counter deltas and gain,
    ``(0, 0)`` on inactive nodes, and the cut counters."""
    kernel = weighted_gain_deltas if view.csr.weighted else gain_deltas
    fd, rd = kernel(view, sides)
    gains = {k: heap_gains(view, sides, k) for k in K_VALUES}
    active = view.active
    for u in range(view.csr.num_nodes):
        if not active[u]:
            assert (fd[u], rd[u]) == (0, 0)
            continue
        assert (fd[u], rd[u]) == switch_deltas(oracle, u)
        for k in K_VALUES:
            assert gains[k][u] == oracle.switch_gain(u, k)
    ones = sum(1 for u in range(len(sides)) if active[u] and sides[u])
    assert recount_active(view, sides) == (oracle.f_cross, oracle.r_cross, ones)


class TestOracle:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_unit_kernels_on_residual_views(self, backend, graph_and_sides):
        graph, sides = graph_and_sides
        view = residual_view(graph, backend)
        oracle = Partition(induced(graph, view.active), sides)
        assert_kernels_match_oracle(view, list(sides), oracle)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("residual", (False, True))
    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_kernels(self, backend, residual, seed):
        view, sides, oracle = weighted_view(seed, backend, residual)
        assert_kernels_match_oracle(view, sides, oracle)


class TestGainDeltas:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_matches_switch_gain_on_residual_views(self, backend, graph_and_sides):
        """``gain_deltas`` and ``PartitionState.switch_gain`` on a
        residual view, both against the oracle's switch."""
        graph, sides = graph_and_sides
        view = residual_view(graph, backend)
        oracle = Partition(induced(graph, view.active), sides)
        state = PartitionState(view, list(sides))
        fd, rd = gain_deltas(view, state.sides)
        for u in range(graph.num_nodes):
            if not view.active[u]:
                assert (fd[u], rd[u]) == (0, 0)
                continue
            assert (fd[u], rd[u]) == switch_deltas(oracle, u)
            for k in K_VALUES:
                assert state.switch_gain(u, k) == oracle.switch_gain(u, k)

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_backends_identical(self, graph_and_sides):
        """The same residual input on both backends, each judged by the
        one oracle."""
        graph, sides = graph_and_sides
        views = [residual_view(graph, b) for b in ("python", "numpy")]
        oracle = Partition(induced(graph, views[0].active), sides)
        for view in views:
            assert_kernels_match_oracle(view, list(sides), oracle)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(graphs_with_sides())
    @settings(max_examples=30, deadline=None)
    def test_heap_gains_float_exact(self, backend, graph_and_sides):
        """The heap's float gains equal the oracle's to the last bit."""
        graph, sides = graph_and_sides
        view = residual_view(graph, backend)
        oracle = Partition(induced(graph, view.active), sides)
        for k in K_VALUES:
            gains = heap_gains(view, list(sides), k)
            for u in range(graph.num_nodes):
                if view.active[u]:
                    assert gains[u] == oracle.switch_gain(u, k)


class TestRecountActive:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_matches_state_counters(self, backend, graph_and_sides):
        """``recount_active`` and a fresh ``PartitionState``'s counters
        and side sizes against the oracle's cut."""
        graph, sides = graph_and_sides
        view = residual_view(graph, backend)
        oracle = Partition(induced(graph, view.active), sides)
        state = PartitionState(view, list(sides))
        ones = sum(1 for u in range(len(sides)) if view.active[u] and sides[u])
        cut = (oracle.f_cross, oracle.r_cross)
        assert recount_active(view, state.sides) == cut + (ones,)
        assert (state.f_cross, state.r_cross) == cut
        assert state.side_sizes == [view.num_active - ones, ones]

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_backends_identical(self, graph_and_sides):
        """Both backends' counters on the same residual input equal the
        oracle's cut."""
        graph, sides = graph_and_sides
        views = [residual_view(graph, b) for b in ("python", "numpy")]
        oracle = Partition(induced(graph, views[0].active), sides)
        ones = sum(1 for u in range(len(sides)) if views[0].active[u] and sides[u])
        cut = (oracle.f_cross, oracle.r_cross, ones)
        for view in views:
            assert recount_active(view, list(sides)) == cut


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
        """The unweighted gain kernel refuses a weighted graph and its
        weighted twin an unweighted one, on both backends; heap gains
        and the counters take either kind and match the weighted
        oracle."""
        from .test_weighted_parity import coarse_state

        for backend in BACKENDS:
            csr, sides = coarse_state(0, backend=backend)
            view = csr.view()
            with pytest.raises(ValueError, match="unweighted-only"):
                gain_deltas(view, sides)
            oracle = WeightedPartition(from_csr(csr), sides)
            gains = heap_gains(view, sides, 1.0)
            assert gains == [oracle.switch_gain(u, 1.0) for u in range(len(sides))]
            assert recount_active(view, sides)[:2] == (oracle.f_cross, oracle.r_cross)
            plain = AugmentedSocialGraph.from_edges(3, [(0, 1)], [(2, 0)])
            plain_view = plain.csr(backend).view()
            with pytest.raises(ValueError, match="WeightedCSRGraph"):
                weighted_gain_deltas(plain_view, [0, 1, 0])

    def test_unweighted_kernels_refuse_int_weighted_graphs(self):
        from .weighted_oracle import WeightedAugmentedGraph

        graph = WeightedAugmentedGraph(4)
        graph.add_friendship(0, 1, 2.0)
        graph.add_rejection(2, 3, 3.0)
        view = graph.csr().view()
        assert isinstance(view.csr, WeightedCSRGraph)
        with pytest.raises(ValueError, match="unweighted-only"):
            gain_deltas(view, [0, 1, 0, 1])
        sides = [0, 1, 0, 1]
        oracle = WeightedPartition(graph, sides)
        assert (oracle.f_cross, oracle.r_cross) == (2, 3)
        assert recount_active(view, sides) == (oracle.f_cross, oracle.r_cross, 2)
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
