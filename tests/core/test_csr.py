"""Tests for the flat-array CSR core: CSRGraph, CSRView, PartitionState."""

import importlib.util
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AugmentedSocialGraph,
    CSRGraph,
    PartitionState,
    resolve_backend,
)
from repro.core.csr import WeightedCSRGraph

from ..conftest import graphs_with_sides, random_augmented_graph
from .partition_oracle import Partition, cut_counts
from .weighted_oracle import WeightedAugmentedGraph, WeightedPartition


def small_graph():
    return AugmentedSocialGraph.from_edges(
        6,
        friendships=[(3, 1), (0, 1), (4, 0), (2, 5)],
        rejections=[(5, 2), (0, 3), (0, 2), (4, 2)],
    )


class TestResolveBackend:
    def test_auto_prefers_numpy_when_available(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend("auto") == "numpy"

    def test_env_override_pins_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert resolve_backend("auto") == "python"
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        assert resolve_backend("auto") in ("python", "numpy")

    def test_env_override_leaves_explicit_choice_alone(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert resolve_backend("python") == "python"

    def test_explicit_names_pass_through(self):
        assert resolve_backend("python") == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("fortran")


class TestCSRGraph:
    def test_adjacency_is_sorted_regardless_of_insertion_order(self):
        csr = small_graph().csr()
        fp, fi, op, oi, ip_, ii = csr.hot()
        for ptr, idx in ((fp, fi), (op, oi), (ip_, ii)):
            for u in range(csr.num_nodes):
                row = idx[ptr[u] : ptr[u + 1]]
                assert row == sorted(row)

    def test_counts_match_builder(self):
        graph = small_graph()
        csr = graph.csr()
        assert csr.num_nodes == graph.num_nodes
        assert csr.num_friendships == graph.num_friendships
        assert csr.num_rejections == graph.num_rejections
        for u in range(graph.num_nodes):
            assert csr.degree(u) == graph.degree(u)
            assert csr.rejections_cast(u) == graph.rejections_cast(u)
            assert csr.rejections_received(u) == graph.rejections_received(u)

    def test_edge_iteration_is_sorted_and_complete(self):
        graph = small_graph()
        csr = graph.csr()
        assert list(csr.friendships()) == sorted(graph.friendships())
        assert list(csr.rejections()) == sorted(graph.rejections())

    def test_from_edges_dedupes_and_drops_self_loops(self):
        csr = CSRGraph.from_edges(
            4,
            friendships=[(0, 1), (1, 0), (0, 1), (2, 2)],
            rejections=[(3, 0), (3, 0), (1, 1)],
        )
        assert csr.num_friendships == 1
        assert csr.num_rejections == 1
        assert csr.has_friendship(1, 0)
        assert csr.has_rejection(3, 0)
        assert not csr.has_rejection(0, 3)

    def test_backends_share_identical_storage(self):
        pytest.importorskip("numpy")
        graph = small_graph()
        py = CSRGraph.from_builder(graph, backend="python")
        np_ = CSRGraph.from_builder(graph, backend="numpy")
        assert py.hot() == np_.hot()

    def test_numpy_views_are_zero_copy(self):
        np = pytest.importorskip("numpy")
        csr = small_graph().csr(backend="numpy")
        arrays = csr.numpy_arrays()
        assert arrays["f_idx"].dtype == np.int64
        assert list(arrays["f_idx"]) == list(csr.f_idx)
        # A view over the same buffer, not a copy.
        assert arrays["f_idx"].base is not None

    def test_csr_of_csr_is_identity(self):
        csr = small_graph().csr()
        assert csr.csr() is csr

    def test_builder_caches_and_invalidates(self):
        graph = small_graph()
        first = graph.csr()
        assert graph.csr() is first
        graph.add_friendship(3, 4)
        second = graph.csr()
        assert second is not first
        assert second.has_friendship(3, 4)
        graph.add_rejection(1, 5)
        assert graph.csr() is not second
        n = graph.num_nodes
        graph.add_node()
        assert graph.csr().num_nodes == n + 1

    def test_empty_graph(self):
        csr = AugmentedSocialGraph(0).csr()
        assert len(csr) == 0
        assert list(csr.friendships()) == []
        assert csr.view().num_active == 0


CSR_BUFFERS = ("f_ptr", "f_idx", "ro_ptr", "ro_idx", "ri_ptr", "ri_idx")


def assert_same_buffers(batch, scalar):
    assert batch.num_nodes == scalar.num_nodes
    for name in CSR_BUFFERS:
        got, want = getattr(batch, name), getattr(scalar, name)
        assert isinstance(got, array) and got.typecode == "q", name
        assert got.tobytes() == want.tobytes(), name


@st.composite
def edge_lists(draw):
    """Node count plus raw friendship and rejection pairs, with
    duplicates, self-loops, both directions and isolated nodes."""
    n = draw(st.integers(min_value=0, max_value=14))
    if n == 0:
        return 0, [], []
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    return (
        n,
        draw(st.lists(pair, max_size=50)),
        draw(st.lists(pair, max_size=50)),
    )


@pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy not installed"
)
class TestBatchPacker:
    """``from_edges`` on the numpy backend against the python loops."""

    @given(edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_property_matches_python_loops(self, case):
        n, friendships, rejections = case
        scalar = CSRGraph.from_edges(n, friendships, rejections, backend="python")
        batch = CSRGraph.from_edges(n, friendships, rejections, backend="numpy")
        assert_same_buffers(batch, scalar)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_random_graphs_match_builder(self, seed):
        graph = random_augmented_graph(300, 1200, 500, seed=seed)
        friendships = list(graph.friendships())
        # Every edge twice, once reversed, plus self-loops.
        friendships += [(v, u) for u, v in friendships] + [(7, 7), (9, 9)]
        rejections = list(graph.rejections()) * 2 + [(4, 4)]
        batch = CSRGraph.from_edges(300, friendships, rejections, backend="numpy")
        assert_same_buffers(batch, CSRGraph.from_builder(graph, backend="python"))

    def test_accepts_arrays_and_generators(self):
        np = pytest.importorskip("numpy")
        edges = [(0, 1), (2, 1), (1, 0)]
        want = CSRGraph.from_edges(3, edges, edges, backend="python")
        for given_edges in (np.array(edges), (edge for edge in edges)):
            batch = CSRGraph.from_edges(3, given_edges, edges, backend="numpy")
            assert_same_buffers(batch, want)

    def test_out_of_range_ids_raise(self):
        for edges in ([(0, 3)], [(-1, 2)]):
            with pytest.raises(IndexError, match="out of range"):
                CSRGraph.from_edges(3, edges, backend="numpy")
            with pytest.raises(IndexError, match="out of range"):
                CSRGraph.from_edges(3, rejections=edges, backend="numpy")
        # Self-loops are dropped before the range check, as in the loops.
        assert CSRGraph.from_edges(3, [(5, 5)], backend="numpy").num_friendships == 0

    def test_non_pairs_raise(self):
        for edges in ([(0, 1, 2)], [(0.0, 1.0)]):
            with pytest.raises(ValueError, match="pairs"):
                CSRGraph.from_edges(3, edges, backend="numpy")


class TestCSRView:
    def test_without_is_zero_copy_and_idempotent(self):
        csr = small_graph().csr()
        view = csr.view()
        residual = view.without([1, 1, 5])
        assert residual.csr is csr  # shares the arrays
        assert residual.num_active == csr.num_nodes - 2
        assert view.num_active == csr.num_nodes  # original untouched
        again = residual.without([1])
        assert again.num_active == residual.num_active

    def test_without_rejects_out_of_range_ids(self):
        """Regression: ``active[-1] = 0`` used to silently deactivate
        node ``num_nodes - 1`` via Python's negative indexing."""
        view = small_graph().csr().view()
        with pytest.raises(ValueError, match="out of range"):
            view.without([-1])
        with pytest.raises(ValueError, match="out of range"):
            view.without([6])
        # The failed call must not leave a half-applied mask behind.
        assert view.num_active == 6
        assert view.without([5]).num_active == 5

    def test_is_active_rejects_out_of_range_ids(self):
        view = small_graph().csr().view()
        with pytest.raises(ValueError, match="out of range"):
            view.is_active(-1)
        with pytest.raises(ValueError, match="out of range"):
            view.is_active(6)
        assert view.is_active(5)

    def test_without_negative_id_never_drops_last_node(self):
        view = small_graph().csr().view()
        try:
            view.without([-1])
        except ValueError:
            pass
        assert view.is_active(5)  # the node -1 used to alias

    def test_active_filtered_counts_match_subgraph(self):
        graph = random_augmented_graph(30, 60, 40, seed=3)
        keep = [u for u in range(30) if u % 3 != 0]
        sub, old_ids = graph.subgraph(keep)
        view = graph.csr().view().without(
            [u for u in range(30) if u % 3 == 0]
        )
        assert view.active_nodes() == old_ids
        for new, old in enumerate(old_ids):
            assert view.degree(old) == sub.degree(new)
            assert view.rejections_received(old) == sub.rejections_received(new)


class TestPartitionState:
    def test_sides_and_locked_validation(self):
        view = small_graph().csr().view()
        with pytest.raises(ValueError, match="sides has length"):
            PartitionState(view, [0, 1])
        with pytest.raises(ValueError, match="sides must be 0 or 1"):
            PartitionState(view, [0, 1, 2, 0, 0, 0])
        with pytest.raises(ValueError, match="locked has length"):
            PartitionState(view, [0] * 6, locked=[True])

    def test_copy_shares_view_and_locks_but_not_sides(self):
        state = PartitionState(small_graph().csr().view(), [0, 1, 0, 1, 0, 1])
        clone = state.copy()
        clone.switch(0)
        assert state.sides[0] == 0
        assert clone.view is state.view
        assert clone.locked is state.locked

    @given(graphs_with_sides())
    @settings(max_examples=60, deadline=None)
    def test_counters_match_partition_on_full_view(self, graph_and_sides):
        graph, sides = graph_and_sides
        reference = Partition(graph, sides)
        state = PartitionState(graph.csr().view(), sides)
        assert (state.f_cross, state.r_cross) == (
            reference.f_cross,
            reference.r_cross,
        )
        assert state.suspicious_nodes() == reference.suspicious_nodes()
        assert state.suspicious_size == reference.suspicious_size

    @given(
        graphs_with_sides(),
        st.lists(st.integers(min_value=0, max_value=23), max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_switch_sequences_track_partition_exactly(
        self, graph_and_sides, switches
    ):
        graph, sides = graph_and_sides
        reference = Partition(graph, sides)
        state = PartitionState(graph.csr().view(), sides)
        for u in switches:
            u %= graph.num_nodes
            gain_ref = reference.switch_gain(u, 0.625)
            assert state.switch_gain(u, 0.625) == pytest.approx(gain_ref)
            reference.switch(u)
            state.switch(u)
            assert (state.f_cross, state.r_cross) == (
                reference.f_cross,
                reference.r_cross,
            )
            assert state.sides == reference.sides
        assert state.verify_counts()

    @given(graphs_with_sides(), st.sets(st.integers(min_value=0, max_value=23)))
    @settings(max_examples=60, deadline=None)
    def test_residual_state_matches_subgraph_partition(
        self, graph_and_sides, removed
    ):
        graph, sides = graph_and_sides
        removed = {u for u in removed if u < graph.num_nodes}
        keep = [u for u in range(graph.num_nodes) if u not in removed]
        if not keep:
            return
        sub, old_ids = graph.subgraph(keep)
        reference = Partition(sub, [sides[u] for u in old_ids])
        state = PartitionState(graph.csr().view().without(removed), sides)
        assert (state.f_cross, state.r_cross) == (
            reference.f_cross,
            reference.r_cross,
        )
        assert state.suspicious_nodes() == [
            old_ids[v] for v in reference.suspicious_nodes()
        ]
        # Switching any kept node keeps the two in lockstep.
        for u in keep[: min(5, len(keep))]:
            state.switch(u)
            reference.switch(old_ids.index(u))
            assert (state.f_cross, state.r_cross) == (
                reference.f_cross,
                reference.r_cross,
            )

    def test_weighted_state_matches_weighted_partition(self):
        graph = random_augmented_graph(20, 40, 25, seed=9)
        weighted = WeightedAugmentedGraph.from_graph(graph)
        weighted.add_friendship(0, 1, 2)
        weighted.add_rejection(2, 3, 3)
        sides = [u % 2 for u in range(20)]
        reference = WeightedPartition(weighted, sides)
        state = PartitionState(weighted.csr().view(), sides)
        assert (state.f_cross, state.r_cross) == (
            reference.f_cross,
            reference.r_cross,
        )
        for u in (0, 3, 7, 0, 12):
            assert state.switch_gain(u, 0.7) == reference.switch_gain(u, 0.7)
            state.switch(u)
            reference.switch(u)
            assert (state.f_cross, state.r_cross) == (
                reference.f_cross,
                reference.r_cross,
            )
        assert type(state.f_cross) is int and type(state.r_cross) is int
        assert state.verify_counts()

    def test_only_weighted_csr_graph_takes_weights(self):
        """Edge weights exist only on :class:`WeightedCSRGraph`, and only
        as int64: the plain constructor has no weight parameters and
        the weighted one refuses float arrays."""
        from array import array

        csr = small_graph().csr()
        arrays = (csr.f_ptr, csr.f_idx, csr.ro_ptr, csr.ro_idx, csr.ri_ptr, csr.ri_idx)
        floats = [array("d", [1.0]) * len(a) for a in arrays[1::2]]
        with pytest.raises(TypeError):
            CSRGraph(csr.num_nodes, *arrays, *floats)
        assert CSRGraph(csr.num_nodes, *arrays).f_wt is None
        with pytest.raises(ValueError, match="int64"):
            WeightedCSRGraph(csr.num_nodes, *arrays, *floats)
        ints = [array("q", [2]) * len(a) for a in arrays[1::2]]
        weighted = WeightedCSRGraph(csr.num_nodes, *arrays, *ints)
        assert weighted.weighted and not csr.weighted

    def test_objective_and_rates_delegate_to_counters(self):
        graph, sides = small_graph(), [0, 0, 1, 1, 0, 1]
        state = PartitionState(graph.csr().view(), sides)
        f, r = cut_counts(graph, sides)
        assert state.objective(2.0) == f - 2.0 * r
        assert state.acceptance_rate() == Partition(graph, sides).acceptance_rate()
