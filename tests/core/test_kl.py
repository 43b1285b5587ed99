"""Tests for the extended Kernighan-Lin search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AugmentedSocialGraph,
    KLConfig,
    KLStats,
    extended_kl,
)
from repro.core.csr import PartitionState
from repro.core.kl import extended_kl_state, refine_subset

from ..conftest import augmented_graphs, random_augmented_graph
from .partition_oracle import Partition, cut_counts


def planted_spam_graph():
    """Two legit cliques plus a fake group mostly rejected by legit users."""
    graph = AugmentedSocialGraph(9)
    for group in ([0, 1, 2], [3, 4, 5]):
        for i in group:
            for j in group:
                if i < j:
                    graph.add_friendship(i, j)
    graph.add_friendship(2, 3)  # bridge between legit cliques
    fakes = [6, 7, 8]
    for f in fakes:
        graph.add_friendship(f, (f + 1 - 6) % 3 + 6)
    # Each fake: one accepted request, four rejections.
    accepted = {6: 0, 7: 3, 8: 5}
    for f, friend in accepted.items():
        graph.add_friendship(f, friend)
    for f in fakes:
        for legit in range(1, 5):
            rejecter = (accepted[f] + legit) % 6
            graph.add_rejection(rejecter, f)
    return graph, fakes


class TestExtendedKL:
    def test_separates_planted_spammers(self):
        graph, fakes = planted_spam_graph()
        result = extended_kl(graph, k=1.0, initial=Partition.all_legitimate(graph))
        assert sorted(result.suspicious_nodes()) == fakes

    def test_counters_remain_consistent(self):
        graph, _ = planted_spam_graph()
        result = extended_kl(graph, k=2.0, initial=Partition.all_legitimate(graph))
        assert result.verify_counts()

    def test_does_not_mutate_initial_partition(self):
        graph, _ = planted_spam_graph()
        init = Partition.all_legitimate(graph)
        extended_kl(graph, k=1.0, initial=init)
        assert init.suspicious_size == 0
        assert init.f_cross == 0

    def test_objective_never_increases_across_passes(self):
        graph = random_augmented_graph(60, 150, 120, seed=3)
        stats = KLStats()
        k = 2.0
        extended_kl(
            graph, k, Partition.all_legitimate(graph), stats=stats
        )
        history = stats.objective_history
        assert history == sorted(history, reverse=True)

    def test_result_is_single_switch_local_minimum(self):
        """After convergence, no single unlocked switch can strictly
        improve the objective (within the applied-prefix semantics)."""
        graph = random_augmented_graph(40, 100, 80, seed=7)
        k = 1.0
        result = extended_kl(graph, k, Partition.all_legitimate(graph))
        for u in range(graph.num_nodes):
            assert result.switch_gain(u, k) <= 1e-9

    def test_locked_nodes_never_switch(self):
        graph, fakes = planted_spam_graph()
        locked = [False] * graph.num_nodes
        locked[0] = True  # legit seed on side 0
        locked[6] = True  # spammer seed pre-placed on side 1
        init = Partition.from_suspicious_set(graph, [6])
        result = extended_kl(graph, k=1.0, initial=init, locked=locked)
        assert result.sides[0] == 0
        assert result.sides[6] == 1

    def test_all_locked_is_identity(self):
        graph, _ = planted_spam_graph()
        init = Partition.from_suspicious_set(graph, [1, 7])
        result = extended_kl(
            graph, k=1.0, initial=init, locked=[True] * graph.num_nodes
        )
        assert result.sides == init.sides

    def test_invalid_k_rejected(self):
        graph = AugmentedSocialGraph(2)
        with pytest.raises(ValueError):
            extended_kl(graph, k=0.0, initial=Partition.all_legitimate(graph))

    def test_locked_length_mismatch_rejected(self):
        graph = AugmentedSocialGraph(3)
        with pytest.raises(ValueError):
            extended_kl(
                graph, 1.0, Partition.all_legitimate(graph), locked=[True]
            )

    def test_empty_graph(self):
        graph = AugmentedSocialGraph(0)
        result = extended_kl(graph, 1.0, Partition.all_legitimate(graph))
        assert result.sides == []

    def test_isolated_nodes_stay_put(self):
        """Isolated nodes have zero gain; they must not flap across sides."""
        graph = AugmentedSocialGraph(5)
        graph.add_rejection(0, 1)
        result = extended_kl(graph, 4.0, Partition.all_legitimate(graph))
        # Node 1 should be suspicious (gain k - 0 > 0); isolated 2..4 stay.
        assert result.sides[1] == 1
        assert result.sides[2:] == [0, 0, 0]

    def test_stall_limit_terminates_early(self):
        graph = random_augmented_graph(80, 200, 150, seed=11)
        full_stats = KLStats()
        extended_kl(
            graph, 1.0, Partition.all_legitimate(graph), stats=full_stats
        )
        capped_stats = KLStats()
        extended_kl(
            graph,
            1.0,
            Partition.all_legitimate(graph),
            config=KLConfig(stall_limit=5),
            stats=capped_stats,
        )
        assert capped_stats.switches_tested < full_stats.switches_tested


class TestNoOpConfigsRejected:
    """Settings that used to turn the search off without a word — the
    initial partition came back with zero switches tested — now raise."""

    @pytest.fixture
    def state(self):
        graph = random_augmented_graph(30, 60, 30, seed=4)
        return PartitionState(graph.csr().view(), [0] * 30)

    @pytest.mark.parametrize("stall_limit", [0, -3])
    def test_non_positive_stall_limit(self, state, stall_limit):
        config = KLConfig(stall_limit=stall_limit)
        with pytest.raises(ValueError, match="stall_limit"):
            extended_kl_state(state, 1.0, config)
        with pytest.raises(ValueError, match="stall_limit"):
            refine_subset(
                state.view, list(state.sides), state.locked, range(30), 1.0,
                config,
            )

    @pytest.mark.parametrize("resolution", [0, -8])
    def test_non_positive_resolution(self, state, resolution):
        config = KLConfig(resolution=resolution)
        with pytest.raises(ValueError, match="resolution"):
            extended_kl_state(state, 1.0, config)
        with pytest.raises(ValueError, match="resolution"):
            refine_subset(
                state.view, list(state.sides), state.locked, range(30), 1.0,
                config,
            )

    @pytest.mark.parametrize("resolution", [8.0, 2.5, True, "8"])
    def test_non_int_resolution(self, state, resolution):
        """A float resolution used to die inside the bucket pass (list
        index) or, off the grid, silently run the heap; a bool passed as
        1."""
        config = KLConfig(resolution=resolution)
        with pytest.raises(ValueError, match="resolution must be a positive int"):
            extended_kl_state(state, 1.0, config)
        with pytest.raises(ValueError, match="resolution must be a positive int"):
            refine_subset(
                state.view, list(state.sides), state.locked, range(30), 1.0,
                config,
            )
        graph = random_augmented_graph(30, 60, 30, seed=4)
        with pytest.raises(ValueError, match="resolution must be a positive int"):
            extended_kl(
                graph, 1.0, Partition.all_legitimate(graph), config=config
            )


    @pytest.mark.parametrize("max_passes", [0, -1])
    def test_non_positive_max_passes(self, state, max_passes):
        config = KLConfig(max_passes=max_passes)
        with pytest.raises(ValueError, match="max_passes"):
            extended_kl_state(state, 1.0, config)
        with pytest.raises(ValueError, match="max_passes"):
            refine_subset(
                state.view, list(state.sides), state.locked, range(30), 1.0,
                config,
            )

    @pytest.mark.parametrize("k", [float("nan"), float("inf"), -0.5])
    @pytest.mark.parametrize("gain_index", ["bucket", "heap", "auto"])
    def test_non_finite_k_named(self, state, k, gain_index):
        """NaN passes a plain ``k <= 0`` guard, and neither NaN nor inf
        has a bucket index, so both must be rejected by name."""
        config = KLConfig(gain_index=gain_index)
        with pytest.raises(ValueError, match="k must be a positive finite"):
            extended_kl_state(state, k, config)
        with pytest.raises(ValueError, match="k must be a positive finite"):
            refine_subset(
                state.view, list(state.sides), state.locked, range(30), k,
                config,
            )


class TestRefineSubsetInputs:
    """``refine_subset`` rejects bad node ids, mis-sized vectors and gain
    index settings with the same errors as ``extended_kl_state``."""

    N = 30

    @pytest.fixture
    def state(self):
        graph = random_augmented_graph(self.N, 60, 30, seed=4)
        return PartitionState(graph.csr().view(), [0] * self.N)

    def refine(self, state, nodes, k=1.0, config=None, sides=None, locked=None):
        return refine_subset(
            state.view,
            list(state.sides) if sides is None else sides,
            state.locked if locked is None else locked,
            nodes,
            k,
            config,
        )

    @pytest.mark.parametrize(
        "nodes,bad",
        [([-1], -1), ([-1, N - 1], -1), ([N], N), ([0, 5, N + 3], N + 3)],
    )
    def test_out_of_range_node_ids(self, state, nodes, bad):
        with pytest.raises(ValueError, match=f"node id {bad} is out of range"):
            self.refine(state, nodes)

    def test_duplicate_ids_switch_once(self, state):
        once = self.refine(state, range(self.N))
        twice = self.refine(state, list(range(self.N)) * 2)
        assert twice == once

    @pytest.mark.parametrize("length", [N - 1, N + 1])
    def test_wrong_sides_length(self, state, length):
        with pytest.raises(ValueError, match="sides has length"):
            self.refine(state, [0], sides=[0] * length)

    @pytest.mark.parametrize("length", [N - 1, N + 1])
    def test_wrong_locked_length(self, state, length):
        with pytest.raises(ValueError, match="locked has length"):
            self.refine(state, [0], locked=[False] * length)

    @pytest.mark.parametrize(
        "gain_index,k,message",
        [
            ("bogus", 1.0, "unknown gain index kind 'bogus'"),
            ("bucket", 0.3, "off the 1/8 bucket grid"),
        ],
    )
    def test_gain_index_errors_match_engine(self, state, gain_index, k, message):
        config = KLConfig(gain_index=gain_index)
        with pytest.raises(ValueError, match=message):
            extended_kl_state(state, k, config)
        with pytest.raises(ValueError, match=message):
            self.refine(state, range(self.N), k, config)

    def test_weighted_bucket_needs_all_active_view(self):
        graph = random_augmented_graph(self.N, 60, 30, seed=4)
        csr = graph.csr().contract(list(range(self.N)), self.N)
        view = csr.view().without([0])
        config = KLConfig(gain_index="bucket")
        state = PartitionState(view, [0] * self.N)
        for run in (
            lambda: extended_kl_state(state, 1.0, config),
            lambda: refine_subset(view, [0] * self.N, state.locked, [1], 1.0, config),
        ):
            with pytest.raises(ValueError, match="all-active view"):
                run()


class TestGainIndexEquivalence:
    @pytest.mark.parametrize("k", [0.125, 0.5, 1.0, 4.0, 64.0])
    def test_bucket_and_heap_reach_same_objective(self, k):
        """Both gain containers implement the same greedy discipline, so
        the full pass must produce identical cuts."""
        graph = random_augmented_graph(60, 150, 120, seed=5)
        init = Partition.all_legitimate(graph)
        bucket = extended_kl(
            graph, k, init, config=KLConfig(gain_index="bucket")
        )
        heap = extended_kl(graph, k, init, config=KLConfig(gain_index="heap"))
        assert bucket.objective(k) == pytest.approx(heap.objective(k))

    def test_heap_handles_off_grid_k(self):
        graph = random_augmented_graph(30, 60, 60, seed=9)
        result = extended_kl(
            graph,
            0.3,
            Partition.all_legitimate(graph),
            config=KLConfig(gain_index="auto"),
        )
        assert result.verify_counts()


@given(augmented_graphs(max_nodes=16, max_edges=40), st.sampled_from([0.25, 1.0, 4.0]))
@settings(max_examples=40, deadline=None)
def test_kl_never_worsens_the_initial_objective(graph, k):
    init = Partition.all_legitimate(graph)
    result = extended_kl(graph, k, init)
    assert result.objective(k) <= init.objective(k) + 1e-9
    assert (result.f_cross, result.r_cross) == cut_counts(graph, result.sides)


@given(augmented_graphs(max_nodes=14, max_edges=30), st.data())
@settings(max_examples=40, deadline=None)
def test_kl_respects_arbitrary_locks(graph, data):
    locked = data.draw(
        st.lists(
            st.booleans(), min_size=graph.num_nodes, max_size=graph.num_nodes
        )
    )
    sides = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=graph.num_nodes,
            max_size=graph.num_nodes,
        )
    )
    init = Partition(graph, sides)
    result = extended_kl(graph, 1.0, init, locked=locked)
    for u, is_locked in enumerate(locked):
        if is_locked:
            assert result.sides[u] == sides[u]
