"""Tests for the ``repro.core.parallel`` execution layer.

The contract is: whatever ``jobs``, ``parallel_map`` returns
``[fn(item, shared) for item in items]`` — same values, same order, with
worker exceptions propagating. The MAAR-facing guarantees (bit-identical
sweeps) live in ``tests/core/test_parity.py``; here we pin the layer
itself plus the pickling support the spawned process pool relies on.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.core import AugmentedSocialGraph
from repro.core import parallel
from repro.core.csr import CSRGraph, PartitionState, WeightedCSRGraph
from repro.core.parallel import default_jobs, parallel_map

#: ``jobs=1`` is the in-process loop, ``jobs=2`` the process pool.
JOBS = [pytest.param(1, id="serial"), pytest.param(2, id="process")]


def square_plus_shared(item, shared):
    """Module-level so the process pool can pickle it by reference."""
    offset = 0 if shared is None else shared["offset"]
    return item * item + offset


def boom(item, shared):
    raise RuntimeError(f"boom on {item}")


def weighted_flat_lists(graph):
    """Every buffer of a weighted CSR graph as plain int lists — the
    bit-for-bit comparison key for pickle round-trips. Module-level so a
    spawn worker can import it."""
    return [
        [int(x) for x in getattr(graph, name)]
        for name in (
            "f_ptr",
            "f_idx",
            "ro_ptr",
            "ro_idx",
            "ri_ptr",
            "ri_idx",
            "f_wt",
            "ro_wt",
            "ri_wt",
            "node_weight",
        )
    ]


def weighted_buffer(item, graph):
    """Pool task: one buffer of the shared weighted graph. Module-level
    so a spawned worker can import it."""
    return weighted_flat_lists(graph)[item]


def contracted_graph(backend):
    """A weighted coarse graph: pairs contracted so the weights are
    genuinely non-unit."""
    csr = AugmentedSocialGraph.from_edges(
        8,
        friendships=[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)],
        rejections=[(0, 4), (1, 5), (2, 6), (3, 7)],
    ).csr(backend=backend)
    return csr.contract([0, 0, 1, 1, 2, 2, 3, 3], 4)


def caller_pid(item, shared):
    return os.getpid()


def roundtrip_in_child(payload):
    """Spawn-worker body: unpickle the graph the way a spawn pool
    initializer would, and report what arrived."""
    graph = pickle.loads(payload)
    return (
        type(graph).__name__,
        graph.weighted,
        graph.snapshot_path,
        weighted_flat_lists(graph),
    )


class TestDefaultJobs:
    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestParallelMap:
    @pytest.mark.parametrize("jobs", JOBS)
    def test_order_and_values_match_serial(self, jobs):
        items = list(range(17))
        expected = [square_plus_shared(i, None) for i in items]
        assert parallel_map(square_plus_shared, items, jobs=jobs) == expected

    @pytest.mark.parametrize("jobs", JOBS)
    def test_shared_payload_reaches_workers(self, jobs):
        shared = {"offset": 1000}
        assert parallel_map(
            square_plus_shared, [1, 2, 3], shared=shared, jobs=jobs
        ) == [1001, 1004, 1009]

    def test_empty_and_single_item_short_circuit(self):
        assert parallel_map(square_plus_shared, [], jobs=4) == []
        assert parallel_map(square_plus_shared, [3], jobs=4) == [9]

    def test_invalid_jobs_rejected(self):
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                parallel_map(square_plus_shared, [1, 2], jobs=jobs)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_worker_exceptions_propagate(self, jobs):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(boom, [1, 2, 3], jobs=jobs)

    def test_jobs_one_runs_in_the_calling_process(self):
        assert parallel_map(caller_pid, [2, 3], jobs=1) == [os.getpid()] * 2

    def test_spawn_fallback_matches_serial(self, monkeypatch):
        """Without fork the pool spawns its workers and pickles the
        shared payload into each; the result is the serial result and
        the parent's registry is left empty."""
        graph = contracted_graph("auto")
        items = list(range(10))
        serial = parallel_map(weighted_buffer, items, shared=graph, jobs=1)
        methods = []
        get_context = multiprocessing.get_context

        def recording_get_context(method=None):
            methods.append(method)
            return get_context(method)

        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        monkeypatch.setattr(
            parallel.multiprocessing, "get_context", recording_get_context
        )
        spawned = parallel_map(weighted_buffer, items, shared=graph, jobs=2)
        assert methods == ["spawn"]
        assert spawned == serial
        assert parallel._SHARED == {}


class TestCSRPickling:
    """The process pool's spawn fallback pickles the shared payload;
    the CSR types must round-trip with their derived caches stripped."""

    def graph(self):
        return AugmentedSocialGraph.from_edges(
            6,
            friendships=[(0, 1), (1, 2), (3, 4)],
            rejections=[(0, 5), (1, 5), (2, 3)],
        ).csr()

    def test_csr_graph_roundtrip(self):
        graph = self.graph()
        graph.hot()  # populate the caches that must NOT be pickled
        try:
            graph.numpy_arrays()
        except ImportError:  # numpy optional; hot cache still covers it
            pass
        clone = pickle.loads(pickle.dumps(graph))
        assert isinstance(clone, CSRGraph)
        assert clone.num_nodes == graph.num_nodes
        assert list(clone.f_ptr) == list(graph.f_ptr)
        assert list(clone.f_idx) == list(graph.f_idx)
        assert list(clone.ro_idx) == list(graph.ro_idx)
        assert list(clone.ri_idx) == list(graph.ri_idx)
        assert clone._hot_cache is None
        assert clone._np_cache is None
        assert list(clone.friendships()) == list(graph.friendships())
        assert list(clone.rejections()) == list(graph.rejections())

    def test_pickle_smaller_than_with_caches(self):
        graph = self.graph()
        graph.hot()
        cold = AugmentedSocialGraph.from_edges(
            6,
            friendships=[(0, 1), (1, 2), (3, 4)],
            rejections=[(0, 5), (1, 5), (2, 3)],
        ).csr()
        assert len(pickle.dumps(graph)) == len(pickle.dumps(cold))

    def test_partition_state_roundtrip(self):
        graph = self.graph()
        state = PartitionState(graph.view(), [0, 0, 0, 1, 1, 1])
        clone = pickle.loads(pickle.dumps(state))
        assert clone.sides == state.sides
        assert clone.f_cross == state.f_cross
        assert clone.r_cross == state.r_cross
        assert clone.side_sizes == state.side_sizes
        assert bytes(clone.view.active) == bytes(state.view.active)


def weighted_backends():
    try:
        import numpy  # noqa: F401

        return ("python", "numpy")
    except ImportError:  # pragma: no cover - numpy-less CI job
        return ("python",)


class TestWeightedCSRPickling:
    """Weighted coarse graphs cross the process boundary in multilevel
    parallel sweeps; the round-trip must be bit-identical on both
    backends, including real spawn transfers."""

    @pytest.mark.parametrize("backend", weighted_backends())
    def test_roundtrip_bit_identical(self, backend):
        graph = contracted_graph(backend)
        graph.hot()
        graph.hot_weights()
        clone = pickle.loads(pickle.dumps(graph))
        assert isinstance(clone, WeightedCSRGraph)
        assert clone.f_wt.typecode == "q"
        assert clone.num_nodes == graph.num_nodes
        assert weighted_flat_lists(clone) == weighted_flat_lists(graph)
        assert clone._hot_cache is None

    @pytest.mark.skipif(
        "numpy" not in weighted_backends(), reason="numpy backend unavailable"
    )
    def test_backends_pickle_to_same_graph(self):
        """The *graphs* (not necessarily the pickle bytes) that arrive
        on the far side are identical whichever backend sent them."""
        py = pickle.loads(pickle.dumps(contracted_graph("python")))
        np_ = pickle.loads(pickle.dumps(contracted_graph("numpy")))
        assert weighted_flat_lists(py) == weighted_flat_lists(np_)

    def test_spawn_transfer_bit_identical(self):
        """A real spawn-mode child receives the same buffers the parent
        sent — the transfer the process pool initializer performs on
        platforms without fork."""
        graph = contracted_graph("auto")
        context = multiprocessing.get_context("spawn")
        with context.Pool(1) as pool:
            name, weighted, snapshot_path, lists = pool.apply(
                roundtrip_in_child, (pickle.dumps(graph),)
            )
        assert name == "WeightedCSRGraph"
        assert weighted
        assert snapshot_path is None
        assert lists == weighted_flat_lists(graph)
