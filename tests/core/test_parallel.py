"""Tests for the ``repro.core.parallel`` execution layer.

The contract is: whatever ``jobs``, ``parallel_map`` returns
``[fn(item, shared) for item in items]`` cut after the first result a
``stop`` predicate accepts — same values, same order, with worker
exceptions propagating, a dead worker raising instead of hanging, and
no worker outliving the call. The MAAR-facing guarantees (bit-identical
sweeps) live in ``tests/core/test_parity.py``; here we pin the layer
itself plus the pickling support the spawned process pool relies on.

Every test runs with ``default_jobs()`` raised to at least 2 (the
``two_cpus`` fixture), so ``jobs=2`` starts a real pool on any host.
"""

import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core import AugmentedSocialGraph
from repro.core import parallel
from repro.core.csr import CSRGraph, PartitionState, WeightedCSRGraph
from repro.core.parallel import default_jobs, parallel_map

pytestmark = pytest.mark.usefixtures("two_cpus")

#: ``jobs=1`` is the in-process loop, ``jobs=2`` the process pool.
JOBS = [pytest.param(1, id="serial"), pytest.param(2, id="process")]

SRC = str(Path(__file__).resolve().parents[2] / "src")


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


def mark_started(item, shared):
    """Leave a marker file for ``item``; items in ``slow`` then sleep
    long enough that only a kill ends them quickly, items in ``fail``
    raise."""
    directory, slow, fail = shared
    Path(directory, f"started-{item}").touch()
    if item in slow:
        time.sleep(60)
    if item in fail:
        raise RuntimeError(f"boom on {item}")
    return item


def started(directory):
    return sorted(int(p.name.split("-")[1]) for p in Path(directory).iterdir())


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

    def test_counts_usable_cpus(self, monkeypatch):
        monkeypatch.undo()  # drop the two_cpus patch: test the real helper
        if hasattr(os, "sched_getaffinity"):
            assert parallel.default_jobs() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert parallel.default_jobs() == (os.cpu_count() or 1)


class TestWorkerCap:
    """``parallel_map`` starts ``min(jobs, len(items), default_jobs())``
    workers and runs in-process when that is 1."""

    def test_one_cpu_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(parallel, "default_jobs", lambda: 1)
        assert parallel_map(caller_pid, [1, 2, 3], jobs=4) == [os.getpid()] * 3

    def test_never_more_workers_than_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "default_jobs", lambda: 2)
        pids = set(parallel_map(caller_pid, range(12), jobs=8))
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= 2


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
        with pytest.raises(RuntimeError, match="boom on 1") as raised:
            parallel_map(boom, [1, 2, 3], jobs=jobs)
        if jobs > 1:  # the worker's traceback rides along as the cause
            assert "in boom" in str(raised.value.__cause__)

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
        assert multiprocessing.active_children() == []


class TestStop:
    """A ``stop`` predicate ends the map at the first result it accepts:
    the serial prefix comes back, later items never start or are
    killed, and no worker survives."""

    @pytest.mark.parametrize("jobs", JOBS)
    @pytest.mark.parametrize("at", [0, 3, 11, 99])
    def test_returns_serial_prefix(self, jobs, at):
        """Stop at the result of item ``at`` (99: never stops). ``stop``
        sees every returned result once, in order, the last one too."""
        items = list(range(12))
        serial = [square_plus_shared(i, None) for i in items]
        seen = []

        def stop(result):
            seen.append(result)
            return result == at * at

        result = parallel_map(square_plus_shared, items, jobs=jobs, stop=stop)
        assert result == serial[: at + 1]
        assert seen == result
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", JOBS)
    def test_items_past_the_window_never_start(self, jobs, tmp_path):
        """Stop at item 3: with ``jobs`` workers at most ``jobs - 1``
        items past it may have started, and item 4 (slow, in flight on
        the pool) is killed instead of awaited."""
        begin = time.perf_counter()
        result = parallel_map(
            mark_started,
            range(20),
            shared=(str(tmp_path), {4}, set()),
            jobs=jobs,
            stop=lambda r: r == 3,
        )
        assert result == [0, 1, 2, 3]
        assert started(tmp_path)[:4] == [0, 1, 2, 3]
        assert max(started(tmp_path)) <= 3 + jobs - 1
        assert time.perf_counter() - begin < 30
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", JOBS)
    def test_error_past_the_stop_is_not_raised(self, jobs, tmp_path):
        result = parallel_map(
            mark_started,
            range(8),
            shared=(str(tmp_path), set(), {4, 5}),
            jobs=jobs,
            stop=lambda r: r == 3,
        )
        assert result == [0, 1, 2, 3]

    @pytest.mark.parametrize("jobs", JOBS)
    def test_error_before_the_stop_propagates(self, jobs, tmp_path):
        with pytest.raises(RuntimeError, match="boom on 2"):
            parallel_map(
                mark_started,
                range(8),
                shared=(str(tmp_path), set(), {2}),
                jobs=jobs,
                stop=lambda r: r == 3,
            )
        assert multiprocessing.active_children() == []


#: Run in a fresh interpreter: a map whose task kills its worker with
#: ``os._exit`` must raise, not hang. ``{call}`` is the map to run.
DEAD_WORKER_SCRIPT = """
import os, sys
from repro.core import maar, parallel
parallel.default_jobs = lambda: 2

def die_on_two(item, shared):
    if item == 2:
        os._exit(3)
    return item

try:
{call}
except Exception as exc:
    print("raised", type(exc).__name__)
    sys.exit(0)
print("returned")
sys.exit(1)
"""


def run_dead_worker(call):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    body = textwrap.indent(textwrap.dedent(call).strip(), "    ")
    script = DEAD_WORKER_SCRIPT.format(call=body)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.split()[-1]


class TestDeadWorker:
    """A worker that exits mid-task makes the map raise (each case in a
    subprocess under a timeout, so a hang fails instead of blocking)."""

    def test_map_raises(self):
        call = "parallel.parallel_map(die_on_two, range(8), jobs=2)"
        assert run_dead_worker(call) == "BrokenProcessPool"

    def test_map_with_stop_raises(self):
        call = (
            "parallel.parallel_map(die_on_two, range(8), jobs=2, "
            "stop=lambda r: r == 5)"
        )
        assert run_dead_worker(call) == "BrokenProcessPool"

    def test_sweep_raises(self):
        """The MAAR sweep's stop rule runs on the stream; a worker
        dying under it still raises."""
        call = """
        from repro.core import AugmentedSocialGraph, MAARConfig, solve_maar
        def die(k, shared):
            os._exit(3)
        maar._sweep_k_task = die
        graph = AugmentedSocialGraph.from_edges(
            6, friendships=[(0, 1), (1, 2), (3, 4)],
            rejections=[(0, 5), (1, 5), (2, 3)],
        )
        solve_maar(graph, MAARConfig(jobs=2))
        """
        assert run_dead_worker(call) == "BrokenProcessPool"


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
