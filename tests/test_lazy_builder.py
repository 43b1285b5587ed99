"""CSR-first batch builders against the ``add_*`` loop builder.

On the numpy backend ``RequestLog.to_augmented_graph`` and the builder
form of ``load_augmented_graph`` return a builder that holds only its
edge arrays and packed CSR; its lists and edge sets are filled the first
time one of them is read. Every test here builds the same graph once in
batch and once with ``REPRO_BACKEND=python`` (the loop builder), then
checks that the batch builder stays unfilled where it should and that
every reader and writer sees what the loop builder gives.
"""

import copy
import importlib.util
import pickle
import random

import pytest

from repro.attacks import RequestLog
from repro.core import assert_valid_graph
from repro.core.graph import AugmentedSocialGraph, GraphError
from repro.core.validation import validate_graph
from repro.io import load_augmented_graph, load_request_log, save_request_log

from .test_request_log import (
    CSR_BUFFERS,
    LAZY_SLOTS,
    builder_state,
    builds_lazily,
    unset_slots,
)

pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy not installed"
)

#: Users in the graph; the requests reach only the first 60, so the
#: last four are isolated.
NUM_USERS = 64


def request_log(seed=29):
    """Requests with repeats, both directions of a pair, and accepted
    and rejected requests on one pair."""
    rng = random.Random(seed)
    log = RequestLog()
    for _ in range(400):
        sender, target = rng.sample(range(60), 2)
        log.record(sender, target, rng.random() < 0.6)
    return log


def write_inputs(tmp_path):
    """The log as a CSV, and the same edges as an unsorted ``F``/``R``
    file with repeats, both canonical."""
    log = request_log()
    save_request_log(log, tmp_path / "log.csv")
    lines = [
        f"F {r.sender} {r.target}\n" if r.accepted else f"R {r.target} {r.sender}\n"
        for r in log
    ]
    (tmp_path / "g.txt").write_text(f"# nodes: {NUM_USERS}\n" + "".join(lines))


def build(source, backend, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend)
    if source == "log":
        return load_request_log(tmp_path / "log.csv").to_augmented_graph(NUM_USERS)
    return load_augmented_graph(tmp_path / "g.txt")


@pytest.fixture(params=["log", "file"])
def pair(request, tmp_path, monkeypatch):
    """``(batch, loop)``: the same graph from a CSR-first batch builder
    and from the loop builder, neither read yet."""
    write_inputs(tmp_path)
    loop = build(request.param, "python", tmp_path, monkeypatch)
    batch = build(request.param, "numpy", tmp_path, monkeypatch)
    return batch, loop


def buffers(csr):
    return [getattr(csr, name).tobytes() for name in CSR_BUFFERS]


def same_graph(batch, loop):
    """Equal builders: lists in order, set iteration order, the six
    CSR buffers (of each one's own backend) and the counts."""
    assert builder_state(batch, "numpy") == builder_state(loop, "python")


class TestLaziness:
    def test_csr_counts_and_repr_fill_nothing(self, pair):
        batch, loop = pair
        preset = batch._csr_cache
        assert batch.csr() is preset and preset.backend == "numpy"
        assert builds_lazily(batch)
        assert batch.num_friendships == loop.num_friendships > 0
        assert batch.num_rejections == loop.num_rejections > 0
        assert repr(batch) == repr(loop)
        assert batch.num_nodes == len(batch) == NUM_USERS
        assert list(batch.nodes()) == list(loop.nodes())
        assert buffers(preset) == buffers(loop.csr(backend="python"))
        assert unset_slots(batch) == list(LAZY_SLOTS)

    @pytest.mark.parametrize("name", LAZY_SLOTS)
    def test_first_read_fills_all_five(self, pair, name):
        batch, loop = pair
        preset = batch.csr()
        before = buffers(preset)
        assert getattr(batch, name) == getattr(loop, name)
        assert unset_slots(batch) == []
        assert batch._edge_arrays is None
        assert batch.csr() is preset and buffers(preset) == before
        same_graph(batch, loop)

    def test_other_names_fill_nothing(self, pair):
        batch, _ = pair
        assert not hasattr(batch, "nope")
        assert getattr(batch, "nope", None) is None
        assert not hasattr(batch, "__setstate__")
        with pytest.raises(AttributeError, match="'nope'"):
            batch.nope
        assert unset_slots(batch) == list(LAZY_SLOTS)


def writer_calls(loop):
    """One call per writer case, picked on the loop builder: a repeat
    and a new edge of each kind, the reverse of a rejection, new nodes."""
    friendship = next(iter(loop._friend_set))
    rejection = next(iter(loop._rej_set))
    new_friendship = next(
        (u, v)
        for u in range(NUM_USERS)
        for v in range(u + 1, NUM_USERS)
        if (u, v) not in loop._friend_set
    )
    new_rejection = next(
        (u, v)
        for u in range(NUM_USERS)
        for v in range(NUM_USERS)
        if u != v and (u, v) not in loop._rej_set
    )
    return {
        "repeat friendship": ("add_friendship", friendship[::-1]),
        "new friendship": ("add_friendship", new_friendship),
        "isolated friendship": ("add_friendship", (NUM_USERS - 1, 0)),
        "repeat rejection": ("add_rejection", rejection),
        "new rejection": ("add_rejection", new_rejection),
        "reverse rejection": ("add_rejection", rejection[::-1]),
        "add node": ("add_node", ()),
        "add nodes": ("add_nodes", (2,)),
    }


WRITER_CASES = [
    "repeat friendship",
    "new friendship",
    "isolated friendship",
    "repeat rejection",
    "new rejection",
    "reverse rejection",
    "add node",
    "add nodes",
]


class TestWriters:
    @pytest.mark.parametrize("case", WRITER_CASES)
    def test_writer_matches_the_loop(self, pair, case):
        batch, loop = pair
        method, args = writer_calls(loop)[case]
        preset = batch.csr()
        changed = getattr(batch, method)(*args)
        assert changed == getattr(loop, method)(*args)
        if changed:
            # A new edge or node drops the preset snapshot...
            assert batch._csr_cache is None
            assert batch.csr() is not preset
        else:
            assert batch.csr() is preset
        # ...and the next one is the loop builder's after the same call.
        same_graph(batch, loop)

    @pytest.mark.parametrize(
        "method, args",
        [
            ("add_friendship", (5, 5)),
            ("add_rejection", (7, 7)),
            ("add_friendship", (0, NUM_USERS)),
            ("add_rejection", (-1, 3)),
            ("add_nodes", (-1,)),
        ],
    )
    def test_refused_writes_match_the_loop(self, pair, method, args):
        batch, loop = pair
        errors = []
        for graph in (batch, loop):
            with pytest.raises(GraphError) as excinfo:
                getattr(graph, method)(*args)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        same_graph(batch, loop)


class TestReaders:
    def test_queries(self, pair):
        batch, loop = pair
        nodes = range(NUM_USERS)
        for u in nodes:
            assert batch.degree(u) == loop.degree(u)
            assert batch.rejections_received(u) == loop.rejections_received(u)
            assert batch.rejections_cast(u) == loop.rejections_cast(u)
            for v in nodes:
                assert batch.has_friendship(u, v) == loop.has_friendship(u, v)
                assert batch.has_rejection(u, v) == loop.has_rejection(u, v)

    def test_edge_iteration_order(self, pair):
        batch, loop = pair
        assert list(batch.friendships()) == list(loop.friendships())
        assert list(batch.rejections()) == list(loop.rejections())

    def test_copy(self, pair):
        batch, loop = pair
        clone = batch.copy()
        assert unset_slots(clone) == []
        same_graph(clone, loop.copy())
        same_graph(batch, loop)

    def test_subgraph(self, pair):
        batch, loop = pair
        keep = list(range(0, NUM_USERS, 3)) + [1, 2]
        (sub_b, ids_b), (sub_l, ids_l) = batch.subgraph(keep), loop.subgraph(keep)
        assert ids_b == ids_l
        same_graph(sub_b, sub_l)

    @pytest.mark.parametrize("order", ["batch first", "batch second"])
    def test_merged_with(self, pair, order):
        batch, loop = pair
        other = AugmentedSocialGraph.from_edges(3, [(0, 1)], [(2, 0)])
        if order == "batch first":
            merged_b, merged_l = batch.merged_with(other), loop.merged_with(other)
        else:
            merged_b, merged_l = other.merged_with(batch), other.merged_with(loop)
        same_graph(merged_b, merged_l)

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, copy.copy, lambda graph: pickle.loads(pickle.dumps(graph))],
        ids=["deepcopy", "copy", "pickle"],
    )
    def test_copy_protocols(self, pair, clone):
        batch, loop = pair
        cloned = clone(batch)
        assert unset_slots(cloned) == []
        assert cloned._edge_arrays is None
        # A rebuilt set need not iterate like its source; it iterates
        # like the loop builder's rebuilt set.
        same_graph(cloned, clone(loop))
        same_graph(batch, loop)

    def test_python_backend_csr(self, pair):
        batch, loop = pair
        preset = buffers(batch.csr())
        csr = batch.csr(backend="python")
        assert csr.backend == "python"
        assert buffers(csr) == buffers(loop.csr(backend="python")) == preset

    def test_validation(self, pair):
        batch, loop = pair
        assert validate_graph(batch) == validate_graph(loop) == []
        assert_valid_graph(batch)
        same_graph(batch, loop)
