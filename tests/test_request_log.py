"""Batch request-log ingest against the line loop it replaces.

On the numpy backend ``load_request_log`` parses a canonical CSV in
batch and ``RequestLog.to_augmented_graph`` returns a CSR-first builder
packed from the log's columns, whose lists and sets are filled when
first read; ``REPRO_BACKEND=python`` runs the line loop and the
``add_*`` loop, which are the oracle here. Every test loads or builds
the same input on both backends and compares the results, or the
``FormatError``/``GraphError`` text with its line number.
"""

import hashlib
import importlib.util
import random
from array import array

import pytest

from repro.attacks import RequestLog, ScenarioConfig, build_scenario
from repro.core.graph import GraphError
from repro.io import (
    FormatError,
    _parse_canonical_log,
    load_request_log,
    save_request_log,
)

CSR_BUFFERS = ("f_ptr", "f_idx", "ro_ptr", "ro_idx", "ri_ptr", "ri_idx")
LAZY_SLOTS = ("friends", "rej_out", "rej_in", "_friend_set", "_rej_set")
HEADER = "sender,target,accepted\n"

needs_numpy = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy not installed"
)


def outcome(call):
    """``("ok", value)`` or the error's type name and text."""
    try:
        return "ok", call()
    except (FormatError, GraphError) as exc:
        return type(exc).__name__, str(exc)


def log_state(log):
    """Everything a log holds: its columns (typecode and bytes) and the
    requests it iterates."""
    columns = [
        (column.typecode, column.tobytes())
        for column in (log.senders, log.targets, log.accepted)
    ]
    return columns, list(log)


def unset_slots(graph):
    """The builder structures ``graph`` has not filled yet."""
    unset = []
    for name in LAZY_SLOTS:
        try:
            object.__getattribute__(graph, name)
        except AttributeError:
            unset.append(name)
    return unset


def builder_state(graph, backend):
    """Node count, adjacency lists in order, both sets in iteration
    order, the six CSR buffers and the edge counts.

    Read as a CSR-first caller reads them: the CSR, the counts and the
    ``repr`` first, the builder structures after. Reading the structures
    must leave the CSR buffers and the counts as they were."""
    csr = graph.csr(backend=backend)
    buffers = [getattr(csr, name).tobytes() for name in CSR_BUFFERS]
    counts = (graph.num_friendships, graph.num_rejections, repr(graph))
    state = (
        graph.num_nodes,
        graph.friends,
        graph.rej_out,
        graph.rej_in,
        list(graph._friend_set),
        list(graph._rej_set),
    )
    csr = graph.csr(backend=backend)
    assert [getattr(csr, name).tobytes() for name in CSR_BUFFERS] == buffers
    assert counts == (len(graph._friend_set), len(graph._rej_set), repr(graph))
    return state + (buffers, counts)


def load_on(backend, path, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend)
    return outcome(lambda: log_state(load_request_log(path)))


def build_on(backend, log, num_users, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend)
    return outcome(
        lambda: builder_state(log.to_augmented_graph(num_users), backend)
    )


def assert_same_builder(log, num_users, monkeypatch):
    batch = build_on("numpy", log, num_users, monkeypatch)
    assert batch == build_on("python", log, num_users, monkeypatch)
    return batch


def builds_lazily(graph):
    """Whether ``graph`` is a CSR-first batch builder: it has its CSR
    before the first ``csr()`` call, and that call, the counts and the
    ``repr`` leave all five builder structures unfilled."""
    if graph._csr_cache is None:
        return False
    graph.csr()
    graph.num_friendships, graph.num_rejections, repr(graph)
    return unset_slots(graph) == list(LAZY_SLOTS)


def fills_in_batch(log, num_users, monkeypatch):
    """Whether the numpy backend builds ``log``'s graph in batch."""
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    return builds_lazily(log.to_augmented_graph(num_users))


def write_log(path, rows, pad):
    """A canonical log of ``rows``, each id zero-padded to ``pad``."""
    body = "".join(
        f"{sender:0{pad}d},{target:0{pad}d},{int(accepted)}\n"
        for sender, target, accepted in rows
    )
    path.write_text(HEADER + body)


class TestColumnarLog:
    def test_record_fills_three_columns(self):
        log = RequestLog()
        log.record(0, 7, True)
        log.record(7, 0, 0)
        assert log.senders == array("q", [0, 7])
        assert log.targets == array("q", [7, 0])
        assert log.accepted == array("b", [1, 0])
        assert [request.accepted for request in log] == [True, False]

    def test_id_past_int64_leaves_columns_aligned(self):
        log = RequestLog()
        log.record(1, 2, True)
        for sender, target in ((2**63, 0), (0, 2**63)):
            with pytest.raises(OverflowError):
                log.record(sender, target, False)
        assert (len(log.senders), len(log.targets), len(log.accepted)) == (1, 1, 1)

    def test_save_writes_pinned_bytes(self, tmp_path):
        """The writer's bytes for a fixed log, pinned before the log
        became columnar (ids up to 18 digits)."""
        rng = random.Random(2015)
        log = RequestLog()
        for _ in range(3000):
            sender = rng.randrange(10**18 if rng.random() < 0.05 else 5000)
            log.record(sender, rng.randrange(5000), rng.random() < 0.6)
        path = tmp_path / "log.csv"
        save_request_log(log, path)
        data = path.read_bytes()
        assert len(data) == 36836
        assert hashlib.sha256(data).hexdigest() == (
            "3528c87afe9e13fd9fa7a132a77a7cc1645f1623427e70a7168777ebe3691638"
        )


@needs_numpy
class TestBatchParity:
    """Canonical logs take the batch path and give the loop's results."""

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_scenario_logs(self, seed, tmp_path, monkeypatch):
        log = build_scenario(
            ScenarioConfig(num_legit=300, num_fakes=60, seed=seed)
        ).request_log
        path = tmp_path / "log.csv"
        save_request_log(log, path)
        assert _parse_canonical_log(path.read_bytes()) is not None
        loaded = load_on("numpy", path, monkeypatch)
        assert loaded == load_on("python", path, monkeypatch)
        assert loaded == ("ok", log_state(log))
        assert assert_same_builder(log, None, monkeypatch)[0] == "ok"
        assert fills_in_batch(log, None, monkeypatch)

    def test_batch_builder_presets_its_csr(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        log = RequestLog()
        log.record(0, 1, True)
        log.record(2, 0, False)
        graph = log.to_augmented_graph()
        csr = graph._csr_cache
        assert csr is not None and csr.backend == "numpy"
        assert graph.csr() is csr

    def test_property_logs_and_builders(self, tmp_path, monkeypatch):
        """Duplicate pairs, both directions, accepted and rejected on one
        pair, leading zeros, the empty log and ``num_users`` past the
        largest id: same log, same builder."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        node = st.integers(min_value=0, max_value=12)
        row = st.tuples(node, node, st.booleans()).filter(lambda r: r[0] != r[1])

        @given(
            st.lists(row, max_size=60),
            st.integers(min_value=1, max_value=4),
            st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        )
        @settings(max_examples=80, deadline=None)
        def check(rows, pad, extra_users):
            path = tmp_path / "log.csv"
            write_log(path, rows, pad)
            assert _parse_canonical_log(path.read_bytes()) is not None
            loaded = load_on("numpy", path, monkeypatch)
            assert loaded == load_on("python", path, monkeypatch)
            log = load_request_log(path)
            num_users = None
            if extra_users is not None:
                top = max((max(s, t) for s, t, _ in rows), default=-1)
                num_users = top + 1 + extra_users
            assert assert_same_builder(log, num_users, monkeypatch)[0] == "ok"
            assert fills_in_batch(log, num_users, monkeypatch)

        check()

    def test_property_long_ids(self, tmp_path, monkeypatch):
        """Ids up to 18 digits, zero-padded up to 18 digits, parse in
        batch to the loop's columns."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        node = st.one_of(
            st.integers(min_value=0, max_value=99),
            st.integers(min_value=0, max_value=10**18 - 1),
        )

        @given(
            st.lists(st.tuples(node, node, st.booleans()), max_size=30),
            st.integers(min_value=1, max_value=18),
        )
        @settings(max_examples=60, deadline=None)
        def check(rows, pad):
            path = tmp_path / "log.csv"
            write_log(path, rows, pad)
            assert _parse_canonical_log(path.read_bytes()) is not None
            loaded = load_on("numpy", path, monkeypatch)
            assert loaded == load_on("python", path, monkeypatch)
            assert [(r.sender, r.target, r.accepted) for r in loaded[1][1]] == rows

        check()


#: Bodies (after the header) that are not canonical: each goes to the
#: line loop, which reads them, or names the bad line.
FALLBACK_FILES = {
    "crlf": "sender,target,accepted\r\n0,1,1\r\n2,0,0\r\n",
    "blank line": HEADER + "0,1,1\n\n2,0,0\n",
    "padded line": HEADER + "0,1,1  \n 2,0,0\n",
    "padded field": HEADER + "0,1,1\n2, 0,0\n",
    "plus sign": HEADER + "0,1,1\n+1,2,1\n",
    "19-digit id": HEADER + "0,1,1\n1000000000000000000,2,1\n",
    "id past int64": HEADER + "0,1,1\n99999999999999999999,2,1\n",
    "accepted 2": HEADER + "0,1,1\n1,2,2\n",
    "no final newline": HEADER + "0,1,1\n2,0,0",
    "header only, no newline": "sender,target,accepted",
    "header with spaces": "sender,target,accepted \n0,1,1\n",
    "bad header": "sender;target;accepted\n0,1,1\n",
    "empty file": "",
    "two fields": HEADER + "0,1,1\n2,0\n",
    "empty field": HEADER + "0,,1\n",
    "non-ascii digit": HEADER + "0,1,1\n1,١,1\n",
}


@needs_numpy
class TestFallback:
    @pytest.mark.parametrize("name", sorted(FALLBACK_FILES))
    def test_loop_result_or_error(self, name, tmp_path, monkeypatch):
        path = tmp_path / "log.csv"
        path.write_bytes(FALLBACK_FILES[name].encode())
        assert _parse_canonical_log(path.read_bytes()) is None
        batch = load_on("numpy", path, monkeypatch)
        assert batch == load_on("python", path, monkeypatch)

    @pytest.mark.parametrize(
        "rows, num_users, message",
        [
            ([(0, 1, True), (1, 1, False)], None, "self-rejection on node 1"),
            ([(0, 2, False), (3, 3, True)], None, "self-friendship on node 3"),
            ([(0, 1, True), (0, 5, True)], 3, "node 5 out of range [0, 3)"),
            ([(0, 1, True)], -1, "num_nodes must be non-negative"),
            ([(0, 1, True), (-1, 2, False)], 4, "node -1 out of range [0, 4)"),
        ],
    )
    def test_graph_errors_match_the_loop(self, rows, num_users, message, monkeypatch):
        log = RequestLog()
        for sender, target, accepted in rows:
            log.record(sender, target, accepted)
        kind, text = assert_same_builder(log, num_users, monkeypatch)
        assert kind == "GraphError" and message in text
        assert log._to_augmented_graph_numpy(num_users) is None

    def test_self_request_in_a_loaded_log(self, tmp_path, monkeypatch):
        path = tmp_path / "log.csv"
        path.write_text(HEADER + "0,1,1\n1,1,0\n")
        log = load_request_log(path)
        kind, text = assert_same_builder(log, None, monkeypatch)
        assert (kind, text) == ("GraphError", "self-rejection on node 1 is not allowed")
