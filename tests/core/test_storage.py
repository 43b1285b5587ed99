"""Tests for the binary snapshot store (``repro.core.storage``).

The format contract under test: round-trips preserve every buffer on
every backend, the writer emits canonical little-endian bytes so the
python and numpy backends produce byte-identical files, ``mmap`` opens
are zero-copy views the solvers and shard slicing work on directly, and
malformed files are rejected with :class:`SnapshotFormatError` rather
than garbage graphs.
"""

import pickle
import struct
from array import array

import pytest

from repro.core import AugmentedSocialGraph, CSRGraph, solve_maar
from repro.core.csr import WeightedCSRGraph
from repro.core.storage import (
    ALIGNMENT,
    MAGIC,
    SnapshotFormatError,
    clear_snapshot_cache,
    load_snapshot,
    open_snapshot_cached,
    save_snapshot,
    snapshot_info,
)

try:
    import numpy  # noqa: F401

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - numpy-less CI job
    HAS_NUMPY = False

BACKENDS = ("python",) + (("numpy",) if HAS_NUMPY else ())


def small_graph(backend="auto"):
    return AugmentedSocialGraph.from_edges(
        8,
        friendships=[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (0, 7)],
        rejections=[(0, 4), (1, 4), (2, 5), (7, 6)],
    ).csr(backend=backend)


def weighted_graph(backend="auto"):
    graph = WeightedCSRGraph.from_unit(small_graph(backend=backend))
    return graph


def float_weight_snapshot(path):
    """A snapshot with float64 weights, byte for byte as version-1
    writers once emitted it: flags 1 (weighted, weights not int64, no
    node-weight vector) and nine segments, the last three float64."""
    base = small_graph(backend="python")
    n_f, n_r = len(base.f_idx), len(base.ro_idx)
    segments = [
        array("q", getattr(base, name))
        for name in ("f_ptr", "f_idx", "ro_ptr", "ro_idx", "ri_ptr", "ri_idx")
    ]
    segments.append(array("d", [1.5] * n_f))
    segments += [array("d", [0.25] * n_r) for _ in range(2)]
    offsets, cursor = [], ALIGNMENT
    for seg in segments:
        offsets.append(cursor)
        cursor += -(-8 * len(seg) // ALIGNMENT) * ALIGNMENT
    raw = bytearray(offsets[-1] + 8 * len(segments[-1]))
    head = struct.pack(
        "<8sQQQQQQQQ", MAGIC, 1, 1, base.num_nodes, n_f, n_r, n_r,
        ALIGNMENT, len(segments),
    )
    for offset, seg in zip(offsets, segments):
        head += struct.pack("<QQ", offset, 8 * len(seg))
        raw[offset : offset + 8 * len(seg)] = seg.tobytes()
    raw[: len(head)] = head
    path.write_bytes(bytes(raw))
    return path


def set_flags(path, flags):
    raw = bytearray(path.read_bytes())
    raw[16:24] = flags.to_bytes(8, "little")
    path.write_bytes(bytes(raw))


def assert_same_arrays(a, b):
    for name in ("f_ptr", "f_idx", "ro_ptr", "ro_idx", "ri_ptr", "ri_idx"):
        assert list(getattr(a, name)) == list(getattr(b, name)), name


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_snapshot_cache()
    yield
    clear_snapshot_cache()


class TestRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", ("mmap", "copy"))
    def test_plain_graph(self, tmp_path, backend, mode):
        csr = small_graph(backend=backend)
        snap = save_snapshot(csr, tmp_path / "g.csrbin")
        clone = load_snapshot(snap, mode=mode, backend=backend)
        assert clone.num_nodes == csr.num_nodes
        assert clone.num_friendships == csr.num_friendships
        assert clone.num_rejections == csr.num_rejections
        assert_same_arrays(clone, csr)
        assert clone.f_wt is None
        assert not isinstance(clone, WeightedCSRGraph)
        assert list(clone.friendships()) == list(csr.friendships())
        assert list(clone.rejections()) == list(csr.rejections())

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", ("mmap", "copy"))
    def test_weighted_graph(self, tmp_path, backend, mode):
        graph = weighted_graph(backend=backend)
        snap = save_snapshot(graph, tmp_path / "w.csrbin")
        clone = load_snapshot(snap, mode=mode, backend=backend)
        assert isinstance(clone, WeightedCSRGraph)
        assert_same_arrays(clone, graph)
        for name in ("f_wt", "ro_wt", "ri_wt", "node_weight"):
            assert list(getattr(clone, name)) == list(getattr(graph, name)), name

    def test_float_weight_snapshot_rejected(self, tmp_path):
        snap = float_weight_snapshot(tmp_path / "f.csrbin")
        for backend in BACKENDS:
            for mode in ("mmap", "copy"):
                with pytest.raises(SnapshotFormatError, match="flags word 1"):
                    load_snapshot(snap, mode=mode, backend=backend)

    def test_empty_graph(self, tmp_path):
        csr = CSRGraph.from_edges(3, friendships=[], rejections=[])
        snap = save_snapshot(csr, tmp_path / "e.csrbin")
        for mode in ("mmap", "copy"):
            clone = load_snapshot(snap, mode=mode)
            assert clone.num_nodes == 3
            assert clone.num_friendships == 0
            assert clone.num_rejections == 0

    def test_save_open_methods_delegate(self, tmp_path):
        csr = small_graph()
        out = csr.save(tmp_path / "m.csrbin")
        clone = CSRGraph.open(out)
        assert_same_arrays(clone, csr)
        assert clone.snapshot_path == str(out.resolve())

    def test_snapshot_path_recorded_and_not_pickled(self, tmp_path):
        snap = save_snapshot(small_graph(), tmp_path / "p.csrbin")
        mapped = load_snapshot(snap)
        assert mapped.snapshot_path == str(snap.resolve())
        clone = pickle.loads(pickle.dumps(mapped))
        assert clone.snapshot_path is None
        assert_same_arrays(clone, mapped)

    def test_segments_are_page_aligned(self, tmp_path):
        snap = save_snapshot(weighted_graph(), tmp_path / "a.csrbin")
        info = snapshot_info(snap)
        for seg in info["segments"]:
            assert seg["offset"] % ALIGNMENT == 0, seg


class TestBackendParity:
    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
    def test_backends_write_identical_files(self, tmp_path):
        py_file = tmp_path / "py.csrbin"
        np_file = tmp_path / "np.csrbin"
        save_snapshot(small_graph(backend="python"), py_file)
        save_snapshot(small_graph(backend="numpy"), np_file)
        assert py_file.read_bytes() == np_file.read_bytes()

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
    def test_weighted_backends_write_identical_files(self, tmp_path):
        py_file = tmp_path / "py.csrbin"
        np_file = tmp_path / "np.csrbin"
        save_snapshot(weighted_graph(backend="python"), py_file)
        save_snapshot(weighted_graph(backend="numpy"), np_file)
        assert py_file.read_bytes() == np_file.read_bytes()

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
    def test_mmap_reopen_resaves_identically(self, tmp_path):
        """Saving a memmap-backed graph reproduces the original file."""
        first = save_snapshot(small_graph(backend="numpy"), tmp_path / "1.csrbin")
        mapped = load_snapshot(first, backend="numpy")
        second = save_snapshot(mapped, tmp_path / "2.csrbin")
        assert first.read_bytes() == second.read_bytes()


class TestMappedGraphsWork:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_solver_runs_on_mapped_graph(self, tmp_path, backend):
        csr = small_graph(backend=backend)
        snap = save_snapshot(csr, tmp_path / "s.csrbin")
        mapped = load_snapshot(snap, backend=backend)
        direct = solve_maar(csr)
        via_snapshot = solve_maar(mapped)
        assert via_snapshot.found == direct.found
        assert via_snapshot.suspicious_nodes() == direct.suspicious_nodes()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_block_arrays_slice_mapped_graph(self, tmp_path, backend):
        csr = small_graph(backend=backend)
        snap = save_snapshot(csr, tmp_path / "b.csrbin")
        mapped = load_snapshot(snap, backend=backend)
        for lo, hi in ((0, 3), (4, 7)):
            want = csr.block_arrays(lo, hi)
            got = mapped.block_arrays(lo, hi)
            assert [list(buf) for buf in got] == [list(buf) for buf in want]


class TestInfo:
    def test_info_fields(self, tmp_path):
        csr = small_graph()
        snap = save_snapshot(csr, tmp_path / "i.csrbin")
        info = snapshot_info(snap)
        assert info["version"] == 1
        assert info["num_nodes"] == csr.num_nodes
        assert info["friendships"] == csr.num_friendships
        assert info["rejections"] == csr.num_rejections
        assert info["flags"] == 0
        assert not info["weighted"]
        assert not info["has_node_weight"]
        assert info["file_bytes"] == snap.stat().st_size
        names = [seg["name"] for seg in info["segments"]]
        assert names == ["f_ptr", "f_idx", "ro_ptr", "ro_idx", "ri_ptr", "ri_idx"]

    def test_info_weighted_flags(self, tmp_path):
        snap = save_snapshot(weighted_graph(), tmp_path / "w.csrbin")
        info = snapshot_info(snap)
        assert info["flags"] == 7
        assert info["weighted"] and info["has_node_weight"]
        names = [seg["name"] for seg in info["segments"]]
        assert names[-4:] == ["f_wt", "ro_wt", "ri_wt", "node_weight"]


class TestErrors:
    def test_bad_magic_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.csrbin"
        bogus.write_bytes(b"NOTACSRB" + b"\x00" * 100)
        with pytest.raises(SnapshotFormatError, match="bad magic"):
            load_snapshot(bogus)

    def test_unknown_version_rejected(self, tmp_path):
        snap = save_snapshot(small_graph(), tmp_path / "v.csrbin")
        raw = bytearray(snap.read_bytes())
        raw[8:16] = (99).to_bytes(8, "little")
        snap.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="version 99"):
            load_snapshot(snap)

    @pytest.mark.parametrize("flags", (1, 2, 3, 5, 8))
    @pytest.mark.parametrize("make", (small_graph, weighted_graph))
    def test_unwritten_flags_rejected(self, tmp_path, flags, make):
        """The writer only emits flags 0 and 7; any other word is refused
        with a format error naming the file, never loaded as a plain or
        half-weighted graph."""
        snap = save_snapshot(make(), tmp_path / "x.csrbin")
        set_flags(snap, flags)
        for read in (load_snapshot, snapshot_info):
            with pytest.raises(SnapshotFormatError) as info:
                read(snap)
            assert f"flags word {flags}" in str(info.value)
            assert str(snap) in str(info.value)

    def test_truncated_header_rejected(self, tmp_path):
        stub = tmp_path / "stub.csrbin"
        stub.write_bytes(MAGIC + b"\x01")
        with pytest.raises(SnapshotFormatError, match="truncated header"):
            load_snapshot(stub)

    def test_truncated_data_rejected(self, tmp_path):
        snap = save_snapshot(small_graph(), tmp_path / "t.csrbin")
        raw = snap.read_bytes()
        snap.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotFormatError):
            load_snapshot(snap)

    def test_bad_mode_rejected(self, tmp_path):
        snap = save_snapshot(small_graph(), tmp_path / "m.csrbin")
        with pytest.raises(ValueError, match="mode must be"):
            load_snapshot(snap, mode="stream")

    def test_info_on_non_snapshot(self, tmp_path):
        text = tmp_path / "edges.txt"
        text.write_text("0 1\n1 2\n")
        with pytest.raises(SnapshotFormatError):
            snapshot_info(text)


class TestOpenCache:
    def test_cache_returns_same_object(self, tmp_path):
        snap = save_snapshot(small_graph(), tmp_path / "c.csrbin")
        first = open_snapshot_cached(snap)
        second = open_snapshot_cached(snap)
        assert first is second

    def test_cache_keyed_by_mode(self, tmp_path):
        snap = save_snapshot(small_graph(), tmp_path / "c.csrbin")
        assert open_snapshot_cached(snap, mode="mmap") is not open_snapshot_cached(
            snap, mode="copy"
        )

    def test_clear_cache_drops_entries(self, tmp_path):
        snap = save_snapshot(small_graph(), tmp_path / "c.csrbin")
        first = open_snapshot_cached(snap)
        clear_snapshot_cache()
        assert open_snapshot_cached(snap) is not first

    def test_atomic_overwrite_keeps_old_mapping_valid(self, tmp_path):
        """``save_snapshot`` replaces via rename, so an already-open
        mapping keeps reading the old inode while new opens see the new
        file."""
        snap = save_snapshot(small_graph(), tmp_path / "c.csrbin")
        old = load_snapshot(snap)
        old_edges = list(old.friendships())
        bigger = AugmentedSocialGraph.from_edges(
            9, friendships=[(0, 1), (2, 8)], rejections=[(3, 4)]
        ).csr()
        save_snapshot(bigger, snap)
        assert list(old.friendships()) == old_edges
        assert load_snapshot(snap).num_nodes == 9
