"""Versioned binary snapshot store for CSR graphs (``.csrbin``).

Every solver in this repo runs on the flat int64 buffers of
:class:`~repro.core.csr.CSRGraph`, but until this module every run
*rebuilt* those buffers from a text edge list — at the 102k-node
soc-Slashdot scale graph construction is pure overhead, and at the
multi-million-node scale the ROADMAP targets it dominates wall clock.
A snapshot file stores the buffers verbatim so reopening a graph is an
``mmap`` call, not a parse:

* **zero-copy open** — ``mode="mmap"`` maps each segment read-only
  (``np.memmap`` on the numpy backend, an ``mmap``/``memoryview`` cast
  on the pure-python fallback), so opens cost milliseconds regardless
  of graph size and the OS shares the pages between every process
  mapping the same file (cluster workers, fork-COW pools);
* **backend-independent bytes** — the writer serializes the canonical
  little-endian int64/float64 buffers, so the python and numpy backends
  produce byte-identical files for the same graph;
* **shard mapping** — :meth:`CSRGraph.block_arrays` over a mapped graph
  slices a worker's shard block as *views* of the file, which is what
  lets the cluster engine ship block references instead of pickled
  array payloads (:mod:`repro.cluster.blocks`).

File layout (version 1, all integers little-endian uint64)::

    offset  size  field
    0       8     magic  b"RJCTCSRB"
    8       8     version (1)
    16      8     flags: bit0 weighted, bit1 int-weighted,
                  bit2 node-weight vector present (WeightedCSRGraph)
    24      8     num_nodes
    32      8     len(f_idx)   (= 2 * friendships)
    40      8     len(ro_idx)  (= rejections)
    48      8     len(ri_idx)  (= rejections)
    56      8     alignment (4096)
    64      8     segment count
    72      16*n  segment table: (byte offset, byte length) per segment

Segments follow in a fixed order, each starting on an ``alignment``
boundary (zero-padded): ``f_ptr``, ``f_idx``, ``ro_ptr``, ``ro_idx``,
``ri_ptr``, ``ri_idx``; then ``f_wt``, ``ro_wt``, ``ri_wt`` when the
weighted flag is set (int64 when bit1 is set, float64 otherwise); then
``node_weight`` when bit2 is set. Pointer/index segments are always
int64. Version policy: the major version bumps on any layout change
and readers reject versions they do not know — there is no in-place
migration, snapshots are cheap to regenerate from their source.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import sys
from array import array
from pathlib import Path
from typing import Dict, List, Tuple, Union

from .csr import CSRGraph, WeightedCSRGraph, resolve_backend

__all__ = [
    "MAGIC",
    "VERSION",
    "ALIGNMENT",
    "SnapshotFormatError",
    "save_snapshot",
    "load_snapshot",
    "snapshot_info",
    "open_snapshot_cached",
    "clear_snapshot_cache",
]

MAGIC = b"RJCTCSRB"
VERSION = 1
#: Segment starts are padded to this boundary so mapped segments begin
#: on page boundaries (4096 covers every platform this runs on).
ALIGNMENT = 4096

_FLAG_WEIGHTED = 1
_FLAG_INT_WEIGHTED = 2
_FLAG_NODE_WEIGHT = 4

#: Fixed-size header prefix: magic + 8 uint64 fields.
_HEADER_STRUCT = struct.Struct("<8sQQQQQQQQ")

_PathLike = Union[str, Path]


class SnapshotFormatError(ValueError):
    """Raised on malformed, truncated, or unsupported snapshot files."""


def _segment_plan(
    flags: int, num_nodes: int, n_f: int, n_ro: int, n_ri: int
) -> List[Tuple[str, str, int]]:
    """The fixed segment order as ``(name, typecode, element_count)``
    triples, derived entirely from the header fields."""
    plan = [
        ("f_ptr", "q", num_nodes + 1),
        ("f_idx", "q", n_f),
        ("ro_ptr", "q", num_nodes + 1),
        ("ro_idx", "q", n_ro),
        ("ri_ptr", "q", num_nodes + 1),
        ("ri_idx", "q", n_ri),
    ]
    if flags & _FLAG_WEIGHTED:
        wt = "q" if flags & _FLAG_INT_WEIGHTED else "d"
        plan += [("f_wt", wt, n_f), ("ro_wt", wt, n_ro), ("ri_wt", wt, n_ri)]
    if flags & _FLAG_NODE_WEIGHT:
        plan.append(("node_weight", "q", num_nodes))
    return plan


def _canonical_bytes(buf, typecode: str) -> bytes:
    """Little-endian raw bytes of a flat buffer, whatever its storage
    (``array``, numpy array/memmap, or ``memoryview``)."""
    if sys.byteorder != "little":  # pragma: no cover - no BE CI host
        if isinstance(buf, array):
            swapped = array(typecode, buf)
            swapped.byteswap()
            return swapped.tobytes()
        swapped = array(typecode)
        swapped.frombytes(buf.tobytes())
        swapped.byteswap()
        return swapped.tobytes()
    return buf.tobytes()


def _graph_flags(csr: CSRGraph) -> int:
    flags = 0
    if csr.f_wt is not None:
        flags |= _FLAG_WEIGHTED
        if csr.int_weighted:
            flags |= _FLAG_INT_WEIGHTED
    if getattr(csr, "node_weight", None) is not None:
        flags |= _FLAG_NODE_WEIGHT
    return flags


def save_snapshot(csr: CSRGraph, path: _PathLike) -> Path:
    """Write ``csr`` as a version-1 binary snapshot.

    The write is atomic (temp file + rename), so a concurrently reading
    process — or a crash mid-pack — never observes a half-written
    snapshot; the pack-once caches in :mod:`repro.graphgen.loaders`
    rely on this. Returns the final path.
    """
    path = Path(path)
    flags = _graph_flags(csr)
    plan = _segment_plan(
        flags,
        csr.num_nodes,
        len(csr.f_idx),
        len(csr.ro_idx),
        len(csr.ri_idx),
    )
    header_size = _HEADER_STRUCT.size + 16 * len(plan)
    data_start = _aligned(header_size)

    offsets: List[Tuple[int, int]] = []
    cursor = data_start
    for _name, typecode, count in plan:
        nbytes = count * 8  # int64 and float64 are both 8 bytes
        offsets.append((cursor, nbytes))
        cursor = _aligned(cursor + nbytes)

    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with tmp.open("wb") as handle:
            handle.write(
                _HEADER_STRUCT.pack(
                    MAGIC,
                    VERSION,
                    flags,
                    csr.num_nodes,
                    len(csr.f_idx),
                    len(csr.ro_idx),
                    len(csr.ri_idx),
                    ALIGNMENT,
                    len(plan),
                )
            )
            for offset, nbytes in offsets:
                handle.write(struct.pack("<QQ", offset, nbytes))
            for (name, typecode, _count), (offset, nbytes) in zip(plan, offsets):
                _pad_to(handle, offset)
                buf = getattr(csr, name)
                raw = _canonical_bytes(buf, typecode)
                if len(raw) != nbytes:
                    raise SnapshotFormatError(
                        f"segment {name}: buffer is {len(raw)} bytes, "
                        f"header says {nbytes}"
                    )
                handle.write(raw)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def _aligned(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _pad_to(handle: io.BufferedWriter, offset: int) -> None:
    gap = offset - handle.tell()
    if gap < 0:
        raise SnapshotFormatError("segment offsets out of order")
    if gap:
        handle.write(b"\x00" * gap)


def _read_header(path: Path, raw: bytes) -> Dict[str, object]:
    if len(raw) < _HEADER_STRUCT.size:
        raise SnapshotFormatError(f"{path}: truncated header")
    (
        magic,
        version,
        flags,
        num_nodes,
        n_f,
        n_ro,
        n_ri,
        alignment,
        segment_count,
    ) = _HEADER_STRUCT.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotFormatError(
            f"{path}: not a CSR snapshot (bad magic {magic!r})"
        )
    if version != VERSION:
        raise SnapshotFormatError(
            f"{path}: snapshot version {version} not supported "
            f"(reader understands version {VERSION})"
        )
    if n_ro != n_ri:
        raise SnapshotFormatError(
            f"{path}: rejection layers disagree ({n_ro} out vs {n_ri} in)"
        )
    plan = _segment_plan(flags, num_nodes, n_f, n_ro, n_ri)
    if segment_count != len(plan):
        raise SnapshotFormatError(
            f"{path}: header says {segment_count} segments, flags imply "
            f"{len(plan)}"
        )
    table_end = _HEADER_STRUCT.size + 16 * len(plan)
    if len(raw) < table_end:
        raise SnapshotFormatError(f"{path}: truncated segment table")
    segments = []
    for index, (name, typecode, count) in enumerate(plan):
        offset, nbytes = struct.unpack_from(
            "<QQ", raw, _HEADER_STRUCT.size + 16 * index
        )
        if nbytes != count * 8:
            raise SnapshotFormatError(
                f"{path}: segment {name} is {nbytes} bytes, counts imply "
                f"{count * 8}"
            )
        segments.append(
            {"name": name, "typecode": typecode, "offset": offset, "bytes": nbytes}
        )
    return {
        "version": version,
        "flags": flags,
        "num_nodes": num_nodes,
        "num_f_idx": n_f,
        "num_ro_idx": n_ro,
        "num_ri_idx": n_ri,
        "alignment": alignment,
        "segments": segments,
    }


def snapshot_info(path: _PathLike) -> Dict[str, object]:
    """Parse a snapshot header without mapping any segment.

    Returns a dict with the header fields, derived graph counts
    (``friendships``, ``rejections``), the boolean flags, the segment
    table, and the file size — the payload of ``rejecto graph info``.
    """
    path = Path(path)
    with path.open("rb") as handle:
        raw = handle.read(ALIGNMENT)
    header = _read_header(path, raw)
    flags = int(header["flags"])  # type: ignore[arg-type]
    header["friendships"] = int(header["num_f_idx"]) // 2
    header["rejections"] = int(header["num_ro_idx"])
    header["weighted"] = bool(flags & _FLAG_WEIGHTED)
    header["int_weighted"] = bool(flags & _FLAG_INT_WEIGHTED)
    header["has_node_weight"] = bool(flags & _FLAG_NODE_WEIGHT)
    header["file_bytes"] = path.stat().st_size
    return header


def _np_dtype(typecode: str):
    import numpy as np

    return np.dtype("<i8") if typecode == "q" else np.dtype("<f8")


def _map_segments_numpy(path: Path, segments) -> Dict[str, object]:
    """``np.memmap`` one read-only view per segment (empty segments get
    ordinary empty arrays — mmap of length zero is invalid)."""
    import numpy as np

    out: Dict[str, object] = {}
    for seg in segments:
        dtype = _np_dtype(seg["typecode"])
        count = seg["bytes"] // 8
        if count == 0:
            out[seg["name"]] = np.empty(0, dtype=dtype)
        else:
            out[seg["name"]] = np.memmap(
                path, dtype=dtype, mode="r", offset=seg["offset"], shape=(count,)
            )
    return out


def _map_segments_python(path: Path, segments) -> Dict[str, object]:
    """Pure-python zero-copy mapping: one shared ``mmap`` of the file,
    one ``memoryview`` cast per segment. The views keep the mapping
    alive; the file descriptor can close immediately (mmap holds its
    own reference to the underlying pages)."""
    with path.open("rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    whole = memoryview(mapped)
    out: Dict[str, object] = {}
    for seg in segments:
        sliced = whole[seg["offset"] : seg["offset"] + seg["bytes"]]
        out[seg["name"]] = sliced.cast(seg["typecode"])
    return out


def _read_segments_copy(path: Path, segments) -> Dict[str, object]:
    """``mode="copy"``: fresh ``array`` buffers, identical on every
    backend, picklable, and immune to the file changing underneath."""
    out: Dict[str, object] = {}
    with path.open("rb") as handle:
        for seg in segments:
            handle.seek(seg["offset"])
            raw = handle.read(seg["bytes"])
            if len(raw) != seg["bytes"]:
                raise SnapshotFormatError(
                    f"{path}: segment {seg['name']} truncated "
                    f"({len(raw)} of {seg['bytes']} bytes)"
                )
            buf = array(seg["typecode"])
            buf.frombytes(raw)
            if sys.byteorder != "little":  # pragma: no cover - no BE CI
                buf.byteswap()
            out[seg["name"]] = buf
    return out


def load_snapshot(
    path: _PathLike, mode: str = "mmap", backend: str = "auto"
) -> CSRGraph:
    """Open a snapshot written by :func:`save_snapshot`.

    ``mode="mmap"`` (default) maps segments zero-copy and read-only:
    ``np.memmap`` when the resolved backend is numpy, a shared
    ``mmap``/``memoryview`` cast on the pure-python fallback — full
    parity, no numpy required. ``mode="copy"`` reads segments into
    fresh ``array`` buffers (use it when the file may be replaced
    underneath a long-lived graph). Weighted snapshots with a
    node-weight vector come back as :class:`WeightedCSRGraph`.

    The returned graph records its source in ``snapshot_path``, which
    is what lets the cluster engine ship shard-block *references*
    instead of array payloads.
    """
    path = Path(path)
    if mode not in ("mmap", "copy"):
        raise ValueError(f"mode must be 'mmap' or 'copy', got {mode!r}")
    resolved = resolve_backend(backend)
    with path.open("rb") as handle:
        raw = handle.read(ALIGNMENT)
    header = _read_header(path, raw)
    segments = header["segments"]
    last = segments[-1] if segments else None
    if last is not None:
        need = int(last["offset"]) + int(last["bytes"])
        if path.stat().st_size < need:
            raise SnapshotFormatError(
                f"{path}: file is {path.stat().st_size} bytes, segment "
                f"table needs {need}"
            )
    if mode == "copy":
        bufs = _read_segments_copy(path, segments)
    elif resolved == "numpy":
        bufs = _map_segments_numpy(path, segments)
    else:
        if sys.byteorder != "little":  # pragma: no cover - no BE CI host
            raise SnapshotFormatError(
                "mmap mode requires a little-endian host; use mode='copy'"
            )
        bufs = _map_segments_python(path, segments)
    flags = int(header["flags"])  # type: ignore[arg-type]
    kwargs = dict(
        f_wt=bufs.get("f_wt"),
        ro_wt=bufs.get("ro_wt"),
        ri_wt=bufs.get("ri_wt"),
        backend=resolved,
    )
    if flags & _FLAG_NODE_WEIGHT:
        graph: CSRGraph = WeightedCSRGraph(
            int(header["num_nodes"]),  # type: ignore[arg-type]
            bufs["f_ptr"],
            bufs["f_idx"],
            bufs["ro_ptr"],
            bufs["ro_idx"],
            bufs["ri_ptr"],
            bufs["ri_idx"],
            node_weight=bufs["node_weight"],
            **kwargs,
        )
    else:
        graph = CSRGraph(
            int(header["num_nodes"]),  # type: ignore[arg-type]
            bufs["f_ptr"],
            bufs["f_idx"],
            bufs["ro_ptr"],
            bufs["ro_idx"],
            bufs["ri_ptr"],
            bufs["ri_idx"],
            **kwargs,
        )
    graph.snapshot_path = str(path.resolve())
    return graph


#: Process-wide cache of opened snapshots, keyed by (resolved path,
#: mode, resolved backend). Cluster workers materializing shard blocks
#: out of the same file share one mapping — the in-process analogue of
#: N machines mapping the same file into shared page cache.
_OPEN_CACHE: Dict[Tuple[str, str, str], CSRGraph] = {}


def open_snapshot_cached(
    path: _PathLike, mode: str = "mmap", backend: str = "auto"
) -> CSRGraph:
    """:func:`load_snapshot` with a process-wide cache per file."""
    key = (str(Path(path).resolve()), mode, resolve_backend(backend))
    graph = _OPEN_CACHE.get(key)
    if graph is None:
        graph = load_snapshot(path, mode=mode, backend=backend)
        _OPEN_CACHE[key] = graph
    return graph


def clear_snapshot_cache() -> None:
    """Drop every cached open (tests; or after replacing files on disk)."""
    _OPEN_CACHE.clear()
