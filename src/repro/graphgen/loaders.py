"""SNAP-format edge-list I/O.

The paper evaluates on five public SNAP datasets [5]. This reproduction
runs offline, so the dataset catalog generates structural stand-ins —
but these loaders let real SNAP files drop in unchanged: the standard
format is one whitespace-separated edge per line with ``#`` comments,
arbitrary (possibly sparse) integer node ids, and optionally directed
duplicates, all of which are normalized here. ``.gz`` paths are handled
transparently (SNAP distributes the soc-* datasets gzipped).

Parsing a large edge list is pure overhead on every run after the
first, so :func:`load_snap_edgelist` carries a *pack-once cache*: with
``cache=True`` (requires ``as_csr=True``) the parsed graph is saved as
a binary snapshot (:mod:`repro.core.storage`) keyed by the source
file's content hash, and subsequent loads memory-map the snapshot
instead of re-parsing — millisecond opens, shared read-only pages, and
a ``snapshot_path`` that lets the cluster engine ship shard references.
"""

from __future__ import annotations

import gzip
import hashlib
from pathlib import Path
from typing import Dict, Optional, Union

from ..core.csr import CSRGraph
from ..core.graph import AugmentedSocialGraph

__all__ = [
    "load_snap_edgelist",
    "save_snap_edgelist",
    "pack_edgelist",
    "edgelist_cache_path",
    "LoaderError",
]


class LoaderError(ValueError):
    """Raised on malformed edge-list input."""


def _open_text(path: Path, mode: str = "rt"):
    """Open an edge list for text I/O, gunzipping ``.gz`` paths."""
    if path.suffix == ".gz":
        return gzip.open(path, mode)
    return path.open(mode.rstrip("t") or "r")


def _content_hash(path: Path) -> str:
    """SHA-256 of the raw file bytes (the compressed bytes for ``.gz`` —
    recompression would change the key, re-parsing stays correct)."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def edgelist_cache_path(
    path: Union[str, Path],
    remap: bool = True,
    cache_dir: Optional[Union[str, Path]] = None,
) -> Path:
    """Where the pack-once cache stores the snapshot for ``path``.

    The name carries a 12-hex-digit prefix of the source file's content
    hash plus the remap flag, so an edited edge list (or a different
    normalization) never aliases a stale snapshot. Default directory is
    ``.csrbin/`` next to the source file.
    """
    path = Path(path)
    base = Path(cache_dir) if cache_dir is not None else path.parent / ".csrbin"
    digest = _content_hash(path)[:12]
    stem = path.name.removesuffix(".gz").removesuffix(".txt")
    flag = "remap" if remap else "raw"
    return base / f"{stem}-{flag}-{digest}.csrbin"


def _snap_id(token: str) -> Optional[int]:
    """``int(token)`` when ``token`` is an optional ``-`` then ASCII
    decimal digits, else ``None`` (``int`` alone would take ``+3``,
    ``0_1`` or Arabic-Indic digits). The sign is kept so that
    ``remap=True`` accepts negative ids and ``remap=False`` can name
    them."""
    digits = token[1:] if token.startswith("-") else token
    return int(token) if digits.isascii() and digits.isdigit() else None


def load_snap_edgelist(
    path: Union[str, Path],
    remap: bool = True,
    as_csr: bool = False,
    cache: bool = False,
    cache_dir: Optional[Union[str, Path]] = None,
) -> Union[AugmentedSocialGraph, CSRGraph]:
    """Load a SNAP edge list as an undirected friendship graph.

    With ``remap=True`` (default), node ids are remapped to the dense
    range ``0..n-1`` in first-seen order — SNAP files routinely have
    sparse ids. With ``remap=False`` ids are kept verbatim (they must be
    non-negative; the graph gets ``max_id + 1`` nodes). In both modes
    duplicate and reverse-duplicate edges collapse and self-loops are
    dropped (several SNAP datasets contain them). An id is an optional
    ``-`` and ASCII decimal digits; anything else raises
    :class:`LoaderError` naming the line. With ``as_csr=True``
    the edges are packed straight into an immutable
    :class:`~repro.core.csr.CSRGraph` — the right choice when the graph
    goes directly into the detector and will not be mutated.

    ``.gz`` paths are decompressed on the fly.

    With ``cache=True`` (requires ``as_csr=True``) the parsed CSR is
    packed once into a content-hash-keyed binary snapshot and every
    subsequent load memory-maps it instead of re-parsing; pass
    ``cache_dir`` to redirect the snapshot directory.
    """
    path = Path(path)
    if cache:
        if not as_csr:
            raise ValueError("cache=True requires as_csr=True")
        cached = edgelist_cache_path(path, remap=remap, cache_dir=cache_dir)
        if cached.exists():
            return CSRGraph.open(cached)
    id_map: Dict[int, int] = {}
    edges = []
    with _open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise LoaderError(f"{path}:{lineno}: expected two ids, got {line!r}")
            raw_u, raw_v = _snap_id(parts[0]), _snap_id(parts[1])
            if raw_u is None or raw_v is None:
                raise LoaderError(f"{path}:{lineno}: non-integer id in {line!r}")
            if raw_u == raw_v:
                continue
            if remap:
                for raw in (raw_u, raw_v):
                    if raw not in id_map:
                        id_map[raw] = len(id_map)
                edges.append((id_map[raw_u], id_map[raw_v]))
            else:
                if raw_u < 0 or raw_v < 0:
                    raise LoaderError(
                        f"{path}:{lineno}: negative id with remap=False"
                    )
                edges.append((raw_u, raw_v))
    if remap:
        num_nodes = len(id_map)
    else:
        num_nodes = 1 + max((max(u, v) for u, v in edges), default=-1)
    if as_csr:
        csr = CSRGraph.from_edges(num_nodes, friendships=edges)
        if cache:
            cached.parent.mkdir(parents=True, exist_ok=True)
            csr.save(cached)
            csr.snapshot_path = str(cached.resolve())
        return csr
    graph = AugmentedSocialGraph(num_nodes)
    for u, v in edges:
        graph.add_friendship(u, v)
    return graph


def pack_edgelist(
    path: Union[str, Path],
    out: Optional[Union[str, Path]] = None,
    remap: bool = True,
) -> Path:
    """Pack an edge list into a binary snapshot and return its path.

    With ``out=None`` the snapshot lands in the pack-once cache
    location, so a later ``load_snap_edgelist(..., cache=True)`` reuses
    it without re-parsing. This is ``rejecto graph pack`` behind the
    CLI.
    """
    path = Path(path)
    if out is None:
        out = edgelist_cache_path(path, remap=remap)
        if out.exists():
            return out
    out = Path(out)
    csr = load_snap_edgelist(path, remap=remap, as_csr=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    csr.save(out)
    return out


def save_snap_edgelist(
    graph: Union[AugmentedSocialGraph, CSRGraph], path: Union[str, Path]
) -> None:
    """Write the friendship edges of ``graph`` in SNAP format (gzipped
    when ``path`` ends in ``.gz``)."""
    path = Path(path)
    with _open_text(path, "wt") as handle:
        handle.write(f"# Nodes: {graph.num_nodes} Edges: {graph.num_friendships}\n")
        for u, v in sorted(graph.friendships()):
            handle.write(f"{u}\t{v}\n")
