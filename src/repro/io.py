"""Persistence for augmented graphs, request logs, and detection reports.

Formats are deliberately plain so they interoperate with shell tooling
and the SNAP ecosystem:

* **Augmented graph** — one line per edge: ``F u v`` for a friendship,
  ``R rejecter sender`` for a directed rejection, with ``#`` comments
  and a ``# nodes: N`` header preserving isolated nodes (at most one).
  Ids are ASCII decimal digits; ``int``'s other spellings (``+1``,
  ``0_1``, non-ASCII digits) are rejected.
* **Request log** — CSV ``sender,target,accepted`` with a header row,
  every field ASCII decimal digits.
* **Detection report** — JSON with per-group members and cut statistics,
  the artifact an OSN operator would feed into enforcement.

Loading an augmented graph on the numpy backend takes a batch path
when the file is *canonical*, i.e. exactly what
:func:`save_augmented_graph` writes: leading ``#`` header lines, then
only ``F|R <digits> <digits>\\n`` lines, none a self-loop. The file is
read once as bytes, checked with numpy byte-class tests, parsed with
one ``np.fromstring`` and packed by :meth:`CSRGraph.from_edges`' batch
packer; the builder form keeps the parsed arrays and fills its lists
and edge sets only when they are first read. Any other file (tabs,
CRLF, blank lines, a comment after the first edge, a self-loop, a bad
line) goes to the line scanner, which is also the whole ``"python"``
backend path and the only code that raises :class:`FormatError`, so an
error reads the same on both backends.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import List, Optional, Tuple, Union

from .attacks.requests import RequestLog
from .core.csr import _MAX_KEYED_NODES, CSRGraph, resolve_backend
from .core.graph import AugmentedSocialGraph
from .core.rejecto import RejectoResult

__all__ = [
    "FormatError",
    "save_augmented_graph",
    "load_augmented_graph",
    "save_request_log",
    "load_request_log",
    "save_detection_report",
    "load_detection_report",
]

_PathLike = Union[str, Path]


class FormatError(ValueError):
    """Raised on malformed persisted data.

    Parse failures carry ``path:lineno`` plus a truncated excerpt of the
    offending line, so a bad row in a multi-gigabyte log is findable
    without the error message itself becoming multi-gigabyte.
    """


#: Longest raw-line excerpt quoted in a parse error.
_EXCERPT_CHARS = 80


def _excerpt(line: str) -> str:
    """The offending line as a repr, truncated for the error message."""
    if len(line) > _EXCERPT_CHARS:
        return repr(line[:_EXCERPT_CHARS]) + f"… ({len(line)} chars)"
    return repr(line)


# ----------------------------------------------------------------------
# Augmented graph
# ----------------------------------------------------------------------
def save_augmented_graph(
    graph: Union[AugmentedSocialGraph, CSRGraph], path: _PathLike
) -> None:
    """Write a graph in the ``F``/``R`` edge-line format.

    Accepts a builder or a finalized :class:`CSRGraph`; both expose the
    same ``friendships()``/``rejections()`` iteration surface and the
    output is identical (edges are written sorted).
    """
    path = Path(path)
    with path.open("w") as handle:
        handle.write("# rejecto augmented graph v1\n")
        handle.write(f"# nodes: {graph.num_nodes}\n")
        for u, v in sorted(graph.friendships()):
            handle.write(f"F {u} {v}\n")
        for rejecter, sender in sorted(graph.rejections()):
            handle.write(f"R {rejecter} {sender}\n")


def load_augmented_graph(
    path: _PathLike, as_csr: bool = False
) -> Union[AugmentedSocialGraph, CSRGraph]:
    """Read a graph written by :func:`save_augmented_graph`.

    The ``# nodes:`` header is optional; without it the node count is
    inferred as ``max id + 1``. A self-loop line (``F u u``, ``R u u``)
    is a :class:`FormatError` naming its line. With ``as_csr=True`` the
    edges are packed straight into an immutable :class:`CSRGraph` (the
    form the detector runs on) without materializing the mutable
    builder. On the numpy backend a canonical file is parsed and packed
    in batch (:func:`_parse_canonical`), anything else by the line
    scanner; in builder form the batch path gives a CSR-first builder
    (:meth:`AugmentedSocialGraph._from_edge_arrays`) whose lists and
    edge sets are filled on first read, equal to the scanner's.
    """
    path = Path(path)
    if resolve_backend("auto") == "numpy":
        parsed = _parse_canonical(path.read_bytes())
        if parsed is not None:
            if as_csr:
                return CSRGraph.from_edges(*parsed)
            if parsed[0] <= _MAX_KEYED_NODES:
                return AugmentedSocialGraph._from_edge_arrays(*parsed)
    num_nodes, friendships, rejections = _scan_augmented(path)
    if as_csr:
        return CSRGraph.from_edges(num_nodes, friendships, rejections)
    return AugmentedSocialGraph.from_edges(num_nodes, friendships, rejections)


def _decimal(token: str) -> Optional[int]:
    """``int(token)`` when ``token`` is ASCII decimal digits, else
    ``None`` (``int`` alone would take ``+1``, ``0_1`` or Arabic-Indic
    digits)."""
    return int(token) if token.isascii() and token.isdigit() else None


def _scan_augmented(
    path: Path,
) -> Tuple[int, List[Tuple[int, int]], List[Tuple[int, int]]]:
    """Parse an ``F``/``R`` file line by line: ``(num_nodes,
    friendships, rejections)``. Every :class:`FormatError` of the
    format is raised here, with ``path:lineno``."""
    declared_nodes = declared_line = None
    friendships = []
    rejections = []
    max_id = -1
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.lower().startswith("nodes:"):
                    count = _decimal(body.split(":", 1)[1].strip())
                    if count is None:
                        raise FormatError(
                            f"{path}:{lineno}: bad nodes header "
                            f"{_excerpt(line)}"
                        )
                    if declared_line is not None:
                        raise FormatError(
                            f"{path}:{lineno}: second nodes header "
                            f"{_excerpt(line)} (first on line {declared_line})"
                        )
                    declared_nodes, declared_line = count, lineno
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] not in ("F", "R"):
                raise FormatError(
                    f"{path}:{lineno}: expected 'F u v' or 'R u v', got "
                    f"{_excerpt(line)}"
                )
            u, v = (_decimal(token.removeprefix("-")) for token in parts[1:])
            if u is None or v is None:
                raise FormatError(
                    f"{path}:{lineno}: non-integer id in {_excerpt(line)}"
                )
            if parts[1].startswith("-") or parts[2].startswith("-"):
                raise FormatError(
                    f"{path}:{lineno}: negative id in {_excerpt(line)}"
                )
            if u == v:
                kind = "friendship" if parts[0] == "F" else "rejection"
                raise FormatError(
                    f"{path}:{lineno}: self-{kind} on node {u} is not "
                    f"allowed: {_excerpt(line)}"
                )
            max_id = max(max_id, u, v)
            if parts[0] == "F":
                friendships.append((u, v))
            else:
                rejections.append((u, v))
    num_nodes = declared_nodes if declared_nodes is not None else max_id + 1
    if num_nodes < max_id + 1:
        raise FormatError(
            f"{path}: nodes header says {num_nodes} but ids reach {max_id}"
        )
    return num_nodes, friendships, rejections


#: A header line the batch parser reads itself: ``#`` then printable
#: ASCII or tabs, where ``bytes.strip`` and ``str.strip`` agree.
_HEADER_LINE = re.compile(rb"#[\t\x20-\x7e]*")
#: Body byte classes: 0 other, 1 digit, 2 space, 3 LF, 4 ``F``/``R``.
_BYTE_CLASS = bytearray(256)
_BYTE_CLASS[ord("0") : ord("9") + 1] = b"\x01" * 10
_BYTE_CLASS[ord(" ")] = 2
_BYTE_CLASS[ord("\n")] = 3
_BYTE_CLASS[ord("F")] = _BYTE_CLASS[ord("R")] = 4
#: ``F``/``R`` to the digits ``0``/``1``, so a body parses as numbers.
_KIND_DIGITS = bytes.maketrans(b"FR", b"01")
#: Longest id the batch parser takes (10**18 - 1 fits in int64).
_MAX_ID_DIGITS = 18


def _parse_canonical(data: bytes):
    """Batch-parse the body :func:`save_augmented_graph` writes.

    Accepts leading ``#`` header lines, then only lines of exactly
    ``F|R <digits> <digits>\\n``, checked with numpy byte-class tests.
    Returns ``(num_nodes, friendships, rejections)`` with ``(m, 2)``
    int64 edge arrays, or ``None`` for any other file (tabs, CRLF,
    blank lines, later comments, bad lines or headers, ids past
    :data:`_MAX_ID_DIGITS` digits, a self-loop): those go to
    :func:`_scan_augmented`, which raises every :class:`FormatError`,
    so a bad file reads the same error on both backends.
    """
    import numpy as np

    if b"\r" in data:
        return None
    declared, pos = None, 0
    while data.startswith(b"#", pos):
        end = data.find(b"\n", pos)
        if end < 0 or not _HEADER_LINE.fullmatch(data, pos, end):
            return None
        body = data[pos + 1 : end].strip()
        if body.lower().startswith(b"nodes:"):
            count = body[len(b"nodes:") :].strip()
            if declared is not None or not count.isdigit():
                return None
            declared = int(count)
        pos = end + 1

    raw = np.frombuffer(data, dtype=np.uint8, offset=pos)
    if raw.size and raw[-1] != ord("\n"):
        return None
    classes = np.take(np.frombuffer(_BYTE_CLASS, dtype=np.uint8), raw)
    ends = np.flatnonzero(classes == 3)
    spaces = np.flatnonzero(classes == 2)
    lines = ends.size
    if (
        np.count_nonzero(classes == 0)
        or spaces.size != 2 * lines
        or np.count_nonzero(classes == 4) != lines
    ):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    spaces = spaces.reshape(lines, 2)
    u_digits = spaces[:, 1] - spaces[:, 0] - 1
    v_digits = ends - spaces[:, 1] - 1
    if lines and not (
        (classes[starts] == 4).all()
        and (spaces[:, 0] == starts + 1).all()
        and 1 <= min(u_digits.min(), v_digits.min())
        and max(u_digits.max(), v_digits.max()) <= _MAX_ID_DIGITS
    ):
        return None

    values = np.fromstring(
        data[pos:].translate(_KIND_DIGITS), dtype=np.int64, sep=" "
    )
    if values.size != 3 * lines:
        return None
    rows = values.reshape(lines, 3)
    ids = rows[:, 1:]
    max_id = int(ids.max()) if lines else -1
    num_nodes = declared if declared is not None else max_id + 1
    if num_nodes < max_id + 1 or (ids[:, 0] == ids[:, 1]).any():
        return None
    is_rejection = rows[:, 0] == 1
    return num_nodes, ids[~is_rejection], ids[is_rejection]


# ----------------------------------------------------------------------
# Request log
# ----------------------------------------------------------------------
def save_request_log(log: RequestLog, path: _PathLike) -> None:
    """Write a request log as ``sender,target,accepted`` CSV."""
    path = Path(path)
    with path.open("w") as handle:
        handle.write("sender,target,accepted\n")
        for request in log:
            handle.write(
                f"{request.sender},{request.target},{int(request.accepted)}\n"
            )


def load_request_log(path: _PathLike) -> RequestLog:
    """Read a request log written by :func:`save_request_log`.

    On the numpy backend a canonical file is parsed in batch
    (:func:`_parse_canonical_log`); anything else, and the whole
    ``"python"`` backend, goes through the line loop below, which raises
    every :class:`FormatError`.
    """
    path = Path(path)
    if resolve_backend("auto") == "numpy":
        log = _parse_canonical_log(path.read_bytes())
        if log is not None:
            return log
    log = RequestLog()
    with path.open() as handle:
        header = handle.readline().strip()
        if header != "sender,target,accepted":
            raise FormatError(f"{path}:1: unexpected header {_excerpt(header)}")
        for lineno, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise FormatError(
                    f"{path}:{lineno}: expected 3 fields, got {_excerpt(line)}"
                )
            # The digit test of _decimal, inlined: this loop is the
            # whole set-up of a log-driven detection.
            if not (
                line.isascii()
                and parts[0].isdigit()
                and parts[1].isdigit()
                and parts[2].isdigit()
            ):
                raise FormatError(
                    f"{path}:{lineno}: non-integer field in {_excerpt(line)}"
                )
            sender, target, accepted = int(parts[0]), int(parts[1]), int(parts[2])
            if accepted not in (0, 1):
                raise FormatError(f"{path}:{lineno}: accepted must be 0/1, got {accepted}")
            try:
                log.record(sender, target, bool(accepted))
            except OverflowError:
                raise FormatError(
                    f"{path}:{lineno}: id past int64 in {_excerpt(line)}"
                ) from None
    return log


_LOG_HEADER = b"sender,target,accepted\n"
#: Commas to spaces, so a log body parses as whitespace-separated numbers.
_COMMA_TO_SPACE = bytes.maketrans(b",", b" ")


def _parse_canonical_log(data: bytes) -> Optional[RequestLog]:
    """Batch-parse the CSV :func:`save_request_log` writes.

    Accepts exactly the ``sender,target,accepted`` header line, then
    only lines ``<digits>,<digits>,0|1\\n`` with ids of at most
    :data:`_MAX_ID_DIGITS` digits, checked with numpy byte tests and
    parsed with one ``np.fromstring``. Returns the columnar log, or
    ``None`` for any other file (CR, blank lines, padded or signed
    fields, longer ids, ``accepted`` other than 0/1, no final LF, a bad
    header): those go to the line loop of :func:`load_request_log`,
    which raises every :class:`FormatError`.
    """
    import numpy as np

    if not data.startswith(_LOG_HEADER) or b"\r" in data:
        return None
    pos = len(_LOG_HEADER)
    raw = np.frombuffer(data, dtype=np.uint8, offset=pos)
    ends = np.flatnonzero(raw == ord("\n"))
    commas = np.flatnonzero(raw == ord(","))
    lines = ends.size
    if (
        (raw.size and raw[-1] != ord("\n"))
        or commas.size != 2 * lines
        # every other byte is a digit (uint8 wraps below "0")
        or np.count_nonzero(raw - ord("0") < 10) != raw.size - 3 * lines
    ):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = commas.reshape(lines, 2)
    # Line i holds commas 2i and 2i+1 when both sit between its start
    # and its last byte; with 2 commas per line in all, none is extra.
    sender_digits = commas[:, 0] - starts
    target_digits = commas[:, 1] - commas[:, 0] - 1
    if lines and not (
        (ends - commas[:, 1] == 2).all()
        and 1 <= min(sender_digits.min(), target_digits.min())
        and max(sender_digits.max(), target_digits.max()) <= _MAX_ID_DIGITS
        and (raw[ends - 1] <= ord("1")).all()
    ):
        return None

    values = np.fromstring(
        data[pos:].translate(_COMMA_TO_SPACE), dtype=np.int64, sep=" "
    )
    if values.size != 3 * lines:
        return None
    rows = values.reshape(lines, 3)
    log = RequestLog()
    log.senders.frombytes(rows[:, 0].tobytes())
    log.targets.frombytes(rows[:, 1].tobytes())
    log.accepted.frombytes(rows[:, 2].astype(np.int8).tobytes())
    return log


# ----------------------------------------------------------------------
# Detection report
# ----------------------------------------------------------------------
def save_detection_report(result: RejectoResult, path: _PathLike) -> None:
    """Write a detection outcome as JSON."""
    payload = {
        "version": 1,
        "termination": result.termination,
        "rounds_run": result.rounds_run,
        "total_detected": result.total_detected,
        "groups": [
            {
                "round": group.round_index,
                "acceptance_rate": group.acceptance_rate,
                "friends_to_rejections_ratio": group.ratio,
                "f_cross": group.f_cross,
                "r_cross": group.r_cross,
                "k": group.k,
                "members": group.members,
            }
            for group in result.groups
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_detection_report(path: _PathLike) -> dict:
    """Read a JSON detection report (returned as a plain dict)."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "groups" not in payload:
        raise FormatError(f"{path}: not a detection report")
    return payload
