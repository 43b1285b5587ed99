"""Fanning independent solver runs out to worker processes.

The MAAR sweep (Section IV-D) runs one extended-KL search per ``k`` on a
geometric grid; with the default ``warm_start=False`` every step starts
from the *same* initial partition over the *same* immutable
:class:`~repro.core.csr.CSRGraph` snapshot, so the steps are independent
— exactly the shape the paper's Spark implementation (Section V)
exploits across a cluster. This module provides the laptop-scale
equivalent: one ordered ``map``, :func:`parallel_map`.

``jobs == 1`` (or at most one item) is a plain in-process loop, the
reference the pool is pinned to (``tests/core/test_parity.py`` asserts
bit-identical results). Anything wider runs a
``concurrent.futures.ProcessPoolExecutor``. On fork platforms the
shared payload is published to a module-level registry *before* the
pool forks, so workers inherit the immutable CSR arrays zero-copy via
copy-on-write — nothing is pickled except the per-task items and the
(small) results. Elsewhere the pool spawns its workers and the payload
is pickled once into each through the pool initializer;
:class:`~repro.core.csr.CSRGraph` strips its derived caches on pickling
so the transfer is just the flat ``array`` buffers.

Two callers fan out: the MAAR ``k`` sweep
(:func:`repro.core.maar.sweep_k_states`, ``MAARConfig.jobs``) and the
experiment sweeps (``SweepConfig.jobs``). There is no thread pool: the
pure-Python KL loops hold the GIL, and on 2 CPUs threads lost to the
serial loop on every fan-out measured (see DESIGN.md).

:func:`parallel_map` always returns results in input order, so any
reduction that iterates the returned list reproduces the serial loop's
tie-break order exactly. Worker exceptions propagate to the caller.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = [
    "default_jobs",
    "fork_available",
    "parallel_map",
]


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_jobs() -> int:
    """Worker count used when a caller asks for "all cores"."""
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Shared-payload registry
# ----------------------------------------------------------------------
# Parent processes publish the read-only payload here under a fresh token
# before creating a fork pool; forked workers find it in their inherited
# copy of this module (copy-on-write, zero transfer). Spawned workers
# populate their own registry via the pool initializer instead.
_SHARED: Dict[int, Any] = {}
_TOKENS = itertools.count(1)


def _init_spawn_worker(token: int, payload: bytes) -> None:
    """Pool initializer for spawned workers: unpickle the shared payload
    once per worker instead of once per task."""
    _SHARED[token] = pickle.loads(payload)


def _call_with_shared(token: int, fn: Callable[[Any, Any], Any], item: Any) -> Any:
    """Per-task trampoline run inside process-pool workers."""
    return fn(item, _SHARED.get(token))


def parallel_map(
    fn: Callable[[Any, Any], Any],
    items: Iterable[Any],
    shared: Any = None,
    jobs: int = 1,
) -> List[Any]:
    """Apply ``fn(item, shared)`` to every item, preserving input order.

    Parameters
    ----------
    fn:
        A module-level callable (the process pool pickles it by
        reference). Receives ``(item, shared)``.
    items:
        The per-task inputs. Consumed eagerly.
    shared:
        Read-only payload handed to every call: directly on the serial
        path, inherited zero-copy via fork COW by forked workers,
        pickled once per worker where the pool spawns (so it must be
        picklable there).
    jobs:
        Worker count, at least 1; ``1`` runs serially.

    Returns
    -------
    list
        ``[fn(item, shared) for item in items]`` — the serial semantics,
        however many workers ran. Exceptions raised by ``fn`` propagate.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = list(items)
    if jobs == 1 or len(tasks) <= 1:
        return [fn(item, shared) for item in tasks]

    token = next(_TOKENS)
    context = multiprocessing.get_context("fork" if fork_available() else "spawn")
    initializer: Optional[Callable] = None
    initargs: tuple = ()
    if context.get_start_method() == "fork":
        _SHARED[token] = shared
    else:
        initializer = _init_spawn_worker
        initargs = (token, pickle.dumps(shared))
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)),
            mp_context=context,
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            return list(
                pool.map(
                    _call_with_shared,
                    itertools.repeat(token),
                    itertools.repeat(fn),
                    tasks,
                )
            )
    finally:
        _SHARED.pop(token, None)
