"""Fanning independent solver runs out to worker processes.

The MAAR sweep (Section IV-D) runs one extended-KL search per ``k`` on a
geometric grid; with the default ``warm_start=False`` every step starts
from the *same* initial partition over the *same* immutable
:class:`~repro.core.csr.CSRGraph` snapshot, so the steps are independent
— exactly the shape the paper's Spark implementation (Section V)
exploits across a cluster. This module provides the laptop-scale
equivalent: one ordered ``map``, :func:`parallel_map`.

A map runs on ``min(jobs, len(items), default_jobs())`` workers, where
:func:`default_jobs` counts the CPUs this process may use. One worker
(or at most one item) is a plain in-process loop, the reference the
pool is pinned to (``tests/core/test_parity.py`` asserts bit-identical
results). Wider maps start their worker processes once per call, each
with one :func:`multiprocessing.Pipe`, and hand the next item to
whichever worker frees up; at most one item per worker runs ahead of
the oldest result not yet returned. On fork platforms the workers
inherit the shared payload zero-copy via copy-on-write — nothing is
pickled except the per-task items and the (small) results. Elsewhere
they are spawned and the payload is pickled once into each;
:class:`~repro.core.csr.CSRGraph` strips its derived caches on pickling
so the transfer is just the flat ``array`` buffers.

A ``stop`` predicate sees the results in input order as they arrive;
the first result it accepts is the last one returned, and the items
still running are killed rather than awaited. The MAAR ``k`` sweep
(:func:`repro.core.maar.sweep_k_states`, ``MAARConfig.jobs``) applies
its stop rule this way; the experiment sweeps (``SweepConfig.jobs``)
map without one. There is no thread pool: the pure-Python KL loops hold
the GIL, and on 2 CPUs threads lost to the serial loop on every fan-out
measured (see DESIGN.md).

:func:`parallel_map` always returns results in input order, so any
reduction that iterates the returned list reproduces the serial loop's
tie-break order exactly. An exception raised by ``fn`` propagates when
its item's turn comes, as in the serial loop; a worker that dies
raises :class:`~concurrent.futures.process.BrokenProcessPool`. No
worker outlives the call.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait
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
    """The CPUs this process may run on: the worker count used when a
    caller asks for "all cores", and the cap on every pool
    :func:`parallel_map` starts (more workers than CPUs only
    time-slice)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


class _WorkerTraceback(Exception):
    """A worker's formatted traceback, chained as the cause of the
    exception :func:`parallel_map` re-raises in the caller."""

    def __str__(self) -> str:
        return self.args[0]


def _serve(conn, fn: Callable[[Any, Any], Any], shared: Any) -> None:
    """Worker loop: answer each ``(index, item)`` on ``conn`` with
    ``(index, True, result)`` or ``(index, False, (exception,
    traceback))`` until the parent closes the pipe."""
    while True:
        try:
            index, item = conn.recv()
        except EOFError:
            return
        try:
            reply = (index, True, fn(item, shared))
        except Exception as exc:  # shipped; the caller re-raises it in order
            reply = (index, False, (exc, traceback.format_exc()))
        try:
            conn.send(reply)
        except Exception as exc:  # the result or exception does not pickle
            error = RuntimeError(f"item {index}: {exc!r}")
            conn.send((index, False, (error, traceback.format_exc())))


def parallel_map(
    fn: Callable[[Any, Any], Any],
    items: Iterable[Any],
    shared: Any = None,
    jobs: int = 1,
    stop: Optional[Callable[[Any], bool]] = None,
) -> List[Any]:
    """Apply ``fn(item, shared)`` to every item, preserving input order.

    Parameters
    ----------
    fn:
        A module-level callable (spawned workers import it by
        reference). Receives ``(item, shared)``.
    items:
        The per-task inputs. Consumed eagerly.
    shared:
        Read-only payload handed to every call: directly in-process,
        inherited zero-copy via fork COW by forked workers, pickled once
        per worker where workers are spawned (so it must be picklable
        there).
    jobs:
        Requested worker count, at least 1; the map starts
        ``min(jobs, len(items), default_jobs())`` and runs in-process
        when that is 1.
    stop:
        Optional predicate called on each result in input order. The
        first result it returns true for ends the map: items after it
        are never started, or killed if already running.

    Returns
    -------
    list
        ``[fn(item, shared) for item in items]`` cut after the first
        result ``stop`` accepts — the serial semantics, however many
        workers ran. Exceptions raised by ``fn`` propagate.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = list(items)
    workers = min(jobs, len(tasks), default_jobs())
    if workers <= 1:
        results = []
        for item in tasks:
            results.append(fn(item, shared))
            if stop is not None and stop(results[-1]):
                break
        return results

    context = multiprocessing.get_context("fork" if fork_available() else "spawn")
    procs = []
    conns = []
    try:
        for _ in range(workers):
            here, there = context.Pipe()
            proc = context.Process(target=_serve, args=(there, fn, shared))
            proc.start()
            there.close()
            procs.append(proc)
            conns.append(here)
        results: List[Any] = []
        arrived: Dict[int, tuple] = {}
        running: Dict[int, int] = {}  # worker -> index of its item
        idle = list(range(workers))
        queued = 0
        while True:
            while idle and queued < min(len(tasks), len(results) + workers):
                worker = idle.pop()
                conns[worker].send((queued, tasks[queued]))
                running[worker] = queued
                queued += 1
            ready = wait(
                [conns[w] for w in running] + [procs[w].sentinel for w in running]
            )
            for worker in list(running):
                if conns[worker] in ready:
                    try:
                        index, ok, value = conns[worker].recv()
                    except EOFError:  # the worker died mid-reply
                        pass
                    else:
                        arrived[index] = (ok, value)
                        del running[worker]
                        idle.append(worker)
                        continue
                elif procs[worker].sentinel not in ready:
                    continue
                procs[worker].join()
                raise BrokenProcessPool(
                    f"worker pid {procs[worker].pid} exited with code "
                    f"{procs[worker].exitcode} while running item "
                    f"{running[worker]}"
                )
            while len(results) in arrived:
                ok, value = arrived.pop(len(results))
                if not ok:
                    error, trace = value
                    raise error from _WorkerTraceback(trace)
                results.append(value)
                # ``stop`` sees every result, the last one too, as in the
                # in-process loop: callers may record state in it.
                stopped = stop is not None and stop(value)
                if stopped or len(results) == len(tasks):
                    return results
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
