"""In-memory span tracing around the program's layer entry points.

The benchmark never edits the program: :func:`install` wraps public
layer functions and methods of an imported ``repro`` from the outside.
Each wrapped call records a span ``(name, start, end, parent, run id,
pid)`` and may add counts; everything stays in memory until
:func:`summarize` turns it into per-layer metrics and the run writes it
out.

Forked sweep workers (``MAARConfig(jobs > 1)``) inherit the wrappers.
Each ``k`` task ships the spans and counts it recorded back to the
parent on its :class:`~repro.core.kl.KLStats`, so worker-side KL and
kernel work is counted too; those spans keep their worker's pid and are
left out of the parent's self times.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

#: Kernels whose calls and time are reported per kernel.
KERNELS = (
    "gain_deltas",
    "weighted_gain_deltas",
    "boundary_nodes",
    "heavy_edge_matching",
    "contract_arrays",
    "shard_gain_deltas",
)

#: Layers whose self time is reported (span name prefixes).
LAYERS = ("rejecto", "maar", "kl", "kernels", "parallel", "multilevel", "cluster")

#: Span names whose summed durations make up ``multilevel.coarsen_s``.
COARSEN_SPANS = (
    "kernels.heavy_edge_matching",
    "multilevel.mapping",
    "multilevel.contract",
    "multilevel.project_labels",
)


class Tracer:
    """Spans and counts of one traced job."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans = []  # [name, start, end, parent, pid]
        self.counts = defaultdict(float)
        self.stack = []
        self.missing = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, os.getpid()])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def add(self, name: str, value=1) -> None:
        self.counts[name] += value

    def absorb(self, shipped) -> None:
        """Merge spans and counts a forked worker recorded for one task."""
        mark, spans, counts = shipped
        offset = len(self.spans)
        for name, start, end, parent, pid in spans:
            if parent >= mark:
                parent = offset + parent - mark
            self.spans.append([name, start, end, parent, pid])
        for key, value in counts.items():
            self.counts[key] += value

    def records(self):
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "run_id": self.run_id,
                "pid": pid,
            }
            for name, start, end, parent, pid in self.spans
        ]


def _wrap(tracer: Tracer, owner, attr: str, name: str, after=None) -> None:
    """Replace ``owner.attr`` with a spanned wrapper; ``after(result,
    args, kwargs)`` adds counts. A hook the program no longer has is
    recorded in ``tracer.missing`` instead of failing the run."""
    original = getattr(owner, attr, None)
    if original is None:
        tracer.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(result, args, kwargs)
        return result

    setattr(owner, attr, wrapper)


def _holders(attr: str, original):
    """Every loaded ``repro`` module whose global ``attr`` is ``original``:
    its defining module and each module that imported it by name."""
    return [
        mod
        for mod in list(sys.modules.values())
        if getattr(mod, "__name__", "").startswith("repro")
        and vars(mod).get(attr) is original
    ]


def _wrap_everywhere(tracer: Tracer, module, attr: str, name: str) -> None:
    """Wrap a function wherever a ``repro`` module holds it by name."""
    original = getattr(module, attr, None)
    if original is None:
        tracer.missing.append(f"{module.__name__}.{attr}")
        return
    for mod in _holders(attr, original):
        _wrap(tracer, mod, attr, name)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    import repro.cluster  # noqa: F401 - load every module that imports kernels
    from repro.core import kernels, kl
    from repro.core.csr import CSRGraph

    maar = _module("repro.core.maar")
    rejecto = _module("repro.core.rejecto")
    multilevel = _module("repro.core.multilevel")
    engine = _module("repro.cluster.engine")
    rdd = _module("repro.cluster.rdd")
    master = _module("repro.cluster.master")

    for kernel in KERNELS:
        _wrap_everywhere(tracer, kernels, kernel, f"kernels.{kernel}")

    original_kl = kl.extended_kl_state

    def extended_kl_state(state, k, config=None, stats=None):
        own = kl.KLStats()
        index = tracer.open("kl.k_solve")
        try:
            result = original_kl(state, k, config, own)
        finally:
            tracer.close(index)
        tracer.add("kl.passes", own.passes)
        tracer.add("kl.switches_tested", own.switches_tested)
        tracer.add("kl.switches_applied", own.switches_applied)
        if stats is not None:
            stats.passes += own.passes
            stats.switches_applied += own.switches_applied
            stats.switches_tested += own.switches_tested
            stats.objective_history.extend(own.objective_history)
        return result

    for mod in _holders("extended_kl_state", original_kl):
        mod.extended_kl_state = extended_kl_state

    def parallel_counts(result, args, kwargs):
        tracer.add("parallel.tasks", len(result))
        for item in result:
            stats = item[-1] if isinstance(item, tuple) and item else None
            shipped = getattr(stats, "bench_trace", None)
            if shipped is not None:
                tracer.absorb(shipped)
                del stats.bench_trace

    for mod in (maar, multilevel):
        if mod is not None:
            _wrap(tracer, mod, "parallel_map", "parallel.map", parallel_counts)

    if maar is not None:
        _wrap_worker_task(tracer, maar, "_sweep_k_task")
        _wrap(tracer, maar, "sweep_k_states", "maar.sweep")

    if rejecto is not None:

        def round_counts(result, args, kwargs):
            tracer.add("rejecto.rounds")
            tracer.add("rejecto.residual_nodes", args[0].num_active)
            tracer.add("maar.k_tried", len(result.per_k))
            tracer.add("maar.k_valid", sum(1 for c in result.per_k if c.valid))

        _wrap(tracer, rejecto, "_solve_maar_view", "rejecto.round", round_counts)
        _wrap(tracer, rejecto, "active_in_rejections", "rejecto.evidence")

    if multilevel is not None:

        def sweep_counts(result, args, kwargs):
            init, k_values = args[0], args[1]
            config = args[2] if len(args) > 2 else kwargs.get("kl_config")
            resolution = getattr(config, "resolution", 8)
            csr = init.view.csr
            tracer.add("multilevel.coarsest_nodes", csr.num_nodes)
            slots = max(
                2 * csr.bucket_gain_bound(resolution, round(k * resolution)) + 3
                for k in k_values
            )
            tracer.add("multilevel.coarse_bucket_slots", slots)

        def refine_counts(result, args, kwargs):
            moved, _df, _dr, tested, _applied = result
            tracer.add("multilevel.refine_regions")
            tracer.add("multilevel.refine_moves", len(moved))
            tracer.add("multilevel.refine_tested", tested)

        _wrap(
            tracer, multilevel, "sweep_k_states", "multilevel.coarse_sweep",
            sweep_counts,
        )
        _wrap(tracer, multilevel, "refine_subset", "multilevel.refine_region",
              refine_counts)
        _wrap(tracer, multilevel, "_refine_level_boundary", "multilevel.refine")
        _wrap(tracer, multilevel, "matching_to_mapping", "multilevel.mapping")
        _wrap(tracer, multilevel, "_project_coarse_labels",
              "multilevel.project_labels")
        _wrap(tracer, multilevel, "_project_sides", "multilevel.project_sides")
        _wrap(tracer, CSRGraph, "contract", "multilevel.contract")

    if engine is not None:
        dkl = engine.DistributedKL
        _wrap(tracer, dkl, "__init__", "cluster.init")
        _wrap(tracer, dkl, "run", "cluster.run")
        _wrap(tracer, dkl, "_collect_pass_state", "cluster.gains")
        _wrap(tracer, dkl, "_fetch_records", "cluster.fetch")
        _wrap(tracer, dkl, "_broadcast_full", "cluster.broadcast")
        _wrap(tracer, dkl, "_broadcast_delta", "cluster.broadcast")
    if rdd is not None:
        _wrap(tracer, rdd.ClusterContext, "distribute_csr", "cluster.distribute")
    if master is not None:
        _wrap(tracer, master.MasterState, "for_pass", "cluster.index")


def _wrap_worker_task(tracer: Tracer, module, attr: str) -> None:
    """Make a sweep task ship what it recorded back with its KLStats.

    In the parent (serial backends) the task's spans are already in the
    tracer and nothing is shipped."""
    original = getattr(module, attr, None)
    if original is None:
        tracer.missing.append(f"{module.__name__}.{attr}")
        return

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        mark = len(tracer.spans)
        before = dict(tracer.counts)
        result = original(*args, **kwargs)
        if os.getpid() != tracer.pid:
            counts = {
                key: value - before.get(key, 0)
                for key, value in tracer.counts.items()
                if value != before.get(key, 0)
            }
            result[-1].bench_trace = (mark, tracer.spans[mark:], counts)
        return result

    setattr(module, attr, wrapper)


def self_times(tracer: Tracer):
    """Self seconds per span: its duration minus the durations of its
    children recorded in the same process."""
    spans = tracer.spans
    own = [end - start for _name, start, end, _parent, _pid in spans]
    for name, start, end, parent, pid in spans:
        if parent >= 0 and spans[parent][4] == pid:
            own[parent] -= end - start
    return own


def self_by_span(tracer: Tracer) -> dict:
    """Self seconds summed per span name, for the run record."""
    totals = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer)):
        totals[span[0]] += own
    return dict(sorted(totals.items(), key=lambda item: -item[1]))


def summarize(tracer: Tracer, root: int) -> dict:
    """Per-layer metrics from one traced job whose solve is span ``root``."""
    spans = tracer.spans
    own = self_times(tracer)
    total = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    for index, (name, start, end, _parent, _pid) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own[index]
    counts = tracer.counts
    root_seconds = spans[root][2] - spans[root][1]
    metrics = {
        "rejecto.rounds": counts["rejecto.rounds"],
        "rejecto.round_s": total["rejecto.round"],
        "rejecto.residual_nodes": counts["rejecto.residual_nodes"],
        "maar.sweep_s": total["maar.sweep"],
        "maar.k_tried": counts["maar.k_tried"],
        "maar.k_valid": counts["maar.k_valid"],
        "kl.passes": counts["kl.passes"],
        "kl.switches_tested": counts["kl.switches_tested"],
        "kl.switches_applied": counts["kl.switches_applied"],
        "kl.applied_ratio": _ratio(
            counts["kl.switches_applied"], counts["kl.switches_tested"]
        ),
        "kl.k_solve_s": total["kl.k_solve"],
        "parallel.map_s": total["parallel.map"],
        "parallel.tasks": counts["parallel.tasks"],
        "multilevel.coarse_sweep_s": total["multilevel.coarse_sweep"],
        "multilevel.coarse_bucket_slots": counts["multilevel.coarse_bucket_slots"],
        "multilevel.coarsest_nodes": counts["multilevel.coarsest_nodes"],
        "multilevel.coarsen_s": sum(total[name] for name in COARSEN_SPANS),
        "multilevel.refine_s": total["multilevel.refine"],
        "multilevel.refine_moves": counts["multilevel.refine_moves"],
        "multilevel.refine_tested": counts["multilevel.refine_tested"],
        "multilevel.refine_regions": counts["multilevel.refine_regions"],
        "cluster.distribute_s": total["cluster.distribute"],
        "trace.coverage": 1.0 - own[root] / root_seconds if root_seconds else 0.0,
    }
    for kernel in KERNELS:
        metrics[f"kernels.{kernel}.calls"] = calls[f"kernels.{kernel}"]
        metrics[f"kernels.{kernel}.s"] = total[f"kernels.{kernel}"]
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = layer_self[layer]
    return metrics


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0
