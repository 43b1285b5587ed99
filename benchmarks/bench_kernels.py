"""Batch kernels vs scalar sweeps.

At the default attack scale (2000 legitimate users + 400 fakes), the
O(V+E) sweeps a KL pass opens with, timed as the scalar fallback vs the
numpy batch kernel: ``gain_deltas`` (bucket/heap gain initialization),
``heap_gains`` (float gains for the heap engine), and ``recount_active``
(the counter rebuild every ``PartitionState`` construction pays) — plus
the two scope kernels every multilevel refinement round opens with,
``boundary_nodes`` (the movable frontier) and ``cut_regions`` (over
that frontier, at ``k = 1`` about half the graph, like a finest level's
first round).

Both backends are bit-identical (asserted here and property-tested in
``tests/core``); this benchmark records what the identical answer costs.
Writes ``BENCH_kernels.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py          # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke  # CI
"""

import argparse
import json
import time
from pathlib import Path

from benchmeta import bench_metadata
from repro.attacks import ScenarioConfig, build_scenario
from repro.core.kernels import (
    boundary_nodes,
    cut_regions,
    gain_deltas,
    heap_gains,
    recount_active,
)
from repro.core.objectives import LEGITIMATE, SUSPICIOUS

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_kernels.json"

FULL_SCALE = (2000, 400)
SMOKE_SCALE = (400, 80)
ROUNDS = 5


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _scenario(num_legit, num_fakes):
    scenario = build_scenario(
        ScenarioConfig(num_legit=num_legit, num_fakes=num_fakes)
    )
    graph = scenario.graph
    sides = [
        SUSPICIOUS if graph.rej_in[u] else LEGITIMATE
        for u in range(graph.num_nodes)
    ]
    return graph, sides


def kernel_timings(graph, sides, rounds=ROUNDS, backends=("python", "numpy")):
    """Scalar fallback vs numpy batch kernel for each per-pass init sweep.

    Both backends share the identical flat storage, so this isolates the
    sweep itself; the assertions re-verify bit-identical outputs on the
    benchmark-scale graph. With one backend it only times that one.
    """
    views = {name: graph.csr(name).view() for name in backends}
    timings = {}
    outputs = {}
    for name, view in views.items():
        timings[name] = {}
        timings[name]["gain_deltas_seconds"], outputs[name, "gd"] = _best_of(
            lambda view=view: gain_deltas(view, sides), rounds
        )
        timings[name]["heap_gains_seconds"], outputs[name, "hg"] = _best_of(
            lambda view=view: heap_gains(view, sides, 0.3), rounds
        )
        timings[name]["recount_seconds"], outputs[name, "rc"] = _best_of(
            lambda view=view: recount_active(view, sides), rounds
        )
        timings[name]["boundary_nodes_seconds"], frontier = _best_of(
            lambda view=view: boundary_nodes(view, sides, 1.0), rounds
        )
        outputs[name, "mf"] = frontier
        timings[name]["cut_regions_seconds"], outputs[name, "cr"] = _best_of(
            lambda view=view: cut_regions(view.csr, frontier), rounds
        )
    if len(backends) == 1:
        return timings
    for key in ("gd", "hg", "rc", "mf", "cr"):
        assert outputs["python", key] == outputs["numpy", key], key
    timings["speedup_numpy_over_python"] = {
        kernel: timings["python"][kernel] / timings["numpy"][kernel]
        for kernel in timings["python"]
    }
    timings["frontier_nodes"] = len(outputs["numpy", "mf"])
    return timings


def run_report(smoke=False, rounds=ROUNDS):
    num_legit, num_fakes = SMOKE_SCALE if smoke else FULL_SCALE
    graph, sides = _scenario(num_legit, num_fakes)
    return {
        "meta": bench_metadata(),
        "smoke": smoke,
        "rounds": rounds,
        "scenario": {
            "num_legit": num_legit,
            "num_fakes": num_fakes,
            "nodes": graph.num_nodes,
            "friendships": graph.num_friendships,
            "rejections": graph.num_rejections,
        },
        "per_pass_init": kernel_timings(graph, sides, rounds),
    }


def write_report(payload):
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return OUTPUT_PATH


def bench_kernels(benchmark):
    """pytest-benchmark entry: smoke scale, vectorized == scalar."""
    payload = benchmark.pedantic(
        run_report, kwargs={"smoke": True, "rounds": 2}, rounds=1, iterations=1
    )
    assert payload["per_pass_init"]["python"]["gain_deltas_seconds"] > 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale, 2 rounds (CI rot check; does not overwrite "
        "a full report)",
    )
    args = parser.parse_args(argv)
    try:
        import numpy  # noqa: F401
    except ImportError:
        # The pure-python CI job still smoke-tests the scalar kernels;
        # the backend comparison needs numpy.
        graph, sides = _scenario(*SMOKE_SCALE)
        kernel_timings(graph, sides, rounds=2, backends=("python",))
        print("numpy unavailable: kernel smoke ok (backend comparison skipped)")
        return 0
    payload = run_report(smoke=args.smoke, rounds=2 if args.smoke else ROUNDS)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.smoke:
        print("\nsmoke run ok (report not written)")
        return 0
    path = write_report(payload)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
