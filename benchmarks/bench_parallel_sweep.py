"""Parallel MAAR ``k``-sweep: serial vs multi-worker wall clock.

The sweep's ``k`` steps are independent extended-KL runs over one
immutable CSR snapshot, each from the same initial cut, so
``MAARConfig(jobs=N)`` streams them through one
:func:`repro.core.parallel.parallel_map` pool per sweep, stopping at the
first step that cannot win and killing the steps still running. A pool
never has more workers than the CPUs the process may use
(``usable_cpus`` in the report), so rows above that count measure the
same pool as the row at it. This benchmark measures the end-to-end ``solve_maar`` wall clock at
1/2/4/8 workers on the default 2000+400 attack scale plus one
~10k-node scale point, asserts the parallel results are *bit-identical*
to the serial sweep, and writes everything to
``BENCH_parallel_sweep.json`` at the repo root.

Every configuration is timed ``REPEATS`` times, serial and parallel
interleaved within each repeat so machine drift hits them alike; the
row reports the median. Each row records how many of the grid's steps
the sweep ran (``steps_run`` of ``grid_steps``) and every grid step's
serial duration, measured as a single-step sweep (``per_k_seconds``).
``cpu_count`` is recorded so readers can tell which regime a given JSON
was produced in; the measured-speedup assertion only applies on
multi-core hosts.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_sweep.py          # full
    PYTHONPATH=src python benchmarks/bench_parallel_sweep.py --smoke  # CI
"""

import argparse
import json
import os
import statistics
import time
from pathlib import Path

from benchmeta import bench_metadata
from repro.attacks import ScenarioConfig, build_scenario
from repro.core import MAARConfig, geometric_k_sequence, solve_maar
from repro.core.parallel import default_jobs, fork_available

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_parallel_sweep.json"

#: (num_legit, num_fakes): the paper-protocol default scale and a
#: ~10k-node point (5:1 legit:fake ratio, as in the sweeps).
FULL_SCALES = ((2000, 400), (8333, 1667))
SMOKE_SCALES = ((400, 80),)
FULL_WORKERS = (2, 4, 8)
SMOKE_WORKERS = (2,)
#: Timed runs per configuration; the row keeps the median.
REPEATS = 3


def _result_fingerprint(result):
    """Everything the sweep decides: best cut, per-k diagnostics, stats."""
    return (
        result.k,
        result.acceptance_rate,
        result.suspicious_nodes(),
        [
            (c.k, c.valid, c.f_cross, c.r_cross, c.suspicious_size)
            for c in result.per_k
        ],
        (
            result.stats.passes,
            result.stats.switches_applied,
            result.stats.switches_tested,
            result.stats.objective_history,
        ),
    )


def measure_per_k(graph, config):
    """Serial duration of each grid ``k`` step, each run alone as a
    single-step sweep on the shared snapshot."""
    durations = []
    for k in geometric_k_sequence(config.k_min, config.k_factor, config.k_steps):
        single = MAARConfig(k_min=k, k_steps=1)
        start = time.perf_counter()
        solve_maar(graph, single)
        durations.append(time.perf_counter() - start)
    return durations


def _timed_solve(graph, jobs):
    start = time.perf_counter()
    result = solve_maar(graph, MAARConfig(jobs=jobs))
    return result, time.perf_counter() - start


def run_scale(num_legit, num_fakes, worker_grid):
    scenario = build_scenario(
        ScenarioConfig(num_legit=num_legit, num_fakes=num_fakes)
    )
    graph = scenario.graph.csr()

    seconds = {jobs: [] for jobs in (1,) + tuple(worker_grid)}
    results = {}
    for _ in range(REPEATS):
        for jobs in seconds:
            results[jobs], elapsed = _timed_solve(graph, jobs)
            seconds[jobs].append(elapsed)
    serial = results[1]
    assert serial.found
    reference = _result_fingerprint(serial)
    serial_seconds = statistics.median(seconds[1])

    per_k = measure_per_k(graph, MAARConfig())
    row = {
        "num_legit": num_legit,
        "num_fakes": num_fakes,
        "users": graph.num_nodes,
        "friendships": graph.num_friendships,
        "rejections": graph.num_rejections,
        "repeats": REPEATS,
        "serial_seconds": serial_seconds,
        "grid_steps": len(per_k),
        "steps_run": len(serial.per_k),
        "best_k": serial.k,
        "per_k_seconds": per_k,
        "workers": {},
    }
    for jobs in worker_grid:
        identical = _result_fingerprint(results[jobs]) == reference
        assert identical, f"parallel sweep (jobs={jobs}) diverged from serial"
        median = statistics.median(seconds[jobs])
        row["workers"][str(jobs)] = {
            "seconds": median,
            "measured_speedup": serial_seconds / median,
            "identical": identical,
        }
    return row


def run_report(smoke=False):
    scales = SMOKE_SCALES if smoke else FULL_SCALES
    workers = SMOKE_WORKERS if smoke else FULL_WORKERS
    return {
        "meta": bench_metadata(),
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "usable_cpus": default_jobs(),
        "fork_available": fork_available(),
        "scales": [
            run_scale(num_legit, num_fakes, workers)
            for num_legit, num_fakes in scales
        ],
    }


def write_report(payload):
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return OUTPUT_PATH


def bench_parallel_sweep(benchmark):
    """pytest-benchmark entry: smoke scale, parallel == serial."""
    payload = benchmark.pedantic(run_report, args=(True,), rounds=1, iterations=1)
    for row in payload["scales"]:
        assert all(w["identical"] for w in row["workers"].values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale, 2 workers only (CI rot check; does not "
        "overwrite a full report)",
    )
    args = parser.parse_args(argv)
    payload = run_report(smoke=args.smoke)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.smoke:
        print("\nsmoke run ok (report not written)")
        return 0
    path = write_report(payload)
    print(f"\nwrote {path}")
    cores = os.cpu_count() or 1
    if cores >= 2:
        four = payload["scales"][0]["workers"].get("4")
        if four is not None:
            assert four["measured_speedup"] >= 1.8, (
                "expected >= 1.8x at 4 workers on the default scale, got "
                f"{four['measured_speedup']:.2f}x on {cores} cores"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
