"""Ablation: gain-index variants of the flat-array CSR engine.

At the paper's default attack scale (2000 legitimate users, 400 fakes):

* FM bucket list vs lazy-deletion heap inside a single extended-KL
  solve (Section IV-C's data-structure choice), and
* the end-to-end MAAR sweep (``solve_maar``), which is what Rejecto
  runs once per detection round, with its precision against the planted
  fakes.

Running this module directly (``PYTHONPATH=src python
benchmarks/bench_ablation_gain_index.py``) writes the wall-clock
numbers to ``BENCH_gain_index.json`` at the repo root; under
pytest-benchmark the same measurements are asserted on.
"""

import json
import time
from pathlib import Path

import pytest

from benchmeta import bench_metadata
from repro.attacks import ScenarioConfig, build_scenario
from repro.core import KLConfig, MAARConfig, Partition, extended_kl, solve_maar
from repro.core.objectives import LEGITIMATE, SUSPICIOUS

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_gain_index.json"
ROUNDS = 3

SCENARIO_CONFIG = ScenarioConfig(num_legit=2000, num_fakes=400)
SCENARIO = build_scenario(SCENARIO_CONFIG)


def _initial_partition():
    graph = SCENARIO.graph
    return Partition(
        graph,
        [
            SUSPICIOUS if graph.rej_in[u] else LEGITIMATE
            for u in range(graph.num_nodes)
        ],
    )


def _best_of(fn, rounds=ROUNDS):
    """Best-of-N wall clock plus the last result."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_ablation(rounds=ROUNDS):
    """Time every variant and return the BENCH_gain_index payload."""
    graph = SCENARIO.graph
    initial = _initial_partition()

    kl_times = {}
    kl_results = {}
    for label, config in (
        ("csr_bucket", KLConfig(gain_index="bucket")),
        ("csr_heap", KLConfig(gain_index="heap")),
    ):
        kl_times[label], kl_results[label] = _best_of(
            lambda config=config: extended_kl(graph, 2.0, initial, config=config),
            rounds,
        )
    # Every variant implements the same greedy discipline.
    reference = kl_results["csr_bucket"].objective(2.0)
    for label, result in kl_results.items():
        assert result.objective(2.0) == pytest.approx(reference), label

    maar_seconds, maar = _best_of(lambda: solve_maar(graph, MAARConfig()), rounds)
    detected = set(maar.suspicious_nodes())
    precision = (
        len(detected & set(SCENARIO.fakes)) / len(detected) if detected else 0.0
    )
    return {
        "meta": bench_metadata(),
        "scenario": {
            "num_legit": SCENARIO_CONFIG.num_legit,
            "num_fakes": SCENARIO_CONFIG.num_fakes,
            "nodes": graph.num_nodes,
            "friendships": graph.num_friendships,
            "rejections": graph.num_rejections,
        },
        "rounds": rounds,
        "kl_single_solve_seconds": kl_times,
        "maar_end_to_end_seconds": {"csr": maar_seconds},
        "maar_acceptance_rate": maar.acceptance_rate,
        "maar_detected": len(detected),
        "maar_precision": precision,
    }


def write_report(payload):
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return OUTPUT_PATH


def bench_gain_index(benchmark):
    payload = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    write_report(payload)
    # The timed sweep must be a real detection, not a fast empty one.
    assert payload["maar_detected"] > 0
    assert payload["maar_precision"] >= 0.9


if __name__ == "__main__":
    report = run_ablation()
    path = write_report(report)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {path}")
