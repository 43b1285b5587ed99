"""Ablation: gain-index variants of the flat-array CSR engine.

At the paper's default attack scale (2000 legitimate users, 400 fakes):

* FM bucket list vs lazy-deletion heap inside a single extended-KL
  solve (Section IV-C's data-structure choice; the pass body is picked
  by ``kl._use_bucket``, so the heap run patches that rule), and
* the end-to-end MAAR sweep (``solve_maar``), which is what Rejecto
  runs once per detection round, with its precision against the planted
  fakes.

The ``coarse_pass`` section times the two bodies of a bucket pass on
near-complete levels, where each pop of the FM bucket list relinks
hundreds of neighbours in Python: :func:`repro.core.kl._bucket_pass`
against :func:`repro.core.kl._matrix_pass`, which replays it on dense
row matrices. Inputs are every coarse-sweep pass on the coarsest level
of the ``multilevel_ba`` benchmark workload (seeds 3–5) and one pass on
near-complete weighted graphs of 1,000, 2,000 and 3,917 nodes (the
node count of the 1.24M-node solve's coarsest level). Each row gives
per-pass times of both bodies (min and median over ``ROUNDS`` runs per
input), the one-off matrix build, the matrix bytes and whether the
dispatch rule picks the matrix pass; every run asserts that both bodies
return the same pops, prefix and counters. The 3,917-node row needs
about 1 GB of memory.

Running this module directly (``PYTHONPATH=src:benchmarks python
benchmarks/bench_ablation_gain_index.py``) writes the wall-clock
numbers to ``BENCH_gain_index.json`` at the repo root, as does the
pytest-benchmark run. Both fail unless the sweep detects something at
precision >= 0.9 against the planted fakes. ``--smoke`` (CI) runs the
ablation once and the pass comparison, one round each, on the
``multilevel_ba`` seed 3 coarsest level and a 160-node near-complete
graph, and writes nothing.
"""

import argparse
import json
import random
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path
from unittest import mock

import pytest

from benchmeta import bench_metadata
from repro.attacks import ScenarioConfig, build_scenario
from repro.core import MAARConfig, extended_kl, initial_partition, solve_maar
from repro.core import kl
from repro.core.csr import CSRGraph, PartitionState, WeightedCSRGraph
from repro.core.gains import _lowest_terms
from repro.core.kernels import weighted_gain_deltas
from repro.core.multilevel import solve_maar_multilevel
from repro.io import load_augmented_graph

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_gain_index.json"
ROUNDS = 3

SCENARIO_CONFIG = ScenarioConfig(num_legit=2000, num_fakes=400)
SCENARIO = build_scenario(SCENARIO_CONFIG)

BA_SEEDS = (3, 4, 5)
NEAR_COMPLETE_SIZES = (1000, 2000, 3917)
SMOKE_SIZES = (160,)


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
    initial = initial_partition(graph, MAARConfig())

    kl_times = {}
    kl_results = {}
    for label, bucket in (("csr_bucket", True), ("csr_heap", False)):
        with mock.patch.object(kl, "_use_bucket", lambda view, k: bucket):
            kl_times[label], kl_results[label] = _best_of(
                lambda: extended_kl(graph, 2.0, initial), rounds
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
    # The timed sweep must be a real detection, not a fast empty one.
    assert detected, "solve_maar detected nothing"
    assert precision >= 0.9, f"solve_maar precision {precision:.3f} < 0.9"
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


def near_complete_graph(n, seed, p_friend=0.3, p_reject=0.15, max_weight=16):
    """A weighted graph shaped like a stalled coarse level: each pair a
    friendship with probability ``p_friend``, each ordered pair a
    rejection with probability ``p_reject`` (about ``0.6·n²`` entries,
    like ``multilevel_ba``'s coarsest levels), int64 weights in
    ``[1, max_weight]``, symmetric on friendships."""
    import numpy as np

    rng = np.random.default_rng(seed)
    fu, fv = np.triu(rng.random((n, n)) < p_friend, 1).nonzero()
    rejects = rng.random((n, n)) < p_reject
    np.fill_diagonal(rejects, False)
    ru, rv = rejects.nonzero()
    del rejects
    base = CSRGraph.from_edges(
        n, np.stack([fu, fv], 1), np.stack([ru, rv], 1), backend="numpy"
    )
    arrs = base.numpy_arrays()
    f_row, ro_row, ri_row = base.numpy_rows()
    lo = np.minimum(f_row, arrs["f_idx"])
    hi = np.maximum(f_row, arrs["f_idx"])
    weights = (
        1 + (lo * 7919 + hi * 104729) % max_weight,
        1 + (ro_row * 31 + arrs["ro_idx"] * 17) % max_weight,
        1 + (arrs["ri_idx"] * 31 + ri_row * 17) % max_weight,
    )
    return WeightedCSRGraph(
        n,
        base.f_ptr,
        base.f_idx,
        base.ro_ptr,
        base.ro_idx,
        base.ri_ptr,
        base.ri_idx,
        *(array("q", w.astype(np.int64).tobytes()) for w in weights),
        backend="numpy",
    )


def _pass_input(csr, seed, k=0.5):
    """One full pass input over ``csr`` from random sides, in
    :func:`repro.core.kl._matrix_pass`'s argument order: ``(state,
    eligible, k_scaled, res, offset, stall_limit)``."""
    rng = random.Random(seed)
    state = PartitionState(
        csr.view(), [rng.randint(0, 1) for _ in range(csr.num_nodes)]
    )
    k_scaled, res = _lowest_terms(k, 8)
    offset = csr.bucket_gain_bound(res, k_scaled) + 1
    return state, list(range(csr.num_nodes)), k_scaled, res, offset, None


def _gain_b(state, k_scaled, res, offset):
    """The bucket pass's start-of-pass bucket indices, as
    :func:`repro.core.kl._run_passes` loads them on bucket levels."""
    fd, rd = weighted_gain_deltas(state.view, state.sides)
    return [k_scaled * r - f * res + offset for f, r in zip(fd, rd)]


def coarsest_pass_inputs(seed):
    """The coarsest level of one ``multilevel_ba`` workload input and
    the input of every pass its coarse ``k`` sweep ran."""
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    from workloads import WORKLOADS

    workload = WORKLOADS["multilevel_ba"]
    with tempfile.TemporaryDirectory() as tmp:
        workload.generate(seed, Path(tmp))
        graph = load_augmented_graph(Path(tmp) / workload.edge_file, as_csr=True)
    recorded = []
    original = kl._matrix_pass

    def record(state, eligible, *rest):
        recorded.append((state.copy(), list(eligible)) + rest)
        return original(state, eligible, *rest)

    kl._matrix_pass = record
    try:
        result = solve_maar_multilevel(graph, workload.config)
    finally:
        kl._matrix_pass = original
    size = result.level_sizes[-1]
    inputs = [args for args in recorded if args[0].view.csr.num_nodes == size]
    if not inputs:
        raise AssertionError(f"seed {seed}: the {size}-node coarsest level ran no matrix pass")
    return inputs[0][0].view.csr, inputs


def _time_bodies(csr, inputs, rounds):
    """Per-pass times of both bodies over ``inputs`` (fresh copies each
    run), asserting equal outcomes, plus the matrix build."""
    view = csr.view()
    adj, weights = view.hot_active(), csr.hot_weights()
    csr.numpy_arrays().pop("matrices", None)
    start = time.perf_counter()
    mats = csr.numpy_matrices()
    build = time.perf_counter() - start
    times = {"bucket": [], "matrix": []}
    for state, eligible, k_scaled, res, offset, stall in inputs:
        # Outside the timed region: the bucket pass's gain kernel call
        # belongs to the pass loop, not to the body.
        gain_b = _gain_b(state, k_scaled, res, offset)
        outcomes = {}
        for body in ("bucket", "matrix"):
            best = float("inf")
            for _ in range(rounds):
                run = state.copy()
                start = time.perf_counter()
                if body == "bucket":
                    out = kl._bucket_pass(
                        run, eligible, gain_b, adj, weights, k_scaled, res,
                        offset, stall,
                    )
                else:
                    out = kl._matrix_pass(
                        run, eligible, k_scaled, res, offset, stall
                    )
                best = min(best, time.perf_counter() - start)
            times[body].append(best)
            outcomes[body] = (out, run.sides, run.f_cross, run.r_cross)
        assert outcomes["bucket"] == outcomes["matrix"], "pass bodies differ"
    zero = inputs[0][4]
    return {
        "nodes": csr.num_nodes,
        "entries": len(csr.f_idx) + len(csr.ro_idx) + len(csr.ri_idx),
        "passes": len(inputs),
        "dispatch_matrix": kl._use_matrix(csr, zero),
        "bucket_pass_ms": _ms_summary(times["bucket"]),
        "matrix_pass_ms": _ms_summary(times["matrix"]),
        "build_ms": build * 1e3,
        "matrix_bytes": sum(mats[key].nbytes for key in ("fr", "occ", "rank")),
    }


def _ms_summary(seconds):
    return {
        "min": min(seconds) * 1e3,
        "median": statistics.median(seconds) * 1e3,
        "max": max(seconds) * 1e3,
    }


def run_coarse_pass(sizes=NEAR_COMPLETE_SIZES, ba_seeds=BA_SEEDS, rounds=ROUNDS):
    """The ``coarse_pass`` section: both pass bodies on near-complete
    levels."""
    rows = []
    for seed in ba_seeds:
        csr, inputs = coarsest_pass_inputs(seed)
        rows.append(
            {"input": f"multilevel_ba seed {seed}, coarsest level",
             **_time_bodies(csr, inputs, rounds)}
        )
    for n in sizes:
        csr = near_complete_graph(n, seed=n)
        rows.append(
            {"input": f"near-complete weighted, {n} nodes",
             **_time_bodies(csr, [_pass_input(csr, seed=1)], rounds)}
        )
        del csr
    for row in rows:
        row["speedup"] = row["bucket_pass_ms"]["median"] / row["matrix_pass_ms"]["median"]
    return {
        "rule": {"fill": kl._MATRIX_FILL, "min_nodes": kl._MATRIX_MIN_NODES},
        "rounds": rounds,
        "rows": rows,
    }


def full_report(rounds=ROUNDS):
    payload = run_ablation(rounds)
    payload["coarse_pass"] = run_coarse_pass(rounds=rounds)
    return payload


def write_report(payload):
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return OUTPUT_PATH


def bench_gain_index(benchmark):
    payload = benchmark.pedantic(full_report, rounds=1, iterations=1)
    write_report(payload)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one round, pass comparison on one multilevel_ba seed and at "
        "160 nodes only (CI rot check; does not overwrite the report)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        payload = run_ablation(rounds=1)
        payload["coarse_pass"] = run_coarse_pass(SMOKE_SIZES, ba_seeds=BA_SEEDS[:1], rounds=1)
        assert all(row["dispatch_matrix"] for row in payload["coarse_pass"]["rows"])
        print(json.dumps(payload, indent=2, sort_keys=True))
        print("\nsmoke run ok (report not written)")
        return 0
    payload = full_report()
    path = write_report(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
