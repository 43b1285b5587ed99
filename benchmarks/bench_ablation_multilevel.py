"""Ablation: multilevel MAAR vs the paper's flat k-sweep, and at scale.

Three measurement groups:

* **multilevel vs flat** — at the ablation scales, the CSR-native
  multilevel pipeline (kernel heavy-edge matching + contraction, int64
  coarse weights, weighted bucket refinement) against one flat
  ``solve_maar`` run on the same planted scenario, the reference the
  multilevel scheme approximates; both validated for detection quality;
* **large-graph solve** — a ~100k-node scenario (the soc-Slashdot
  catalog entry at full scale plus 20k fakes) solved end to end under
  both refinement frontiers (``boundary`` and
  ``full``), recording the per-level timing breakdown
  (coarsen / coarse sweep / refine) that the ``timings`` field of
  :class:`repro.core.multilevel.MultilevelResult` exposes, plus the
  refine-leg speedup the boundary scoping buys;
* **million-graph solve** — a ≥1M-node synthetic BA scenario (1M legit
  users, m=4, plus 240k fakes running the baseline spam wave), boundary
  frontier only — the workload the boundary-only path unlocks.

Writes ``BENCH_multilevel.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_ablation_multilevel.py          # full
    PYTHONPATH=src python benchmarks/bench_ablation_multilevel.py --smoke  # CI
"""

import argparse
import json
import random
import time
from pathlib import Path

from benchmeta import acquisition_record, bench_metadata
from repro.attacks import (
    ScenarioConfig,
    SybilRegionConfig,
    add_careless_requests,
    build_scenario,
    inject_sybil_region,
    send_friend_spam,
    simulate_legitimate_rejections,
)
from repro.core import solve_maar, solve_maar_multilevel
from repro.core.csr import CSRGraph
from repro.core.multilevel import MultilevelConfig
from repro.graphgen import barabasi_albert
from repro.metrics import precision_recall

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_multilevel.json"
#: Packed large-scenario snapshots (plus fake-id sidecars) live here, so
#: re-running the benchmark opens in milliseconds instead of rebuilding.
CACHE_DIR = REPO_ROOT / ".bench_cache"

FULL_SCALES = ((1500, 300), (3000, 600))
SMOKE_SCALES = ((400, 80),)
LARGE_DATASET = "soc-Slashdot"  # 82,168 catalog nodes at scale 1.0
LARGE_FAKES = 20_000
LARGE_SEED = 7
# ≥1M-node scenario: a BA legit region at soc-LiveJournal scale, fakes
# at the ~24% ratio every other bench scenario here uses (Slashdot:
# 20k/82k). The deeper hierarchy needs more than the default 24
# coarsening levels to reach a sweepable coarsest graph.
MILLION_LEGIT = 1_000_000
MILLION_FAKES = 240_000
MILLION_BA_M = 4
MILLION_SEED = 11
MILLION_CONFIG = {"max_levels": 48}
ROUNDS = 3


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _quality(result, fakes):
    metrics = precision_recall(result.suspicious, fakes)
    return {
        "found": result.found,
        "suspicious": len(result.suspicious),
        "acceptance_rate": result.acceptance_rate,
        "k": result.k,
        "precision": metrics.precision,
        "recall": metrics.recall,
    }


def multilevel_vs_flat(scales, rounds=ROUNDS, with_flat=True):
    """The multilevel pipeline (and optionally the flat sweep), per scale."""
    rows = []
    for num_legit, num_fakes in scales:
        scenario = build_scenario(
            ScenarioConfig(num_legit=num_legit, num_fakes=num_fakes, seed=7)
        )
        row = {
            "num_legit": num_legit,
            "num_fakes": num_fakes,
            "nodes": scenario.graph.num_nodes,
        }
        seconds, result = _best_of(
            lambda: solve_maar_multilevel(scenario.graph), rounds
        )
        row["csr"] = {"seconds": seconds, **_quality(result, scenario.fakes)}
        row["csr"]["levels"] = result.level_sizes
        if with_flat:
            seconds, flat = _best_of(
                lambda: solve_maar(scenario.graph), rounds=1
            )
            metrics = precision_recall(flat.suspicious_nodes(), scenario.fakes)
            row["flat"] = {
                "seconds": seconds,
                "acceptance_rate": flat.acceptance_rate,
                "precision": metrics.precision,
                "recall": metrics.recall,
            }
        rows.append(row)
    return rows


def _acquire_scenario(tag, build, cache_dir=CACHE_DIR):
    """A scenario graph, snapshot-cached under ``tag``.

    First call runs ``build()`` (returning ``(csr, fake_ids)``), packs
    the finalized CSR into the bench cache (plus a sidecar with the
    injected fake ids), and reports ``build_seconds``; later calls
    memory-map the snapshot and report ``load_seconds`` — the
    cold-start-free path. Returns ``(csr, fakes, acquisition)``.
    """
    snap = cache_dir / f"{tag}.csrbin"
    sidecar = snap.with_suffix(".fakes.json")
    if snap.exists() and sidecar.exists():
        start = time.perf_counter()
        csr = CSRGraph.open(snap)
        load_seconds = time.perf_counter() - start
        fakes = set(json.loads(sidecar.read_text()))
        return csr, fakes, acquisition_record(
            load_seconds=load_seconds, source="snapshot"
        )
    start = time.perf_counter()
    csr, fakes = build()
    build_seconds = time.perf_counter() - start
    cache_dir.mkdir(parents=True, exist_ok=True)
    csr.save(snap)
    sidecar.write_text(json.dumps(sorted(fakes)))
    return csr, set(fakes), acquisition_record(
        build_seconds=build_seconds, source="generated"
    )


def acquire_large_scenario(num_fakes=LARGE_FAKES, cache_dir=CACHE_DIR):
    """The ~100k-node soc-Slashdot scenario graph, snapshot-cached."""

    def build():
        scenario = build_scenario(
            ScenarioConfig(
                dataset=LARGE_DATASET,
                num_legit=None,
                scale=1.0,
                num_fakes=num_fakes,
                seed=LARGE_SEED,
            )
        )
        return scenario.graph.csr(), set(scenario.fakes)

    return _acquire_scenario(
        f"{LARGE_DATASET}-fakes{num_fakes}-seed{LARGE_SEED}", build, cache_dir
    )


def acquire_million_scenario(cache_dir=CACHE_DIR):
    """The ≥1M-node synthetic BA scenario graph, snapshot-cached.

    The Table I "synthetic" generator (Barabási–Albert, m=4) scaled to a
    million legitimate users plus 240k fakes running the baseline spam
    wave — past what the full-frontier refinement can finish in a
    sitting, and the headline workload for the boundary-only path. The
    build mirrors ``build_scenario``'s attack order but runs lean — no
    RequestLog, no careless/whitewash bookkeeping kept — since at this
    scale only the final CSR arrays and the fake ids matter.
    """

    def build():
        rng = random.Random(MILLION_SEED)
        graph = barabasi_albert(MILLION_LEGIT, MILLION_BA_M, rng)
        legit = list(range(graph.num_nodes))
        simulate_legitimate_rejections(graph, legit, 0.2, rng)
        fakes = inject_sybil_region(
            graph, SybilRegionConfig(num_fakes=MILLION_FAKES), rng
        )
        send_friend_spam(graph, fakes, legit, 20, 0.7, rng)
        add_careless_requests(graph, legit, fakes, 0.15, rng)
        return graph.csr(), set(fakes)

    return _acquire_scenario(
        f"ba{MILLION_LEGIT}-fakes{MILLION_FAKES}-seed{MILLION_SEED}",
        build,
        cache_dir,
    )


def _graph_facts(dataset, csr, acquisition):
    return {
        "dataset": dataset,
        "nodes": csr.num_nodes,
        "friendships": csr.num_friendships,
        "rejections": csr.num_rejections,
        "acquisition": acquisition,
    }


def _timed_solve(csr, fakes, config=None, rounds=1):
    """Solve ``rounds`` times, report the fastest run (the partitions are
    deterministic, so only the clock varies between rounds)."""
    best_seconds = float("inf")
    best_result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = solve_maar_multilevel(csr, config or MultilevelConfig())
        seconds = time.perf_counter() - start
        if seconds < best_seconds:
            best_seconds, best_result = seconds, result
    result = best_result
    return {
        "solve_seconds": best_seconds,
        "rounds": rounds,
        "refine_seconds": sum(result.timings["refine"]),
        "per_level_timings": result.timings,
        "level_sizes": result.level_sizes,
        **_quality(result, fakes),
    }


def large_graph_solve(num_fakes=LARGE_FAKES, rounds=2):
    """End-to-end csr-engine solves on the ~100k-node scenario — one per
    refinement frontier, with the refine-leg speedup the boundary scheme
    buys at this scale."""
    csr, fakes, acquisition = acquire_large_scenario(num_fakes)
    row = _graph_facts(LARGE_DATASET, csr, acquisition)
    row["frontiers"] = {
        frontier: _timed_solve(
            csr, fakes, MultilevelConfig(frontier=frontier), rounds=rounds
        )
        for frontier in ("boundary", "full")
    }
    boundary = row["frontiers"]["boundary"]
    full = row["frontiers"]["full"]
    row["refine_speedup_boundary_over_full"] = (
        full["refine_seconds"] / boundary["refine_seconds"]
    )
    row["solve_speedup_boundary_over_full"] = (
        full["solve_seconds"] / boundary["solve_seconds"]
    )
    return row


def million_graph_solve():
    """One end-to-end csr-engine solve on the ≥1M-node BA scenario —
    boundary frontier only; the full-frontier leg is the one the scheme
    exists to avoid at this scale."""
    csr, fakes, acquisition = acquire_million_scenario()
    return {
        **_graph_facts("synthetic-1M", csr, acquisition),
        "config": dict(MILLION_CONFIG),
        **_timed_solve(csr, fakes, MultilevelConfig(**MILLION_CONFIG)),
    }


def run_report(smoke=False, rounds=ROUNDS, million=True):
    scales = SMOKE_SCALES if smoke else FULL_SCALES
    payload = {
        "meta": bench_metadata(),
        "smoke": smoke,
        "rounds": rounds,
        "multilevel_vs_flat": multilevel_vs_flat(
            scales, rounds, with_flat=not smoke
        ),
    }
    if not smoke:
        payload["large_graph"] = large_graph_solve()
        if million:
            payload["million_graph"] = million_graph_solve()
    return payload


def write_report(payload):
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return OUTPUT_PATH


def assert_detects(quality):
    """A timed solve must be a real detection: non-empty, precise and
    near-complete against the planted fakes."""
    assert quality["suspicious"] > 0, quality
    assert quality["precision"] > 0.9 and quality["recall"] > 0.9, quality


def bench_multilevel(benchmark):
    """pytest-benchmark entry: smoke scale, the solve detects."""
    payload = benchmark.pedantic(
        run_report, kwargs={"smoke": True, "rounds": 1}, rounds=1, iterations=1
    )
    for row in payload["multilevel_vs_flat"]:
        assert_detects(row["csr"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale, 1 round, no large-graph solve (CI rot check; "
        "does not overwrite a full report)",
    )
    parser.add_argument(
        "--skip-million",
        action="store_true",
        help="full run without the ≥1M-node synthetic solve",
    )
    args = parser.parse_args(argv)
    payload = run_report(
        smoke=args.smoke,
        rounds=1 if args.smoke else ROUNDS,
        million=not args.skip_million,
    )
    print(json.dumps(payload, indent=2, sort_keys=True))
    for row in payload["multilevel_vs_flat"]:
        assert_detects(row["csr"])
    if args.smoke:
        print("\nsmoke run ok (report not written)")
        return 0
    path = write_report(payload)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
