"""Ablation: multilevel refinement early exit, and the Dinkelbach polish.

The multilevel pipeline spends most of its wall clock re-refining each
uncoarsened level around the movable frontier (frontier → connected
regions → ``refine_subset`` per region, rounds until no frontier move
remains). This ablation sweeps the early-exit knob of
:class:`repro.core.multilevel.MultilevelConfig`:

* **refine_tolerance** — skip intermediate levels while the most
  recent refined level improved the objective by at most the tolerance
  (the finest level always refines).

Every row records the refine leg (the sum of the per-level refine
timings) next to the end-to-end solve, plus detection quality against
the planted fakes, so the report states what the early exit saves and
what it costs. A run also includes the Dinkelbach-polish rows (the
``refine_rounds`` ablation on the flat solver): what a few ratio rounds
buy on a deliberately coarse grid.

Reports written before the whole-graph refinement scope (the
``"full"`` value of the removed ``MultilevelConfig.frontier`` option)
was removed also carried a ``frontier`` axis and a boundary-over-full
refine speedup.

Writes ``BENCH_refinement.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_ablation_refinement.py          # full
    PYTHONPATH=src python benchmarks/bench_ablation_refinement.py --smoke  # CI
"""

import argparse
import json
import time
from pathlib import Path

from benchmeta import bench_metadata
from repro.attacks import ScenarioConfig, build_scenario
from repro.core import MAARConfig, solve_maar, solve_maar_multilevel
from repro.core.multilevel import MultilevelConfig
from repro.metrics import precision_recall

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_refinement.json"

FULL_SCALE = (3000, 600)
SMOKE_SCALE = (400, 80)
SEED = 7
TOLERANCES = (0.0, 0.01)


def _solve_row(graph, fakes, refine_tolerance):
    config = MultilevelConfig(refine_tolerance=refine_tolerance)
    start = time.perf_counter()
    result = solve_maar_multilevel(graph, config)
    seconds = time.perf_counter() - start
    metrics = precision_recall(result.suspicious, fakes)
    detail = result.timings["refine_detail"]
    return {
        "refine_tolerance": refine_tolerance,
        "seconds": seconds,
        "refine_seconds": sum(result.timings["refine"]),
        "sweep_seconds": result.timings["coarse_sweep"],
        "coarsen_seconds": sum(result.timings["coarsen"]),
        "early_exits": result.timings["early_exits"],
        "scopes": sorted({d["scope"] for d in detail}),
        "tested": sum(d["tested"] for d in detail),
        "moves": sum(d["moves"] for d in detail),
        "found": result.found,
        "suspicious": len(result.suspicious),
        "k": result.k,
        "acceptance_rate": result.acceptance_rate,
        "precision": metrics.precision,
        "recall": metrics.recall,
    }


def tolerance_sweep(num_legit, num_fakes):
    """One multilevel solve per ``refine_tolerance`` over one scenario.

    Returns the rows (``suspicious`` is the detected count) and asserts
    inline that every row detects the planted population at precision
    and recall above 0.9.
    """
    scenario = build_scenario(
        ScenarioConfig(num_legit=num_legit, num_fakes=num_fakes, seed=SEED)
    )
    rows = [
        _solve_row(scenario.graph, scenario.fakes, tolerance)
        for tolerance in TOLERANCES
    ]
    for row in rows:
        assert row["recall"] > 0.9, row
        assert row["precision"] > 0.9, row
    return rows


def dinkelbach_context(num_legit, num_fakes):
    """The flat-solver ratio-refinement ablation, one row per grid: what
    do a few Dinkelbach rounds buy on a deliberately coarse grid?"""
    scenario = build_scenario(
        ScenarioConfig(num_legit=num_legit, num_fakes=num_fakes, seed=SEED)
    )
    rows = []
    for label, config in (
        ("fine_grid", MAARConfig(k_steps=10)),
        ("coarse_grid", MAARConfig(k_min=0.125, k_factor=16.0, k_steps=2)),
        (
            "coarse_grid+refine",
            MAARConfig(k_min=0.125, k_factor=16.0, k_steps=2, refine_rounds=3),
        ),
    ):
        start = time.perf_counter()
        result = solve_maar(scenario.graph, config)
        seconds = time.perf_counter() - start
        metrics = precision_recall(result.suspicious_nodes(), scenario.fakes)
        rows.append(
            {
                "label": label,
                "seconds": seconds,
                "acceptance_rate": result.acceptance_rate,
                "precision": metrics.precision,
                "recall": metrics.recall,
            }
        )
    refined = next(r for r in rows if r["label"] == "coarse_grid+refine")
    coarse = next(r for r in rows if r["label"] == "coarse_grid")
    assert refined["acceptance_rate"] <= coarse["acceptance_rate"] + 1e-9
    return rows


def run_report(smoke=False):
    num_legit, num_fakes = SMOKE_SCALE if smoke else FULL_SCALE
    return {
        "meta": bench_metadata(),
        "smoke": smoke,
        "num_legit": num_legit,
        "num_fakes": num_fakes,
        "tolerance_sweep": tolerance_sweep(num_legit, num_fakes),
        "dinkelbach_context": dinkelbach_context(num_legit, num_fakes),
    }


def write_report(payload):
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return OUTPUT_PATH


def bench_refinement(benchmark):
    """pytest-benchmark entry: smoke scale, all invariants asserted."""
    payload = benchmark.pedantic(
        run_report, kwargs={"smoke": True}, rounds=1, iterations=1
    )
    assert payload["tolerance_sweep"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale (CI rot check; does not overwrite a full report)",
    )
    args = parser.parse_args(argv)
    payload = run_report(smoke=args.smoke)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.smoke:
        print("\nsmoke run ok (report not written)")
        return 0
    path = write_report(payload)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
