"""Table II: execution time vs input graph size.

Two measurements:

* the paper's mini-cluster scaling study (``scaling_study``): near-linear
  runtime growth with graph size, "provided that the volume of the
  aggregate memory in the cluster suffices" — here, provided the single
  process holds the partitions;
* a single-process engine scaling run: one ``solve_maar`` sweep per
  size on the flat-array core, with the detection's size and precision
  against the planted fakes.

Each cluster row also reports the prefetch hit rate, the per-kind
message/byte breakdown, and — where a pre-PR baseline exists — the
payload-byte reduction and wall-clock speedup delivered by the
CSR-sharded engine (batched block-slice fetches + delta broadcasts)
over the dict-record implementation it replaced.

Running this module directly (``PYTHONPATH=src python
benchmarks/bench_table2_scaling.py``) writes the per-size wall-clock
numbers to ``BENCH_table2.json`` at the repo root. ``--smoke`` runs a
small two-size study with full protocol assertions and writes nothing —
the CI guard for the cluster wire format.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

from benchmeta import bench_metadata, cluster_stats_payload
from repro.attacks import ScenarioConfig, build_scenario
from repro.cluster import ClusterConfig, ClusterRunStats, distributed_maar
from repro.core import MAARConfig, solve_maar
from repro.core.csr import CSRGraph
from repro.experiments import ScalingConfig, scaling_study

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_table2.json"

CONFIG = ScalingConfig(user_counts=(1000, 2000, 4000, 8000))
ENGINE_SIZES = (500, 1000, 2000, 4000)
FAKE_FRACTION = 0.2  # the default attack scale's 5:1 legit:fake ratio

#: Pre-PR ``BENCH_table2.json`` cluster rows (dict-record workers,
#: full-vector broadcasts, structural size-estimate accounting) — the reference
#: the payload-reduction and speedup columns are computed against.
PRE_PR_BASELINE = {
    1000: {"network_bytes": 3_051_168, "wall_seconds": 0.4379},
    2000: {"network_bytes": 6_140_760, "wall_seconds": 0.7233},
    4000: {"network_bytes": 13_075_320, "wall_seconds": 1.8123},
    8000: {"network_bytes": 35_885_584, "wall_seconds": 3.9037},
}


#: Least share of an engine-scaling detection that must be planted fakes.
ENGINE_PRECISION_FLOOR = 0.9


def run_engine_scaling(sizes=ENGINE_SIZES):
    """Time ``solve_maar`` at each size; every sweep must detect a
    non-empty, mostly-fake cut."""
    rows = []
    for num_legit in sizes:
        scenario = build_scenario(
            ScenarioConfig(
                num_legit=num_legit, num_fakes=int(num_legit * FAKE_FRACTION)
            )
        )
        graph = scenario.graph
        row = {
            "users": graph.num_nodes,
            "friendships": graph.num_friendships,
            "rejections": graph.num_rejections,
        }
        start = time.perf_counter()
        result = solve_maar(graph, MAARConfig())
        row["csr_seconds"] = time.perf_counter() - start
        detected = set(result.suspicious_nodes())
        assert detected, f"engine sweep detected nothing at {graph.num_nodes} users"
        row["detected"] = len(detected)
        row["precision"] = len(detected & set(scenario.fakes)) / len(detected)
        assert row["precision"] >= ENGINE_PRECISION_FLOOR, row
        rows.append(row)
    return rows


def cluster_row_payload(row):
    """One cluster-scaling row, with the pre-PR comparison when the size
    has a recorded baseline."""
    payload = {
        "users": row.users,
        "edges": row.edges,
        "rejections": row.rejections,
        "build_seconds": row.build_seconds,
        "wall_seconds": row.wall_seconds,
        "microseconds_per_edge": row.microseconds_per_edge,
        "network_messages": row.network_messages,
        "network_bytes": row.network_bytes,
        "prefetch_hit_rate": row.prefetch_hit_rate,
        "fetch_batches": row.fetch_batches,
        "records_fetched": row.records_fetched,
        "switches_tested": row.switches_tested,
        "bytes_by_kind": dict(row.bytes_by_kind),
    }
    baseline = PRE_PR_BASELINE.get(row.users)
    if baseline:
        payload["pre_pr_network_bytes"] = baseline["network_bytes"]
        payload["pre_pr_wall_seconds"] = baseline["wall_seconds"]
        payload["payload_reduction"] = (
            baseline["network_bytes"] / max(1, row.network_bytes)
        )
        payload["wall_speedup"] = baseline["wall_seconds"] / max(
            1e-9, row.wall_seconds
        )
    return payload


#: Least share of a shard-transport detection that must be planted fakes.
#: The parity assert compares real detections only above this floor.
SHARD_PRECISION_FLOOR = 0.9


def run_shard_transport(users=4000, k_steps=4, seed=7):
    """Payload-mode vs reference-mode distribution, same graph.

    Packs the scenario graph into a snapshot, runs the full distributed
    sweep once on the in-memory graph (payloads) and once on the opened
    snapshot (references), asserts the results are identical, and
    reports the upload-byte reduction the shard references deliver.
    ``k_steps=4`` matches the benchmark's cluster workload; a shorter
    sweep finds no cut here, and two empty answers prove no parity, so
    the detection must be non-empty and mostly planted fakes.
    """
    num_fakes = max(10, users // 10)
    scenario = build_scenario(
        ScenarioConfig(num_legit=users - num_fakes, num_fakes=num_fakes, seed=seed)
    )
    csr = scenario.graph.csr()
    maar = MAARConfig(k_steps=k_steps)
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "scenario.csrbin"
        csr.save(snap)
        for transport, graph in (
            ("payload", csr),
            ("reference", CSRGraph.open(snap)),
        ):
            stats = ClusterRunStats()
            start = time.perf_counter()
            nodes, rate, k = distributed_maar(
                graph, maar_config=maar, stats=stats
            )
            runs[transport] = {
                "result": (tuple(nodes), rate, k),
                "wall_seconds": time.perf_counter() - start,
                "upload_bytes": stats.network.bytes_by_kind.get("upload", 0),
                "total_bytes": stats.network.bytes_sent,
                "bytes_avoided": stats.network.bytes_avoided,
            }
    assert runs["payload"]["result"] == runs["reference"]["result"], (
        "shard-reference mode must be bit-identical to payload mode"
    )
    result = runs["payload"].pop("result")
    runs["reference"].pop("result")
    detected = result[0]
    assert detected, f"shard-transport sweep detected nothing at {users} users"
    precision = len(set(detected) & set(scenario.fakes)) / len(detected)
    assert precision >= SHARD_PRECISION_FLOOR, (
        f"shard-transport precision {precision:.3f} below "
        f"{SHARD_PRECISION_FLOOR} at {users} users"
    )
    return {
        "users": users,
        "suspicious": len(detected),
        "precision": precision,
        "identical_results": True,
        "payload": runs["payload"],
        "reference": runs["reference"],
        "upload_reduction": runs["payload"]["upload_bytes"]
        / max(1, runs["reference"]["upload_bytes"]),
    }


def run_table2(config=CONFIG):
    """The full Table II payload: cluster study + engine comparison."""
    study = scaling_study(config)
    return {
        "meta": bench_metadata(),
        "cluster_scaling": [cluster_row_payload(row) for row in study.rows],
        "engine_scaling": run_engine_scaling(),
        "shard_transport": run_shard_transport(),
    }


def write_report(payload):
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return OUTPUT_PATH


def run_smoke():
    """CI guard: a two-size study with full wire-protocol assertions.

    Verifies the sharded engine end to end — per-kind byte accounting,
    delta broadcasts actually in use, prefetching effective (and no
    record fetched twice in a pass), and
    shard-reference distribution bit-identical to payloads — without
    touching ``BENCH_table2.json``.
    """
    from repro.core import MAARConfig as MC

    config = ScalingConfig(user_counts=(400, 800), k_steps=2)
    study = scaling_study(config)
    assert len(study.rows) == 2
    for row in study.rows:
        kinds = row.bytes_by_kind
        # The full protocol must be visible in the breakdown: block
        # uploads, one full sync per run, per-pass gains, slice fetches.
        for kind in ("upload", "broadcast", "gains", "fetch"):
            assert kind in kinds and kinds[kind] > 0, (kind, kinds)
        assert sum(kinds.values()) == row.network_bytes
        assert row.prefetch_hit_rate > 0.5, row.prefetch_hit_rate
        assert row.fetch_batches > 0
        # No record crosses the wire twice in one pass.
        assert row.records_fetched <= row.switches_tested, (
            row.records_fetched,
            row.switches_tested,
        )

    # Delta broadcasts engage whenever a run takes more than one pass.
    stats = ClusterRunStats()
    scenario = build_scenario(ScenarioConfig(num_legit=720, num_fakes=80))
    distributed_maar(scenario.graph, maar_config=MC(k_steps=4), stats=stats)
    kinds = stats.network.bytes_by_kind
    runs = stats.network.by_kind["broadcast"] // ClusterConfig().num_workers
    assert stats.passes > runs, "expected multi-pass runs in the smoke scenario"
    assert "delta" in kinds, "multi-pass runs must emit delta broadcasts"
    assert stats.network.by_kind["delta"] % ClusterConfig().num_workers == 0
    assert stats.records_fetched <= stats.switches_tested
    assert sum(kinds.values()) == stats.network.bytes_sent

    # Shard references: identical non-empty results above the precision
    # floor, and the distribution upload shrinks by at least an order of
    # magnitude even at smoke scale.
    comparison = run_shard_transport(users=600)
    assert comparison["identical_results"]
    assert comparison["reference"]["bytes_avoided"] > 0
    assert comparison["upload_reduction"] > 10, comparison["upload_reduction"]
    print(json.dumps(cluster_stats_payload(stats), indent=2, sort_keys=True))
    print("table2 smoke OK")


def bench_table2(run_once):
    result = run_once(scaling_study, CONFIG)
    edges = [row.edges for row in result.rows]
    times = [row.wall_seconds for row in result.rows]
    assert edges == sorted(edges)
    assert times[-1] > times[0]
    # Near-linear: per-edge cost varies by far less than the 8x size span.
    per_edge = [row.microseconds_per_edge for row in result.rows]
    assert max(per_edge) < 6 * min(per_edge)


def bench_table2_engines(benchmark):
    rows = benchmark.pedantic(run_engine_scaling, rounds=1, iterations=1)
    # Every timed sweep is a real detection, not a fast empty one.
    assert all(row["detected"] > 0 for row in rows)
    assert all(row["precision"] >= ENGINE_PRECISION_FLOOR for row in rows)


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        run_smoke()
        sys.exit(0)
    report = run_table2()
    path = write_report(report)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {path}")
