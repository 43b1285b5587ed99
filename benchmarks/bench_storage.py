"""Binary snapshot store: open-vs-rebuild latency and shard-reference
wire savings.

Three measurement groups, all on the same scenario graph (the
soc-Slashdot catalog entry at full scale plus 20k fakes — ~102k nodes —
in the full run; a small planted scenario under ``--smoke``):

* **open vs rebuild** — wall-clock of building the scenario from the
  generator/edge lists against ``CSRGraph.open`` on the packed
  ``.csrbin`` snapshot, in both ``mmap`` (zero-copy) and ``copy``
  modes. The acceptance bar is a >= 50x mmap advantage at full scale;
* **backend byte-identity** — the snapshot written from a numpy-backed
  graph and from a pure-python-backed copy of the same graph must hash
  identically (the writer serializes canonical little-endian bytes);
* **distribution bytes** — uploading the graph to the mini-cluster as
  block payloads vs as snapshot references
  (``ClusterContext.distribute_csr(transport=...)``), reporting bytes shipped, bytes
  avoided, and the reduction factor.

Running this module directly (``PYTHONPATH=src python
benchmarks/bench_storage.py``) writes ``BENCH_storage.json`` at the
repo root. ``--smoke`` runs the small scenario with assertions and
writes nothing — the CI guard for the storage layer.
"""

import argparse
import hashlib
import json
import tempfile
import time
from pathlib import Path

from benchmeta import acquisition_record, bench_metadata
from repro.attacks import ScenarioConfig, build_scenario
from repro.cluster.netsim import NetworkSimulator
from repro.cluster.rdd import ClusterContext
from repro.core.csr import CSRGraph

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_storage.json"

LARGE_DATASET = "soc-Slashdot"  # 82,168 catalog nodes at scale 1.0
LARGE_FAKES = 20_000
SEED = 7
NUM_WORKERS = 5
NUM_PARTITIONS = 20


def build_graph(smoke=False):
    """Build the benchmark scenario from scratch (the rebuild path the
    snapshot open is measured against) and finalize its CSR."""
    if smoke:
        config = ScenarioConfig(num_legit=800, num_fakes=160, seed=SEED)
    else:
        config = ScenarioConfig(
            dataset=LARGE_DATASET,
            num_legit=None,
            scale=1.0,
            num_fakes=LARGE_FAKES,
            seed=SEED,
        )
    start = time.perf_counter()
    scenario = build_scenario(config)
    csr = scenario.graph.csr()
    return csr, time.perf_counter() - start


def _best_of(fn, repeats):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def measure_opens(snap, repeats=5):
    """Best-of open latency per mode (and a correctness spot check)."""
    timings = {}
    mmap_seconds, mapped = _best_of(lambda: CSRGraph.open(snap), repeats)
    timings["mmap_seconds"] = mmap_seconds
    copy_seconds, copied = _best_of(
        lambda: CSRGraph.open(snap, mode="copy"), max(1, repeats // 2)
    )
    timings["copy_seconds"] = copy_seconds
    assert mapped.num_nodes == copied.num_nodes
    assert list(mapped.f_ptr[:8]) == list(copied.f_ptr[:8])
    return timings, mapped


def backend_identity(csr, tmp):
    """Write the snapshot from the native-backend graph and from a
    pure-python-backed copy; return their (equal, one hopes) digests."""
    native = Path(tmp) / "native.csrbin"
    csr.save(native)
    python_backed = CSRGraph.open(native, mode="copy", backend="python")
    python_file = Path(tmp) / "python.csrbin"
    python_backed.save(python_file)
    digests = {
        "native": hashlib.sha256(native.read_bytes()).hexdigest(),
        "python": hashlib.sha256(python_file.read_bytes()).hexdigest(),
    }
    digests["identical"] = digests["native"] == digests["python"]
    return digests, native


def distribution_bytes(csr, mapped):
    """Upload volume of sharding the graph onto the mini-cluster, with
    and without snapshot references (distribution only, no solve)."""
    out = {}
    for transport, graph in (("payload", csr), ("reference", mapped)):
        network = NetworkSimulator()
        context = ClusterContext(NUM_WORKERS, network)
        context.distribute_csr(graph, NUM_PARTITIONS, transport=transport)
        out[transport] = {
            "upload_bytes": network.stats.bytes_by_kind.get("upload", 0),
            "messages": network.stats.messages,
            "bytes_avoided": network.stats.bytes_avoided,
        }
    out["upload_reduction"] = out["payload"]["upload_bytes"] / max(
        1, out["reference"]["upload_bytes"]
    )
    return out


def run_report(smoke=False):
    csr, build_seconds = build_graph(smoke)
    with tempfile.TemporaryDirectory() as tmp:
        digests, snap = backend_identity(csr, tmp)
        save_start = time.perf_counter()
        csr.save(Path(tmp) / "timed-save.csrbin")
        save_seconds = time.perf_counter() - save_start
        open_timings, mapped = measure_opens(snap)
        wire = distribution_bytes(csr, mapped)
        payload = {
            "meta": bench_metadata(),
            "smoke": smoke,
            "dataset": "planted-smoke" if smoke else LARGE_DATASET,
            "nodes": csr.num_nodes,
            "friendships": csr.num_friendships,
            "rejections": csr.num_rejections,
            "snapshot_bytes": snap.stat().st_size,
            "acquisition": acquisition_record(
                build_seconds=build_seconds, source="generated"
            ),
            "save_seconds": save_seconds,
            "open": open_timings,
            "open_vs_rebuild": build_seconds / max(1e-9, open_timings["mmap_seconds"]),
            "backend_digests": digests,
            "distribution": wire,
        }
    return payload


def check_report(payload, smoke):
    assert payload["backend_digests"]["identical"], (
        "numpy- and python-backed graphs must write identical snapshots"
    )
    assert payload["distribution"]["reference"]["bytes_avoided"] > 0
    assert payload["distribution"]["upload_reduction"] > 10
    # The acceptance bar: a >= 50x open advantage at the 102k scale.
    # Smoke graphs are small enough that parse time shrinks toward the
    # mmap constant, so the bar is proportionally lower there.
    floor = 5 if smoke else 50
    assert payload["open_vs_rebuild"] >= floor, payload["open_vs_rebuild"]


def write_report(payload):
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return OUTPUT_PATH


def bench_storage(benchmark):
    """pytest-benchmark entry: smoke scale with full assertions."""
    payload = benchmark.pedantic(
        run_report, kwargs={"smoke": True}, rounds=1, iterations=1
    )
    check_report(payload, smoke=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scenario, assertions only (CI guard; writes nothing)",
    )
    args = parser.parse_args(argv)
    payload = run_report(smoke=args.smoke)
    print(json.dumps(payload, indent=2, sort_keys=True))
    check_report(payload, smoke=args.smoke)
    if args.smoke:
        print("\nstorage smoke OK (report not written)")
        return 0
    path = write_report(payload)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
