"""The Rejecto benchmark: one detection job at a time, each in a fresh process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rejecto_rounds --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run generates ``INPUTS_PER_RUN`` inputs from ``--seed`` into
``.perfbench/`` (one generator process each), then starts detection jobs
over them, round-robin in a closed loop, until ``--seconds`` have passed
and ``MIN_JOBS`` jobs ran. Each job is a new Python process that sets up
the graph from the files on disk, runs the detection call once, and
reports its timings and detection. Memoized bounds, adjacency caches and
snapshot caches therefore never carry over between jobs, as they do not
between an operator's jobs.

Every job passes the correctness gate (:func:`gate`) or counts as
failed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics (medians over the jobs), with
``--trace 1`` the per-layer metrics of traced jobs, which alternate with
untraced ones so that tracing overhead is measured in the same run. The
full record of a run, with its environment stamp, goes to
``.perfbench/result-<workload>-seed<seed>-trace<t>.json``, and traced
runs also write their spans there. The exit code is 0 only when every
job passed. ``--corrupt KIND`` damages every detection before the gate,
to show that the gate fails (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import layertrace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("rejecto_rounds", "multilevel_ba", "cluster_table2")
JOB_TIMEOUT = 150.0
#: Jobs stop starting after LAST_START seconds, and every child is killed
#: by RUN_LIMIT, so a run ends well within three minutes.
LAST_START = 110.0
RUN_LIMIT = 170.0
#: Inputs generated per run, and jobs per run at least: medians over
#: mixed inputs and several jobs smooth out both the seed-to-seed and the
#: minute-to-minute variation of a shared machine.
INPUTS_PER_RUN = 3
MIN_JOBS = 5
CORRUPTIONS = ("empty", "legit", "counts", "digest")
#: The shared machine's effective CPU speed drifts by up to 45% over
#: minutes, far more than any bound could absorb. Each job therefore
#: times a fixed pure-Python loop REFERENCE_SAMPLES times before set-up
#: and again after the solve, and scales its wall times by
#: REFERENCE_SECONDS / (median loop time): seconds at the speed at which
#: the loop takes REFERENCE_SECONDS (a fast phase of a shared 2-core Xeon
#: VM). The loop lives here, so no change to the program can move it.
REFERENCE_SAMPLES = 5
REFERENCE_SECONDS = 0.05

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "precision": "ratio",
    "recall": "ratio",
    "cut_acceptance_rate": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and units, in report order.
PER_LAYER = {
    "io.load_s": "s",
    "graph.csr_s": "s",
    "storage.save_s": "s",
    "storage.open_s": "s",
    "storage.file_bytes": "bytes",
    "rejecto.rounds": "count",
    "rejecto.round_s": "s",
    "rejecto.residual_nodes": "count",
    "maar.sweep_s": "s",
    "maar.k_tried": "count",
    "maar.k_valid": "count",
    "kl.passes": "count",
    "kl.switches_tested": "count",
    "kl.switches_applied": "count",
    "kl.applied_ratio": "ratio",
    "kl.k_solve_s": "s",
    "parallel.map_s": "s",
    "parallel.tasks": "count",
    "multilevel.coarse_sweep_s": "s",
    "multilevel.coarse_bucket_slots": "count",
    "multilevel.levels": "count",
    "multilevel.coarsest_nodes": "count",
    "multilevel.last_shrink": "ratio",
    "multilevel.coarsen_s": "s",
    "multilevel.refine_s": "s",
    "multilevel.refine_moves": "count",
    "multilevel.refine_tested": "count",
    "multilevel.refine_regions": "count",
    **{
        f"kernels.{kernel}.{kind}": unit
        for kernel in layertrace.KERNELS
        for kind, unit in (("calls", "count"), ("s", "s"))
    },
    "cluster.distribute_s": "s",
    "cluster.passes": "count",
    "cluster.messages": "count",
    **{
        f"cluster.bytes.{kind}": "bytes"
        for kind in ("upload", "fetch", "gains", "delta", "broadcast")
    },
    "cluster.prefetch_hit_rate": "ratio",
    "cluster.fetch_batches": "count",
    "cluster.wire_bytes": "bytes",
    **{f"self.{layer}_s": "s" for layer in layertrace.LAYERS},
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

#: Setup stages (timer labels) reported as ``<label>_s``.
STAGES = ("io.load", "graph.csr", "storage.save", "storage.open")


# ----------------------------------------------------------------------
# Child processes: input generation and one detection job
# ----------------------------------------------------------------------
def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    return workloads


def child_generate(args) -> dict:
    """Write the workload's inputs and ground truth; return the env stamp."""
    workloads = _import_program()
    import numpy
    from repro.core.csr import resolve_backend

    workdir = Path(args.workdir)
    workload = workloads.WORKLOADS[args.workload]
    truth = workload.generate(args.seed, workdir)
    truth["floors"] = [workload.precision_floor, workload.recall_floor]
    (workdir / "truth.json").write_text(json.dumps(truth))
    return {
        "backend": resolve_backend("auto"),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def _reference_loop() -> int:
    values = list(range(1024))
    table = {}
    total = 0
    for i in range(500_000):
        value = values[i & 1023]
        total += value * i % 7
        if total & 15 == 0:
            table[value] = total
    return total


def _reference_times() -> list:
    times = []
    for _ in range(REFERENCE_SAMPLES):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return times


def child_job(args) -> dict:
    """Set up the graph from disk, run the detection once, report."""
    workloads = _import_program()
    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    truth = json.loads((workdir / "truth.json").read_text())
    tracer = None
    if args.traced:
        tracer = layertrace.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        layertrace.install(tracer)

    stages = defaultdict(list)

    @contextlib.contextmanager
    def timer(label):
        start = time.perf_counter()
        yield
        stages[label].append(time.perf_counter() - start)

    reference = _reference_times()
    start = time.perf_counter()
    graph, counts = workload.setup(workdir, timer)
    setup_s = time.perf_counter() - start

    root = tracer.open("solve") if tracer else None
    start = time.perf_counter()
    out = workload.solve(graph, truth)
    solve_s = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    reference_s = statistics.median(reference + _reference_times())
    scale = REFERENCE_SECONDS / reference_s

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    layer = _solve_layer_metrics(out, counts)
    report = {
        "setup_s": setup_s * scale,
        "setup_wall_s": setup_s,
        "stages": dict(stages),
        "counts": {key: counts[key] for key in ("nodes", "friendships", "rejections")},
        "solve_s": solve_s * scale,
        "solve_wall_s": solve_s,
        "reference_s": reference_s,
        "detected": list(out["detected"]),
        "cut_acceptance_rate": out["cut_acceptance_rate"],
        "peak_rss_mb": peak_kb / 1024.0,
        "layer": layer,
    }
    if tracer:
        layer.update(layertrace.summarize(tracer, root))
        report["self_by_span"] = layertrace.self_by_span(tracer)
        report["spans"] = tracer.records()
        report["missing_hooks"] = tracer.missing
    return report


def _solve_layer_metrics(out: dict, counts: dict) -> dict:
    """Per-layer figures the program reports itself, traced or not."""
    layer = {"storage.file_bytes": counts.get("file_bytes", 0)}
    sizes = out.get("level_sizes") or []
    layer["multilevel.levels"] = len(sizes)
    layer["multilevel.last_shrink"] = (
        1.0 - sizes[-1] / sizes[-2] if len(sizes) >= 2 else 0.0
    )
    stats = out.get("cluster_stats")
    network = stats.network if stats is not None else None
    by_kind = network.bytes_by_kind if network is not None else {}
    layer["cluster.passes"] = stats.passes if stats is not None else 0
    layer["cluster.messages"] = network.messages if network is not None else 0
    for kind in ("upload", "fetch", "gains", "delta", "broadcast"):
        layer[f"cluster.bytes.{kind}"] = by_kind.get(kind, 0)
    layer["cluster.prefetch_hit_rate"] = (
        stats.prefetch_hit_rate if stats is not None else 0.0
    )
    layer["cluster.fetch_batches"] = stats.fetch_batches if stats is not None else 0
    layer["cluster.wire_bytes"] = network.bytes_sent if network is not None else 0
    return layer


# ----------------------------------------------------------------------
# Parent: closed loop of jobs, correctness gate, aggregation
# ----------------------------------------------------------------------
def _spawn(role: str, workload: str, seed: int, workdir: Path, traced: bool,
           timeout: float) -> dict:
    """Run one child process to completion and parse its report.

    The child leads its own process group, so on timeout the group —
    forked sweep workers included — is killed and reaped."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child", role,
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", str(workdir),
        "--traced", "1" if traced else "0",
    ]
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"{role} timed out after {timeout:.0f} s"}
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    if proc.returncode != 0:
        return {"error": f"{role} exited {proc.returncode}: {stderr.strip()[-2000:]}"}
    return json.loads(stdout.strip().splitlines()[-1])


def digest(detected) -> str:
    return hashlib.sha256(
        ",".join(map(str, sorted(detected))).encode()
    ).hexdigest()[:16]


def gate(job: dict, truth: dict, expected_digest) -> list:
    """Correctness errors of one job (empty when it passed)."""
    if "error" in job:
        return [job["error"]]
    errors = []
    detected = set(job["detected"])
    fakes = set(truth["fakes"])
    if not detected:
        errors.append("empty detection")
    hits = len(detected & fakes)
    precision = hits / len(detected) if detected else 0.0
    recall = hits / len(fakes)
    job["precision"], job["recall"] = precision, recall
    floor_p, floor_r = truth["floors"]
    if precision < floor_p or recall < floor_r:
        errors.append(
            f"precision {precision:.4f} / recall {recall:.4f} below floors "
            f"{floor_p} / {floor_r}"
        )
    reference = truth.get("reference")
    if reference is not None and sorted(detected) != reference:
        errors.append("cut differs from the in-process solve_maar cut")
    for key, value in job["counts"].items():
        if value != truth[key]:
            errors.append(f"ingested {key} {value} != generated {truth[key]}")
    job["digest"] = digest(job["detected"])
    if expected_digest is not None and job["digest"] != expected_digest:
        errors.append(f"detection digest {job['digest']} != {expected_digest}")
    return errors


def corrupt(job: dict, kind: str, truth: dict, index: int) -> None:
    """Damage one job's output the way ``kind`` names (gate self-check)."""
    if "error" in job:
        return
    fakes = set(truth["fakes"])
    if kind == "empty":
        job["detected"] = []
    elif kind == "legit":
        size = len(job["detected"])
        job["detected"] = [u for u in range(truth["nodes"]) if u not in fakes][:size]
    elif kind == "counts":
        job["counts"]["friendships"] += 1
    elif kind == "digest" and index > 0:
        # Swap one detected fake for another one: quality stays within
        # the floors, but the detection differs from the first job's.
        missing = sorted(fakes - set(job["detected"]))
        job["detected"] = job["detected"][1:] + missing[:1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _source_hash() -> str:
    """Hash of the program and benchmark sources: with both unchanged, the
    same seed must give the same detection."""
    sha = hashlib.sha256()
    paths = list((ROOT / "src").rglob("*.py")) + list(BENCH_DIR.glob("*.py"))
    for path in sorted(paths):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def run_workload(args) -> dict:
    """One benchmark run of one workload; returns the full record.

    The run generates ``INPUTS_PER_RUN`` inputs (input ``i`` from seed
    ``seed * INPUTS_PER_RUN + i``) and solves them round-robin until
    ``--seconds`` have passed and at least ``MIN_JOBS`` jobs ran. With
    ``--trace 1`` the rounds alternate between untraced and traced jobs,
    and at least one round of each runs."""
    name = args.workload
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    started = time.monotonic()
    load_before = os.getloadavg()
    digests_path = WORK_ROOT / "digests.json"
    known = json.loads(digests_path.read_text()) if digests_path.exists() else {}
    source_hash = _source_hash()
    inputs = []
    jobs = []
    try:
        for i in range(INPUTS_PER_RUN):
            seed = args.seed * INPUTS_PER_RUN + i
            path = workdir / f"input{i}"
            path.mkdir(parents=True)
            env = _spawn("generate", name, seed, path, False, JOB_TIMEOUT)
            if "error" in env:
                raise RuntimeError(env["error"])
            truth = json.loads((path / "truth.json").read_text())
            key = f"{name}:{seed}:{source_hash}"
            inputs.append({"seed": seed, "path": path, "truth": truth,
                           "key": key, "digest": known.get(key)})
        deadline = time.monotonic() + args.seconds
        min_jobs = 2 * INPUTS_PER_RUN if args.trace else MIN_JOBS
        while True:
            index = len(jobs)
            item = inputs[index % INPUTS_PER_RUN]
            traced = bool(args.trace) and (index // INPUTS_PER_RUN) % 2 == 1
            remaining = RUN_LIMIT - (time.monotonic() - started)
            job = _spawn("job", name, item["seed"], item["path"], traced,
                         min(JOB_TIMEOUT, remaining))
            job["traced"] = traced
            job["seed"] = item["seed"]
            if args.corrupt:
                corrupt(job, args.corrupt, item["truth"], index // INPUTS_PER_RUN)
            job["errors"] = gate(job, item["truth"], item["digest"])
            if item["digest"] is None and not job["errors"]:
                item["digest"] = job["digest"]
            jobs.append(job)
            now = time.monotonic()
            if (len(jobs) >= min_jobs and now >= deadline) or (
                now - started > LAST_START
            ):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.corrupt:
        for item in inputs:
            if item["digest"] is not None:
                known.setdefault(item["key"], item["digest"])
        digests_path.write_text(json.dumps(known, indent=1))
    env.update(
        nproc=len(os.sched_getaffinity(0)),
        loadavg_before=load_before,
        loadavg_after=os.getloadavg(),
        seed=args.seed,
        input_seeds=[item["seed"] for item in inputs],
        seconds=args.seconds,
    )
    return _aggregate(args, env, jobs)


def _aggregate(args, env: dict, jobs: list) -> dict:
    ok = [job for job in jobs if not job["errors"]]
    plain = [job for job in ok if not job["traced"]]
    if args.trace:
        traced = [job for job in ok if job["traced"]]
        metrics = _per_layer(traced, plain)
        units = PER_LAYER
    else:
        metrics = {
            "solve_s": _median([job["solve_s"] for job in plain]),
            "setup_s": _median([job["setup_s"] for job in plain]),
            "precision": _median([job["precision"] for job in plain]),
            "recall": _median([job["recall"] for job in plain]),
            "cut_acceptance_rate": _median(
                [job["cut_acceptance_rate"] for job in plain]
            ),
            "peak_rss_mb": _median([job["peak_rss_mb"] for job in plain]),
        }
        units = END_TO_END
    failed = len(jobs) - len(ok)
    return {
        "workload": args.workload,
        "env": env,
        "samples": len(plain) if not args.trace else len(ok),
        "error_rate": failed / len(jobs),
        "errors": [job["errors"] for job in jobs if job["errors"]],
        "jobs": [
            {k: v for k, v in job.items() if k not in ("detected", "spans")}
            for job in jobs
        ],
        "spans": [job.get("spans", []) for job in jobs if job["traced"]],
        "result": {
            "correct": failed == 0,
            "attempted": len(jobs),
            "failed": failed,
            "metrics": {
                name: {"value": metrics.get(name, 0.0), "unit": unit}
                for name, unit in units.items()
            },
        },
    }


def _per_layer(traced: list, plain: list) -> dict:
    """Medians over traced jobs of every per-layer figure, plus overhead."""
    metrics = {}
    for name in PER_LAYER:
        values = [job["layer"][name] for job in traced if name in job["layer"]]
        metrics[name] = _median(values)
    for stage in STAGES:
        metrics[f"{stage}_s"] = _median(
            [t for job in traced + plain for t in job["stages"].get(stage, [])]
        )
    metrics["trace.overhead_s"] = _median(
        [job["solve_s"] for job in traced]
    ) - _median([job["solve_s"] for job in plain])
    return metrics


def _print_human(record: dict) -> None:
    result = record["result"]
    print(
        f"# {record['workload']}: {result['attempted']} jobs, "
        f"{result['failed']} failed, error_rate {record['error_rate']:.4f}, "
        f"medians over {record['samples']} samples"
    )
    print(f"# env: {json.dumps(record['env'], sort_keys=True)}")
    for errors in record["errors"]:
        print(f"# gate failure: {'; '.join(errors)}")
    for name, metric in result["metrics"].items():
        print(f"#   {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=CORRUPTIONS)
    parser.add_argument("--child", choices=("generate", "job"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        role = child_generate if args.child == "generate" else child_job
        print(json.dumps(role(args)))
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    all_ok = True
    for name in names:
        args.workload = name
        record = run_workload(args)
        out = WORK_ROOT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1))
        _print_human(record)
        print(json.dumps(record["result"]))
        all_ok = all_ok and record["result"]["correct"]
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
