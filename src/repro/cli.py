"""Command-line interface: regenerate any table or figure.

Examples::

    rejecto table1 --scale 0.2
    rejecto fig9 --num-legit 1500 --num-fakes 300
    rejecto fig13 --dataset ca-HepTh
    rejecto fig16
    rejecto table2 --sizes 1000 2000 4000
    rejecto fig17 --datasets ca-HepTh synthetic --points 4
    rejecto all --quick
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional

from .experiments import (
    DefenseInDepthConfig,
    ScalingConfig,
    SweepConfig,
    appendix_sensitivity,
    appendix_strategies,
    collusion_sweep,
    datasets_table,
    defense_in_depth,
    legit_rejection_sweep,
    legit_victim_rejection_sweep,
    motivation_study,
    request_volume_sweep,
    scaling_study,
    self_rejection_sweep,
    spam_rejection_sweep,
    stealth_sweep,
)

__all__ = ["main", "build_parser"]

_SWEEPS: Dict[str, Callable] = {
    "fig9": request_volume_sweep,
    "fig10": stealth_sweep,
    "fig11": spam_rejection_sweep,
    "fig12": legit_rejection_sweep,
    "fig13": collusion_sweep,
    "fig14": self_rejection_sweep,
    "fig15": legit_victim_rejection_sweep,
}


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rejecto",
        description=(
            "Rejecto reproduction: regenerate the paper's tables and figures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sweep_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", default="facebook")
        p.add_argument("--num-legit", type=int, default=1500)
        p.add_argument("--num-fakes", type=int, default=300)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument(
            "--trials",
            type=int,
            default=1,
            help="average each sweep point over this many seeds",
        )
        p.add_argument(
            "--plot",
            action="store_true",
            help="render an ASCII chart alongside the table",
        )
        add_jobs_arg(p)

    def add_jobs_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker count for parallel execution (sweep points and "
            "the per-round MAAR k sweep); 0 means all usable CPUs",
        )

    for name in _SWEEPS:
        p = sub.add_parser(name, help=f"regenerate {name}")
        add_sweep_args(p)

    p = sub.add_parser("table1", help="Table I dataset summary")
    p.add_argument("--scale", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("fig1", help="Fig. 1 purchased-account series (synthetic)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "fig3-5", help="Figs. 3-5 friend-attribute CDFs (synthetic)"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-friends", type=int, default=2804)

    p = sub.add_parser("fig16", help="Fig. 16 defense in depth")
    p.add_argument("--dataset", default="facebook")
    p.add_argument("--num-legit", type=int, default=1000)
    p.add_argument(
        "--num-fakes",
        type=int,
        default=None,
        help="defaults to num-legit (the paper's 1:1 Sybil region)",
    )
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("fig17", help="Appendix A sensitivity sweeps")
    p.add_argument("--datasets", nargs="+", default=None)
    p.add_argument("--points", type=int, default=5)
    p.add_argument("--num-legit", type=int, default=800)
    p.add_argument("--num-fakes", type=int, default=160)
    p.add_argument("--seed", type=int, default=7)
    add_jobs_arg(p)

    p = sub.add_parser("fig18", help="Appendix B strategy sweeps")
    p.add_argument("--datasets", nargs="+", default=None)
    p.add_argument("--points", type=int, default=5)
    p.add_argument("--num-legit", type=int, default=800)
    p.add_argument("--num-fakes", type=int, default=160)
    p.add_argument("--seed", type=int, default=7)
    add_jobs_arg(p)

    p = sub.add_parser("table2", help="Table II scaling study")
    p.add_argument("--sizes", nargs="+", type=int, default=[1000, 2000, 4000, 8000])
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("all", help="regenerate everything")
    p.add_argument("--quick", action="store_true", help="smaller workloads")
    add_jobs_arg(p)

    p = sub.add_parser(
        "report", help="run the evaluation and write a markdown report"
    )
    p.add_argument("--out", required=True, help="output markdown path")
    p.add_argument("--quick", action="store_true", help="smaller workloads")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument(
        "--include",
        nargs="+",
        default=None,
        help="subset of experiments (default: all)",
    )

    p = sub.add_parser(
        "detect",
        help="run Rejecto on an augmented-graph file (operator mode)",
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--graph",
        help="graph file: F/R edge-line format (see repro.io) or a "
        ".csrbin binary snapshot (see `rejecto graph pack`)",
    )
    source.add_argument(
        "--requests",
        help="request log CSV (sender,target,accepted) to build the graph from",
    )
    p.add_argument(
        "--estimated",
        type=_positive_int,
        default=None,
        help="estimated spammer count (termination, §IV-E)",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="acceptance-rate termination threshold (§IV-E)",
    )
    p.add_argument(
        "--legit-seeds",
        type=int,
        nargs="*",
        default=[],
        help="known legitimate user ids (§IV-F)",
    )
    p.add_argument(
        "--spammer-seeds",
        type=int,
        nargs="*",
        default=[],
        help="known spammer ids (§IV-F)",
    )
    p.add_argument("--max-rounds", type=_positive_int, default=25)
    p.add_argument(
        "--report",
        default=None,
        help="write a JSON detection report to this path",
    )
    p.add_argument(
        "--actions",
        action="store_true",
        help="print a graduated response plan (§VII: CAPTCHA / rate "
        "limit / suspend by evidence strength)",
    )
    p.add_argument(
        "--forensics",
        action="store_true",
        help="print the per-group evidence breakdown",
    )
    add_jobs_arg(p)

    p = sub.add_parser(
        "graph",
        help="binary snapshot tooling: pack graphs to .csrbin, inspect them",
    )
    gsub = p.add_subparsers(dest="graph_command", required=True)

    gp = gsub.add_parser(
        "pack",
        help="pack an edge list or augmented graph into a binary snapshot",
    )
    gp.add_argument(
        "input",
        help="source graph: SNAP edge list (.gz ok) or F/R augmented file",
    )
    gp.add_argument(
        "--out",
        default=None,
        help="snapshot path (default: <input>.csrbin next to the source)",
    )
    gp.add_argument(
        "--no-remap",
        action="store_true",
        help="keep SNAP edge-list node ids verbatim instead of densifying "
        "them (F/R files always keep their ids)",
    )

    gi = gsub.add_parser("info", help="print a snapshot's header and layout")
    gi.add_argument("path", help="a .csrbin snapshot")
    gi.add_argument(
        "--segments",
        action="store_true",
        help="also list the per-segment offsets and sizes",
    )

    p = sub.add_parser(
        "shard-detect",
        help="per-interval detection over a sequence of graph files (§VII)",
    )
    p.add_argument(
        "--graphs",
        nargs="+",
        required=True,
        help="interval graphs in time order (F/R edge-line format)",
    )
    p.add_argument("--estimated", type=_positive_int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--legit-seeds", type=int, nargs="*", default=[])
    p.add_argument("--max-rounds", type=_positive_int, default=25)
    add_jobs_arg(p)

    p = sub.add_parser(
        "multilevel",
        help="one multilevel MAAR solve on a graph file (large-graph mode)",
    )
    p.add_argument(
        "--graph",
        required=True,
        help="graph file: F/R edge-line format (see repro.io) or a "
        ".csrbin binary snapshot (see `rejecto graph pack`)",
    )
    p.add_argument(
        "--refine-tolerance",
        type=float,
        default=0.0,
        help="early-exit: skip a level's refinement while the previous "
        "level improved the objective by at most this fraction of its "
        "magnitude (0 disables; the finest level always refines)",
    )
    p.add_argument(
        "--refine-stall",
        type=int,
        default=256,
        help="end a region pass after this many consecutive non-improving "
        "tentative switches (0 restores exhaustive FM passes)",
    )
    p.add_argument("--legit-seeds", type=int, nargs="*", default=[])
    p.add_argument("--spammer-seeds", type=int, nargs="*", default=[])
    p.add_argument(
        "--json",
        default=None,
        help="also write the result and per-level timings as JSON",
    )

    return parser


def _resolve_jobs(args: argparse.Namespace) -> int:
    """``--jobs 0`` means "use every CPU this process may run on"."""
    jobs = getattr(args, "jobs", 1)
    if jobs <= 0:
        from .core.parallel import default_jobs

        return default_jobs()
    return jobs


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    return SweepConfig(
        num_legit=args.num_legit,
        num_fakes=args.num_fakes,
        dataset=args.dataset,
        seed=args.seed,
        trials=getattr(args, "trials", 1),
        jobs=_resolve_jobs(args),
    )


def _run_command(args: argparse.Namespace, out=sys.stdout) -> None:
    command = args.command
    if command in _SWEEPS:
        result = _SWEEPS[command](_sweep_config(args))
        print(result.render(), file=out)
        if getattr(args, "plot", False):
            from .experiments import render_sweep_chart

            print(file=out)
            print(render_sweep_chart(result), file=out)
    elif command == "table1":
        print(datasets_table(scale=args.scale, seed=args.seed).render(), file=out)
    elif command == "fig1":
        print(motivation_study(seed=args.seed).render(), file=out)
    elif command == "fig3-5":
        from .experiments import friend_attribute_study

        print(
            friend_attribute_study(
                num_friends=args.num_friends, seed=args.seed
            ).render(),
            file=out,
        )
    elif command == "fig16":
        config = DefenseInDepthConfig(
            dataset=args.dataset,
            num_legit=args.num_legit,
            num_fakes=args.num_fakes,
            seed=args.seed,
        )
        print(defense_in_depth(config).render(), file=out)
    elif command in ("fig17", "fig18"):
        config = SweepConfig(
            num_legit=args.num_legit,
            num_fakes=args.num_fakes,
            seed=args.seed,
            jobs=_resolve_jobs(args),
        )
        run = appendix_sensitivity if command == "fig17" else appendix_strategies
        kwargs = {"points": args.points}
        if args.datasets:
            kwargs["datasets"] = args.datasets
        for dataset, sweeps in run(config, **kwargs).items():
            for sweep in sweeps:
                print(f"[{dataset}]", file=out)
                print(sweep.render(), file=out)
                print(file=out)
    elif command == "table2":
        config = ScalingConfig(user_counts=tuple(args.sizes), seed=args.seed)
        print(scaling_study(config).render(), file=out)
    elif command == "all":
        _run_all(quick=args.quick, out=out, jobs=_resolve_jobs(args))
    elif command == "report":
        from .experiments import ReportConfig, write_report

        config = ReportConfig(
            quick=args.quick,
            seed=args.seed,
            trials=args.trials,
            include=tuple(args.include)
            if args.include
            else ReportConfig().include,
        )
        path = write_report(args.out, config)
        print(f"report written to {path}", file=out)
    elif command == "detect":
        _run_detect(args, out)
    elif command == "multilevel":
        _run_multilevel(args, out)
    elif command == "graph":
        _run_graph(args, out)
    elif command == "shard-detect":
        _run_shard_detect(args, out)
    else:  # pragma: no cover - argparse enforces choices
        raise ValueError(f"unknown command {command!r}")


def _run_detect(args: argparse.Namespace, out) -> None:
    from .core import (
        MAARConfig,
        Rejecto,
        RejectoConfig,
        ResponsePolicy,
        assert_valid_graph,
    )
    from .core.graph import AugmentedSocialGraph
    from .experiments.runner import load_graph_source
    from .io import load_request_log, save_detection_report

    if args.graph:
        # Sniffed by content: a .csrbin snapshot memory-maps straight
        # into the detector (no text parse), an F/R file loads as the
        # mutable builder exactly as before.
        graph = load_graph_source(args.graph, as_csr=False)
    else:
        graph = load_request_log(args.requests).to_augmented_graph()
    if isinstance(graph, AugmentedSocialGraph):
        # CSR snapshots enforce their invariants at construction; the
        # adjacency-level validator only speaks the builder layout.
        assert_valid_graph(graph)
    config = RejectoConfig(
        maar=MAARConfig(jobs=_resolve_jobs(args)),
        estimated_spammers=args.estimated,
        acceptance_threshold=args.threshold,
        max_rounds=args.max_rounds,
    )
    result = Rejecto(config).detect(
        graph,
        legit_seeds=args.legit_seeds,
        spammer_seeds=args.spammer_seeds,
    )
    print(
        f"graph: {graph.num_nodes} users, {graph.num_friendships} friendships, "
        f"{graph.num_rejections} rejections",
        file=out,
    )
    for group in result.groups:
        print(
            f"round {group.round_index}: {len(group)} suspicious accounts, "
            f"aggregate acceptance rate {group.acceptance_rate:.3f}",
            file=out,
        )
    print(
        f"total detected: {result.total_detected} "
        f"(termination: {result.termination})",
        file=out,
    )
    if result.total_detected:
        print("detected ids:", " ".join(map(str, result.detected())), file=out)
    if args.forensics and result.total_detected:
        from .core import analyze_detection

        print(analyze_detection(graph, result).render(), file=out)
    if args.actions and result.total_detected:
        plan = ResponsePolicy().plan(result)
        counts = plan.counts()
        print("response plan (§VII):", file=out)
        for action, count in counts.items():
            if count:
                accounts = plan.accounts_for(action)
                shown = " ".join(map(str, accounts[:20]))
                suffix = " ..." if len(accounts) > 20 else ""
                print(f"  {action.value}: {count} accounts: {shown}{suffix}", file=out)
    if args.report:
        save_detection_report(result, args.report)
        print(f"report written to {args.report}", file=out)


def _run_multilevel(args: argparse.Namespace, out) -> None:
    import json as _json
    import time as _time

    from .core import solve_maar_multilevel
    from .core.multilevel import MultilevelConfig
    from .experiments.runner import load_graph_source

    graph = load_graph_source(args.graph, as_csr=True).csr()
    config = MultilevelConfig(
        refine_tolerance=args.refine_tolerance,
        refine_stall=args.refine_stall if args.refine_stall > 0 else None,
    )
    start = _time.perf_counter()
    result = solve_maar_multilevel(
        graph,
        config,
        legit_seeds=args.legit_seeds,
        spammer_seeds=args.spammer_seeds,
    )
    seconds = _time.perf_counter() - start
    print(
        f"graph: {graph.num_nodes} users, {graph.num_friendships} "
        f"friendships, {graph.num_rejections} rejections",
        file=out,
    )
    print(
        f"levels: {result.levels} (sizes {result.level_sizes})",
        file=out,
    )
    if result.found:
        print(
            f"detected {len(result.suspicious)} suspicious accounts at "
            f"k={result.k:.4f}, acceptance rate "
            f"{result.acceptance_rate:.4f} in {seconds:.2f}s",
            file=out,
        )
    else:
        print(f"no valid cut found ({seconds:.2f}s)", file=out)
    timings = result.timings
    if timings:
        coarsen = sum(timings.get("coarsen", []))
        refine = sum(timings.get("refine", []))
        print(
            f"timings: coarsen {coarsen:.2f}s, coarse sweep "
            f"{timings.get('coarse_sweep', 0.0):.2f}s, refine {refine:.2f}s, "
            f"early exits {timings.get('early_exits', 0)}",
            file=out,
        )
        for detail in timings.get("refine_detail", []):
            print(
                f"  level {detail['level']}: {detail['scope']}, frontier "
                f"{detail['boundary']}, regions {detail['regions']}, rounds "
                f"{detail['rounds']}, moves {detail['moves']}",
                file=out,
            )
    if result.found:
        shown = " ".join(map(str, result.suspicious[:20]))
        suffix = " ..." if len(result.suspicious) > 20 else ""
        print(f"suspicious ids: {shown}{suffix}", file=out)
    if args.json:
        payload = {
            "suspicious": result.suspicious,
            "acceptance_rate": result.acceptance_rate,
            "k": result.k,
            "level_sizes": result.level_sizes,
            "timings": timings,
            "seconds": seconds,
            "config": {"refine_tolerance": args.refine_tolerance},
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"json written to {args.json}", file=out)


def _run_graph(args: argparse.Namespace, out) -> None:
    from pathlib import Path

    if args.graph_command == "pack":
        from .experiments.runner import load_graph_source

        source = Path(args.input)
        csr = load_graph_source(source, as_csr=True, remap=not args.no_remap)
        out_path = Path(args.out) if args.out else source.with_name(
            source.name.removesuffix(".gz").removesuffix(".txt") + ".csrbin"
        )
        csr.save(out_path)
        size = out_path.stat().st_size
        print(
            f"packed {csr.num_nodes} nodes, {csr.num_friendships} "
            f"friendships, {csr.num_rejections} rejections "
            f"-> {out_path} ({size} bytes)",
            file=out,
        )
    elif args.graph_command == "info":
        from .core.storage import snapshot_info

        info = snapshot_info(args.path)
        print(f"snapshot: {args.path}", file=out)
        print(
            f"  version {info['version']}, alignment {info['alignment']}, "
            f"{info['file_bytes']} bytes",
            file=out,
        )
        print(
            f"  {info['num_nodes']} nodes, {info['friendships']} "
            f"friendships, {info['rejections']} rejections",
            file=out,
        )
        flags = [
            name
            for name, on in (
                ("weighted", info["weighted"]),
                ("node-weight", info["has_node_weight"]),
            )
            if on
        ]
        print(f"  flags: {', '.join(flags) if flags else 'none'}", file=out)
        if args.segments:
            for seg in info["segments"]:
                print(
                    f"  segment {seg['name']:<11} offset {seg['offset']:>12} "
                    f"bytes {seg['bytes']:>12}",
                    file=out,
                )
    else:  # pragma: no cover - argparse enforces choices
        raise ValueError(f"unknown graph command {args.graph_command!r}")


def _run_shard_detect(args: argparse.Namespace, out) -> None:
    from .core import MAARConfig, RejectoConfig, detect_over_shards
    from .io import load_augmented_graph

    shards = [load_augmented_graph(path) for path in args.graphs]
    config = RejectoConfig(
        maar=MAARConfig(jobs=_resolve_jobs(args)),
        estimated_spammers=args.estimated,
        acceptance_threshold=args.threshold,
        max_rounds=args.max_rounds,
    )
    result = detect_over_shards(shards, config, legit_seeds=args.legit_seeds)
    for interval in range(result.num_intervals):
        flagged = sorted(result.flagged(interval))
        newly = sorted(result.newly_flagged(interval))
        print(
            f"interval {interval}: flagged {len(flagged)} "
            f"(first-time: {len(newly)})",
            file=out,
        )
        if newly:
            shown = " ".join(map(str, newly[:30]))
            suffix = " ..." if len(newly) > 30 else ""
            print(f"  new: {shown}{suffix}", file=out)
    print(
        f"total distinct accounts flagged: {len(result.flagged())}",
        file=out,
    )


def _run_all(quick: bool, out, jobs: int = 1) -> None:
    scale = 0.1 if quick else 0.2
    num_legit = 600 if quick else 1500
    num_fakes = 120 if quick else 300
    sweep_config = SweepConfig(
        num_legit=num_legit, num_fakes=num_fakes, jobs=jobs
    )
    steps = [
        ("Table I", lambda: datasets_table(scale=scale).render()),
        ("Fig. 1", lambda: motivation_study().render()),
    ]
    steps += [
        (name, lambda fn=fn: fn(sweep_config).render())
        for name, fn in _SWEEPS.items()
    ]
    steps += [
        (
            "Fig. 16",
            lambda: defense_in_depth(
                DefenseInDepthConfig(num_legit=num_legit, num_fakes=num_fakes)
            ).render(),
        ),
        (
            "Table II",
            lambda: scaling_study(
                ScalingConfig(user_counts=(500, 1000, 2000) if quick else (1000, 2000, 4000))
            ).render(),
        ),
    ]
    for label, step in steps:
        start = time.perf_counter()
        print(step(), file=out)
        print(f"[{label} done in {time.perf_counter() - start:.1f}s]\n", file=out)


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point.

    Bad input — a missing or unreadable file, a malformed graph file, a
    corrupt snapshot, an edge the graph refuses (a self-loop, an id out
    of range), a seed id outside the graph — stops with one
    ``rejecto: error: ...`` line on stderr and exit code 2 (argparse's
    usage-error code) instead of a traceback.
    """
    from .core.graph import GraphError
    from .core.maar import SeedError
    from .core.storage import SnapshotFormatError
    from .graphgen.loaders import LoaderError
    from .io import FormatError

    args = build_parser().parse_args(argv)
    try:
        _run_command(args)
    except (
        OSError, FormatError, SnapshotFormatError, LoaderError, SeedError, GraphError
    ) as exc:
        print(f"rejecto: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
