"""The three benchmark workloads: input generation, set-up and solve.

Each workload has three steps, run in different processes:

* ``generate(seed, workdir)`` builds the inputs from the seed, writes
  them to ``workdir`` in a format the ``rejecto`` CLI reads, and returns
  the ground truth (planted fakes and the generated graph's counts) as a
  JSON-ready dict;
* ``setup(workdir)`` turns the files on disk into a graph ready for
  detection, exactly as an operator's job would (timed as ``setup_s``);
* ``solve(graph, truth)`` makes the public detection call (timed as
  ``solve_s``) and returns the detection in original node ids.

Only the public ``repro`` API is used, so the same code measures any
commit of the program.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.attacks import RequestLog
from repro.attacks.spam import (
    add_careless_requests,
    send_friend_spam,
    simulate_legitimate_rejections,
)
from repro.attacks.sybil import SybilRegionConfig, inject_sybil_region
from repro.cluster import ClusterConfig, ClusterRunStats, distributed_maar
from repro.core import MAARConfig, Rejecto, RejectoConfig, solve_maar
from repro.core.csr import CSRGraph
from repro.core.multilevel import MultilevelConfig, solve_maar_multilevel
from repro.graphgen import barabasi_albert
from repro.graphgen.datasets import CATALOG, generate_dataset
from repro.io import (
    load_augmented_graph,
    load_request_log,
    save_augmented_graph,
    save_request_log,
)

#: The paper's baseline attack knobs (Section VI-A).
REQUESTS_PER_FAKE = 20
LEGIT_REJECTION_RATE = 0.2
CARELESS_FRACTION = 0.15


def _log_friendships(log, rng, edges):
    """Log accepted requests for ``edges``, in a random direction."""
    for u, v in edges:
        if rng.random() < 0.5:
            log.record(u, v, True)
        else:
            log.record(v, u, True)


def _truth(graph, fakes, **extra):
    return {
        "nodes": graph.num_nodes,
        "friendships": graph.num_friendships,
        "rejections": graph.num_rejections,
        "fakes": sorted(fakes),
        **extra,
    }


def _graph_counts(graph):
    return {
        "nodes": graph.num_nodes,
        "friendships": graph.num_friendships,
        "rejections": graph.num_rejections,
    }


class RejectoRounds:
    """Rejecto rounds over a request log with three disjoint spam groups.

    One group per spam rejection rate; each costs Rejecto one residual
    round, so the rounds, the flat MAAR ``k`` sweep, the KL bucket
    engine and the parallel fan-out do the work.
    """

    name = "rejecto_rounds"
    legit = 4000
    fakes_per_group = 400
    rejection_rates = (0.9, 0.7, 0.5)
    jobs = 2
    precision_floor = 0.85
    recall_floor = 0.85
    log_file = "requests.csv"

    def generate(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(seed)
        scale = self.legit / CATALOG["facebook"].paper_nodes
        graph = generate_dataset("facebook", scale=scale, seed=seed)
        legit = list(range(graph.num_nodes))
        log = RequestLog()
        _log_friendships(log, rng, list(graph.friendships()))
        simulate_legitimate_rejections(
            graph, legit, LEGIT_REJECTION_RATE, rng, log=log
        )
        fakes = []
        for rate in self.rejection_rates:
            group = inject_sybil_region(
                graph, SybilRegionConfig(num_fakes=self.fakes_per_group), rng
            )
            first = group[0]
            # Intra-group links are accepted requests from the later
            # arrival, as in repro.attacks.build_scenario.
            for u in group:
                for v in graph.friends[u]:
                    if first <= v < u:
                        log.record(u, v, True)
            send_friend_spam(
                graph, group, legit, REQUESTS_PER_FAKE, rate, rng, log=log
            )
            fakes.extend(group)
        add_careless_requests(graph, legit, fakes, CARELESS_FRACTION, rng, log=log)
        save_request_log(log, workdir / self.log_file)
        return _truth(graph, fakes)

    def setup(self, workdir: Path, timer):
        with timer("io.load"):
            log = load_request_log(workdir / self.log_file)
        with timer("graph.csr"):
            graph = log.to_augmented_graph().csr()
        return graph, _graph_counts(graph)

    def solve(self, graph, truth: dict) -> dict:
        limit = len(truth["fakes"])
        config = RejectoConfig(
            estimated_spammers=limit, maar=MAARConfig(jobs=self.jobs)
        )
        result = Rejecto(config).detect(graph)
        cut_rate = result.groups[0].acceptance_rate if result.groups else 1.0
        return {
            "detected": result.detected(limit),
            "cut_acceptance_rate": cut_rate,
        }


class MultilevelBA:
    """The multilevel solver on a Barabási–Albert graph from a snapshot.

    Mirrors the 1.24M-node row (BA m=4 plus 24% fakes running the
    baseline spam wave) at reduced scale; set-up is the ``graph pack``
    then ``multilevel --graph x.csrbin`` flow.
    """

    name = "multilevel_ba"
    legit = 8_000
    fakes = 1_920
    ba_m = 4
    config = MultilevelConfig(max_levels=48)
    precision_floor = 0.9
    recall_floor = 0.9
    edge_file = "graph.txt"
    snapshot_file = "graph.csrbin"

    def generate(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(seed)
        graph = barabasi_albert(self.legit, self.ba_m, rng)
        legit = list(range(graph.num_nodes))
        simulate_legitimate_rejections(graph, legit, LEGIT_REJECTION_RATE, rng)
        fakes = inject_sybil_region(
            graph, SybilRegionConfig(num_fakes=self.fakes), rng
        )
        send_friend_spam(graph, fakes, legit, REQUESTS_PER_FAKE, 0.7, rng)
        add_careless_requests(graph, legit, fakes, CARELESS_FRACTION, rng)
        save_augmented_graph(graph, workdir / self.edge_file)
        return _truth(graph, fakes)

    def setup(self, workdir: Path, timer):
        with timer("io.load"):
            parsed = load_augmented_graph(workdir / self.edge_file, as_csr=True)
        snapshot = workdir / self.snapshot_file
        with timer("storage.save"):
            parsed.save(snapshot)
        counts = _graph_counts(parsed)
        del parsed
        with timer("storage.open"):
            graph = CSRGraph.open(snapshot)
        counts["file_bytes"] = snapshot.stat().st_size
        return graph, counts

    def solve(self, graph, truth: dict) -> dict:
        result = solve_maar_multilevel(graph, self.config)
        return {
            "detected": result.suspicious,
            "cut_acceptance_rate": result.acceptance_rate,
            "level_sizes": result.level_sizes,
        }


class ClusterTable2:
    """The simulated-cluster MAAR sweep at Table II's top row.

    The graph is loaded into memory (not from a snapshot), so the shards
    ship to the workers as payloads.

    A single MAAR cut is sometimes a handful of fakes whose acceptance
    rate undercuts the whole fake region's (3 of 100 inputs at this size;
    the limitation Rejecto's rounds exist for). So there is no recall
    floor here; instead the cut must equal the in-process
    :func:`~repro.core.solve_maar` cut, computed once per input by the
    generator.
    """

    name = "cluster_table2"
    users = 8000
    fake_fraction = 0.1
    k_steps = 4
    precision_floor = 0.85
    recall_floor = 0.0
    edge_file = "graph.txt"

    def generate(self, seed: int, workdir: Path) -> dict:
        from repro.attacks import ScenarioConfig, build_scenario

        num_fakes = int(self.users * self.fake_fraction)
        scenario = build_scenario(
            ScenarioConfig(
                num_legit=self.users - num_fakes, num_fakes=num_fakes, seed=seed
            )
        )
        save_augmented_graph(scenario.graph, workdir / self.edge_file)
        reference = solve_maar(
            scenario.graph.csr(), MAARConfig(k_steps=self.k_steps)
        ).suspicious_nodes()
        return _truth(scenario.graph, scenario.fakes, reference=sorted(reference))

    def setup(self, workdir: Path, timer):
        with timer("io.load"):
            graph = load_augmented_graph(workdir / self.edge_file, as_csr=True)
        return graph, _graph_counts(graph)

    def solve(self, graph, truth: dict) -> dict:
        stats = ClusterRunStats()
        nodes, rate, _k = distributed_maar(
            graph,
            cluster_config=ClusterConfig(),
            maar_config=MAARConfig(k_steps=self.k_steps),
            stats=stats,
        )
        return {
            "detected": nodes,
            "cut_acceptance_rate": rate,
            "wire_bytes": stats.network.bytes_sent,
            "cluster_stats": stats,
        }


WORKLOADS = {w.name: w for w in (RejectoRounds(), MultilevelBA(), ClusterTable2())}
