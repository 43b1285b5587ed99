#!/usr/bin/env python
"""Running Rejecto on the Spark-like mini-cluster (Section V).

Shows the deployment-shaped API: the social graph lives on simulated
workers as replicated CSR shard blocks; the master holds only the node
status and the gain bucket list; node structure flows through an LRU
prefetch buffer. The run reports detection output together with the
network traffic the data layout saves — compare the prefetching run
against the fetch-per-node strawman.

Run:  python examples/cluster_deployment.py
"""

from repro.attacks import ScenarioConfig, build_scenario
from repro.cluster import (
    ClusterConfig,
    ClusterRunStats,
    NetworkModel,
    distributed_maar,
)
from repro.experiments.tables import format_table
from repro.metrics import precision_recall


def run(scenario, cluster_config):
    stats = ClusterRunStats()
    suspicious, rate, best_k = distributed_maar(
        scenario.graph, cluster_config=cluster_config, stats=stats
    )
    metrics = precision_recall(suspicious, scenario.fakes)
    return metrics, rate, stats


def main() -> None:
    scenario = build_scenario(ScenarioConfig(num_legit=1500, num_fakes=300))
    print(f"graph: {scenario.graph}\n")

    configs = {
        "prefetch (LRU, batch 64)": ClusterConfig(
            num_workers=5, buffer_capacity=4096, prefetch_batch=64
        ),
        "no prefetch (per-node fetch)": ClusterConfig(
            num_workers=5, buffer_capacity=0
        ),
    }
    rows = []
    for label, config in configs.items():
        metrics, rate, stats = run(scenario, config)
        rows.append(
            [
                label,
                metrics.precision,
                rate,
                stats.network.by_kind.get("fetch", 0),
                stats.network.bytes_sent / 1e6,
                stats.network.simulated_seconds(NetworkModel()),
            ]
        )
    print(
        format_table(
            [
                "configuration",
                "precision",
                "cut AC",
                "fetch msgs",
                "net MB",
                "net time (s)",
            ],
            rows,
            title="Distributed MAAR: prefetching vs on-demand fetches (Section V)",
        )
    )
    print(
        "\nBoth configurations compute the *identical* cut — prefetching is\n"
        "purely an I/O optimization, collapsing per-node round trips into\n"
        "batched fetches of the bucket list's top-gain candidates."
    )


if __name__ == "__main__":
    main()
