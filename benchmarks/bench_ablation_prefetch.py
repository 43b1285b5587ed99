"""Ablation: prefetching on the mini-cluster.

Section V's I/O optimization: each miss pulls the bucket list's
top-gain candidates in one batched block-slice fetch; prefetched records
stay until read, and read ones stay for later passes only when every
unlocked node fits the buffer (here it does: 1,440 nodes, 4,096
records); between passes only the switched node ids are broadcast.
Measures wall time and reports the per-kind message/byte breakdown; the
computed cut must be identical with and without prefetching — it is a
pure I/O optimization.
"""

import pytest

from repro.attacks import ScenarioConfig, build_scenario
from repro.cluster import ClusterConfig, DistributedKL
from repro.core.objectives import LEGITIMATE, SUSPICIOUS
from repro.experiments import format_table

SCENARIO = build_scenario(ScenarioConfig(num_legit=1200, num_fakes=240))
INIT = [
    SUSPICIOUS if SCENARIO.graph.rej_in[u] else LEGITIMATE
    for u in range(SCENARIO.graph.num_nodes)
]


@pytest.mark.parametrize(
    "label,capacity",
    [("prefetch", 4096), ("no_prefetch", 0)],
)
def bench_prefetch(benchmark, label, capacity):
    def solve():
        engine = DistributedKL(
            SCENARIO.graph, ClusterConfig(buffer_capacity=capacity)
        )
        outcome = engine.run(2.0, INIT)
        return outcome, engine.network.stats

    (sides, f_cross, r_cross), net = benchmark.pedantic(
        solve, rounds=1, iterations=1
    )
    kinds = net.bytes_by_kind
    print()
    print(
        format_table(
            [
                "config",
                "fetch msgs",
                "total msgs",
                "fetch KB",
                "bcast KB",
                "delta KB",
                "gains KB",
                "total MB",
            ],
            [
                [
                    label,
                    net.by_kind.get("fetch", 0),
                    net.messages,
                    kinds.get("fetch", 0) / 1e3,
                    kinds.get("broadcast", 0) / 1e3,
                    kinds.get("delta", 0) / 1e3,
                    kinds.get("gains", 0) / 1e3,
                    net.bytes_sent / 1e6,
                ]
            ],
            title="Prefetch / broadcast ablation (Section V)",
        )
    )
    assert sum(kinds.values()) == net.bytes_sent
    # Identical result regardless of prefetching.
    reference = DistributedKL(
        SCENARIO.graph, ClusterConfig(buffer_capacity=4096)
    ).run(2.0, INIT)
    assert (sides, f_cross, r_cross) == reference
