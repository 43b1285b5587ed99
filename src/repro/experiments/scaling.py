"""Computational-cost scaling on the mini-cluster (Table II).

The paper runs Rejecto on Spark over a 5-node EC2 cluster and reports
near-linear runtime growth with graph size (0.5M-10M users at ~16
edges/user). This experiment reproduces the *shape* on the simulated
cluster: for each scaled graph size it measures wall-clock time of a
distributed MAAR solve plus the simulated network traffic, and reports
the per-edge cost so linearity is directly visible in the rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..attacks.scenario import ScenarioConfig, build_scenario
from ..cluster.engine import ClusterConfig, ClusterRunStats, distributed_maar
from ..cluster.netsim import NetworkModel
from ..core.maar import MAARConfig
from .tables import format_table

__all__ = ["ScalingConfig", "ScalingRow", "ScalingResult", "scaling_study"]


@dataclass(frozen=True)
class ScalingConfig:
    """Table II parameters, scaled to laptop sizes.

    Each row keeps the paper's 10:1 legit:fake proportion and per-fake
    request budget so edge density stays comparable across sizes.
    ``k_steps`` is reduced: runtime scaling, not detection quality, is
    under test here.
    """

    user_counts: Sequence[int] = (1000, 2000, 4000, 8000)
    fake_fraction: float = 0.1
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    k_steps: int = 4
    seed: int = 7


@dataclass
class ScalingRow:
    """One Table II row."""

    users: int
    edges: int
    rejections: int
    wall_seconds: float
    network_messages: int
    network_bytes: int
    simulated_network_seconds: float
    prefetch_hit_rate: float = 0.0
    fetch_batches: int = 0
    #: Node records the master fetched, and switches it tested: the
    #: buffer fetches each record at most once a pass, so the first
    #: never exceeds the second.
    records_fetched: int = 0
    switches_tested: int = 0
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Scenario generation time — kept separate from ``wall_seconds`` so
    #: the solve timing never silently absorbs graph acquisition cost.
    build_seconds: float = 0.0
    #: Upload bytes not shipped thanks to shard references (0 when the
    #: graph is not snapshot-backed; see ``ClusterContext.distribute_csr``).
    bytes_avoided: int = 0

    @property
    def microseconds_per_edge(self) -> float:
        return 1e6 * self.wall_seconds / max(1, self.edges)


@dataclass
class ScalingResult:
    rows: List[ScalingRow]
    cluster_workers: int

    def render(self) -> str:
        return format_table(
            [
                "#users",
                "#edges",
                "#rejections",
                "workers",
                "time (s)",
                "us/edge",
                "net msgs",
                "net MB",
                "net time (s)",
            ],
            [
                [
                    row.users,
                    row.edges,
                    row.rejections,
                    self.cluster_workers,
                    row.wall_seconds,
                    row.microseconds_per_edge,
                    row.network_messages,
                    row.network_bytes / 1e6,
                    row.simulated_network_seconds,
                ]
                for row in self.rows
            ],
            title="Table II — execution time vs input graph size (mini-cluster)",
        )


def scaling_study(config: Optional[ScalingConfig] = None) -> ScalingResult:
    """Regenerate Table II's scaling rows on the simulated cluster."""
    config = config or ScalingConfig()
    rows: List[ScalingRow] = []
    for users in config.user_counts:
        num_fakes = max(10, int(users * config.fake_fraction))
        build_start = time.perf_counter()
        scenario = build_scenario(
            ScenarioConfig(
                num_legit=users - num_fakes,
                num_fakes=num_fakes,
                seed=config.seed,
            )
        )
        scenario.graph.csr()  # finalize here: acquisition, not solve
        build_seconds = time.perf_counter() - build_start
        stats = ClusterRunStats()
        start = time.perf_counter()
        distributed_maar(
            scenario.graph,
            cluster_config=config.cluster,
            maar_config=MAARConfig(k_steps=config.k_steps),
            stats=stats,
        )
        elapsed = time.perf_counter() - start
        rows.append(
            ScalingRow(
                users=scenario.num_nodes,
                edges=scenario.graph.num_friendships,
                rejections=scenario.graph.num_rejections,
                wall_seconds=elapsed,
                network_messages=stats.network.messages,
                network_bytes=stats.network.bytes_sent,
                simulated_network_seconds=stats.network.simulated_seconds(
                    NetworkModel()
                ),
                prefetch_hit_rate=stats.prefetch_hit_rate,
                fetch_batches=stats.fetch_batches,
                records_fetched=stats.records_fetched,
                switches_tested=stats.switches_tested,
                bytes_by_kind=dict(stats.network.bytes_by_kind),
                build_seconds=build_seconds,
                bytes_avoided=stats.network.bytes_avoided,
            )
        )
    return ScalingResult(rows=rows, cluster_workers=config.cluster.num_workers)
