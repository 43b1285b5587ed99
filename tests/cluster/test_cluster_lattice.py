"""The cluster master's bucket passes run on ``k``'s lowest-terms lattice.

As in local KL (``tests/core/test_lattice.py``), ``ClusterConfig.
resolution`` only decides whether ``k`` is on the grid: each run's
buckets use ``k``'s reduced denominator. The rescale must leave the
cut, the counters and the whole wire ledger unchanged — every prefetch
batch is drawn from a walk of the bucket list, so a changed bucket order
would show up in the bytes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import ScenarioConfig, build_scenario
from repro.cluster import ClusterConfig, ClusterRunStats, DistributedKL
from repro.cluster import engine as engine_module

from ..conftest import augmented_graphs
from .test_engine import rejection_init

ON_GRID = st.integers(min_value=1, max_value=48).map(lambda m: m / 8)


def run_signature(graph, k, resolution, **overrides):
    stats = ClusterRunStats()
    config = ClusterConfig(resolution=resolution, **overrides)
    sides, f_cross, r_cross = DistributedKL(graph, config).run(
        k, rejection_init(graph), stats=stats
    )
    return (
        sides,
        f_cross,
        r_cross,
        stats.passes,
        stats.switches_tested,
        stats.switches_applied,
        stats.objective_history,
        dict(stats.network.bytes_by_kind),
        dict(stats.network.by_kind),
        stats.fetch_batches,
        stats.records_fetched,
    )


@given(augmented_graphs(max_nodes=24, max_edges=60), ON_GRID)
@settings(max_examples=30, deadline=None)
def test_run_is_resolution_invariant(graph, k):
    shape = {
        "num_workers": 3,
        "num_partitions": 5,
        "buffer_capacity": 8,
        "prefetch_batch": 4,
    }
    assert run_signature(graph, k, 8, **shape) == run_signature(
        graph, k, 16, **shape
    )


@pytest.mark.parametrize("k", [0.125, 0.5, 2.0])
def test_scenario_run_is_resolution_invariant(k):
    graph = build_scenario(ScenarioConfig(num_legit=200, num_fakes=40, seed=5)).graph
    shape = {"buffer_capacity": 96, "prefetch_batch": 16}
    assert run_signature(graph, k, 8, **shape) == run_signature(
        graph, k, 16, **shape
    )


def test_master_buckets_at_the_reduced_scale(monkeypatch):
    """``MasterState.for_pass`` scales gains by ``k``'s reduced
    denominator: 1 at ``k = 2``, 2 at ``k = 0.5``, 8 at ``k = 0.125``."""
    seen = []
    original = engine_module.MasterState.for_pass

    def spy(*args):
        seen.append(args[6])
        return original(*args)

    monkeypatch.setattr(engine_module.MasterState, "for_pass", spy)
    graph = build_scenario(ScenarioConfig(num_legit=60, num_fakes=12, seed=3)).graph
    engine = DistributedKL(graph)
    for k, scale in ((2.0, 1), (0.5, 2), (0.125, 8)):
        seen.clear()
        engine.run(k, rejection_init(graph))
        assert seen and set(seen) == {scale}
