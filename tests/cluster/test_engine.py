"""Tests for the distributed KL engine — headlined by exact equivalence
with the single-machine implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import ScenarioConfig, build_scenario
from repro.cluster import (
    ClusterConfig,
    ClusterRunStats,
    DistributedKL,
    distributed_maar,
)
from repro.core import (
    KLConfig,
    KLStats,
    MAARConfig,
    Partition,
    extended_kl,
    solve_maar,
)
from repro.core.objectives import LEGITIMATE, SUSPICIOUS

from ..conftest import augmented_graphs

try:
    import numpy  # noqa: F401

    BACKENDS = ("python", "numpy")
except ImportError:  # pragma: no cover - numpy is present in CI's main job
    BACKENDS = ("python",)


def rejection_init(graph):
    return [
        SUSPICIOUS if graph.rej_in[u] else LEGITIMATE
        for u in range(graph.num_nodes)
    ]


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(ScenarioConfig(num_legit=400, num_fakes=80, seed=21))


class TestEquivalenceWithCore:
    @pytest.mark.parametrize("k", [0.125, 1.0, 8.0, 64.0])
    def test_identical_partitions(self, scenario, k):
        """The cluster engine implements the same greedy discipline as
        the core KL; results must match bit for bit."""
        graph = scenario.graph
        init = rejection_init(graph)
        core = extended_kl(
            graph, k, Partition(graph, init), config=KLConfig(gain_index="bucket")
        )
        engine = DistributedKL(graph)
        sides, f_cross, r_cross = engine.run(k, init)
        assert sides == core.sides
        assert (f_cross, r_cross) == (core.f_cross, core.r_cross)

    def test_distributed_maar_matches_core(self, scenario):
        graph = scenario.graph
        suspicious, rate, best_k = distributed_maar(
            graph, maar_config=MAARConfig(k_steps=6)
        )
        core = solve_maar(graph, MAARConfig(k_steps=6))
        assert set(suspicious) == set(core.suspicious_nodes())
        assert rate == pytest.approx(core.acceptance_rate)
        assert best_k == core.k

    def test_locked_nodes_respected(self, scenario):
        graph = scenario.graph
        init = rejection_init(graph)
        locked = [False] * graph.num_nodes
        locked[0] = True
        locked[graph.num_nodes - 1] = True
        engine = DistributedKL(graph)
        sides, _, _ = engine.run(1.0, init, locked=locked)
        assert sides[0] == init[0]
        assert sides[-1] == init[-1]


class TestAccounting:
    def test_traffic_and_prefetch_stats_populated(self, scenario):
        stats = ClusterRunStats()
        engine = DistributedKL(scenario.graph)
        engine.run(1.0, rejection_init(scenario.graph), stats=stats)
        assert stats.passes >= 1
        assert stats.switches_tested > 0
        assert stats.network.messages > 0
        assert stats.network.bytes_sent > 0
        assert "fetch" in stats.network.by_kind
        assert "broadcast" in stats.network.by_kind

    def test_prefetching_reduces_fetch_messages(self, scenario):
        """Section V's claim: batching top-gain nodes into each fetch
        slashes the master-worker round trips."""
        graph = scenario.graph
        init = rejection_init(graph)

        with_prefetch = DistributedKL(
            graph, ClusterConfig(buffer_capacity=4096, prefetch_batch=64)
        )
        with_prefetch.run(1.0, init)
        batched = with_prefetch.network.stats.by_kind["fetch"]

        without = DistributedKL(graph, ClusterConfig(buffer_capacity=0))
        without.run(1.0, init)
        on_demand = without.network.stats.by_kind["fetch"]

        assert batched < on_demand / 5

    def test_prefetch_hit_rate_high(self, scenario):
        stats = ClusterRunStats()
        engine = DistributedKL(scenario.graph)
        engine.run(1.0, rejection_init(scenario.graph), stats=stats)
        assert stats.prefetch_hit_rate > 0.8

    def test_results_identical_with_and_without_prefetch(self, scenario):
        """Prefetching is a pure I/O optimization — it must not change
        the computed partition."""
        graph = scenario.graph
        init = rejection_init(graph)
        a = DistributedKL(graph, ClusterConfig(buffer_capacity=4096)).run(2.0, init)
        b = DistributedKL(graph, ClusterConfig(buffer_capacity=0)).run(2.0, init)
        assert a == b

    def test_worker_count_does_not_change_result(self, scenario):
        graph = scenario.graph
        init = rejection_init(graph)
        small = DistributedKL(graph, ClusterConfig(num_workers=2, num_partitions=8))
        large = DistributedKL(graph, ClusterConfig(num_workers=10, num_partitions=40))
        assert small.run(1.0, init) == large.run(1.0, init)


class TestShardedProtocol:
    """The CSR-sharded wire protocol: backend × prefetch parity
    (partitions, counters, *and* objective history) plus the
    delta-broadcast and per-kind byte accounting."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("buffer_capacity", [4096, 0])
    def test_bit_identical_to_local_engine(self, scenario, backend, buffer_capacity):
        """Full-fidelity parity with the local engine: same partitions,
        same counters, same number of passes, same switch counts, same
        per-pass objective history — for every backend, with and without
        prefetching. The worker gains come from replica side vectors, so
        this also proves the delta protocol keeps every replica exactly
        in sync."""
        graph = scenario.graph
        init = rejection_init(graph)
        k = 8.0
        core_stats = KLStats()
        core = extended_kl(
            graph,
            k,
            Partition(graph, init),
            config=KLConfig(gain_index="bucket"),
            stats=core_stats,
        )
        engine = DistributedKL(
            graph.csr(backend),
            ClusterConfig(buffer_capacity=buffer_capacity),
        )
        stats = ClusterRunStats()
        sides, f_cross, r_cross = engine.run(k, init, stats=stats)
        assert sides == core.sides
        assert (f_cross, r_cross) == (core.f_cross, core.r_cross)
        assert stats.passes == core_stats.passes
        assert stats.switches_tested == core_stats.switches_tested
        assert stats.switches_applied == core_stats.switches_applied
        assert stats.objective_history == core_stats.objective_history

    def test_delta_broadcasts_engage_between_passes(self, scenario):
        stats = ClusterRunStats()
        engine = DistributedKL(scenario.graph)
        engine.run(8.0, rejection_init(scenario.graph), stats=stats)
        workers = engine.config.num_workers
        assert stats.passes > 1  # multi-pass run, or the test is vacuous
        # One full sync opens the run; each further pass ships a delta.
        assert stats.network.by_kind["broadcast"] == workers
        assert stats.network.by_kind["delta"] == (stats.passes - 1) * workers

    def test_bytes_by_kind_partitions_total(self, scenario):
        stats = ClusterRunStats()
        engine = DistributedKL(scenario.graph)
        engine.run(1.0, rejection_init(scenario.graph), stats=stats)
        kinds = stats.network.bytes_by_kind
        for kind in ("upload", "broadcast", "gains", "fetch"):
            assert kinds.get(kind, 0) > 0, kind
        assert sum(kinds.values()) == stats.network.bytes_sent
        assert set(stats.network.by_kind) == set(kinds)

    def test_fetch_stats_surface_in_run_stats(self, scenario):
        stats = ClusterRunStats()
        engine = DistributedKL(scenario.graph)
        engine.run(1.0, rejection_init(scenario.graph), stats=stats)
        assert stats.fetch_batches > 0
        assert stats.records_fetched >= stats.fetch_batches
        assert stats.fetch_batches == stats.prefetch_misses

    def test_stats_accumulate_across_runs(self, scenario):
        """distributed_maar reuses one stats object across the k-sweep;
        prefetch and fetch counters must accumulate, not reset."""
        graph = scenario.graph
        init = rejection_init(graph)
        engine = DistributedKL(graph)
        stats = ClusterRunStats()
        engine.run(1.0, init, stats=stats)
        first = (stats.prefetch_hits, stats.fetch_batches, stats.passes)
        engine.run(2.0, init, stats=stats)
        assert stats.prefetch_hits > first[0]
        assert stats.fetch_batches > first[1]
        assert stats.passes > first[2]
        assert len(stats.objective_history) == stats.passes


_LEDGER_COMMON_BYTES = {
    "broadcast": 10080,
    "delta": 32320,
    "gains": 27840,
    "upload": 84256,
}
_LEDGER_COMMON_MESSAGES = {"broadcast": 20, "delta": 10, "gains": 120, "upload": 20}


class TestWireLedgerPin:
    """The full wire ledger of a fixed ``distributed_maar`` sweep, pinned.

    Partition parity alone lets a change to the prefetch candidates slip
    through: the cut stays the same while different nodes ride along in
    each fetch batch. These values were captured from the eager-list
    candidate walk; any change to which nodes a fetch batch requests, or
    in what order, moves the fetch bytes and counters. The tight buffer
    evicts, so the batch contents matter more there."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "gain_index, buffer, expected",
        [
            ("bucket", (4096, 64), (369520, 437, 37, 1920, 2843)),
            ("heap", (4096, 64), (369472, 436, 37, 1920, 2843)),
            ("bucket", (96, 16), (1108416, 3797, 554, 5673, 2326)),
            ("heap", (96, 16), (1081680, 3658, 524, 5568, 2356)),
        ],
    )
    def test_ledger_matches_pinned_values(
        self, scenario, backend, gain_index, buffer, expected
    ):
        capacity, batch = buffer
        fetch_bytes, fetch_messages, batches, records, hits = expected
        stats = ClusterRunStats()
        suspicious, _, _ = distributed_maar(
            scenario.graph.csr(backend),
            ClusterConfig(
                gain_index=gain_index,
                buffer_capacity=capacity,
                prefetch_batch=batch,
            ),
            MAARConfig(k_steps=4),
            stats=stats,
        )
        # A real detection, so the pinned run exercises the whole sweep.
        assert len(suspicious) == 78
        assert set(suspicious) <= set(scenario.fakes)
        assert stats.network.bytes_by_kind == {
            **_LEDGER_COMMON_BYTES,
            "fetch": fetch_bytes,
        }
        assert stats.network.by_kind == {
            **_LEDGER_COMMON_MESSAGES,
            "fetch": fetch_messages,
        }
        assert stats.fetch_batches == batches
        assert stats.records_fetched == records
        assert stats.prefetch_hits == hits


class TestValidation:
    def test_invalid_k(self, scenario):
        engine = DistributedKL(scenario.graph)
        with pytest.raises(ValueError):
            engine.run(0.0, rejection_init(scenario.graph))

    def test_sides_length_mismatch(self, scenario):
        engine = DistributedKL(scenario.graph)
        with pytest.raises(ValueError):
            engine.run(1.0, [0, 1])


@given(augmented_graphs(max_nodes=18, max_edges=40), st.sampled_from([0.25, 1.0, 4.0]))
@settings(max_examples=25, deadline=None)
def test_engine_matches_core_on_random_graphs(graph, k):
    init = rejection_init(graph)
    core = extended_kl(
        graph, k, Partition(graph, init), config=KLConfig(gain_index="bucket")
    )
    engine = DistributedKL(graph, ClusterConfig(num_workers=3, num_partitions=5))
    sides, f_cross, r_cross = engine.run(k, init)
    assert sides == core.sides
    assert (f_cross, r_cross) == (core.f_cross, core.r_cross)
