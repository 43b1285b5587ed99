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
    AugmentedSocialGraph,
    KLConfig,
    KLStats,
    MAARConfig,
    extended_kl,
    solve_maar,
)
from repro.core.objectives import LEGITIMATE, SUSPICIOUS

from ..conftest import augmented_graphs
from ..core.partition_oracle import Partition

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


def assert_precise(suspicious, scenario, floor=0.9):
    """A compared detection must be a real one: non-empty, and mostly
    the planted fakes — two empty answers would otherwise pass as
    parity."""
    suspicious = set(suspicious)
    assert suspicious
    assert len(suspicious & set(scenario.fakes)) >= floor * len(suspicious)


def suspicious_side(sides):
    return [u for u, s in enumerate(sides) if s == SUSPICIOUS]


class TestEquivalenceWithCore:
    @pytest.mark.parametrize("k", [0.125, 1.0, 8.0, 64.0])
    def test_identical_partitions(self, scenario, k):
        """The cluster engine implements the same greedy discipline as
        the core KL; results must match bit for bit."""
        graph = scenario.graph
        init = rejection_init(graph)
        core = extended_kl(graph, k, Partition(graph, init))
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
        assert_precise(suspicious, scenario)
        assert rate == pytest.approx(core.acceptance_rate)
        assert best_k == core.k

    def test_distributed_maar_honours_min_evidence(self):
        """``min_evidence`` rules out the default winner (``k=1``: five
        nodes, five cross rejections); both sweeps must then pick the
        ``k=4`` cut with 1.5 rejections per node."""
        graph = AugmentedSocialGraph.from_edges(
            9,
            [(0, 1), (0, 2), (1, 4), (1, 5), (3, 6), (4, 7), (4, 8), (5, 6), (5, 8)],
            [(0, 2), (2, 4), (3, 6), (5, 2), (6, 1), (6, 2), (7, 4), (8, 3),
             (8, 5), (8, 6)],
        )
        default = solve_maar(graph)
        assert (default.k, default.suspicious_nodes()) == (1.0, [1, 3, 4, 5, 6])
        assert distributed_maar(graph)[0] == default.suspicious_nodes()
        config = MAARConfig(min_evidence=1.5)
        core = solve_maar(graph, config)
        suspicious, rate, best_k = distributed_maar(graph, maar_config=config)
        assert (core.k, core.suspicious_nodes()) == (4.0, [1, 2, 3, 4])
        assert suspicious == core.suspicious_nodes()
        assert best_k == core.k
        assert rate == core.acceptance_rate == 0.5

    @pytest.mark.parametrize("init", ["all_legitimate", "random"])
    def test_distributed_maar_honours_init(self, init):
        """Regression: the cluster sweep always started from the
        rejection rule, whatever ``MAARConfig.init`` said (seed 1 with
        ``all_legitimate``: 62 nodes at rate 0.3236 against the core's
        1 node at 0.2692)."""
        graph = build_scenario(
            ScenarioConfig(num_legit=300, num_fakes=60, seed=1)
        ).graph
        config = MAARConfig(k_steps=6, init=init)
        core = solve_maar(graph, config)
        suspicious, rate, best_k = distributed_maar(graph, maar_config=config)
        assert suspicious == core.suspicious_nodes()
        assert rate == core.acceptance_rate
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
        result = small.run(1.0, init)
        assert result == large.run(1.0, init)
        assert_precise(suspicious_side(result[0]), scenario)


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
    each fetch batch. These values were captured from the batch-bounded
    candidate walk over the two-tier buffer; any change to which nodes a
    fetch batch requests, or in what order, moves the fetch bytes and
    counters. The tight buffer evicts, so the batch contents matter more
    there.

    The case ids are the rows' original names, from when a heap-index
    row followed each bucket row; they stay stable so test history lines
    up across the removal of the heap rows."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "buffer, expected",
        [
            ((4096, 64), (369424, 435, 41, 1920, 2839)),
            ((96, 16), (611208, 1852, 390, 2878, 2490)),
        ],
        ids=["bucket-buffer0-expected0", "bucket-buffer2-expected2"],
    )
    def test_ledger_matches_pinned_values(self, scenario, backend, buffer, expected):
        capacity, batch = buffer
        fetch_bytes, fetch_messages, batches, records, hits = expected
        stats = ClusterRunStats()
        suspicious, _, _ = distributed_maar(
            scenario.graph.csr(backend),
            ClusterConfig(buffer_capacity=capacity, prefetch_batch=batch),
            MAARConfig(k_steps=4),
            stats=stats,
        )
        # A real detection, so the pinned run exercises the whole sweep.
        assert len(suspicious) == 78
        assert set(suspicious) <= set(scenario.fakes)
        assert_precise(suspicious, scenario)
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

    @pytest.mark.parametrize("k", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_k_named(self, scenario, k):
        engine = DistributedKL(scenario.graph)
        with pytest.raises(ValueError, match="k must be a positive finite"):
            engine.run(k, rejection_init(scenario.graph))

    def test_off_grid_k_rejected(self, scenario):
        engine = DistributedKL(scenario.graph)
        with pytest.raises(ValueError, match="off the 1/8 bucket grid"):
            engine.run(0.3, rejection_init(scenario.graph))

    def test_sides_length_mismatch(self, scenario):
        engine = DistributedKL(scenario.graph)
        with pytest.raises(ValueError):
            engine.run(1.0, [0, 1])

    def test_side_values_checked(self, scenario):
        sides = rejection_init(scenario.graph)
        sides[3] = 2
        engine = DistributedKL(scenario.graph)
        with pytest.raises(ValueError, match="must hold 0 or 1, got 2"):
            engine.run(1.0, sides)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_locked_length_checked(self, scenario, delta):
        n = scenario.graph.num_nodes
        engine = DistributedKL(scenario.graph)
        with pytest.raises(ValueError, match="locked has length"):
            engine.run(
                1.0, rejection_init(scenario.graph), locked=[False] * (n + delta)
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_passes", 0),
            ("buffer_capacity", -1),
            ("prefetch_batch", 0),
            ("resolution", 0),
        ],
    )
    def test_config_rejects_bad_values_up_front(self, field, value):
        if field == "resolution":
            # No longer a field: the bucket grid is gains.RESOLUTION, so
            # any value is refused when the config is built.
            with pytest.raises(TypeError, match="resolution"):
                ClusterConfig(**{field: value})
            return
        with pytest.raises(ValueError, match=f"{field} must be >="):
            ClusterConfig(**{field: value})

    @pytest.mark.parametrize("resolution", [8.0, 2.5, True, False])
    def test_config_rejects_non_int_resolution(self, resolution):
        """A float or bool grid used to be refused by value; the field is
        gone, so every value is refused when the config is built."""
        with pytest.raises(TypeError, match="resolution"):
            ClusterConfig(resolution=resolution)

    def test_single_pass_keeps_true_counters(self, scenario):
        """The smallest pass budget still reports the run's real cut
        counters, never the ``(0, 0)`` of a run that made no pass."""
        graph = scenario.graph
        init = rejection_init(graph)
        core = extended_kl(
            graph, 1.0, Partition(graph, init), config=KLConfig(max_passes=1)
        )
        engine = DistributedKL(graph, ClusterConfig(max_passes=1))
        sides, f_cross, r_cross = engine.run(1.0, init)
        assert sides == core.sides
        assert (f_cross, r_cross) == (core.f_cross, core.r_cross)
        assert r_cross > 0


@given(augmented_graphs(max_nodes=18, max_edges=40), st.sampled_from([0.25, 1.0, 4.0]))
@settings(max_examples=25, deadline=None)
def test_engine_matches_core_on_random_graphs(graph, k):
    init = rejection_init(graph)
    core = extended_kl(graph, k, Partition(graph, init))
    engine = DistributedKL(graph, ClusterConfig(num_workers=3, num_partitions=5))
    sides, f_cross, r_cross = engine.run(k, init)
    assert sides == core.sides
    assert (f_cross, r_cross) == (core.f_cross, core.r_cross)
