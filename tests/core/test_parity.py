"""Parity of the CSR engine against independent references.

The CSR engine is the only KL/MAAR/Rejecto implementation in
``repro.core``; these tests pin it to references around it:

* **KL level** — the simulated cluster engine
  (:class:`repro.cluster.engine.DistributedKL`) runs kl's own bucket
  pass body on the master, so this comparison checks the cluster's
  *protocol*: gains and cut counters computed worker-side by the shard
  kernels against delta-synced side replicas, and adjacency records
  fetched through the prefetch buffer. On canonicalized graphs (edges
  inserted in sorted order) the two must produce *identical* partitions
  and cut counters, not merely equally good ones. The pass body's own
  oracle is the frozen hashes of ``tests/core/test_kl_frozen.py`` and
  ``tests/cluster/test_cluster_frozen.py``.
* **MAAR level** — unseeded sweeps are checked against
  :func:`repro.cluster.engine.distributed_maar` (same stop and validity
  rules, its own sweep loop), per ``k`` and for the winning cut,
  including small graphs whose best cuts tie on acceptance rate; seeded
  and Dinkelbach-refined sweeps against full per-``k`` grids pinned when
  a second, dict-adjacency engine still existed and agreed with this
  one. The grids are rebuilt from single-step sweeps, and the early-exit
  sweep must run exactly their prefix up to the stop step.
* **Rejecto level** — zero-copy residual views must equal rounds run on
  materialized ``graph.subgraph(remaining)`` copies.

Every comparison on a planted scenario also asserts that the detection
is non-empty and precise against the fakes, so two empty answers cannot
pass as parity.
"""

import pytest
from hypothesis import given, settings

from repro.attacks.scenario import ScenarioConfig, build_scenario
from repro.cluster.engine import DistributedKL, distributed_maar
from repro.core import AugmentedSocialGraph
from repro.core.csr import PartitionState
from repro.core.kl import KLConfig, KLStats, extended_kl, extended_kl_state
from repro.core.maar import MAARConfig, solve_maar
from repro.core.objectives import LEGITIMATE, SUSPICIOUS
from repro.core.rejecto import DetectedGroup, Rejecto, RejectoConfig, RejectoResult

from ..conftest import graphs_with_sides
from .maar_oracle import (
    exact_maar,
    full_grid,
    grid_winner,
    per_k_values,
    stop_index,
)
from .partition_oracle import Partition

FULL_REBUILD = KLConfig(incremental=False)
PRECISION_FLOOR = 0.9

try:
    import numpy  # noqa: F401

    HAS_NUMPY = True
except ImportError:  # pragma: no cover
    HAS_NUMPY = False


def canonical(graph):
    """Rebuild ``graph`` with sorted edge insertion.

    Sorted insertion makes every builder adjacency list ascending, i.e.
    identical to the CSR ordering, so engines that walk the builder and
    engines that walk the CSR arrays visit neighbours in the same order
    and tie-breaks resolve identically.
    """
    return AugmentedSocialGraph.from_edges(
        graph.num_nodes,
        friendships=sorted(graph.friendships()),
        rejections=sorted(graph.rejections()),
    )


def scenario_graph(**overrides):
    config = ScenarioConfig(num_legit=300, num_fakes=60).with_overrides(**overrides)
    return build_scenario(config)


SCENARIOS = {
    "baseline": {},
    "collusion": {"collusion_extra_links": 4},
    "self_rejection": {"self_rejection_rate": 0.7, "whitewashed_fraction": 0.5},
}


def assert_precise(detected, scenario):
    """A parity comparison is meaningful only on a real detection: it
    must be non-empty and mostly planted fakes."""
    detected = set(detected)
    assert detected, "empty detection"
    precision = len(detected & set(scenario.fakes)) / len(detected)
    assert precision >= PRECISION_FLOOR, precision


def assert_maar_results_equal(reference, new):
    assert reference.found == new.found
    assert reference.k == new.k
    assert reference.acceptance_rate == pytest.approx(new.acceptance_rate)
    if reference.found:
        assert reference.suspicious_nodes() == new.suspicious_nodes()
        assert reference.partition.f_cross == new.partition.f_cross
        assert reference.partition.r_cross == new.partition.r_cross
    assert len(reference.per_k) == len(new.per_k)
    for old_c, new_c in zip(reference.per_k, new.per_k):
        assert old_c.k == new_c.k
        assert old_c.valid == new_c.valid
        assert old_c.f_cross == new_c.f_cross
        assert old_c.r_cross == new_c.r_cross
        assert old_c.suspicious_size == new_c.suspicious_size
        assert old_c.acceptance_rate == pytest.approx(new_c.acceptance_rate)


def cluster_kl(graph, k, sides, locked=None):
    """``(sides, f_cross, r_cross)`` of the cluster engine's KL run."""
    return DistributedKL(graph).run(k, list(sides), locked=locked)


class TestExtendedKLParity:
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_bucket_grid_k_values(self, graph_and_sides):
        graph, sides = graph_and_sides
        graph = canonical(graph)
        for k in (0.125, 1.0, 4.0):
            new = extended_kl(graph, k, Partition(graph, list(sides)))
            assert (new.sides, new.f_cross, new.r_cross) == tuple(
                cluster_kl(graph, k, sides)
            )

    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_locked_nodes_respected_identically(self, graph_and_sides):
        graph, sides = graph_and_sides
        graph = canonical(graph)
        locked = [u % 3 == 0 for u in range(graph.num_nodes)]
        new = extended_kl(graph, 1.0, Partition(graph, list(sides)), locked=locked)
        assert (new.sides, new.f_cross, new.r_cross) == tuple(
            cluster_kl(graph, 1.0, sides, locked=locked)
        )
        for u in range(graph.num_nodes):
            if locked[u]:
                assert new.sides[u] == sides[u]


def assert_matches_cluster_sweep(graph, result):
    """Check an unseeded default :func:`solve_maar` result against the
    cluster engine: the same cut at every grid ``k`` and the same winner
    under :func:`distributed_maar`'s own validity rules and tie-break."""
    engine = DistributedKL(graph)
    init = [
        SUSPICIOUS if graph.rej_in[u] else LEGITIMATE
        for u in range(graph.num_nodes)
    ]
    for candidate in result.per_k:
        sides, f_cross, r_cross = engine.run(candidate.k, init)
        assert (f_cross, r_cross, sum(sides)) == (
            candidate.f_cross,
            candidate.r_cross,
            candidate.suspicious_size,
        )
    suspicious, rate, best_k = distributed_maar(graph)
    assert result.suspicious_nodes() == suspicious
    assert result.k == best_k
    assert result.acceptance_rate == pytest.approx(rate)


#: Full-grid per-``k`` ``(k, f_cross, r_cross, suspicious_size, valid)``
#: of the seeded (``sample_seeds(20, 5, seed=11)``) and ``refine_rounds=2``
#: sweeps on the canonical baseline scenario, captured when the
#: dict-adjacency and CSR engines still agreed on both (the last
#: ``REFINED_PER_K`` entry is the refinement round).
SEEDED_PER_K = [
    (0.125, 96, 73, 5, True),
    (0.25, 96, 73, 5, True),
    (0.5, 407, 821, 62, True),
    (1.0, 412, 830, 62, True),
    (2.0, 420, 835, 64, True),
    (4.0, 584, 884, 91, True),
    (8.0, 824, 939, 105, True),
    (16.0, 842, 941, 109, True),
    (32.0, 842, 941, 109, True),
    (64.0, 842, 941, 109, True),
]
REFINED_PER_K = [
    (0.125, 0, 0, 360, False),
    (0.25, 0, 0, 360, False),
    (0.5, 407, 822, 63, True),
    (1.0, 412, 831, 63, True),
    (2.0, 416, 834, 63, True),
    (4.0, 765, 934, 111, True),
    (8.0, 847, 950, 116, True),
    (16.0, 855, 951, 117, True),
    (32.0, 855, 951, 117, True),
    (64.0, 855, 951, 117, True),
    (407 / 822, 407, 822, 63, True),
]


#: ``(num_nodes, friendships, rejections)`` of small graphs whose MAAR
#: sweep ends on an acceptance-rate tie between cuts with different
#: ``r_cross`` (found by a random search; the scenario sweeps never
#: tie).
TIED_SWEEPS = [
    (
        13,
        [(6, 7)],
        [(0, 3), (0, 6), (0, 8), (1, 3), (2, 7), (2, 9), (4, 10), (5, 6),
         (6, 4), (7, 2), (7, 5), (7, 9), (10, 4), (10, 5), (11, 5), (12, 2),
         (12, 3)],
    ),
    (
        10,
        [(0, 2), (0, 6), (0, 8), (1, 4)],
        [(2, 9), (3, 7), (6, 3), (6, 9), (7, 4), (7, 9), (8, 5), (8, 9)],
    ),
    (
        10,
        [(1, 7), (2, 5), (2, 7), (3, 4), (3, 7), (7, 9)],
        [(0, 4), (0, 5), (1, 5), (2, 7), (5, 4), (9, 7)],
    ),
]

#: A 10-node graph whose full grid ties at 0.5 between ``k=1``
#: (``r_cross=1``) and ``k=4`` (``r_cross=2``), with 0.6 at ``k=2`` in
#: between. The early exit stops at ``k=2`` and keeps ``k=1``; the exact
#: optimum is a zero-acceptance cut neither finds.
EARLY_EXIT_TIE = (
    10,
    [(1, 3), (3, 4), (3, 7), (4, 8), (5, 6), (7, 8), (7, 9)],
    [(2, 8), (4, 1)],
)


class TestMAARParity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_sweep_identical(self, name):
        scenario = scenario_graph(**SCENARIOS[name])
        graph = canonical(scenario.graph)
        new = solve_maar(graph, MAARConfig())
        assert_precise(new.suspicious_nodes(), scenario)
        assert_matches_cluster_sweep(graph, new)

    @pytest.mark.parametrize("edges", TIED_SWEEPS)
    def test_acceptance_ties_prefer_more_rejections(self, edges):
        """Small graphs whose sweep yields two valid cuts at the same
        acceptance rate but different ``r_cross``: the winner must be the
        one explaining more rejections, as the cluster sweep picks it."""
        num_nodes, friendships, rejections = edges
        graph = AugmentedSocialGraph.from_edges(num_nodes, friendships, rejections)
        new = solve_maar(graph, MAARConfig())
        best = new.acceptance_rate
        tied = {c.r_cross for c in new.per_k if c.valid and c.acceptance_rate == best}
        assert len(tied) > 1
        assert new.partition.r_cross == max(tied)
        assert_matches_cluster_sweep(graph, new)

    def test_early_exit_keeps_the_first_tie(self):
        """The full grid reaches the ``r_cross=2`` tie only after a worse
        step; the early exit stops at that step with the ``r_cross=1``
        cut. Both are 0.5 above the exact optimum."""
        num_nodes, friendships, rejections = EARLY_EXIT_TIE
        graph = AugmentedSocialGraph.from_edges(num_nodes, friendships, rejections)
        grid = full_grid(graph)
        full = grid_winner(grid)
        assert (full.k, full.acceptance_rate, full.r_cross) == (4.0, 0.5, 2)
        new = solve_maar(graph, MAARConfig())
        assert [c.k for c in new.per_k] == [0.125, 0.25, 0.5, 1.0, 2.0]
        assert per_k_values(new.per_k) == per_k_values(grid[: stop_index(grid) + 1])
        assert new.per_k[-1].acceptance_rate == pytest.approx(0.6)
        assert (new.k, new.acceptance_rate, new.partition.r_cross) == (1.0, 0.5, 1)
        assert new.suspicious_nodes() == [1]
        exact = exact_maar(graph)
        assert exact.acceptance_rate == 0.0
        assert new.acceptance_rate - exact.acceptance_rate == 0.5
        assert_matches_cluster_sweep(graph, new)

    def test_seeded_sweep_identical(self):
        scenario = scenario_graph()
        graph = canonical(scenario.graph)
        legit_seeds, spammer_seeds = scenario.sample_seeds(20, 5, seed=11)
        grid = full_grid(graph, MAARConfig(), legit_seeds, spammer_seeds)
        assert per_k_values(grid) == SEEDED_PER_K
        new = solve_maar(
            graph,
            MAARConfig(),
            legit_seeds=legit_seeds,
            spammer_seeds=spammer_seeds,
        )
        # Stops at k=1, the first step above k=0.5's rate.
        assert stop_index(grid) == 3
        assert per_k_values(new.per_k) == SEEDED_PER_K[:4]
        assert new.k == 0.5
        assert new.acceptance_rate == pytest.approx(407 / (407 + 821))
        assert_precise(new.suspicious_nodes(), scenario)
        suspicious = set(new.suspicious_nodes())
        assert suspicious.issuperset(spammer_seeds)
        assert suspicious.isdisjoint(legit_seeds)

    def test_refinement_rounds_identical(self):
        scenario = scenario_graph()
        graph = canonical(scenario.graph)
        grid = full_grid(graph, MAARConfig())
        assert per_k_values(grid) == REFINED_PER_K[:-1]
        new = solve_maar(graph, MAARConfig(refine_rounds=2))
        # Stops at k=1, the first step above k=0.5's rate; the refinement
        # round follows the steps run.
        assert stop_index(grid) == 3
        assert per_k_values(new.per_k) == REFINED_PER_K[:4] + REFINED_PER_K[-1:]
        assert new.k == 0.5
        assert new.acceptance_rate == pytest.approx(407 / (407 + 822))
        assert_precise(new.suspicious_nodes(), scenario)


@pytest.mark.usefixtures("two_cpus")
class TestParallelSweepParity:
    """Serial vs ``jobs=2`` process-pool ``k`` sweeps must be
    bit-identical: same best cut, same per-``k`` candidates, same
    aggregate KL stats, same Rejecto groups (the reduction replays the
    serial tie-breaks on ordered worker results)."""

    JOBS = [pytest.param(2, id="process")]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("jobs", JOBS)
    def test_maar_sweep_identical(self, name, jobs):
        scenario = scenario_graph(**SCENARIOS[name])
        graph = canonical(scenario.graph)
        serial = solve_maar(graph, MAARConfig())
        parallel = solve_maar(graph, MAARConfig(jobs=jobs))
        assert_maar_results_equal(serial, parallel)
        assert_precise(serial.suspicious_nodes(), scenario)
        assert parallel.suspicious_nodes() == serial.suspicious_nodes()
        assert parallel.stats.passes == serial.stats.passes
        assert parallel.stats.switches_applied == serial.stats.switches_applied
        assert parallel.stats.switches_tested == serial.stats.switches_tested
        assert parallel.stats.objective_history == serial.stats.objective_history

    @pytest.mark.parametrize("jobs", JOBS)
    def test_full_grid_sweep_identical(self, jobs):
        """A grid that ends before the stop rule fires: the sweep runs
        every step and the last one wins, on the pool as in-process."""
        scenario = scenario_graph()
        graph = canonical(scenario.graph)
        config = MAARConfig(k_steps=3)
        serial = solve_maar(graph, config)
        assert [c.k for c in serial.per_k] == config.k_values()
        assert serial.k == config.k_values()[-1]
        parallel = solve_maar(graph, MAARConfig(k_steps=3, jobs=jobs))
        assert_maar_results_equal(serial, parallel)
        assert_stats_equal(serial.stats, parallel.stats)
        assert_precise(serial.suspicious_nodes(), scenario)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_seeded_sweep_identical(self, jobs):
        scenario = scenario_graph()
        graph = canonical(scenario.graph)
        legit_seeds, spammer_seeds = scenario.sample_seeds(20, 5, seed=11)
        serial = solve_maar(
            graph,
            MAARConfig(),
            legit_seeds=legit_seeds,
            spammer_seeds=spammer_seeds,
        )
        parallel = solve_maar(
            graph,
            MAARConfig(jobs=jobs),
            legit_seeds=legit_seeds,
            spammer_seeds=spammer_seeds,
        )
        assert_maar_results_equal(serial, parallel)
        assert_precise(serial.suspicious_nodes(), scenario)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("jobs", JOBS)
    def test_rejecto_groups_identical(self, name, jobs):
        scenario = scenario_graph(**SCENARIOS[name])
        graph = canonical(scenario.graph)
        serial = Rejecto().detect(graph)
        parallel = Rejecto(
            RejectoConfig(maar=MAARConfig(jobs=jobs))
        ).detect(graph)
        assert parallel.termination == serial.termination
        assert parallel.rounds_run == serial.rounds_run
        for old_g, new_g in zip(serial.groups, parallel.groups):
            assert new_g.members == old_g.members
            assert new_g.f_cross == old_g.f_cross
            assert new_g.r_cross == old_g.r_cross
            assert new_g.k == old_g.k
            assert new_g.acceptance_rate == pytest.approx(old_g.acceptance_rate)
        assert parallel.detected() == serial.detected()
        assert_precise(serial.detected(limit=len(scenario.fakes)), scenario)

    def test_warm_start_falls_back_to_serial_semantics(self):
        """``warm_start`` couples the k steps; ``jobs`` must not change
        the result (the sweep ignores the fan-out and stays serial)."""
        scenario = scenario_graph()
        graph = canonical(scenario.graph)
        serial = solve_maar(graph, MAARConfig(warm_start=True))
        parallel = solve_maar(graph, MAARConfig(warm_start=True, jobs=2))
        assert_maar_results_equal(serial, parallel)
        assert_precise(serial.suspicious_nodes(), scenario)

    def test_refinement_after_parallel_sweep_identical(self):
        scenario = scenario_graph()
        graph = canonical(scenario.graph)
        serial = solve_maar(graph, MAARConfig(refine_rounds=2))
        parallel = solve_maar(graph, MAARConfig(refine_rounds=2, jobs=2))
        assert_maar_results_equal(serial, parallel)
        assert_precise(serial.suspicious_nodes(), scenario)


def assert_stats_equal(reference: KLStats, other: KLStats) -> None:
    assert other.passes == reference.passes
    assert other.switches_applied == reference.switches_applied
    assert other.switches_tested == reference.switches_tested
    assert other.objective_history == reference.objective_history


class TestIncrementalParity:
    """Dirty-frontier incremental passes vs the full-rebuild reference.

    ``KLConfig(incremental=False)`` re-sweeps all V+E gains every pass;
    the default rebuilds only the previous pass's applied prefix and its
    neighbourhood. The two must be bit-identical — same sides, counters,
    and complete ``KLStats`` including ``objective_history`` (which
    records the start-of-pass objective, so any drift in pass structure
    shows up immediately).
    """

    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_bucket_passes_identical(self, graph_and_sides):
        graph, sides = graph_and_sides
        graph = canonical(graph)
        locked = [u % 3 == 0 for u in range(graph.num_nodes)]
        for k in (0.125, 1.0, 4.0):
            initial = Partition(graph, list(sides))
            full_stats, inc_stats = KLStats(), KLStats()
            full = extended_kl(
                graph, k, initial, locked=locked,
                config=FULL_REBUILD, stats=full_stats,
            )
            inc = extended_kl(graph, k, initial, locked=locked, stats=inc_stats)
            assert inc.sides == full.sides
            assert (inc.f_cross, inc.r_cross) == (full.f_cross, full.r_cross)
            assert_stats_equal(full_stats, inc_stats)

    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_heap_passes_identical(self, graph_and_sides):
        graph, sides = graph_and_sides
        graph = canonical(graph)
        initial = Partition(graph, list(sides))
        full_stats, inc_stats = KLStats(), KLStats()
        full = extended_kl(
            graph, 0.3, initial, config=FULL_REBUILD, stats=full_stats
        )
        inc = extended_kl(graph, 0.3, initial, stats=inc_stats)
        assert inc.sides == full.sides
        assert (inc.f_cross, inc.r_cross) == (full.f_cross, full.r_cross)
        assert_stats_equal(full_stats, inc_stats)

    @given(graphs_with_sides())
    @settings(max_examples=25, deadline=None)
    def test_residual_view_passes_identical(self, graph_and_sides):
        graph, sides = graph_and_sides
        graph = canonical(graph)
        removed = [u for u in range(graph.num_nodes) if u % 5 == 4]
        locked = [u % 4 == 0 for u in range(graph.num_nodes)]
        view = graph.csr().view().without(removed)
        for k, config_inc in ((1.0, KLConfig()), (0.3, KLConfig())):
            full_stats, inc_stats = KLStats(), KLStats()
            full = extended_kl_state(
                PartitionState(view, list(sides), locked),
                k, config=FULL_REBUILD, stats=full_stats,
            )
            inc = extended_kl_state(
                PartitionState(view, list(sides), locked),
                k, config=config_inc, stats=inc_stats,
            )
            assert inc.sides == full.sides
            assert (inc.f_cross, inc.r_cross) == (full.f_cross, full.r_cross)
            assert inc.side_sizes == full.side_sizes
            assert_stats_equal(full_stats, inc_stats)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_maar_sweep_identical(self, name):
        scenario = scenario_graph(**SCENARIOS[name])
        graph = canonical(scenario.graph)
        full = solve_maar(graph, MAARConfig(kl=FULL_REBUILD))
        inc = solve_maar(graph, MAARConfig())
        assert_maar_results_equal(full, inc)
        assert_stats_equal(full.stats, inc.stats)
        assert_precise(full.suspicious_nodes(), scenario)

    def test_rejecto_groups_identical(self):
        scenario = scenario_graph()
        graph = canonical(scenario.graph)
        full = Rejecto(RejectoConfig(maar=MAARConfig(kl=FULL_REBUILD))).detect(graph)
        inc = Rejecto().detect(graph)
        assert inc.termination == full.termination
        assert [g.members for g in inc.groups] == [g.members for g in full.groups]
        assert inc.detected() == full.detected()
        assert_precise(full.detected(limit=len(scenario.fakes)), scenario)


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
class TestBackendParity:
    """python vs numpy CSR backends must be bit-identical end to end:
    the batch kernels fill the same integer/float gain arrays the scalar
    fallback produces, so the engines cannot tell the backends apart."""

    @given(graphs_with_sides())
    @settings(max_examples=25, deadline=None)
    def test_extended_kl_state_identical(self, graph_and_sides):
        graph, sides = graph_and_sides
        graph = canonical(graph)
        removed = [u for u in range(graph.num_nodes) if u % 5 == 4]
        locked = [u % 4 == 0 for u in range(graph.num_nodes)]
        for k in (0.125, 1.0, 0.3):
            results = []
            for backend in ("python", "numpy"):
                view = graph.csr(backend).view().without(removed)
                stats = KLStats()
                out = extended_kl_state(
                    PartitionState(view, list(sides), locked), k, stats=stats
                )
                results.append((out, stats))
            (py_out, py_stats), (np_out, np_stats) = results
            assert np_out.sides == py_out.sides
            assert (np_out.f_cross, np_out.r_cross) == (
                py_out.f_cross,
                py_out.r_cross,
            )
            assert np_out.side_sizes == py_out.side_sizes
            assert_stats_equal(py_stats, np_stats)

    def test_rejecto_detection_identical(self, monkeypatch):
        scenario = scenario_graph()
        results = []
        for backend in ("python", "numpy"):
            # Pin every internal csr("auto") resolution to this backend.
            monkeypatch.setenv("REPRO_BACKEND", backend)
            graph = canonical(scenario.graph)
            results.append(Rejecto().detect(graph))
        py_res, np_res = results
        assert np_res.termination == py_res.termination
        assert [g.members for g in np_res.groups] == [
            g.members for g in py_res.groups
        ]
        assert np_res.detected() == py_res.detected()
        assert_precise(py_res.detected(limit=len(scenario.fakes)), scenario)


def materialized_rounds(graph, config, legit_seeds=(), spammer_seeds=()):
    """Rejecto's rounds run on materialized residual graphs.

    Each round copies ``graph.subgraph(remaining)``, solves it with
    :func:`solve_maar`, orders the cut by in-rejections inside the copy
    and maps it back to original ids — the reference the zero-copy
    residual views of :meth:`Rejecto.detect` must reproduce.
    """
    remaining = list(range(graph.num_nodes))
    groups = []
    detected_total = 0
    termination = "max_rounds"
    for round_index in range(config.max_rounds):
        if not remaining:
            termination = "exhausted"
            break
        residual, old_ids = graph.subgraph(remaining)
        position = {old: new for new, old in enumerate(old_ids)}
        result = solve_maar(
            residual,
            config.maar,
            legit_seeds=[position[u] for u in sorted(legit_seeds) if u in position],
            spammer_seeds=[
                position[u] for u in sorted(spammer_seeds) if u in position
            ],
        )
        if not result.found:
            termination = "no_cut"
            break
        if (
            config.acceptance_threshold is not None
            and result.acceptance_rate > config.acceptance_threshold
        ):
            termination = "acceptance_threshold"
            break
        local = result.partition.suspicious_nodes()
        local.sort(key=lambda u: len(residual.rej_in[u]), reverse=True)
        members = [old_ids[u] for u in local]
        groups.append(
            DetectedGroup(
                members=members,
                acceptance_rate=result.acceptance_rate,
                ratio=result.partition.ratio(),
                f_cross=result.partition.f_cross,
                r_cross=result.partition.r_cross,
                k=result.k,
                round_index=round_index,
            )
        )
        detected_total += len(members)
        cut = set(members)
        remaining = [u for u in remaining if u not in cut]
        if (
            config.estimated_spammers is not None
            and detected_total >= config.estimated_spammers
        ):
            termination = "estimated_spammers"
            break
    return RejectoResult(groups, len(groups), termination)


class TestRejectoParity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_detected_groups_identical(self, name):
        scenario = scenario_graph(**SCENARIOS[name])
        graph = canonical(scenario.graph)
        reference = materialized_rounds(graph, RejectoConfig())
        new = Rejecto().detect(graph)
        assert new.termination == reference.termination
        assert new.rounds_run == reference.rounds_run > 1
        for old_g, new_g in zip(reference.groups, new.groups):
            assert new_g.members == old_g.members
            assert new_g.f_cross == old_g.f_cross
            assert new_g.r_cross == old_g.r_cross
            assert new_g.k == old_g.k
            assert new_g.acceptance_rate == pytest.approx(old_g.acceptance_rate)
        assert new.detected() == reference.detected()
        assert_precise(new.detected(limit=len(scenario.fakes)), scenario)

    def test_seeded_detection_identical(self):
        scenario = scenario_graph()
        graph = canonical(scenario.graph)
        legit_seeds, spammer_seeds = scenario.sample_seeds(20, 5, seed=3)
        config = RejectoConfig(estimated_spammers=len(scenario.fakes))
        reference = materialized_rounds(graph, config, legit_seeds, spammer_seeds)
        new = Rejecto(config).detect(
            graph, legit_seeds=legit_seeds, spammer_seeds=spammer_seeds
        )
        assert new.termination == reference.termination
        assert [g.members for g in new.groups] == [
            g.members for g in reference.groups
        ]
        assert_precise(new.detected(limit=len(scenario.fakes)), scenario)
