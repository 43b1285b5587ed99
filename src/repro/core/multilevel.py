"""Multilevel MAAR solving (coarsen → partition → uncoarsen + refine).

An extension beyond the paper, borrowed from the graph-partitioning
literature the paper's heuristic comes from: Kernighan-Lin/FM is the
*refinement* step of multilevel partitioners (METIS-style). The solver:

1. **Coarsens** the rejection-augmented graph through successive levels:
   a heavy-edge matching on the friendship layer merges matched pairs
   into super-nodes, accumulating friendship and rejection weights
   (parallel edges sum; intra-pair edges vanish — exactly the
   contraction semantics that keep every coarse cut's weight equal to
   the projected fine cut's weight);
2. runs the geometric ``k`` sweep on the **coarsest** graph, where each
   KL pass touches only a few hundred super-nodes;
3. **uncoarsens** level by level, projecting the sides onto the finer
   graph and re-refining with weighted KL at the chosen ``k``.

Because every projection preserves the cut weights exactly and each
refinement only improves the objective, the final fine-level cut is
never worse than the coarse solution it started from. The win is speed
on large graphs — the expensive full-graph sweep happens only at the
coarsest level — at a small quality cost versus the flat solver
(measured in ``bench_ablation_multilevel.py``).

Engine
------
The solver is CSR-native end to end, which makes
``solve_maar_multilevel`` the recommended entry point for large graphs:

* every level is a flat-array graph — the unit-weight level 0 plus
  int64-weighted :class:`~repro.core.csr.WeightedCSRGraph` coarse
  levels (contraction only ever *sums* unit edges, so coarse weights
  are exact integers);
* matching and contraction run as batch kernels
  (:func:`repro.core.kernels.heavy_edge_matching` /
  :func:`~repro.core.kernels.contract_arrays` — numpy scatter-adds with
  bit-identical python fallbacks);
* refinement uses the fused integer bucket engine of
  :mod:`repro.core.kl` on every level (weighted sweep on coarse levels);
* the coarse-level ``k`` sweep fans out through
  :func:`repro.core.maar.sweep_k_states`, honouring
  ``MultilevelConfig(jobs, executor)`` exactly like the flat MAAR sweep.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .csr import CSRGraph, PartitionState, WeightedCSRGraph
from .graph import AugmentedSocialGraph
from .kernels import (
    cut_regions,
    heavy_edge_matching,
    matching_to_mapping,
    movable_frontier,
)
from .kl import KLConfig, KLStats, extended_kl_state, refine_subset
from .maar import check_seeds, geometric_k_sequence, sweep_k_states
from .parallel import chunk_evenly, parallel_map
from .objectives import LEGITIMATE, SUSPICIOUS, acceptance_rate

logger = logging.getLogger(__name__)

__all__ = [
    "MultilevelConfig",
    "MultilevelResult",
    "solve_maar_multilevel",
]


@dataclass(frozen=True)
class MultilevelConfig:
    """Coarsening and sweep parameters.

    Coarsening stops when the graph has at most ``coarsest_nodes`` nodes
    or a level shrinks by less than ``min_shrink`` (matching has stalled,
    e.g. on a star). The ``k`` grid mirrors :class:`MAARConfig`.

    ``backend`` is the CSR array backend (``"python"``/``"numpy"``/
    ``"auto"``). ``matching_rounds`` bounds the mutual heavy-edge
    matching rounds per level. ``jobs``/``executor`` fan the coarse-level
    ``k`` sweep out through :mod:`repro.core.parallel`.

    Refinement:

    ``frontier``
        ``"boundary"`` (default) refines each uncoarsened level only
        around the movable frontier: the nodes whose switch is
        profitable right now plus their one-hop neighbours (see
        :func:`~repro.core.kernels.movable_frontier`). The frontier
        splits into connected *regions*
        (:func:`~repro.core.kernels.cut_regions`: components under all
        three edge layers, so no edge crosses two regions), each region
        refines independently
        through :func:`~repro.core.kl.refine_subset` — KL's shared pass
        skeleton with the region as its candidate list: the integer
        bucket pass at the sweep's grid ``k``, the float heap pass at
        the Dinkelbach polish's off-grid ratio — and rounds repeat
        until a round moves nothing. ``"full"`` restores the
        classic whole-graph refinement pass at every level. The value
        is also threaded into the refinement
        :class:`~repro.core.kl.KLConfig`, so any full-state engine run
        the boundary path falls back to scopes its passes with
        :func:`repro.core.kernels.boundary_nodes` too.
    ``refine_jobs``
        Worker count for the region fan-out (``frontier="boundary"``
        only). Regions are mutually non-adjacent, so their moves and
        counter deltas compose exactly whatever the execution order:
        ``refine_jobs=N`` is bit-identical to ``refine_jobs=1``.
    ``refine_tolerance``
        Early-exit knob: when positive, a level's refinement is skipped
        while the *previous* level's refinement improved the objective
        by at most ``refine_tolerance · max(1, |objective|)`` (the
        projected cut is already that converged; projections preserve
        cut weights exactly, so nothing is lost in between). The finest
        level always refines. ``0.0`` (default) disables early exit.
    ``refine_stall``
        Stall limit for the region passes
        (:attr:`~repro.core.kl.KLConfig.stall_limit` scoped to
        ``frontier="boundary"`` region refinement): a region pass stops
        tentatively switching after this many consecutive non-improving
        pops instead of exhausting the region. Uncoarsened cuts are
        near-converged, so the best prefix sits close to the front of
        the gain order and the exhaustive FM tail is almost always
        rollback work. ``None`` restores full passes. Identical on
        every ``refine_jobs``/backend, so determinism is unaffected;
        an explicit ``stall_limit`` on the engine config is respected.
        Must be a positive int or ``None``.
    """

    coarsest_nodes: int = 400
    max_levels: int = 24
    min_shrink: float = 0.05
    k_min: float = 0.125
    k_factor: float = 2.0
    k_steps: int = 10
    max_passes: int = 30
    refine_passes: int = 8
    min_suspicious: int = 1
    max_suspicious_fraction: float = 0.6
    seed: int = 0
    backend: str = "auto"
    matching_rounds: int = 8
    jobs: int = 1
    executor: str = "auto"
    frontier: str = "boundary"
    refine_tolerance: float = 0.0
    refine_jobs: int = 1
    refine_stall: Optional[int] = 256


@dataclass
class MultilevelResult:
    """Final fine-level cut plus per-level diagnostics.

    ``timings`` breaks the wall clock down into
    ``"coarsen"`` (seconds per built level), ``"coarse_sweep"`` (the
    coarsest-level ``k`` sweep), ``"refine"`` (seconds per uncoarsening
    level, finest last — the last entry includes the Dinkelbach polish)
    and ``"total_seconds"``. ``"refine_detail"`` carries one dict per
    uncoarsening level (same order as ``"refine"``) with the level
    index, the refinement ``scope`` (``"boundary"``/``"dense"``/
    ``"full"``/``"skipped"``), the first-round frontier size
    (``boundary``), the peak region count, and the round/move/tested
    tallies; ``"early_exits"`` counts the levels skipped by
    ``refine_tolerance``.
    """

    suspicious: List[int]
    acceptance_rate: float
    k: Optional[float]
    level_sizes: List[int] = field(default_factory=list)
    timings: Dict[str, object] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return bool(self.suspicious)

    @property
    def levels(self) -> int:
        return len(self.level_sizes)


def _sides_valid(
    sides: Sequence[int], total_nodes: int, config: MultilevelConfig
) -> bool:
    """The final gate's size check, applied to a polish candidate.

    Dinkelbach polish re-refines at the cut's own ratio, and a lower
    ratio can "improve" the acceptance rate by inflating the suspicious
    side far past ``max_suspicious_fraction`` — on dilute scenarios all
    the way to a near-half-graph blob. The final validity gate would
    then discard the whole result, so a candidate that fails the size
    check must never replace a valid cut.
    """
    size = sum(1 for s in sides if s == SUSPICIOUS)
    return (
        config.min_suspicious <= size <= config.max_suspicious_fraction * total_nodes
        and size < total_nodes
    )


def _project_coarse_labels(
    mapping: Sequence[int],
    num_coarse: int,
    fine_locked: Sequence[bool],
    fine_sides: Sequence[int],
) -> Tuple[List[bool], List[int]]:
    """Push locks and sides down one level: a super-node is locked iff a
    member is (locked fine nodes coarsen as singletons, so a locked
    super-node has exactly one member and inherits its pinned side), and
    an unlocked super-node is suspicious iff any member is."""
    coarse_locked = [False] * num_coarse
    coarse_sides = [LEGITIMATE] * num_coarse
    for u, cu in enumerate(mapping):
        if fine_locked[u]:
            coarse_locked[cu] = True
            coarse_sides[cu] = fine_sides[u]
    for u, cu in enumerate(mapping):
        if not coarse_locked[cu] and fine_sides[u] == SUSPICIOUS:
            coarse_sides[cu] = SUSPICIOUS
    return coarse_locked, coarse_sides


#: Frontier fraction beyond which the scoped region machinery would just
#: re-derive the whole-graph pass with extra bookkeeping — fall back to
#: one classic full refinement run instead. Only a saturated frontier
#: (essentially every node movable, where a scoped pass *is* the full
#: pass minus the engine's batch kernels) should trip this: even a
#: 9/10-covering frontier wins, because a scoped round costs one
#: stall-limited pass over the current frontier — which shrinks round
#: by round as the cut converges — while a full engine run keeps
#: sweeping every node for every one of its internal passes.
_DENSE_FRONTIER = 0.98


def _project_sides(sides, mapping, num_fine: int, backend: str) -> List[int]:
    """Project coarse ``sides`` one level down: ``sides[mapping[u]]``.

    On the numpy backend this is a single ``np.take`` gather instead of a
    Python loop over every fine node; the python fallback is the
    list comprehension it replaces (identical output).
    """
    if backend == "numpy":
        import numpy as np

        return np.take(
            np.asarray(sides, dtype=np.int8), np.asarray(mapping)
        ).tolist()
    return [sides[mapping[u]] for u in range(num_fine)]


def _refine_chunk_worker(chunk, shared):
    """Refine one chunk of regions against a private copy of the sides.

    The worker never writes the shared side vector (serial and thread
    backends hand it over by reference): each chunk refines a local
    copy and reports per-region ``(moved, Δf, Δr, tested, applied)``
    for the parent to merge in input order. Regions are pairwise
    non-adjacent, so applying earlier regions' moves to the local copy
    cannot influence later regions in the same chunk.
    """
    view, sides, locked, k, kl_config = shared
    local = list(sides)
    return [
        refine_subset(view, local, locked, region, k, kl_config)
        for region in chunk
    ]


def _skip_entry(level: int) -> Dict[str, object]:
    """The ``refine_detail`` record for a level skipped by early exit."""
    return {
        "level": level,
        "scope": "skipped",
        "boundary": 0,
        "regions": 0,
        "rounds": 0,
        "moves": 0,
        "tested": 0,
        "skipped": True,
    }


def _early_exit(
    config: MultilevelConfig, prev_improve, objective: float
) -> bool:
    """Whether to skip this level's refinement.

    True while the most recent level that actually refined improved the
    objective by at most ``refine_tolerance · max(1, |objective|)`` —
    the projected cut is already that converged (projection preserves
    the cut weights exactly), so intermediate levels are skipped until
    the always-refined finest level. ``prev_improve is None`` (nothing
    refined yet) and ``refine_tolerance <= 0`` never skip.
    """
    if config.refine_tolerance <= 0 or prev_improve is None:
        return False
    return prev_improve <= config.refine_tolerance * max(1.0, abs(objective))


def _refine_level_boundary(
    graph,
    sides: List[int],
    locked: Sequence[bool],
    k: float,
    config: MultilevelConfig,
    kl_config: KLConfig,
    f_cross,
    r_cross,
):
    """Boundary-only refinement of one level, in place.

    Rounds of: movable frontier → connected regions → region fan-out
    through :func:`repro.core.parallel.parallel_map` → ordered merge of
    the per-region moves and exact counter deltas. A round that moves
    nothing (or an empty frontier) ends the level; a frontier covering
    more than ``_DENSE_FRONTIER`` of the graph falls back to one
    classic full-state refinement run. Mutates ``sides`` and returns
    ``(f_cross, r_cross, detail)`` with the updated exact counters.
    """
    view = graph.view()
    # One stall-limited pass per region call: a pass rebuilds gains for
    # the whole region, so iteration belongs to the rounds loop below,
    # which re-derives a *shrinking* frontier instead of re-sweeping the
    # round-one region again and again.
    region_config = replace(kl_config, max_passes=1)
    if region_config.stall_limit is None and config.refine_stall is not None:
        region_config = replace(region_config, stall_limit=config.refine_stall)
    detail: Dict[str, object] = {
        "scope": "boundary",
        "boundary": 0,
        "regions": 0,
        "rounds": 0,
        "moves": 0,
        "tested": 0,
        "skipped": False,
    }
    for round_idx in range(max(1, config.refine_passes)):
        bnodes = [u for u in movable_frontier(view, sides, k) if not locked[u]]
        if round_idx == 0:
            detail["boundary"] = len(bnodes)
        if not bnodes:
            break
        if len(bnodes) > _DENSE_FRONTIER * graph.num_nodes:
            state = extended_kl_state(
                PartitionState.from_counts(view, sides, locked, f_cross, r_cross),
                k,
                kl_config,
            )
            detail["scope"] = "dense"
            detail["rounds"] = round_idx + 1
            detail["moves"] = detail["moves"] + sum(
                1
                for u in range(graph.num_nodes)
                if state.sides[u] != sides[u]
            )
            sides[:] = state.sides
            return state.f_cross, state.r_cross, detail
        regions = cut_regions(graph, bnodes)
        detail["regions"] = max(detail["regions"], len(regions))
        chunks = chunk_evenly(regions, max(1, config.refine_jobs))
        results = parallel_map(
            _refine_chunk_worker,
            chunks,
            shared=(view, sides, locked, k, region_config),
            jobs=config.refine_jobs,
            executor=config.executor,
        )
        detail["rounds"] = round_idx + 1
        round_moves = 0
        for chunk_result in results:
            for moved, delta_f, delta_r, tested, _applied in chunk_result:
                for u in moved:
                    sides[u] = 1 - sides[u]
                f_cross += delta_f
                r_cross += delta_r
                detail["tested"] = detail["tested"] + tested
                round_moves += len(moved)
        detail["moves"] = detail["moves"] + round_moves
        if round_moves == 0:
            break
    return f_cross, r_cross, detail


def solve_maar_multilevel(
    graph,
    config: Optional[MultilevelConfig] = None,
    legit_seeds: Sequence[int] = (),
    spammer_seeds: Sequence[int] = (),
) -> MultilevelResult:
    """Approximate the MAAR cut via the multilevel scheme.

    Interface mirrors :func:`repro.core.maar.solve_maar`: returns the
    suspicious node set of the best valid cut (empty when none exists).
    ``graph`` may be an :class:`AugmentedSocialGraph` builder or an
    already-finalized unweighted :class:`~repro.core.csr.CSRGraph`.
    """
    t_start = time.perf_counter()
    config = config or MultilevelConfig()
    if config.frontier not in ("full", "boundary"):
        raise ValueError(
            f"unknown frontier {config.frontier!r}; expected 'full' or "
            "'boundary'"
        )
    if config.refine_stall is not None and config.refine_stall < 1:
        raise ValueError(
            "refine_stall must be a positive int or None, got "
            f"{config.refine_stall}"
        )
    rng = random.Random(config.seed)
    if isinstance(graph, AugmentedSocialGraph):
        csr0 = graph.csr(config.backend)
    elif isinstance(graph, CSRGraph):
        if graph.weighted:
            raise ValueError(
                "solve_maar_multilevel expects the unweighted fine graph "
                "(coarse weights are derived internally)"
            )
        csr0 = graph
    else:
        raise ValueError(
            f"unsupported graph type {type(graph).__name__}; expected "
            "AugmentedSocialGraph or CSRGraph"
        )
    total_nodes = csr0.num_nodes
    if total_nodes == 0:
        return MultilevelResult([], 1.0, None)
    check_seeds(total_nodes, legit_seeds, spammer_seeds)

    locked = [False] * total_nodes
    ri_ptr = csr0.hot()[4]
    init_sides = [
        SUSPICIOUS if ri_ptr[u + 1] > ri_ptr[u] else LEGITIMATE
        for u in range(total_nodes)
    ]
    for u in legit_seeds:
        locked[u] = True
        init_sides[u] = LEGITIMATE
    for u in spammer_seeds:
        locked[u] = True
        init_sides[u] = SUSPICIOUS

    # --- Coarsening phase -------------------------------------------------
    levels: List[CSRGraph] = [csr0]
    mappings: List[List[int]] = []
    locked_levels: List[List[bool]] = [locked]
    sides_levels: List[List[int]] = [init_sides]
    coarsen_times: List[float] = []
    for _ in range(config.max_levels):
        current = levels[-1]
        if current.num_nodes <= config.coarsest_nodes:
            break
        t_level = time.perf_counter()
        priority = list(range(current.num_nodes))
        rng.shuffle(priority)
        match = heavy_edge_matching(
            current,
            priority,
            locked=locked_levels[-1],
            rounds=config.matching_rounds,
        )
        mapping, num_coarse = matching_to_mapping(match, current.backend)
        if num_coarse > (1 - config.min_shrink) * current.num_nodes:
            break
        coarse = current.contract(mapping, num_coarse)
        coarse_locked, coarse_sides = _project_coarse_labels(
            mapping, num_coarse, locked_levels[-1], sides_levels[-1]
        )
        levels.append(coarse)
        mappings.append(mapping)
        locked_levels.append(coarse_locked)
        sides_levels.append(coarse_sides)
        coarsen_times.append(time.perf_counter() - t_level)
    level_sizes = [g.num_nodes for g in levels]
    logger.debug("multilevel: %d levels, sizes %s", len(levels), level_sizes)

    def timings(
        sweep: float = 0.0,
        refine: Optional[List[float]] = None,
        refine_detail: Optional[List[Dict[str, object]]] = None,
        early_exits: int = 0,
    ):
        return {
            "coarsen": coarsen_times,
            "coarse_sweep": sweep,
            "refine": refine or [],
            "refine_detail": refine_detail or [],
            "early_exits": early_exits,
            "total_seconds": time.perf_counter() - t_start,
        }

    # --- Initial partitioning: k sweep on the coarsest level ---------------
    coarsest = levels[-1]
    t_sweep = time.perf_counter()
    init = PartitionState(coarsest.view(), sides_levels[-1], locked_levels[-1])
    k_values = geometric_k_sequence(config.k_min, config.k_factor, config.k_steps)
    states = sweep_k_states(
        init,
        k_values,
        KLConfig(max_passes=config.max_passes),
        jobs=config.jobs,
        executor=config.executor,
    )
    best_sides: Optional[List[int]] = None
    best_key = (float("inf"), 0.0)
    best_k: Optional[float] = None
    best_f = best_r = 0
    for k, state in zip(k_values, states):
        if isinstance(coarsest, WeightedCSRGraph):
            size = coarsest.weighted_suspicious_size(state.sides)
        else:
            size = state.suspicious_size
        valid = (
            config.min_suspicious
            <= size
            <= config.max_suspicious_fraction * total_nodes
            and size < total_nodes
            and state.r_cross > 0
        )
        if not valid:
            continue
        rate = acceptance_rate(state.f_cross, state.r_cross)
        key = (rate, -state.r_cross)
        if key < best_key:
            best_key = key
            best_sides = list(state.sides)
            best_k = k
            best_f = state.f_cross
            best_r = state.r_cross
    sweep_time = time.perf_counter() - t_sweep
    if best_sides is None or best_k is None:
        return MultilevelResult(
            [], 1.0, None, level_sizes=level_sizes, timings=timings(sweep_time)
        )

    # --- Uncoarsening + refinement -----------------------------------------
    # Projection preserves the cut weights exactly, so the chosen coarse
    # state's counters stay valid through every level and only the
    # refinement deltas move them — which is what lets the boundary path
    # build states through PartitionState.from_counts with no recount.
    refine_config = KLConfig(
        max_passes=config.refine_passes,
        frontier=config.frontier,
    )
    boundary = config.frontier == "boundary"
    refine_times: List[float] = []
    refine_detail: List[Dict[str, object]] = []
    early_exits = 0
    prev_improve: Optional[float] = None
    f_cross, r_cross = best_f, best_r
    sides = best_sides

    def full_refine(state_graph, level_sides, level_locked, level):
        stats = KLStats()
        state = extended_kl_state(
            PartitionState(state_graph.view(), level_sides, level_locked),
            best_k,
            refine_config,
            stats,
        )
        moves = sum(
            1
            for u in range(state_graph.num_nodes)
            if state.sides[u] != level_sides[u]
        )
        detail = {
            "level": level,
            "scope": "full",
            "boundary": state_graph.num_nodes,
            "regions": 1,
            "rounds": stats.passes,
            "moves": moves,
            "tested": stats.switches_tested,
            "skipped": False,
        }
        return state, detail

    # Each coarser level is released once its cut is projected down, so
    # the finest levels refine without the whole hierarchy held alive.
    del coarsest, init, states
    for level in range(len(levels) - 2, 0, -1):
        t_level = time.perf_counter()
        levels.pop()
        current = levels[level]
        sides = _project_sides(
            sides, mappings.pop(), current.num_nodes, current.backend
        )
        objective = f_cross - best_k * r_cross
        if _early_exit(config, prev_improve, objective):
            early_exits += 1
            refine_detail.append(_skip_entry(level))
            refine_times.append(time.perf_counter() - t_level)
            continue
        if boundary:
            f_cross, r_cross, detail = _refine_level_boundary(
                current,
                sides,
                locked_levels[level],
                best_k,
                config,
                refine_config,
                f_cross,
                r_cross,
            )
            detail["level"] = level
        else:
            state, detail = full_refine(
                current, sides, locked_levels[level], level
            )
            sides = state.sides
            f_cross, r_cross = state.f_cross, state.r_cross
        prev_improve = objective - (f_cross - best_k * r_cross)
        refine_detail.append(detail)
        refine_times.append(time.perf_counter() - t_level)
    t_level = time.perf_counter()
    del levels[1:]
    if mappings:
        sides = _project_sides(sides, mappings.pop(), total_nodes, csr0.backend)
    # Dinkelbach polish: re-refine at the cut's own ratio (Theorem 1's
    # fixpoint), which corrects the coarse level's k estimate.
    if boundary:
        f_cross, r_cross, detail = _refine_level_boundary(
            csr0, sides, locked, best_k, config, refine_config, f_cross, r_cross
        )
        detail["level"] = 0
        refine_detail.append(detail)
        for _ in range(2):
            if r_cross <= 0:
                break
            ratio = f_cross / r_cross
            if not ratio > 0:
                break
            cand_sides = list(sides)
            cand_f, cand_r, _polish = _refine_level_boundary(
                csr0,
                cand_sides,
                locked,
                ratio,
                config,
                refine_config,
                f_cross,
                r_cross,
            )
            if (
                cand_r <= 0
                or acceptance_rate(cand_f, cand_r)
                >= acceptance_rate(f_cross, r_cross)
                or not _sides_valid(cand_sides, total_nodes, config)
            ):
                break
            sides, f_cross, r_cross = cand_sides, cand_f, cand_r
            best_k = ratio
        fine = PartitionState.from_counts(
            csr0.view(), sides, locked, f_cross, r_cross
        )
    else:
        fine, detail = full_refine(csr0, sides, locked, 0)
        refine_detail.append(detail)
        for _ in range(2):
            if fine.r_cross <= 0:
                break
            ratio = fine.f_cross / fine.r_cross
            if not ratio > 0:
                break
            candidate = extended_kl_state(fine, ratio, refine_config)
            if candidate.acceptance_rate() >= fine.acceptance_rate() or not (
                _sides_valid(candidate.sides, total_nodes, config)
            ):
                break
            fine = candidate
            best_k = ratio
    refine_times.append(time.perf_counter() - t_level)

    suspicious = [u for u, s in enumerate(fine.sides) if s == SUSPICIOUS]
    size = len(suspicious)
    valid = (
        config.min_suspicious
        <= size
        <= config.max_suspicious_fraction * total_nodes
        and size < total_nodes
        and fine.r_cross > 0
    )
    if not valid:
        return MultilevelResult(
            [],
            1.0,
            None,
            level_sizes=level_sizes,
            timings=timings(
                sweep_time, refine_times, refine_detail, early_exits
            ),
        )
    return MultilevelResult(
        suspicious=suspicious,
        acceptance_rate=acceptance_rate(fine.f_cross, fine.r_cross),
        k=best_k,
        level_sizes=level_sizes,
        timings=timings(sweep_time, refine_times, refine_detail, early_exits),
    )
