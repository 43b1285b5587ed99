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
   KL pass touches only a few hundred super-nodes. The sweep runs the
   grid upward under :func:`repro.core.maar.run_k_sweep`'s stop rule
   (the first step after a valid best that is invalid or has a higher
   acceptance rate ends it; see :mod:`repro.core.maar` for why no later
   step could win for an exact solver), and every validity test — the
   coarse steps, the Dinkelbach polish and the final gate — is
   :func:`repro.core.maar.is_valid_cut`, with weighted sizes measured
   against the fine graph's node count;
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
* the coarse-level ``k`` sweep is :func:`repro.core.maar.sweep_k_states`,
  the flat MAAR sweep's driver, run serially: on 2 CPUs neither the
  coarse sweep nor the region refinement gained from a process pool
  (see DESIGN.md).
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .csr import CSRGraph, PartitionState, WeightedCSRGraph
from .graph import AugmentedSocialGraph
from .kernels import (
    boundary_nodes,
    cut_regions,
    heavy_edge_matching,
    matching_to_mapping,
)
from .kl import KLConfig, refine_subset
from .maar import (
    MAARConfig,
    dinkelbach_polish,
    geometric_k_sequence,
    initial_partition,
    is_valid_cut,
    sweep_k_states,
)
# Unused here: perfbench/layertrace.py wraps ``multilevel.parallel_map``.
from .parallel import parallel_map  # noqa: F401
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
    matching rounds per level.

    Refinement:

    Every uncoarsened level, and each Dinkelbach polish round, refines
    only around the movable frontier: the nodes whose switch is
    profitable right now plus their friends (see
    :func:`~repro.core.kernels.boundary_nodes`). The frontier splits
    into connected *regions* (:func:`~repro.core.kernels.cut_regions`:
    components under all three edge layers, so no edge crosses two
    regions), and each region refines in turn through one
    :func:`~repro.core.kl.refine_subset` pass — KL's shared pass
    skeleton with the region as its candidate list: the integer bucket
    pass at the sweep's grid ``k``, the float heap pass at the
    Dinkelbach polish's off-grid ratio. Rounds repeat, each on a fresh
    frontier, until a round moves nothing or ``refine_passes`` rounds
    have run.

    ``refine_passes``
        Upper bound on refinement rounds per level (a positive int).

    ``refine_tolerance``
        Early-exit knob: when positive, a level's refinement is skipped
        while the *previous* level's refinement improved the objective
        by at most ``refine_tolerance · max(1, |objective|)`` (the
        projected cut is already that converged; projections preserve
        cut weights exactly, so nothing is lost in between). The finest
        level always refines. ``0.0`` (default) disables early exit.
    ``refine_stall``
        Stall limit for the region passes
        (:attr:`~repro.core.kl.KLConfig.stall_limit` scoped to the
        region passes): a region pass stops
        tentatively switching after this many consecutive non-improving
        pops instead of exhausting the region. Uncoarsened cuts are
        near-converged, so the best prefix sits close to the front of
        the gain order and the exhaustive FM tail is almost always
        rollback work. ``None`` restores full passes. Identical on
        every backend, so determinism is unaffected. Must be a positive
        int or ``None``.
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
    refine_tolerance: float = 0.0
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
    index, the refinement ``scope`` (``"boundary"``, or ``"skipped"``
    for a level early exit passed over), the first-round frontier size
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


#: Dinkelbach polish rounds at the finest level
#: (:func:`repro.core.maar.dinkelbach_polish`).
_POLISH_ROUNDS = 2


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
    f_cross,
    r_cross,
):
    """Boundary-only refinement of one level, in place.

    Rounds of: movable frontier → connected regions → one
    :func:`~repro.core.kl.refine_subset` call per region, in order, on
    ``sides`` in place, summing the exact counter deltas. Regions are
    pairwise non-adjacent, so no region reads another's moves. A round
    that moves nothing (or an empty frontier) ends the level. Mutates
    ``sides`` and returns ``(f_cross, r_cross, detail)`` with the
    updated exact counters.
    """
    view = graph.view()
    # One stall-limited pass per region call: a pass rebuilds gains for
    # the whole region, so iteration belongs to the rounds loop below,
    # which re-derives a *shrinking* frontier instead of re-sweeping the
    # round-one region again and again.
    region_config = KLConfig(max_passes=1, stall_limit=config.refine_stall)
    detail: Dict[str, object] = {
        "scope": "boundary",
        "boundary": 0,
        "regions": 0,
        "rounds": 0,
        "moves": 0,
        "tested": 0,
        "skipped": False,
    }
    for round_idx in range(config.refine_passes):
        bnodes = [u for u in boundary_nodes(view, sides, k) if not locked[u]]
        if round_idx == 0:
            detail["boundary"] = len(bnodes)
        if not bnodes:
            break
        regions = cut_regions(graph, bnodes)
        detail["regions"] = max(detail["regions"], len(regions))
        detail["rounds"] = round_idx + 1
        round_moves = 0
        for region in regions:
            moved, delta_f, delta_r, tested, _applied = refine_subset(
                view, sides, locked, region, k, region_config
            )
            f_cross += delta_f
            r_cross += delta_r
            detail["tested"] = detail["tested"] + tested
            round_moves += len(moved)
        detail["moves"] = detail["moves"] + round_moves
        if round_moves == 0:
            break
    return f_cross, r_cross, detail


def _coarsen(csr0: CSRGraph, locked, init_sides, config: MultilevelConfig):
    """The coarsening phase: ``(levels, mappings, locked_levels,
    sides_levels, coarsen_times)``, finest level first.

    A function of its own so that no local outlives the phase: a name
    still bound to the last level built would keep that level (and
    every cache on it) alive through the whole uncoarsening."""
    rng = random.Random(config.seed)
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
    return levels, mappings, locked_levels, sides_levels, coarsen_times


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
    if config.refine_passes < 1:
        raise ValueError(
            f"refine_passes must be a positive int, got {config.refine_passes}"
        )
    if config.refine_stall is not None and config.refine_stall < 1:
        raise ValueError(
            "refine_stall must be a positive int or None, got "
            f"{config.refine_stall}"
        )
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
    # The default MAARConfig's "rejection" start: users who received a
    # rejection begin suspicious; seeds are pinned and locked.
    fine_init = initial_partition(csr0, MAARConfig(), legit_seeds, spammer_seeds)
    locked, init_sides = fine_init.locked, fine_init.sides

    # --- Coarsening phase -------------------------------------------------
    levels, mappings, locked_levels, sides_levels, coarsen_times = _coarsen(
        csr0, locked, init_sides, config
    )
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
    weighted = isinstance(coarsest, WeightedCSRGraph)

    def coarse_valid(state: PartitionState) -> bool:
        size = (
            coarsest.weighted_suspicious_size(state.sides)
            if weighted
            else state.suspicious_size
        )
        return is_valid_cut(size, total_nodes, state.r_cross, config)

    steps, winner = sweep_k_states(
        init,
        k_values,
        KLConfig(max_passes=config.max_passes),
        valid=coarse_valid,
    )
    sweep_time = time.perf_counter() - t_sweep
    if winner is None:
        return MultilevelResult(
            [], 1.0, None, level_sizes=level_sizes, timings=timings(sweep_time)
        )
    best_k = steps[winner].k
    sides = list(steps[winner].cut.sides)
    f_cross, r_cross = steps[winner].cut.f_cross, steps[winner].cut.r_cross

    # --- Uncoarsening + refinement -----------------------------------------
    # Projection preserves the cut weights exactly, so the chosen coarse
    # state's counters stay valid through every level and only the
    # refinement deltas move them — which is what lets the boundary path
    # build states through PartitionState.from_counts with no recount.
    refine_times: List[float] = []
    refine_detail: List[Dict[str, object]] = []
    early_exits = 0
    prev_improve: Optional[float] = None

    # Each coarser level is released once its cut is projected down, so
    # the finest levels refine without the whole hierarchy held alive;
    # hence no local below names a level.
    del coarsest, init, steps
    for level in range(len(levels) - 2, 0, -1):
        t_level = time.perf_counter()
        levels.pop()
        sides = _project_sides(
            sides, mappings.pop(), levels[level].num_nodes, levels[level].backend
        )
        objective = f_cross - best_k * r_cross
        if _early_exit(config, prev_improve, objective):
            early_exits += 1
            refine_detail.append(_skip_entry(level))
            refine_times.append(time.perf_counter() - t_level)
            continue
        f_cross, r_cross, detail = _refine_level_boundary(
            levels[level],
            sides,
            locked_levels[level],
            best_k,
            config,
            f_cross,
            r_cross,
        )
        detail["level"] = level
        prev_improve = objective - (f_cross - best_k * r_cross)
        refine_detail.append(detail)
        refine_times.append(time.perf_counter() - t_level)
    t_level = time.perf_counter()
    del levels[1:]
    if mappings:
        sides = _project_sides(sides, mappings.pop(), total_nodes, csr0.backend)
    f_cross, r_cross, detail = _refine_level_boundary(
        csr0, sides, locked, best_k, config, f_cross, r_cross
    )
    detail["level"] = 0
    refine_detail.append(detail)
    view0 = csr0.view()

    def polish_refine(cut: PartitionState, k: float) -> PartitionState:
        cand_sides = list(cut.sides)
        cand_f, cand_r, _detail = _refine_level_boundary(
            csr0,
            cand_sides,
            locked,
            k,
            config,
            cut.f_cross,
            cut.r_cross,
        )
        return PartitionState.from_counts(
            view0, cand_sides, locked, cand_f, cand_r
        )

    # Dinkelbach polish: re-refine at the cut's own ratio (Theorem 1's
    # fixpoint), which corrects the coarse level's k estimate. A lower
    # ratio can "improve" the rate by inflating the suspicious side past
    # max_suspicious_fraction; the final gate would then discard the
    # whole result, so an invalid candidate never replaces a valid cut.
    fine, best_k, _steps = dinkelbach_polish(
        PartitionState.from_counts(view0, sides, locked, f_cross, r_cross),
        best_k,
        polish_refine,
        lambda cut: is_valid_cut(
            cut.suspicious_size, total_nodes, cut.r_cross, config
        ),
        _POLISH_ROUNDS,
    )
    refine_times.append(time.perf_counter() - t_level)

    suspicious = [u for u, s in enumerate(fine.sides) if s == SUSPICIOUS]
    if not is_valid_cut(len(suspicious), total_nodes, fine.r_cross, config):
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
