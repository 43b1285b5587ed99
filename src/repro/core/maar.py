"""Minimum Aggregate Acceptance Rate (MAAR) cut solver.

Section IV-B formulates friend-spammer detection as finding the cut
``C* = ⟨U*, Ū*⟩`` minimizing the aggregate acceptance rate of the friend
requests from ``U*`` to ``Ū*`` — an NP-hard problem (reduction from
MIN-RATIO-CUT). Theorem 1 shows the MAAR cut is the minimizer of the
*linear* objective ``|F(Ū,U)| − k*·|R⃗⟨Ū,U⟩|`` at ``k*`` equal to the
optimal friends-to-rejections ratio. Since ``k*`` is unknown, the solver
sweeps ``k`` through a geometric sequence, runs the extended KL search
for each value, and keeps the cut with the lowest aggregate acceptance
rate (Section IV-D).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import random

from .csr import CSRView, PartitionState
from .graph import AugmentedSocialGraph
from .kernels import active_in_rejections
from .kl import KLConfig, KLStats, extended_kl_state
from .objectives import LEGITIMATE, SUSPICIOUS
from .parallel import parallel_map, warn_jobs_ignored
from .partition import Partition

logger = logging.getLogger(__name__)

__all__ = [
    "MAARConfig",
    "KCandidate",
    "MAARResult",
    "check_seeds",
    "geometric_k_sequence",
    "initial_partition",
    "solve_maar",
    "sweep_k_states",
]


def check_seeds(
    num_nodes: int,
    legit_seeds: Sequence[int] = (),
    spammer_seeds: Sequence[int] = (),
) -> None:
    """Validate seed lists against a graph of ``num_nodes`` users.

    Rejects ids outside ``[0, num_nodes)`` — a negative id would
    otherwise wrap around via Python indexing and silently pin the
    *wrong* node — and rejects nodes listed as both legitimate and
    spammer seeds, which previously resolved to SUSPICIOUS merely
    because the spammer loop ran last.
    """
    for name, seeds in (
        ("legit_seeds", legit_seeds),
        ("spammer_seeds", spammer_seeds),
    ):
        for u in seeds:
            if not 0 <= u < num_nodes:
                raise ValueError(
                    f"{name} contains node id {u}, out of range for a "
                    f"graph with {num_nodes} nodes"
                )
    overlap = set(legit_seeds) & set(spammer_seeds)
    if overlap:
        raise ValueError(
            "seeds listed as both legitimate and spammer: "
            f"{sorted(overlap)}"
        )


def geometric_k_sequence(k_min: float, factor: float, steps: int) -> List[float]:
    """The geometric grid ``k_min · factor^i`` for ``i`` in ``[0, steps)``."""
    if k_min <= 0:
        raise ValueError(f"k_min must be positive, got {k_min}")
    if factor <= 1:
        raise ValueError(f"factor must exceed 1, got {factor}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return [k_min * factor**i for i in range(steps)]


@dataclass
class MAARConfig:
    """Configuration of the MAAR sweep.

    Attributes
    ----------
    k_min, k_factor, k_steps:
        The geometric ``k`` grid. Defaults cover ``1/8 .. 64``, a ratio
        range wide enough for rejection rates between ~2% and ~90%, and
        every value is a multiple of 1/8 so the FM bucket list indexes
        gains exactly.
    init:
        Initial-partition strategy: ``"rejection"`` places every node
        that has received at least one rejection on the suspicious side
        (a strong, deterministic warm start); ``"all_legitimate"`` starts
        from the empty suspicious region; ``"random"`` assigns side 1
        with probability ``random_fraction``.
    min_suspicious:
        A cut is a valid spammer candidate only if the suspicious region
        holds at least this many nodes and at least one cross rejection.
    max_suspicious_fraction:
        A cut is valid only if the suspicious region holds at most this
        fraction of the nodes. Guards against degenerate *inverted*
        cuts that mark almost the whole graph suspicious, leaving a few
        rejection-casting users outside — such cuts can have a
        deceptively low acceptance rate. Seeds (Section IV-F) rule the
        same cuts out; the fraction guard covers seedless runs. The
        default (0.6) tolerates the paper's 1:1 stress workloads, where
        the fake region plus a few misplaced users can slightly exceed
        half of the graph.
    warm_start:
        When ``True``, each ``k`` step starts from the previous step's
        partition rather than from the initial partition; faster, but
        couples the steps.
    min_evidence:
        Minimum average rejection evidence — ``r_cross`` divided by the
        suspicious region's size — for a valid candidate. The paper's
        premise is that spammers receive a *significant* number of
        rejections; in sparse settings (e.g. single-day shards of the
        Section VII deployment) a handful of legitimate users whose only
        activity was one rejected request would otherwise form a
        zero-acceptance cut. Default 0 keeps the paper's plain
        formulation.
    refine_rounds:
        Optional Dinkelbach-style refinement after the sweep (an
        extension beyond the paper): repeatedly re-run the KL search at
        ``k`` equal to the best cut's own friends-to-rejections ratio,
        warm-started from that cut. By Theorem 1's logic, any cut with a
        *negative* linear objective at that ``k`` has a strictly lower
        ratio, so each accepted round improves the acceptance rate; the
        loop stops at the first non-improving round. Off by default (0
        rounds) to match the paper's plain grid sweep.
    jobs:
        Worker count for the ``k`` sweep. With ``warm_start=False``
        (the default) every ``k`` step is an independent KL run over the
        same immutable CSR snapshot, so ``jobs > 1`` fans the steps out
        through :mod:`repro.core.parallel` and reduces with the exact
        serial tie-break order — results are bit-identical to ``jobs=1``
        (property-tested in ``tests/core/test_parity.py``). Ignored —
        with a ``logger.warning`` naming the reason — when
        ``warm_start=True`` (the steps are coupled).
    executor:
        Backend for the parallel sweep: ``"auto"`` (process on fork
        platforms, thread otherwise), ``"serial"``, ``"thread"``, or
        ``"process"``.
    """

    k_min: float = 0.125
    k_factor: float = 2.0
    k_steps: int = 10
    kl: KLConfig = field(default_factory=KLConfig)
    init: str = "rejection"
    random_fraction: float = 0.5
    random_seed: int = 0
    min_suspicious: int = 1
    max_suspicious_fraction: float = 0.6
    min_evidence: float = 0.0
    warm_start: bool = False
    refine_rounds: int = 0
    jobs: int = 1
    executor: str = "auto"

    def k_values(self) -> List[float]:
        return geometric_k_sequence(self.k_min, self.k_factor, self.k_steps)


@dataclass
class KCandidate:
    """Outcome of one ``k`` step of the sweep."""

    k: float
    acceptance_rate: float
    ratio: float
    f_cross: int
    r_cross: int
    suspicious_size: int
    valid: bool


@dataclass
class MAARResult:
    """Best cut found by the sweep plus per-``k`` diagnostics."""

    partition: Optional[Partition]
    k: Optional[float]
    acceptance_rate: float
    per_k: List[KCandidate]
    stats: KLStats

    @property
    def found(self) -> bool:
        """Whether any valid (non-degenerate) spammer cut was found."""
        return self.partition is not None

    def suspicious_nodes(self) -> List[int]:
        """The detected suspicious region (empty when nothing was found)."""
        return self.partition.suspicious_nodes() if self.partition else []


def initial_partition(
    graph: AugmentedSocialGraph,
    config: MAARConfig,
    legit_seeds: Sequence[int] = (),
    spammer_seeds: Sequence[int] = (),
) -> Partition:
    """Build the sweep's starting partition.

    Seeds override the strategy: legitimate seeds always start (and stay)
    on side 0, spammer seeds on side 1. Seed ids are validated against
    the graph (:func:`check_seeds`); out-of-range or overlapping seed
    lists raise ``ValueError``.
    """
    n = graph.num_nodes
    check_seeds(n, legit_seeds, spammer_seeds)
    if config.init == "rejection":
        sides = [
            SUSPICIOUS if graph.rej_in[u] else LEGITIMATE for u in range(n)
        ]
    elif config.init == "all_legitimate":
        sides = [LEGITIMATE] * n
    elif config.init == "random":
        rng = random.Random(config.random_seed)
        sides = [
            SUSPICIOUS if rng.random() < config.random_fraction else LEGITIMATE
            for _ in range(n)
        ]
    else:
        raise ValueError(f"unknown init strategy {config.init!r}")
    for u in legit_seeds:
        sides[u] = LEGITIMATE
    for u in spammer_seeds:
        sides[u] = SUSPICIOUS
    return Partition(graph, sides)


def _view_initial_sides(
    view: CSRView,
    config: MAARConfig,
    legit_seeds: Sequence[int] = (),
    spammer_seeds: Sequence[int] = (),
) -> List[int]:
    """Initial side assignment for a (possibly residual) CSR view.

    Mirrors :func:`initial_partition` with active-node filtering: the
    ``"rejection"`` strategy counts only rejections cast by still-active
    users, exactly as a ``graph.subgraph()`` prune of the inactive users
    would leave them. Sides of inactive nodes are irrelevant
    to the counters and left at 0.
    """
    n = view.csr.num_nodes
    active = view.active
    sides = [LEGITIMATE] * n
    if config.init == "rejection":
        # One batch count; weighted graphs count rejecters per node (the
        # kernel is unweighted-only, and the count ignores weights).
        if view.csr.weighted:
            received = [view.rejections_received(u) for u in range(n)]
        else:
            received = active_in_rejections(view)
        sides = [
            SUSPICIOUS if a and r else LEGITIMATE
            for a, r in zip(active, received)
        ]
    elif config.init == "all_legitimate":
        pass
    elif config.init == "random":
        rng = random.Random(config.random_seed)
        for u in range(n):
            if active[u] and rng.random() < config.random_fraction:
                sides[u] = SUSPICIOUS
    else:
        raise ValueError(f"unknown init strategy {config.init!r}")
    for u in legit_seeds:
        sides[u] = LEGITIMATE
    for u in spammer_seeds:
        sides[u] = SUSPICIOUS
    return sides


def _is_valid_state(state: PartitionState, config: MAARConfig) -> bool:
    """A cut counts as a spammer candidate only if the suspicious side is
    non-trivial, within the allowed size fraction of the *active* nodes
    (the residual graph's size), and actually receives cross rejections
    (otherwise there is no spam evidence and the acceptance rate is
    vacuous)."""
    num_active = state.view.num_active
    limit = config.max_suspicious_fraction * num_active
    size = state.suspicious_size
    return (
        config.min_suspicious <= size <= limit
        and size < num_active
        and state.r_cross > 0
        and state.r_cross >= config.min_evidence * size
    )


def _sweep_k_task(k: float, shared) -> Tuple[List[int], float, float, List[int], KLStats]:
    """One ``k`` step of the parallel sweep, run inside a worker.

    ``shared`` carries the (read-only) initial :class:`PartitionState`
    and KL config; only ``k`` varies per task. Returns the switched
    sides plus counters and this step's own :class:`KLStats`, which the
    parent merges back in ``k`` order so the aggregate diagnostics match
    the serial sweep exactly.
    """
    init, kl_config = shared
    stats = KLStats()
    candidate = extended_kl_state(init, k, config=kl_config, stats=stats)
    return (
        candidate.sides,
        candidate.f_cross,
        candidate.r_cross,
        candidate.side_sizes,
        stats,
    )


def sweep_k_states(
    init: PartitionState,
    k_values: Sequence[float],
    kl_config: Optional[KLConfig] = None,
    jobs: int = 1,
    executor: str = "auto",
    stats: Optional[KLStats] = None,
) -> List[PartitionState]:
    """Run :func:`extended_kl_state` once per ``k``, all from ``init``.

    The independent runs fan out through
    :func:`repro.core.parallel.parallel_map` when ``jobs > 1``; results
    come back in ``k`` order and per-step stats merge in that same
    order, so the serial and parallel paths are indistinguishable to the
    caller (property-tested in ``tests/core/test_parity.py``). Shared by
    the flat MAAR sweep and the multilevel coarse-level sweep.
    """
    kl_config = kl_config or KLConfig()
    if jobs > 1 and len(k_values) > 1:
        outcomes = parallel_map(
            _sweep_k_task,
            list(k_values),
            shared=(init, kl_config),
            jobs=jobs,
            executor=executor,
        )
        candidates = []
        for sides, f_cross, r_cross, side_sizes, k_stats in outcomes:
            candidate = PartitionState.__new__(PartitionState)
            candidate.view = init.view
            candidate.sides = sides
            candidate.locked = init.locked
            candidate.f_cross = f_cross
            candidate.r_cross = r_cross
            candidate.side_sizes = side_sizes
            candidates.append(candidate)
            if stats is not None:
                stats.passes += k_stats.passes
                stats.switches_applied += k_stats.switches_applied
                stats.switches_tested += k_stats.switches_tested
                stats.objective_history.extend(k_stats.objective_history)
        return candidates
    return [
        extended_kl_state(init, k, config=kl_config, stats=stats)
        for k in k_values
    ]


def _sweep_candidates(
    init: PartitionState, config: MAARConfig, stats: KLStats
) -> List[PartitionState]:
    """Run the extended-KL search once per grid ``k``, in grid order.

    With ``config.jobs > 1`` (and no warm start, which couples the
    steps) the independent runs delegate to :func:`sweep_k_states`.
    """
    k_values = config.k_values()
    if config.jobs > 1 and config.warm_start:
        warn_jobs_ignored(
            logger,
            "MAARConfig",
            config.jobs,
            "warm_start=True couples the k steps (each starts from the "
            "previous cut), so the sweep runs serially",
        )
    if not config.warm_start:
        return sweep_k_states(
            init,
            k_values,
            config.kl,
            jobs=config.jobs,
            executor=config.executor,
            stats=stats,
        )
    candidates = []
    previous = init
    for k in k_values:
        candidate = extended_kl_state(previous, k, config=config.kl, stats=stats)
        previous = candidate
        candidates.append(candidate)
    return candidates


def _solve_maar_view(
    view: CSRView,
    config: MAARConfig,
    legit_seeds: Sequence[int] = (),
    spammer_seeds: Sequence[int] = (),
) -> MAARResult:
    """The MAAR sweep over a CSR residual view.

    Every KL run operates on :class:`PartitionState` — no subgraph
    materialization. The returned result's ``partition`` is the winning
    :class:`PartitionState` (duck-compatible with :class:`Partition` for
    the queries the callers use).
    """
    n = view.csr.num_nodes
    check_seeds(n, legit_seeds, spammer_seeds)
    locked = [False] * n
    for u in legit_seeds:
        locked[u] = True
    for u in spammer_seeds:
        locked[u] = True

    init = PartitionState(
        view, _view_initial_sides(view, config, legit_seeds, spammer_seeds), locked
    )
    stats = KLStats()
    best: Optional[PartitionState] = None
    best_k: Optional[float] = None
    best_key: Tuple[float, float] = (float("inf"), 0)
    per_k: List[KCandidate] = []

    for k, candidate in zip(config.k_values(), _sweep_candidates(init, config, stats)):
        valid = _is_valid_state(candidate, config)
        acceptance = candidate.acceptance_rate()
        per_k.append(
            KCandidate(
                k=k,
                acceptance_rate=acceptance,
                ratio=candidate.ratio(),
                f_cross=candidate.f_cross,
                r_cross=candidate.r_cross,
                suspicious_size=candidate.suspicious_size,
                valid=valid,
            )
        )
        logger.debug(
            "k=%.4g: acceptance=%.3f F=%d R=%d size=%d valid=%s",
            k,
            acceptance,
            candidate.f_cross,
            candidate.r_cross,
            candidate.suspicious_size,
            valid,
        )
        if valid:
            key = (acceptance, -candidate.r_cross)
            if key < best_key:
                best_key = key
                best = candidate
                best_k = k

    for _ in range(config.refine_rounds if best is not None else 0):
        ratio = best.ratio()
        if not 0 < ratio < float("inf"):
            break
        candidate = extended_kl_state(best, ratio, config=config.kl, stats=stats)
        valid = _is_valid_state(candidate, config)
        acceptance = candidate.acceptance_rate()
        per_k.append(
            KCandidate(
                k=ratio,
                acceptance_rate=acceptance,
                ratio=candidate.ratio(),
                f_cross=candidate.f_cross,
                r_cross=candidate.r_cross,
                suspicious_size=candidate.suspicious_size,
                valid=valid,
            )
        )
        key = (acceptance, -candidate.r_cross)
        if not valid or key >= best_key:
            break
        best_key = key
        best = candidate
        best_k = ratio

    acceptance = best_key[0] if best is not None else 1.0
    return MAARResult(
        partition=best,
        k=best_k,
        acceptance_rate=acceptance,
        per_k=per_k,
        stats=stats,
    )


def solve_maar(
    graph,
    config: Optional[MAARConfig] = None,
    legit_seeds: Sequence[int] = (),
    spammer_seeds: Sequence[int] = (),
) -> MAARResult:
    """Approximate the MAAR cut of ``graph``.

    Runs the extended KL search once per ``k`` on the geometric grid and
    returns the valid cut with the lowest aggregate acceptance rate.
    Ties prefer the cut explaining more rejections (larger ``r_cross``),
    which captures more of the spammer region.

    ``graph`` may be an :class:`AugmentedSocialGraph` builder or an
    already-finalized :class:`repro.core.csr.CSRGraph`; either way the
    sweep runs on the flat-array core. For builder inputs the result's
    ``partition`` is a :class:`Partition`; for CSR inputs it is the
    winning :class:`PartitionState`.
    """
    config = config or MAARConfig()
    is_builder = isinstance(graph, AugmentedSocialGraph)
    result = _solve_maar_view(
        graph.csr().view(), config, legit_seeds, spammer_seeds
    )
    if is_builder and result.partition is not None:
        state = result.partition
        result.partition = Partition.from_counts(
            graph, state.sides, state.f_cross, state.r_cross
        )
    return result
