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

The sweep runs the grid upward and stops at the first step after a valid
best that cannot win: a step whose cut is invalid, or whose acceptance
rate is strictly higher than the best's. This is the parametric argument
behind Theorem 1 and Dinkelbach's method (Dinkelbach, "On Nonlinear
Fractional Programming", 1967). Let ``C₁`` and ``C₂`` be exact
minimizers of ``F − k·R`` at ``k₁ < k₂``. Comparing each with the other
at its own ``k`` gives ``(k₂ − k₁)(R₂ − R₁) ≥ 0``, so ``R₂ ≥ R₁``; and
``F₂/R₂ ≥ F₁/R₁`` because ``F₁/R₁ ≤ k₁``. For an exact solver the
acceptance rate therefore never falls as ``k`` rises, and a tie at the
same rate comes at a larger ``k`` with more rejections, which is what
the ``(rate, −r_cross)`` tie-break prefers. So steps at an equal rate
keep going and the first higher or invalid step ends the sweep. KL is a
heuristic, so the rule can miss a later, better step; the exact oracle
in ``tests/core/maar_oracle.py`` measures how often. The paper's full
grid stays available one step at a time
(``MAARConfig(k_min=k, k_steps=1)``).

:func:`run_k_sweep` runs the stop rule over a grid solved in order and
:func:`is_valid_cut` is the validity rule. The flat sweep, Rejecto
rounds and multilevel's coarse sweep reach them through
:func:`sweep_k_states`, which with ``jobs > 1`` applies the same rule to
worker results as they stream in;
:func:`repro.cluster.engine.distributed_maar` calls them directly.
:func:`dinkelbach_polish` re-solves a winner at its own ratio, for the
flat sweep's ``refine_rounds`` and multilevel's finest level.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import random

from .csr import CSRView, PartitionState
from .kernels import active_in_rejections
from .kl import KLStats, extended_kl_state
from .objectives import LEGITIMATE, SUSPICIOUS, acceptance_rate
from .parallel import parallel_map

logger = logging.getLogger(__name__)

__all__ = [
    "MAARConfig",
    "KCandidate",
    "MAARResult",
    "SeedError",
    "SweepStep",
    "check_seeds",
    "dinkelbach_polish",
    "geometric_k_sequence",
    "initial_partition",
    "is_valid_cut",
    "run_k_sweep",
    "solve_maar",
    "sweep_k_states",
]


class SeedError(ValueError):
    """Raised when a seed id is outside the graph or a node is listed as
    both a legitimate and a spammer seed."""


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
    because the spammer loop ran last. Both raise :class:`SeedError`.
    """
    for name, seeds in (
        ("legit_seeds", legit_seeds),
        ("spammer_seeds", spammer_seeds),
    ):
        for u in seeds:
            if not 0 <= u < num_nodes:
                raise SeedError(
                    f"{name} contains node id {u}, out of range for a "
                    f"graph with {num_nodes} nodes"
                )
    overlap = set(legit_seeds) & set(spammer_seeds)
    if overlap:
        raise SeedError(
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
        gains exactly. The sweep runs the grid upward and stops at the
        first step after a valid best that is invalid or has a strictly
        higher acceptance rate (see the module docstring), so it runs
        at most ``k_steps`` steps. ``k_steps=1`` runs exactly one step:
        single-step calls at each grid ``k`` rebuild the paper's full
        grid.
    init:
        Initial-partition strategy: ``"rejection"`` places every node
        that has received at least one rejection on the suspicious side
        (a strong, deterministic warm start); ``"all_legitimate"`` starts
        from the empty suspicious region; ``"random"`` assigns side 1
        with probability ``random_fraction`` (in ``[0, 1]``).
        :func:`initial_partition` is the one place this is read.
    min_suspicious:
        A cut is a valid spammer candidate only if the suspicious region
        holds at least this many nodes and at least one cross rejection
        (:func:`is_valid_cut` holds every validity rule).
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
        Rounds of the Dinkelbach polish after the sweep (an extension
        beyond the paper; :func:`dinkelbach_polish`): re-run the KL
        search at ``k`` equal to the best cut's own
        friends-to-rejections ratio, starting from that cut, until a
        round does not improve. Off by default (0 rounds) to match the
        paper's plain grid sweep.
    jobs:
        Worker count for the ``k`` sweep. Every ``k`` step is an
        independent KL run from the same starting cut over the same
        immutable CSR snapshot, so ``jobs > 1`` streams the grid
        through one :func:`repro.core.parallel.parallel_map` call: its
        workers (at most the usable CPUs) start once per sweep, take the
        next ``k`` as they free up, and the stop rule runs on their cuts
        in grid order; steps still running at the stop step are killed,
        so results are bit-identical to ``jobs=1`` (tested in
        ``tests/core/test_parity.py``). Must be at least 1.
    """

    k_min: float = 0.125
    k_factor: float = 2.0
    k_steps: int = 10
    init: str = "rejection"
    random_fraction: float = 0.5
    random_seed: int = 0
    min_suspicious: int = 1
    max_suspicious_fraction: float = 0.6
    min_evidence: float = 0.0
    refine_rounds: int = 0
    jobs: int = 1

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

    partition: Optional[PartitionState]
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
    graph,
    config: MAARConfig,
    legit_seeds: Sequence[int] = (),
    spammer_seeds: Sequence[int] = (),
) -> PartitionState:
    """Build the sweep's starting cut — the one reader of ``config.init``.

    ``graph`` is an :class:`~repro.core.graph.AugmentedSocialGraph`
    builder, a finalized :class:`~repro.core.csr.CSRGraph` (both start
    on their full view) or a residual :class:`CSRView`. The strategy
    applies to active nodes only: ``"rejection"`` counts only rejections
    cast by still-active users, exactly as a ``graph.subgraph()`` prune
    of the inactive users would leave them, and ``"random"`` draws once
    per active node.
    Inactive nodes stay on side 0, where they touch no counter.

    Seeds override the strategy: legitimate seeds start on side 0,
    spammer seeds on side 1, and both are locked so no KL pass moves
    them. Seed ids are validated against the graph (:func:`check_seeds`);
    out-of-range or overlapping seed lists, an unknown strategy and a
    ``random_fraction`` outside ``[0, 1]`` raise ``ValueError``.
    """
    view = graph if isinstance(graph, CSRView) else graph.csr().view()
    n = view.csr.num_nodes
    check_seeds(n, legit_seeds, spammer_seeds)
    active = view.active
    if config.init == "rejection":
        # One batch count of active rejecters (weights are ignored).
        received = active_in_rejections(view)
        sides = [
            SUSPICIOUS if a and r else LEGITIMATE
            for a, r in zip(active, received)
        ]
    elif config.init == "all_legitimate":
        sides = [LEGITIMATE] * n
    elif config.init == "random":
        if not 0.0 <= config.random_fraction <= 1.0:
            raise ValueError(
                "MAARConfig.random_fraction must lie in [0, 1], got "
                f"{config.random_fraction!r}"
            )
        rng = random.Random(config.random_seed)
        sides = [
            SUSPICIOUS if a and rng.random() < config.random_fraction else LEGITIMATE
            for a in active
        ]
    else:
        raise ValueError(f"unknown init strategy {config.init!r}")
    locked = [False] * n
    for u in legit_seeds:
        sides[u] = LEGITIMATE
        locked[u] = True
    for u in spammer_seeds:
        sides[u] = SUSPICIOUS
        locked[u] = True
    return PartitionState(view, sides, locked)


def is_valid_cut(size, population: int, r_cross: int, config) -> bool:
    """The one validity rule for a candidate spammer cut.

    ``size`` is the suspicious side's population, measured against
    ``population``: the active count against the residual graph's size
    in the flat sweep and on the cluster, the weighted (original-node)
    size against the fine graph's node count on multilevel's coarse
    levels. A cut is valid only if the suspicious side is non-trivial
    (``config.min_suspicious``), holds at most
    ``config.max_suspicious_fraction`` of the population and not all of
    it, and receives cross rejections — otherwise there is no spam
    evidence and the acceptance rate is vacuous — at least
    ``config.min_evidence`` of them per suspicious node (a
    :class:`~repro.core.multilevel.MultilevelConfig` has no evidence
    floor, which reads as 0).
    """
    return (
        config.min_suspicious <= size <= config.max_suspicious_fraction * population
        and size < population
        and r_cross > 0
        and r_cross >= getattr(config, "min_evidence", 0.0) * size
    )


class SweepStep(NamedTuple):
    """One ``k`` step a sweep ran: its cut and whether the cut is valid.

    ``cut`` is a :class:`PartitionState`, or anything else with
    ``f_cross`` and ``r_cross`` counters.
    """

    k: float
    cut: object
    valid: bool

    def key(self) -> Tuple[float, int]:
        """Sort key of the winner: lowest acceptance rate, then most
        cross rejections."""
        return (
            acceptance_rate(self.cut.f_cross, self.cut.r_cross),
            -self.cut.r_cross,
        )


class _StopRule:
    """The sweep's stop rule, fed one step at a time in grid order.

    ``steps`` holds every step seen and ``winner`` the index of the
    lowest-key valid one (``None`` while no step was valid)."""

    def __init__(self, valid: Callable[[object], bool]) -> None:
        self.valid = valid
        self.steps: List[SweepStep] = []
        self.winner: Optional[int] = None

    def add(self, k: float, cut) -> bool:
        """Record the next grid step; true when it is the stop step."""
        step = SweepStep(k, cut, self.valid(cut))
        self.steps.append(step)
        if self.winner is not None:
            best = self.steps[self.winner].key()
            if not step.valid or step.key()[0] > best[0]:
                return True
            if step.key() < best:
                self.winner = len(self.steps) - 1
        elif step.valid:
            self.winner = len(self.steps) - 1
        return False


def run_k_sweep(
    k_values: Sequence[float],
    solve: Callable[[float], object],
    valid: Callable[[object], bool],
) -> Tuple[List[SweepStep], Optional[int]]:
    """Run an ascending ``k`` grid and stop at the first step that
    cannot win.

    ``solve(k)`` returns the cut for one grid value, called in grid
    order. ``valid(cut)`` is the caller's :func:`is_valid_cut`. Once a
    valid best exists, the first step that is invalid or has a strictly
    higher acceptance rate is the stop step: it is recorded and the
    sweep ends. Steps at an equal rate keep going, so the
    ``(rate, −r_cross)`` tie-break still sees them.

    Returns ``(steps, winner)``: every step up to and including the stop
    step, in grid order, and the index of the lowest-key valid step, or
    ``None`` when no step was valid.
    """
    rule = _StopRule(valid)
    for k in k_values:
        if rule.add(k, solve(k)):
            break
    return rule.steps, rule.winner


def _sweep_k_task(k: float, shared) -> Tuple[List[int], float, float, List[int], KLStats]:
    """One ``k`` step of the parallel sweep, run inside a worker.

    ``shared`` is the (read-only) initial :class:`PartitionState`; only
    ``k`` varies per task. Returns the switched
    sides plus counters and this step's own :class:`KLStats`, which the
    parent merges back in ``k`` order for the steps up to the stop, so
    the aggregate diagnostics match the serial sweep exactly.
    """
    stats = KLStats()
    candidate = extended_kl_state(shared, k, stats=stats)
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
    jobs: int = 1,
    stats: Optional[KLStats] = None,
    *,
    valid: Callable[[PartitionState], bool],
) -> Tuple[List[SweepStep], Optional[int]]:
    """The ``k`` sweep: :func:`extended_kl_state` per grid ``k`` under
    :func:`run_k_sweep`'s stop rule.

    Every step runs the default :class:`~repro.core.kl.KLConfig` from
    ``init``. ``valid`` judges each cut (the
    caller's :func:`is_valid_cut`). Returns ``run_k_sweep``'s ``(steps,
    winner)``. With ``jobs > 1`` the whole grid goes through one
    :func:`repro.core.parallel.parallel_map` call whose ``stop``
    predicate is the stop rule, applied to the cuts in grid order as
    they arrive; steps still running at the stop are killed. The
    per-step :class:`KLStats` of the steps up to the stop merge into
    ``stats`` in ``k`` order, so the parallel path is
    indistinguishable from the serial one (tested in
    ``tests/core/test_parity.py``). ``jobs`` below 1 raises
    ``ValueError``. Shared by the flat MAAR sweep, the Rejecto rounds and
    the multilevel coarse-level sweep.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return run_k_sweep(
            k_values,
            lambda k: extended_kl_state(init, k, stats=stats),
            valid,
        )
    ks = list(k_values)
    rule = _StopRule(valid)

    def stop(result) -> bool:
        cut = PartitionState.__new__(PartitionState)
        cut.view = init.view
        cut.sides, cut.f_cross, cut.r_cross, cut.side_sizes, _ = result
        cut.locked = init.locked
        return rule.add(ks[len(rule.steps)], cut)

    results = parallel_map(
        _sweep_k_task, ks, shared=init, jobs=jobs, stop=stop
    )
    if stats is not None:
        for *_, k_stats in results:
            stats.passes += k_stats.passes
            stats.switches_applied += k_stats.switches_applied
            stats.switches_tested += k_stats.switches_tested
            stats.objective_history.extend(k_stats.objective_history)
    return rule.steps, rule.winner


def dinkelbach_polish(
    cut: PartitionState,
    k: float,
    refine: Callable[[PartitionState, float], PartitionState],
    valid: Callable[[PartitionState], bool],
    rounds: int,
) -> Tuple[PartitionState, float, List[SweepStep]]:
    """Polish a sweep's winning ``cut`` (found at ``k``) by Dinkelbach's
    fixpoint step: re-solve at the cut's own ratio ``k ← F/R``.

    By Theorem 1's argument, any cut with a negative linear objective at
    that ``k`` has a strictly lower ratio, which is what lets a round
    correct a coarse grid's (or a coarse level's) ``k``. Each round
    calls ``refine(cut, ratio)`` on the current best and keeps the
    result only when ``valid`` accepts it and its
    :meth:`SweepStep.key` — the order the sweep picks its winner by —
    is strictly lower; the first round that is not kept, and a cut with
    no finite positive ratio, end the polish. At most ``rounds`` rounds
    run. Shared by the flat sweep (``MAARConfig.refine_rounds``) and
    multilevel's finest level.

    Returns ``(cut, k, steps)``: the polished cut, the ``k`` it was
    found at, and every round's step in order, kept or not.
    """
    best = SweepStep(k, cut, True)
    steps: List[SweepStep] = []
    for _ in range(rounds):
        ratio = best.cut.ratio()
        if not 0 < ratio < float("inf"):
            break
        candidate = refine(best.cut, ratio)
        step = SweepStep(ratio, candidate, valid(candidate))
        steps.append(step)
        if not step.valid or step.key() >= best.key():
            break
        best = step
    return best.cut, best.k, steps


def _k_candidate(k: float, state: PartitionState, valid: bool) -> KCandidate:
    return KCandidate(
        k=k,
        acceptance_rate=state.acceptance_rate(),
        ratio=state.ratio(),
        f_cross=state.f_cross,
        r_cross=state.r_cross,
        suspicious_size=state.suspicious_size,
        valid=valid,
    )


def _solve_maar_view(
    view: CSRView,
    config: MAARConfig,
    legit_seeds: Sequence[int] = (),
    spammer_seeds: Sequence[int] = (),
) -> MAARResult:
    """The MAAR sweep over a CSR residual view.

    Every KL run operates on :class:`PartitionState` — no subgraph
    materialization. The returned result's ``partition`` is the winning
    :class:`PartitionState`.
    """
    init = initial_partition(view, config, legit_seeds, spammer_seeds)
    num_active = view.num_active

    def valid(state: PartitionState) -> bool:
        return is_valid_cut(state.suspicious_size, num_active, state.r_cross, config)

    stats = KLStats()
    steps, winner = sweep_k_states(
        init,
        config.k_values(),
        jobs=config.jobs,
        stats=stats,
        valid=valid,
    )
    per_k: List[KCandidate] = []
    for step in steps:
        per_k.append(_k_candidate(*step))
        logger.debug(
            "k=%.4g: acceptance=%.3f F=%d R=%d size=%d valid=%s",
            step.k,
            per_k[-1].acceptance_rate,
            step.cut.f_cross,
            step.cut.r_cross,
            step.cut.suspicious_size,
            step.valid,
        )
    if winner is None:
        return MAARResult(None, None, 1.0, per_k, stats)
    best, best_k, polish = dinkelbach_polish(
        steps[winner].cut,
        steps[winner].k,
        lambda cut, k: extended_kl_state(cut, k, stats=stats),
        valid,
        config.refine_rounds,
    )
    per_k.extend(_k_candidate(*step) for step in polish)
    return MAARResult(
        partition=best,
        k=best_k,
        acceptance_rate=best.acceptance_rate(),
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

    Runs the extended KL search at each ``k`` of the geometric grid,
    upward, and returns the valid cut with the lowest aggregate
    acceptance rate among the steps run. Ties prefer the cut explaining
    more rejections (larger ``r_cross``), which captures more of the
    spammer region. The sweep stops at the first step after a valid
    best that is invalid or has a strictly higher acceptance rate; for
    an exact solver no later step could win (module docstring).
    ``result.per_k`` holds exactly the steps run, the stop step
    included, then any ``refine_rounds`` steps.

    ``graph`` may be an :class:`~repro.core.graph.AugmentedSocialGraph`
    builder or an already-finalized :class:`repro.core.csr.CSRGraph`;
    either way the sweep runs on the flat-array core and the result's
    ``partition`` is the winning :class:`PartitionState` over the graph's
    full view.
    """
    config = config or MAARConfig()
    return _solve_maar_view(graph.csr().view(), config, legit_seeds, spammer_seeds)
