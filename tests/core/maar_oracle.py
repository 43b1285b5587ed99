"""Exact MAAR answers for small graphs, and the full-grid reference sweep.

:func:`exact_maar` enumerates all ``2^n`` cuts of a graph with at most
:data:`MAX_EXACT_NODES` nodes and returns the valid one with the lowest
``(acceptance rate, −r_cross)`` — the answer Theorem 1's ``k`` sweep
approximates. It walks the cuts in Gray-code order, so each step flips
one node and updates the cut counters from that node's edges, and it
restates the validity rules (``min_suspicious``,
``max_suspicious_fraction``, not the whole graph, ``r_cross > 0``,
``min_evidence``) rather than calling the solver's predicate, so a wrong
counter or a wrong predicate in the solver shows up as a sweep that
"beats" the exact optimum.

:func:`full_grid` rebuilds the paper's full per-``k`` grid from
single-step sweeps (``MAARConfig(k_min=k, k_steps=1)``), and
:func:`stop_index` restates the sweep's early-exit rule over such a grid,
so a test can check that a sweep's ``per_k`` is the grid's prefix ending
at the stop step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.core import MAARConfig, solve_maar
from repro.core.maar import KCandidate

#: Largest graph :func:`exact_maar` enumerates (65,536 cuts).
MAX_EXACT_NODES = 16


@dataclass(frozen=True)
class ExactCut:
    """The exact MAAR cut: its suspicious set and counters."""

    suspicious: Tuple[int, ...]
    f_cross: int
    r_cross: int

    @property
    def acceptance_rate(self) -> float:
        return self.f_cross / (self.f_cross + self.r_cross)

    def key(self) -> Tuple[float, int]:
        return (self.acceptance_rate, -self.r_cross)


def cut_is_valid(size: int, num_nodes: int, r_cross: int, config: MAARConfig) -> bool:
    """The MAAR validity rules, stated independently of the solver."""
    if size < config.min_suspicious or size >= num_nodes:
        return False
    if size > config.max_suspicious_fraction * num_nodes:
        return False
    return r_cross > 0 and r_cross >= config.min_evidence * size


def exact_maar(graph, config: Optional[MAARConfig] = None) -> Optional[ExactCut]:
    """The valid cut of ``graph`` with the lowest ``(rate, −r_cross)``,
    over all ``2^n`` cuts; ``None`` when no cut is valid.

    Ties on the full key keep the cut enumerated first.
    """
    config = config or MAARConfig()
    n = graph.num_nodes
    if n > MAX_EXACT_NODES:
        raise ValueError(f"exact_maar enumerates at most {MAX_EXACT_NODES} nodes")
    friends: List[List[int]] = [[] for _ in range(n)]
    for u, v in graph.friendships():
        friends[u].append(v)
        friends[v].append(u)
    cast: List[List[int]] = [[] for _ in range(n)]
    received: List[List[int]] = [[] for _ in range(n)]
    for rejecter, sender in graph.rejections():
        cast[rejecter].append(sender)
        received[sender].append(rejecter)

    sides = [0] * n
    f_cross = r_cross = size = 0
    best: Optional[Tuple[Tuple[float, int], int, int]] = None
    mask = 0
    for step in range(1, 1 << n):
        u = (step & -step).bit_length() - 1
        # Counters before and after flipping u differ only on u's edges.
        for v in friends[u]:
            f_cross += 1 if sides[v] == sides[u] else -1
        if sides[u] == 0:
            # u joins the suspicious side: its cast rejections onto
            # suspicious senders stop counting, rejections it received
            # from legitimate users start counting.
            r_cross -= sum(sides[v] for v in cast[u])
            r_cross += sum(1 - sides[w] for w in received[u])
            size += 1
        else:
            r_cross += sum(sides[v] for v in cast[u])
            r_cross -= sum(1 - sides[w] for w in received[u])
            size -= 1
        sides[u] ^= 1
        mask ^= 1 << u
        if cut_is_valid(size, n, r_cross, config):
            key = (f_cross / (f_cross + r_cross), -r_cross)
            if best is None or key < best[0]:
                best = (key, mask, f_cross)
    if best is None:
        return None
    (_rate, neg_r), mask, f_best = best
    suspicious = tuple(u for u in range(n) if mask >> u & 1)
    return ExactCut(suspicious, f_cross=f_best, r_cross=-neg_r)


def full_grid(
    graph,
    config: Optional[MAARConfig] = None,
    legit_seeds: Sequence[int] = (),
    spammer_seeds: Sequence[int] = (),
) -> List[KCandidate]:
    """The paper's full per-``k`` grid: one single-step sweep per grid
    ``k``, each from the same initial partition."""
    config = config or MAARConfig()
    return [
        solve_maar(
            graph,
            replace(config, k_min=k, k_steps=1, refine_rounds=0),
            legit_seeds=legit_seeds,
            spammer_seeds=spammer_seeds,
        ).per_k[0]
        for k in config.k_values()
    ]


def candidate_key(candidate: KCandidate) -> Tuple[float, int]:
    return (candidate.acceptance_rate, -candidate.r_cross)


def per_k_values(candidates: Sequence[KCandidate]) -> List[tuple]:
    """The exact per-step record ``(k, f_cross, r_cross, size, valid)``."""
    return [
        (c.k, c.f_cross, c.r_cross, c.suspicious_size, c.valid) for c in candidates
    ]


def stop_index(grid: Sequence[KCandidate]) -> int:
    """Index of the step the early-exit sweep stops at on ``grid``: the
    first step after a valid best that is invalid or has a strictly
    higher acceptance rate (the last step when none is)."""
    best = None
    for index, candidate in enumerate(grid):
        if best is not None and (
            not candidate.valid or candidate.acceptance_rate > best.acceptance_rate
        ):
            return index
        if candidate.valid and (best is None or candidate_key(candidate) < candidate_key(best)):
            best = candidate
    return len(grid) - 1


def grid_winner(grid: Sequence[KCandidate]) -> Optional[KCandidate]:
    """The lowest-key valid step of ``grid`` (first one on a full tie)."""
    valid = [c for c in grid if c.valid]
    return min(valid, key=candidate_key) if valid else None
