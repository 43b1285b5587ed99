"""Dict-adjacency MAAR cut accounting: the test oracle for ``PartitionState``.

Every solver runs on :class:`repro.core.csr.PartitionState` over a CSR
view. This module keeps the slow, obviously-correct reference the CSR
counters are checked against, written straight from Section III-A's
definitions over the builder's adjacency:

* :func:`cross_friendships` — ``|F(Ū, U)|``, friendships straddling the
  cut (symmetric);
* :func:`cross_rejections_into_suspicious` — ``|R⃗⟨Ū, U⟩|``, rejections
  cast by side 0 onto side 1 (directional);
* :func:`cut_counts` — both counters, recomputed from scratch;
* :func:`linear_objective` — ``W(U) = |F(Ū,U)| − k·|R⃗⟨Ū,U⟩|``;
* :class:`Partition` — a bipartition of an
  :class:`~repro.core.graph.AugmentedSocialGraph` with the two counters
  maintained incrementally under single-node switches;
* :func:`induced` — the graph a residual view stands for, so a
  :class:`Partition` over it is the reference for that view;
* :func:`switch_deltas` — a switch's counter deltas, read off any
  incremental partition (this one or the weighted oracle's).

A :class:`Partition` has a ``sides`` list, so it also serves as a
starting cut for :func:`repro.core.kl.extended_kl`.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.core.graph import AugmentedSocialGraph
from repro.core.objectives import (
    LEGITIMATE,
    SUSPICIOUS,
    acceptance_rate,
    friends_to_rejections_ratio,
)

__all__ = [
    "Partition",
    "cross_friendships",
    "cross_rejections_into_suspicious",
    "cut_counts",
    "induced",
    "linear_objective",
    "switch_deltas",
]


def cross_friendships(graph: AugmentedSocialGraph, sides: Sequence[int]) -> int:
    """``|F(Ū, U)|`` — friendships crossing the partition (direction-free)."""
    return sum(1 for u, v in graph.friendships() if sides[u] != sides[v])


def cross_rejections_into_suspicious(
    graph: AugmentedSocialGraph, sides: Sequence[int]
) -> int:
    """``|R⃗⟨Ū, U⟩|`` — rejections cast by side 0 onto side 1.

    Only these rejections appear in the MAAR objective: a rejection is
    counted iff the rejecter sits in the legitimate region and the
    rejected request sender sits in the suspicious region.
    """
    return sum(
        1
        for rejecter, sender in graph.rejections()
        if sides[rejecter] == LEGITIMATE and sides[sender] == SUSPICIOUS
    )


def cut_counts(graph: AugmentedSocialGraph, sides: Sequence[int]) -> Tuple[int, int]:
    """``(|F(Ū, U)|, |R⃗⟨Ū, U⟩|)`` computed from scratch."""
    return (
        cross_friendships(graph, sides),
        cross_rejections_into_suspicious(graph, sides),
    )


def induced(graph: AugmentedSocialGraph, active: Sequence[int]) -> AugmentedSocialGraph:
    """``graph`` restricted to the nodes flagged in ``active``, ids kept:
    every edge with an inactive endpoint is dropped, which is how a
    residual view counts."""
    out = AugmentedSocialGraph(graph.num_nodes)
    for u, v in graph.friendships():
        if active[u] and active[v]:
            out.add_friendship(u, v)
    for rejecter, sender in graph.rejections():
        if active[rejecter] and active[sender]:
            out.add_rejection(rejecter, sender)
    return out


def switch_deltas(partition, u: int) -> Tuple[int, int]:
    """``(Δf_cross, Δr_cross)`` of switching ``u``, measured by switching
    it and back on any partition with incremental ``f_cross``/``r_cross``
    counters."""
    before = partition.f_cross, partition.r_cross
    partition.switch(u)
    after = partition.f_cross, partition.r_cross
    partition.switch(u)
    return after[0] - before[0], after[1] - before[1]


def linear_objective(f_cross: int, r_cross: int, k: float) -> float:
    """The linearized objective ``W(U) = |F(Ū,U)| − k·|R⃗⟨Ū,U⟩|``.

    Theorem 1: at ``k = k*`` (the optimal friends-to-rejections ratio),
    the MAAR cut is exactly the minimizer of this linear objective.
    """
    return f_cross - k * r_cross


class Partition:
    """A 2-way node assignment with incrementally maintained cut counters."""

    __slots__ = ("graph", "sides", "f_cross", "r_cross", "side_sizes")

    def __init__(self, graph: AugmentedSocialGraph, sides: Sequence[int]) -> None:
        if len(sides) != graph.num_nodes:
            raise ValueError(
                f"sides has length {len(sides)}, expected {graph.num_nodes}"
            )
        bad = [s for s in sides if s not in (LEGITIMATE, SUSPICIOUS)]
        if bad:
            raise ValueError(f"sides must be 0 or 1, found {bad[0]!r}")
        self.graph = graph
        self.sides: List[int] = list(sides)
        self.f_cross, self.r_cross = cut_counts(graph, self.sides)
        ones = sum(self.sides)
        self.side_sizes: List[int] = [graph.num_nodes - ones, ones]

    @classmethod
    def all_legitimate(cls, graph: AugmentedSocialGraph) -> "Partition":
        """Everyone starts on side 0."""
        return cls(graph, [LEGITIMATE] * graph.num_nodes)

    @classmethod
    def from_suspicious_set(
        cls, graph: AugmentedSocialGraph, suspicious: Iterable[int]
    ) -> "Partition":
        """Side 1 holds exactly the given nodes."""
        sides = [LEGITIMATE] * graph.num_nodes
        for u in suspicious:
            sides[u] = SUSPICIOUS
        return cls(graph, sides)

    def _deltas(self, u: int) -> Tuple[int, int]:
        """``(Δf_cross, Δr_cross)`` of switching ``u``.

        The friendship delta is symmetric: each friend on the same side
        becomes a cross edge (+1) and each friend on the other side
        becomes internal (−1). The rejection delta is *directional*: a
        rejection ⟨a, b⟩ is counted iff ``side(a) == 0`` and
        ``side(b) == 1``, so out-rejections of ``u`` toggle when ``u``
        crosses to/from side 0 and in-rejections toggle when ``u``
        crosses to/from side 1.
        """
        sides = self.sides
        s = sides[u]
        friends_delta = 0
        for v in self.graph.friends[u]:
            friends_delta += 1 if sides[v] == s else -1
        rejected_suspicious = sum(
            1 for v in self.graph.rej_out[u] if sides[v] == SUSPICIOUS
        )
        rejecters_legitimate = sum(
            1 for w in self.graph.rej_in[u] if sides[w] == LEGITIMATE
        )
        # Leaving side 0, u's rejections of side-1 users stop counting and
        # the rejections it receives from side-0 users start counting;
        # joining side 0 is the mirror image.
        rej_delta = rejecters_legitimate - rejected_suspicious
        if s == SUSPICIOUS:
            rej_delta = -rej_delta
        return friends_delta, rej_delta

    def switch(self, u: int) -> None:
        """Move node ``u`` to the other side, updating cut counters."""
        friends_delta, rej_delta = self._deltas(u)
        s = self.sides[u]
        self.f_cross += friends_delta
        self.r_cross += rej_delta
        self.side_sizes[s] -= 1
        self.side_sizes[1 - s] += 1
        self.sides[u] = 1 - s

    def switch_gain(self, u: int, k: float) -> float:
        """Gain (decrease in ``W = f_cross − k·r_cross``) of switching ``u``.

        Pure query — the partition is not modified.
        """
        friends_delta, rej_delta = self._deltas(u)
        return -(friends_delta - k * rej_delta)

    def suspicious_nodes(self) -> List[int]:
        """Node ids currently on side 1 (the candidate spammer region)."""
        return [u for u, s in enumerate(self.sides) if s == SUSPICIOUS]

    def legitimate_nodes(self) -> List[int]:
        """Node ids currently on side 0."""
        return [u for u, s in enumerate(self.sides) if s == LEGITIMATE]

    @property
    def suspicious_size(self) -> int:
        return self.side_sizes[SUSPICIOUS]

    @property
    def legitimate_size(self) -> int:
        return self.side_sizes[LEGITIMATE]

    def acceptance_rate(self) -> float:
        """Aggregate acceptance rate ``AC⟨U, Ū⟩`` of the current cut."""
        return acceptance_rate(self.f_cross, self.r_cross)

    def ratio(self) -> float:
        """Friends-to-rejections ratio of the current cut."""
        return friends_to_rejections_ratio(self.f_cross, self.r_cross)

    def objective(self, k: float) -> float:
        """Linearized objective ``W(U)`` at the given ``k``."""
        return linear_objective(self.f_cross, self.r_cross, k)

    def verify_counts(self) -> bool:
        """Check incremental counters against a from-scratch recount."""
        return (self.f_cross, self.r_cross) == cut_counts(self.graph, self.sides)

    def copy(self) -> "Partition":
        """Independent copy sharing the underlying graph."""
        clone = Partition.__new__(Partition)
        clone.graph = self.graph
        clone.sides = list(self.sides)
        clone.f_cross = self.f_cross
        clone.r_cross = self.r_cross
        clone.side_sizes = list(self.side_sizes)
        return clone

    def __repr__(self) -> str:
        return (
            f"Partition(suspicious={self.suspicious_size}, "
            f"legitimate={self.legitimate_size}, f_cross={self.f_cross}, "
            f"r_cross={self.r_cross})"
        )
