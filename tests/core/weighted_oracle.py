"""Dict-adjacency weighted graphs: the test oracle for the CSR weighted path.

The multilevel MAAR solver (:mod:`repro.core.multilevel`) coarsens the
social graph by merging matched node pairs; merged parallel edges keep
their multiplicity, so the coarse levels carry *weighted* friendships
and rejections. The solver builds them directly as int64
:class:`~repro.core.csr.WeightedCSRGraph` arrays
(:func:`repro.core.kernels.contract_arrays`); this module keeps the
slow, obviously-correct reference they are checked against:

* :class:`WeightedAugmentedGraph` — adjacency dicts carrying weights,
  for both the undirected friendship layer and the directed rejection
  layer;
* :class:`WeightedPartition` — the incremental MAAR cut counters over
  weighted edges;
* :func:`weighted_csr` — finalization of a builder into a
  :class:`~repro.core.csr.WeightedCSRGraph`. Weights must be integral
  (every weight the solver produces is a sum of unit edges);
  fractional weights are rejected, since no CSR graph can hold them.

Objective semantics are identical to the unweighted case with every
edge count replaced by a weight sum; an unweighted graph embedded with
all weights 1 reproduces the plain objective exactly (property-tested).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence, Tuple

from repro.core.csr import WeightedCSRGraph, resolve_backend
from repro.core.graph import AugmentedSocialGraph
from repro.core.objectives import LEGITIMATE, SUSPICIOUS

__all__ = [
    "WeightedAugmentedGraph",
    "WeightedPartition",
    "weighted_csr",
]


def _build_weighted_csr(
    num_nodes: int, adjacency: Sequence[Dict[int, float]]
) -> Tuple[array, array, array]:
    """Per-row sorted int64 ``(ptr, idx, wt)`` triples."""
    ptr = array("q", [0] * (num_nodes + 1))
    total = 0
    for u in range(num_nodes):
        total += len(adjacency[u])
        ptr[u + 1] = total
    idx = array("q", [0] * total)
    wt = array("q", [0] * total)
    pos = 0
    for u in range(num_nodes):
        for v in sorted(adjacency[u]):
            idx[pos] = v
            wt[pos] = int(adjacency[u][v])
            pos += 1
    return ptr, idx, wt


def weighted_csr(graph: "WeightedAugmentedGraph", backend: str = "auto"):
    """Finalize ``graph`` into a :class:`WeightedCSRGraph` with int64
    weights and the builder's ``node_weight``.

    Raises ``ValueError`` if any edge weight is fractional.
    """
    for adjacency in (graph.friends, graph.rej_out):
        for row in adjacency:
            for weight in row.values():
                if not float(weight).is_integer():
                    raise ValueError(
                        f"weight {weight} is fractional; CSR graphs hold "
                        "int64 weights only"
                    )
    n = graph.num_nodes
    f_ptr, f_idx, f_wt = _build_weighted_csr(n, graph.friends)
    ro_ptr, ro_idx, ro_wt = _build_weighted_csr(n, graph.rej_out)
    ri_ptr, ri_idx, ri_wt = _build_weighted_csr(n, graph.rej_in)
    return WeightedCSRGraph(
        n,
        f_ptr,
        f_idx,
        ro_ptr,
        ro_idx,
        ri_ptr,
        ri_idx,
        f_wt=f_wt,
        ro_wt=ro_wt,
        ri_wt=ri_wt,
        node_weight=array("q", graph.node_weight),
        backend=backend,
    )


class WeightedAugmentedGraph:
    """Weighted friendships (symmetric) and rejections (directed)."""

    __slots__ = (
        "num_nodes",
        "friends",
        "rej_out",
        "rej_in",
        "node_weight",
        "_csr_cache",
    )

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be >= 0, got {num_nodes}")
        self.num_nodes = num_nodes
        self.friends: List[Dict[int, float]] = [dict() for _ in range(num_nodes)]
        self.rej_out: List[Dict[int, float]] = [dict() for _ in range(num_nodes)]
        self.rej_in: List[Dict[int, float]] = [dict() for _ in range(num_nodes)]
        #: how many original nodes each node represents (coarsening)
        self.node_weight: List[int] = [1] * num_nodes
        self._csr_cache = None

    @classmethod
    def from_graph(cls, graph: AugmentedSocialGraph) -> "WeightedAugmentedGraph":
        """Embed an unweighted augmented graph with unit weights."""
        weighted = cls(graph.num_nodes)
        for u, v in graph.friendships():
            weighted.add_friendship(u, v, 1.0)
        for rejecter, sender in graph.rejections():
            weighted.add_rejection(rejecter, sender, 1.0)
        return weighted

    def add_friendship(self, u: int, v: int, weight: float) -> None:
        """Accumulate friendship weight between ``u`` and ``v``."""
        if u == v:
            raise ValueError(f"self-friendship on node {u}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.friends[u][v] = self.friends[u].get(v, 0.0) + weight
        self.friends[v][u] = self.friends[v].get(u, 0.0) + weight
        self._csr_cache = None

    def add_rejection(self, rejecter: int, sender: int, weight: float) -> None:
        """Accumulate rejection weight on the edge ``⟨rejecter, sender⟩``."""
        if rejecter == sender:
            raise ValueError(f"self-rejection on node {rejecter}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.rej_out[rejecter][sender] = (
            self.rej_out[rejecter].get(sender, 0.0) + weight
        )
        self.rej_in[sender][rejecter] = (
            self.rej_in[sender].get(rejecter, 0.0) + weight
        )
        self._csr_cache = None

    def csr(self, backend: str = "auto") -> WeightedCSRGraph:
        """:func:`weighted_csr`, cached until the next
        ``add_friendship``/``add_rejection`` (the same lifecycle as the
        unweighted builder's ``csr()``)."""
        backend = resolve_backend(backend)
        cache = self._csr_cache
        if cache is None or cache.backend != backend:
            cache = weighted_csr(self, backend=backend)
            self._csr_cache = cache
        return cache

    def total_friendship_weight(self) -> float:
        return sum(sum(adj.values()) for adj in self.friends) / 2.0

    def total_rejection_weight(self) -> float:
        return sum(sum(adj.values()) for adj in self.rej_out)


class WeightedPartition:
    """Bipartition with weighted MAAR cut counters."""

    __slots__ = ("graph", "sides", "f_cross", "r_cross")

    def __init__(self, graph: WeightedAugmentedGraph, sides: Sequence[int]) -> None:
        if len(sides) != graph.num_nodes:
            raise ValueError(
                f"sides has length {len(sides)}, expected {graph.num_nodes}"
            )
        self.graph = graph
        self.sides: List[int] = list(sides)
        self.f_cross = 0.0
        self.r_cross = 0.0
        for u in range(graph.num_nodes):
            for v, weight in graph.friends[u].items():
                if u < v and self.sides[u] != self.sides[v]:
                    self.f_cross += weight
            if self.sides[u] == LEGITIMATE:
                for v, weight in graph.rej_out[u].items():
                    if self.sides[v] == SUSPICIOUS:
                        self.r_cross += weight

    def switch(self, u: int) -> None:
        """Move ``u`` to the other side, updating weighted counters."""
        graph, sides = self.graph, self.sides
        s = sides[u]
        for v, weight in graph.friends[u].items():
            self.f_cross += weight if sides[v] == s else -weight
        if s == LEGITIMATE:
            for v, weight in graph.rej_out[u].items():
                if sides[v] == SUSPICIOUS:
                    self.r_cross -= weight
            for w, weight in graph.rej_in[u].items():
                if sides[w] == LEGITIMATE:
                    self.r_cross += weight
        else:
            for v, weight in graph.rej_out[u].items():
                if sides[v] == SUSPICIOUS:
                    self.r_cross += weight
            for w, weight in graph.rej_in[u].items():
                if sides[w] == LEGITIMATE:
                    self.r_cross -= weight
        sides[u] = 1 - s

    def switch_gain(self, u: int, k: float) -> float:
        """Gain of switching ``u`` for ``W = f_cross − k·r_cross``."""
        graph, sides = self.graph, self.sides
        s = sides[u]
        friends_delta = 0.0
        for v, weight in graph.friends[u].items():
            friends_delta += weight if sides[v] == s else -weight
        rej_delta = 0.0
        if s == LEGITIMATE:
            for v, weight in graph.rej_out[u].items():
                if sides[v] == SUSPICIOUS:
                    rej_delta -= weight
            for w, weight in graph.rej_in[u].items():
                if sides[w] == LEGITIMATE:
                    rej_delta += weight
        else:
            for v, weight in graph.rej_out[u].items():
                if sides[v] == SUSPICIOUS:
                    rej_delta += weight
            for w, weight in graph.rej_in[u].items():
                if sides[w] == LEGITIMATE:
                    rej_delta -= weight
        return -(friends_delta - k * rej_delta)

    def suspicious_size(self) -> int:
        """Number of *original* nodes on the suspicious side."""
        return sum(
            self.graph.node_weight[u]
            for u, s in enumerate(self.sides)
            if s == SUSPICIOUS
        )

    def objective(self, k: float) -> float:
        return self.f_cross - k * self.r_cross
