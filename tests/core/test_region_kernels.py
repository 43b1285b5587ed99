"""Twin parity of the region-refinement scope kernels.

:func:`~repro.core.kernels.movable_frontier` and
:func:`~repro.core.kernels.cut_regions` must agree across the numpy and
pure-python backends, and with the scalar reference each replaced: the
per-node frontier loop and the depth-first region split multilevel
refinement ran before both became batch kernels (kept below as
``reference_frontier``/``reference_regions``).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AugmentedSocialGraph
from repro.core.csr import WeightedCSRGraph
from repro.core.kernels import (
    cut_regions,
    gain_deltas,
    movable_frontier,
    weighted_gain_deltas,
)

from ..conftest import graphs_with_sides, random_augmented_graph
from .test_weighted_parity import BACKENDS, coarse_state

K_VALUES = (0.125, 0.5, 0.3, 2.0)


def reference_frontier(csr, view, sides, k):
    """Positive-gain seeds plus their friends, one node at a time."""
    if csr.weighted:
        fd, rd = weighted_gain_deltas(view, sides)
    else:
        fd, rd = gain_deltas(view, sides)
    fp, fi = csr.hot()[:2]
    marked = set()
    for u in range(csr.num_nodes):
        if k * rd[u] > fd[u]:
            marked.add(u)
            marked.update(fi[fp[u] : fp[u + 1]])
    return sorted(marked)


def reference_regions(csr, nodes):
    """Depth-first components of the frontier-induced subgraph over all
    three layers, ordered by smallest member, each ascending."""
    fp, fi, op, oi, ip_, ii = csr.hot()
    layers = ((fp, fi), (op, oi), (ip_, ii))
    unclaimed = bytearray(csr.num_nodes)
    for u in nodes:
        unclaimed[u] = 1
    regions = []
    for seed in nodes:
        if not unclaimed[seed]:
            continue
        unclaimed[seed] = 0
        stack = [seed]
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for ptr, idx in layers:
                for v in idx[ptr[u] : ptr[u + 1]]:
                    if unclaimed[v]:
                        unclaimed[v] = 0
                        stack.append(v)
        comp.sort()
        regions.append(comp)
    return regions


def check_twins(csrs, sides, k, removed=()):
    """Both kernels on every backend's CSR equal the references; the
    frontier is taken on a residual view without ``removed``."""
    first = csrs[0]
    removed = [u for u in removed if u < first.num_nodes]
    frontier = reference_frontier(first, first.view().without(removed), sides, k)
    every = list(range(first.num_nodes))
    for csr in csrs:
        assert movable_frontier(csr.view().without(removed), sides, k) == frontier
        assert cut_regions(csr, frontier) == reference_regions(first, frontier)
        assert cut_regions(csr, every) == reference_regions(first, every)


class TestUnweighted:
    @given(
        graphs_with_sides(max_nodes=40, max_edges=90),
        st.sampled_from(K_VALUES),
        st.sets(st.integers(0, 39), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_twins_match_reference(self, graph_and_sides, k, removed):
        graph, sides = graph_and_sides
        csrs = [graph.csr(backend) for backend in BACKENDS]
        check_twins(csrs, sides, k)
        check_twins(csrs, sides, k, removed)

    @given(
        graphs_with_sides(max_nodes=40, max_edges=90),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_regions_of_any_subset(self, graph_and_sides, rng):
        graph, _ = graph_and_sides
        nodes = sorted(
            u for u in range(graph.num_nodes) if rng.random() < 0.5
        )
        expected = reference_regions(graph.csr("python"), nodes)
        for backend in BACKENDS:
            assert cut_regions(graph.csr(backend), nodes) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_larger_graphs(self, seed):
        graph = random_augmented_graph(300, 500, 250, seed=seed)
        rng = random.Random(seed)
        sides = [rng.randint(0, 1) for _ in range(300)]
        csrs = [graph.csr(backend) for backend in BACKENDS]
        for k in K_VALUES:
            check_twins(csrs, sides, k)


class TestInt64Weighted:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("levels", [1, 2])
    def test_twins_match_reference(self, seed, levels):
        csrs = []
        for backend in BACKENDS:
            csr, sides = coarse_state(seed, levels=levels, backend=backend)
            assert isinstance(csr, WeightedCSRGraph)
            csrs.append(csr)
        for k in K_VALUES:
            check_twins(csrs, sides, k)
            check_twins(csrs, sides, k, (0, 3, 7))


class TestEmptyFrontier:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_positive_gain_means_no_frontier(self, backend):
        graph = AugmentedSocialGraph.from_edges(4, [(0, 1), (1, 2)], [])
        view = graph.csr(backend).view()
        assert movable_frontier(view, [0, 0, 0, 0], 1.0) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_nodes_means_no_regions(self, backend):
        graph = random_augmented_graph(20, 40, 20, seed=3)
        assert cut_regions(graph.csr(backend), []) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_edgeless_frontier_is_singletons(self, backend):
        graph = AugmentedSocialGraph.from_edges(5, [(0, 1)], [(3, 4)])
        assert cut_regions(graph.csr(backend), [0, 2, 4]) == [[0], [2], [4]]
        assert cut_regions(graph.csr(backend), [0, 1, 2, 3, 4]) == [
            [0, 1],
            [2],
            [3, 4],
        ]

    def test_float_weighted_frontier_refused(self):
        """A frontier over fractional weights cannot be asked for: the
        graph it would need is refused where it would be built."""
        from .weighted_oracle import WeightedAugmentedGraph

        graph = WeightedAugmentedGraph(3)
        graph.add_friendship(0, 1, 1.5)
        with pytest.raises(ValueError, match="int64"):
            movable_frontier(graph.csr().view(), [0, 1, 0], 1.0)
