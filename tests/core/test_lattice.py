"""Bucket passes run on ``k``'s lowest-terms lattice.

``KLConfig.resolution`` only decides whether ``k`` is on the grid; each
bucket pass runs at ``round(k·res)/res`` reduced to lowest terms
(:func:`repro.core.gains._lowest_terms`). Reducing divides every gain of
the pass by one positive factor, so pops, LIFO ties, best prefixes and
counters must not change: checked here on the bare pass body at several
scales, on whole solves under different grid resolutions, and on the
bound cache, which must only ever see the reduced scale.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KLConfig, KLStats
from repro.core.csr import PartitionState
from repro.core.gains import _lowest_terms
from repro.core.kernels import gain_deltas
from repro.core.kl import _bucket_pass, extended_kl_state

from ..conftest import graphs_with_sides, random_augmented_graph
from .test_weighted_parity import BACKENDS, coarse_state

#: Multiples of 1/8 — on the grids of 8, 16 and 24 alike.
ON_GRID = st.integers(min_value=1, max_value=48).map(lambda m: m / 8)

_node_sets = st.sets(st.integers(min_value=0, max_value=23), max_size=6)


def solve_signature(view, sides, locked, k, **config):
    stats = KLStats()
    out = extended_kl_state(
        PartitionState(view, list(sides), locked), k, KLConfig(**config), stats
    )
    return (
        out.sides,
        out.f_cross,
        out.r_cross,
        stats.passes,
        stats.switches_tested,
        stats.switches_applied,
        stats.objective_history,
    )


class TestLowestTerms:
    @pytest.mark.parametrize(
        "k, resolution, expected",
        [
            (0.125, 8, (1, 8)),
            (0.25, 8, (1, 4)),
            (0.5, 8, (1, 2)),
            (0.75, 8, (3, 4)),
            (1.0, 8, (1, 1)),
            (2.0, 8, (2, 1)),
            (64.0, 8, (64, 1)),
            (2.0, 24, (2, 1)),
            (0.625, 16, (5, 8)),
        ],
    )
    def test_reduces(self, k, resolution, expected):
        assert _lowest_terms(k, resolution) == expected


@given(graphs_with_sides(), ON_GRID, _node_sets, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_pass_body_is_scale_invariant(graph_and_sides, k, locked_set, scale):
    """The bare bucket pass at ``scale`` times the lowest-terms scale
    pops, keeps and counts exactly what it does at the lowest terms."""
    graph, sides = graph_and_sides
    n = graph.num_nodes
    locked = [u in locked_set for u in range(n)]
    csr = graph.csr()
    view = csr.view()
    fd, rd = gain_deltas(view, sides)
    eligible = [u for u in range(n) if not locked[u]]
    base_k, base_res = _lowest_terms(k, 8)
    outcomes = []
    for g in (1, scale):
        k_scaled, res = base_k * g, base_res * g
        offset = csr.bucket_gain_bound(res, k_scaled) + 1
        gain_b = [k_scaled * rd[u] - fd[u] * res + offset for u in range(n)]
        state = PartitionState(view, list(sides), locked)
        applied, tested = _bucket_pass(
            state, eligible, gain_b, view.hot_active(), None, k_scaled, res,
            offset, None,
        )
        outcomes.append(
            (applied, tested, state.sides, state.f_cross, state.r_cross)
        )
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("backend", BACKENDS)
@given(graphs_with_sides(), ON_GRID, _node_sets)
@settings(max_examples=40, deadline=None)
def test_solve_is_resolution_invariant(backend, graph_and_sides, k, locked_set):
    graph, sides = graph_and_sides
    locked = [u in locked_set for u in range(graph.num_nodes)]
    view = graph.csr(backend).view()
    signatures = [
        solve_signature(
            view, sides, locked, k, gain_index="bucket", resolution=res
        )
        for res in (8, 16, 24)
    ]
    assert signatures[0] == signatures[1] == signatures[2]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(3))
def test_weighted_solve_is_resolution_invariant(backend, seed):
    csr, sides = coarse_state(seed, levels=2, backend=backend)
    locked = [False] * csr.num_nodes
    for k in (0.125, 0.75, 2.0, 16.0):
        signatures = [
            solve_signature(csr.view(), sides, locked, k, resolution=res)
            for res in (8, 16, 24)
        ]
        assert signatures[0] == signatures[1] == signatures[2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_bound_cache_sees_only_the_reduced_scale(backend):
    """A ``k = 2`` solve sizes its buckets at ``(res, k_scaled) = (1, 2)``,
    not at the configured grid's ``(8, 16)``."""
    graph = random_augmented_graph(40, 90, 40, seed=7)
    csr = graph.csr(backend)
    assert csr._bound_cache == {}
    state = PartitionState(csr.view(), [u % 2 for u in range(40)])
    extended_kl_state(state, 2.0, KLConfig(gain_index="bucket"))
    assert list(csr._bound_cache) == [(1, 2)]
    extended_kl_state(state, 0.375, KLConfig(gain_index="bucket"))
    assert sorted(csr._bound_cache) == [(1, 2), (8, 3)]
