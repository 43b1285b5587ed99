"""The matrix FM pass against the bucket pass it replays.

:func:`repro.core.kl._matrix_pass` keeps one int64 key per node
(``bucket · 2**32 + stamp``) over dense row matrices instead of the
bucket pass's linked lists, and must pop, keep and count exactly what
:func:`~repro.core.kl._bucket_pass` does on the same inputs. The bucket
pass, loaded from the batch kernel's gains while the matrix pass derives
its start keys from its own rows, is the oracle here: the property draws dense small graphs (unit,
int64-weighted and residual), eligible lists (every node, a random
subset, the boundary scope), locked nodes and stall limits, including a
node pair joined by a friendship and by rejections in both directions,
whose relink stamp must come from its *last* occurrence in the sweep.
Weights scaled to the edge of the key's int64 headroom are judged
through the pass's scale invariance. Finally the frozen KL, region
refinement and multilevel hashes are re-run with the dispatch rule
forced onto every numpy bucket pass.

numpy only: the pass has no scalar twin, and the no-numpy run skips it.
"""

from __future__ import annotations

import random
from array import array
from types import SimpleNamespace

import pytest

pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import repro.core.kl as kl  # noqa: E402
from repro.core.csr import CSRGraph, PartitionState, WeightedCSRGraph  # noqa: E402
from repro.core.gains import _lowest_terms, _on_grid  # noqa: E402
from repro.core.kernels import (  # noqa: E402
    boundary_nodes,
    gain_deltas,
    weighted_gain_deltas,
)

from . import test_kl_frozen as kl_frozen  # noqa: E402
from . import test_multilevel_frozen as multilevel_frozen  # noqa: E402
from . import test_refine_frozen as refine_frozen  # noqa: E402
from .weighted_oracle import WeightedAugmentedGraph  # noqa: E402

#: On the default 1/8 grid; 3.5 and 0.375 reduce to other scales.
GRID_K = (0.125, 0.375, 1.0, 2.0, 3.5)


def _dense_graph(n, seed, kind, p_friend, p_reject, max_weight, both_ways):
    """A dense random graph on the numpy backend; node pair (0, 1)
    carries a friendship and rejections both ways when ``both_ways``."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    friends = [(u, v) for u, v in pairs if u < v and rng.random() < p_friend]
    rejections = [(u, v) for u, v in pairs if rng.random() < p_reject]
    if both_ways:
        friends.append((0, 1))
        rejections += [(0, 1), (1, 0)]
    if kind != "weighted":
        return CSRGraph.from_edges(n, friends, rejections, backend="numpy")
    graph = WeightedAugmentedGraph(n)
    for u, v in set(friends):
        graph.add_friendship(u, v, rng.randint(1, max_weight))
    for u, v in set(rejections):
        graph.add_rejection(u, v, rng.randint(1, max_weight))
    return graph.csr("numpy")


@st.composite
def pass_inputs(draw):
    """One bucket-pass input: view, sides, locks, eligible list, k and
    stall limit."""
    n = draw(st.integers(2, 18))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(("unit", "weighted", "residual")))
    csr = _dense_graph(
        n,
        seed,
        kind,
        draw(st.sampled_from((0.3, 0.6, 0.9))),
        draw(st.sampled_from((0.2, 0.5))),
        draw(st.sampled_from((2, 5, 60))),
        draw(st.booleans()),
    )
    rng = random.Random(seed + 1)
    view = csr.view()
    if kind == "residual":
        view = view.without(u for u in range(n) if rng.random() < 0.2)
    sides = [rng.randint(0, 1) for _ in range(n)]
    p_lock = draw(st.sampled_from((0.0, 0.25)))
    locked = [rng.random() < p_lock for _ in range(n)]
    k = draw(st.sampled_from(GRID_K))
    movable = [u for u in range(n) if view.active[u] and not locked[u]]
    scope = draw(st.sampled_from(("all", "subset", "boundary")))
    if scope == "subset":
        eligible = sorted(rng.sample(movable, len(movable) // 2))
    elif scope == "boundary":
        eligible = [
            u
            for u in boundary_nodes(view, sides, k)
            if view.active[u] and not locked[u]
        ]
    else:
        eligible = movable
    stall = draw(st.sampled_from((None, 1, 2, 5)))
    return SimpleNamespace(
        view=view, sides=sides, locked=locked, eligible=eligible, k=k, stall=stall
    )


def _gain_b(view, sides, k_scaled, res, offset):
    kernel = weighted_gain_deltas if view.csr.weighted else gain_deltas
    fd, rd = kernel(view, sides)
    return [k_scaled * r - f * res + offset for f, r in zip(fd, rd)]


def _outcome(state, applied, tested):
    return applied, tested, state.sides, state.f_cross, state.r_cross


def run_bucket(case):
    """``_bucket_pass`` on ``case``, as ``_run_passes`` calls it."""
    view = case.view
    k_scaled, res = _lowest_terms(case.k, 8)
    offset = view.csr.bucket_gain_bound(res, k_scaled) + 1
    state = PartitionState(view, list(case.sides), case.locked)
    applied, tested = kl._bucket_pass(
        state,
        case.eligible,
        _gain_b(view, case.sides, k_scaled, res, offset),
        view.hot_active() if not view.csr.weighted else view.csr.hot(),
        view.csr.hot_weights(),
        k_scaled,
        res,
        offset,
        case.stall,
    )
    return _outcome(state, applied, tested)


def run_matrix(case, view=None):
    """``_matrix_pass`` on ``case``, or on ``view`` in its place."""
    view = view or case.view
    k_scaled, res = _lowest_terms(case.k, 8)
    offset = view.csr.bucket_gain_bound(res, k_scaled) + 1
    state = PartitionState(view, list(case.sides), case.locked)
    applied, tested = kl._matrix_pass(
        state,
        case.eligible,
        k_scaled,
        res,
        offset,
        case.stall,
    )
    return _outcome(state, applied, tested)


class TestBucketParity:
    @given(pass_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_bucket_pass(self, case):
        assert run_matrix(case) == run_bucket(case)

    def test_pairs_with_friendship_and_rejections_both_ways(self):
        """A friendship clique where a random half of the pairs also
        reject each other both ways: a relink visits such a neighbour
        three times, and only the last visit's slot orders the bucket,
        which puts it after every friend-only neighbour."""
        n = 14
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for seed in range(6):
            rng = random.Random(seed)
            both = [p for p in pairs if rng.random() < 0.5]
            rejections = both + [(v, u) for u, v in both]
            csr = CSRGraph.from_edges(n, pairs, rejections, backend="numpy")
            for k in GRID_K:
                case = SimpleNamespace(
                    view=csr.view(),
                    sides=[rng.randint(0, 1) for _ in range(n)],
                    locked=[False] * n,
                    eligible=list(range(n)),
                    k=k,
                    stall=None,
                )
                assert run_matrix(case) == run_bucket(case)

    @given(pass_inputs())
    @settings(max_examples=60, deadline=None)
    def test_weights_at_key_headroom(self, case):
        if case.view.num_active == case.view.csr.num_nodes:
            assert_parity_at_headroom(case)

    @pytest.mark.parametrize("k", GRID_K)
    def test_buried_key_at_full_drift(self, k):
        """A star whose centre pops first, then every leaf leaves the
        centre's new side (each pulled by two locked anchors): the
        centre's buried key rises by the whole ``2·bound`` the headroom
        proof allows, while every leaf pop still extends the prefix."""
        m = 30
        leaves = range(1, m + 1)
        friends = [(0, leaf) for leaf in leaves]
        friends += [(leaf, m + 2 * leaf - 1 + i) for leaf in leaves for i in (0, 1)]
        n = 3 * m + 1
        star = CSRGraph.from_edges(n, friends, backend="numpy")
        case = SimpleNamespace(
            view=star.view(),
            sides=[0] + [1] * m + [0] * (2 * m),
            locked=[False] * (m + 1) + [True] * (2 * m),
            eligible=list(range(m + 1)),
            k=k,
            stall=None,
        )
        applied, tested = run_bucket(case)[:2]
        assert applied[0] == 0 and sorted(applied) == list(range(m + 1))
        assert tested == m + 1
        assert_parity_at_headroom(case)


def assert_parity_at_headroom(case):
    """Every weight times ``c``, the largest factor the dispatch rule
    admits: gains scale by ``c``, so the matrix pass on the scaled graph
    must pop what the bucket pass pops on the original, with ``c`` times
    the counters."""
    csr = case.view.csr
    k_scaled, res = _lowest_terms(case.k, 8)
    bound = csr.bucket_gain_bound(res, k_scaled)
    if bound == 0:
        return
    c = ((1 << 29) - 1) // bound
    weights = csr.hot_weights() or [
        [1] * len(idx) for idx in (csr.f_idx, csr.ro_idx, csr.ri_idx)
    ]
    scaled = WeightedCSRGraph(
        csr.num_nodes,
        csr.f_ptr,
        csr.f_idx,
        csr.ro_ptr,
        csr.ro_idx,
        csr.ri_ptr,
        csr.ri_idx,
        *(array("q", [c * w for w in wt]) for wt in weights),
        backend="numpy",
    )
    offset = scaled.bucket_gain_bound(res, k_scaled) + 1
    assert 2 * offset <= 1 << 30 < 2 * (offset + bound)
    applied, tested, sides, f_cross, r_cross = run_bucket(case)
    assert run_matrix(case, scaled.view()) == (
        applied, tested, sides, c * f_cross, c * r_cross
    )


class TestDispatch:
    def test_rule(self, monkeypatch):
        def clique(n, fill):
            rng = random.Random(n)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            friends = [p for p in pairs if rng.random() < fill]
            return CSRGraph.from_edges(n, friends, backend="numpy")

        dense, sparse = clique(200, 0.8), clique(200, 0.3)
        assert kl._use_matrix(dense, 100)
        assert not kl._use_matrix(sparse, 100)
        assert not kl._use_matrix(clique(40, 1.0), 100)  # below the floor
        # No headroom left for the buried keys: the bucket pass runs.
        assert kl._use_matrix(dense, 1 << 29)
        assert not kl._use_matrix(dense, (1 << 29) + 1)
        python = CSRGraph.from_edges(200, [], backend="python")
        monkeypatch.setattr(kl, "_MATRIX_FILL", 0.0)
        assert not kl._use_matrix(python, 100)

    def test_rule_is_false_on_flat_benchmark_graphs(self):
        """The flat-sweep and cluster benchmark graphs (Rejecto rounds
        over a Facebook-like graph, Table II's top row) are far too
        sparse: their passes keep the bucket list."""
        from repro.attacks import ScenarioConfig, build_scenario
        from repro.graphgen.datasets import CATALOG, generate_dataset

        facebook = generate_dataset(
            "facebook", scale=4000 / CATALOG["facebook"].paper_nodes, seed=1
        )
        table2 = build_scenario(ScenarioConfig(num_legit=7200, num_fakes=800, seed=1))
        for graph in (facebook, table2.graph):
            csr = graph.csr("numpy")
            for k in GRID_K:
                k_scaled, res = _lowest_terms(k, 8)
                offset = csr.bucket_gain_bound(res, k_scaled) + 1
                assert not kl._use_matrix(csr, offset)

    def test_matrix_levels_build_no_plain_lists(self, monkeypatch):
        """A level only the matrix pass reads never builds ``hot()``."""
        monkeypatch.setattr(kl, "_MATRIX_MIN_NODES", 0)
        csr = _dense_graph(30, 5, "weighted", 0.9, 0.5, 5, True)
        kl.extended_kl_state(PartitionState(csr.view(), [u % 2 for u in range(30)]), 1.0)
        assert csr._hot_cache is None and csr._hot_wt_cache is None
        assert "matrices" in csr.numpy_arrays()


@pytest.fixture
def forced(monkeypatch):
    """Force the matrix pass onto every numpy bucket pass and count its
    calls."""
    monkeypatch.setattr(kl, "_MATRIX_FILL", 0.0)
    monkeypatch.setattr(kl, "_MATRIX_MIN_NODES", 0)
    calls = []
    original = kl._matrix_pass

    def counted(*args):
        calls.append(args[0].view.csr.num_nodes)
        return original(*args)

    monkeypatch.setattr(kl, "_matrix_pass", counted)
    return calls


def _bucket_cases(cases):
    return [
        case
        for case in cases
        if case[1] != "heap" and _on_grid(case[2], 8) and case[0] != "weighted_residual"
    ]


class TestFrozenForced:
    @pytest.mark.parametrize("kind,body,k", _bucket_cases(kl_frozen.CASES))
    def test_kl_frozen(self, forced, kind, body, k):
        got = kl_frozen.entry_hash(kind, body, k, "numpy")
        assert got == kl_frozen.FROZEN[kind, body, k]
        assert forced

    @pytest.mark.parametrize(
        "kind,body,k", _bucket_cases(refine_frozen.CASES)
    )
    def test_refine_frozen(self, forced, kind, body, k):
        got = refine_frozen.entry_hash(kind, body, k, "numpy")
        assert got == refine_frozen.FROZEN[kind, body, k]
        assert forced

    @pytest.mark.parametrize("name", sorted(multilevel_frozen.MULTILEVEL_CASES))
    def test_multilevel_frozen(self, forced, name):
        got = multilevel_frozen.multilevel_hash(name, "numpy")
        assert got == multilevel_frozen.FROZEN_MULTILEVEL[name]
        assert forced

    @pytest.mark.parametrize("name", sorted(multilevel_frozen.POLISH_CASES))
    def test_flat_polish_frozen(self, forced, name):
        got = multilevel_frozen.polish_hash(name, "numpy")
        assert got == multilevel_frozen.FROZEN_POLISH[name]
        assert forced
