"""Extended Kernighan-Lin search over rejection-augmented social graphs.

This module implements Algorithm 1 of the paper (Section IV-D). The
classic KL/FM bisection minimizes the number of cross-part edges of an
undirected graph; Rejecto's extension differs in three ways:

1. **Weighted, mixed edges.** Friendship edges carry weight ``+1`` and
   rejection edges carry weight ``−k``, so the search minimizes the
   linearized MAAR objective ``W(U) = |F(Ū,U)| − k·|R⃗⟨Ū,U⟩|``.
2. **Single-node switching.** The paper drops KL's node-*pair*
   interchange because the sizes of the spammer and legitimate regions
   are unknown a priori; part sizes must be free to drift.
3. **Directional rejection accounting.** Only rejections cast by the
   legitimate side onto the suspicious side enter the objective, so the
   gain of a switch is asymmetric in the rejection edges' direction.

Each *pass* tentatively switches every unlocked node exactly once, in
greedy max-gain order (a Fiduccia-Mattheyses-style bucket list yields the
max in O(1)); negative-gain switches are still performed to climb out of
local minima. The pass then keeps the prefix of switches with the highest
cumulative gain and rolls the rest back. Passes repeat until no prefix
improves the objective.

Seed nodes (Section IV-F) are *locked*: they are pre-placed on their
known side and never enter the gain index, which prunes the misleading
low-ratio cuts inside the legitimate region from the search space.

Engine
------
One pass skeleton (:func:`_run_passes`) drives the search over the
flat-array :class:`repro.core.csr.PartitionState`. It owns everything
the passes share: the pass loop and :class:`KLStats`, the start-of-pass
gain refresh (one batch kernel call, then the previous pass's dirty
frontier), and the final counter write-back. Both entry points run on
it: :func:`extended_kl_state` over every unlocked active node, and
:func:`refine_subset` (multilevel region refinement) over a fixed
candidate subset. Each pass itself runs in one of three bodies:

* :func:`_bucket_pass` — an *inlined* integer-scaled FM bucket list for
  ``k`` on the ``1/8`` grid (:data:`~repro.core.gains.RESOLUTION`;
  scaled by ``k``'s reduced denominator, not by 8), over unweighted
  graphs and weighted coarse graphs (the multilevel hierarchy's int64
  :class:`~repro.core.csr.WeightedCSRGraph`). Counter
  updates and neighbour relinks happen in one fused sweep per switched
  node with zero per-edge function calls; unit-weight and weighted
  edges each get their own sweep, picked once per switched node.
* :func:`_matrix_pass` — :func:`_bucket_pass` replayed exactly on the
  level's dense row matrices, for near-complete levels on the numpy
  backend (multilevel's coarsest levels, where coarsening has shrunk
  the nodes but hardly the edges and each bucket-list pop relinks
  hundreds of neighbours in Python). One int64 key per node, ``bucket
  · 2**32 + stamp``, makes ``argmax`` pop the node the bucket list
  pops; :func:`_use_matrix` is the dispatch rule, which keys on the
  graph's shape alone. It derives its start-of-pass gains from the
  same matrices, so a matrix level calls no gain kernel.
* :func:`_heap_pass` — a lazy-deletion heap of float gains for off-grid
  ``k`` (the multilevel Dinkelbach polish) and weighted residual views.

:func:`_use_bucket` picks the body from the inputs alone: the bucket
pass when ``k`` is on the grid and the graph is unweighted or the view
all-active, the heap pass otherwise. Nothing in the configuration
selects it; tests force the heap pass at on-grid ``k`` (it is the
bucket pass's float oracle) by patching :func:`_use_bucket`.

All bodies keep one greedy discipline (same gain arithmetic, same FM
LIFO tie-breaks, same best-prefix rollback), and the bucket pass is the
matrix pass's oracle (``tests/core/test_matrix_pass.py``). The simulated cluster's
master (:class:`repro.cluster.engine.DistributedKL`) runs
:func:`_bucket_pass` too, with a *record source* in place of the CSR
slices: its adjacency lives on the workers and reaches the pass through
the prefetch buffer. ``tests/core/test_parity.py`` therefore checks the
cluster's protocol (worker gains, shard counters, fetched records, delta
broadcasts) against this module, and the frozen hashes of
``tests/core/test_kl_frozen.py`` and ``tests/cluster/test_cluster_frozen.py``
are the pass body's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, List, Optional, Sequence, Tuple

from .csr import PartitionState
from .gains import RESOLUTION, HeapGainIndex, _lowest_terms, _on_grid
from .kernels import (
    _segment_sums,
    gain_deltas,
    heap_gains,
    node_deltas,
    weighted_gain_deltas,
)

__all__ = [
    "KLConfig",
    "KLStats",
    "extended_kl",
    "extended_kl_state",
    "refine_subset",
    "adjust_neighbor_gains",
]

_EPS = 1e-9


@dataclass
class KLConfig:
    """Tuning knobs for the extended KL search.

    The pass body is not a setting: :func:`_use_bucket` picks it from
    ``k`` and the view (see the module docstring).

    Attributes
    ----------
    max_passes:
        Upper bound on improvement passes. KL converges in a handful of
        passes in practice [21]; the bound only guards pathologies.
    stall_limit:
        If set (a positive int), a pass stops tentatively switching once
        this many consecutive switches failed to improve the best prefix
        gain. ``None`` performs the full pass (the paper's behaviour); a
        finite limit trades a little cut quality for a large speedup on
        big graphs (see the ablation benchmark).
    """

    max_passes: int = 30
    stall_limit: Optional[int] = None


@dataclass
class KLStats:
    """Diagnostics of one :func:`extended_kl` run."""

    passes: int = 0
    switches_applied: int = 0
    switches_tested: int = 0
    objective_history: List[float] = field(default_factory=list)


def _check_k(k: float) -> None:
    """Reject a ``k`` no pass body can run: non-positive, NaN (which a
    plain ``k <= 0`` guard lets through) or infinite."""
    if not (k > 0 and math.isfinite(k)):
        raise ValueError(f"k must be a positive finite number, got {k}")


def _check_config(config: KLConfig) -> None:
    """Reject settings that would silently turn the search off."""
    if config.max_passes < 1:
        raise ValueError(
            f"max_passes must be a positive int, got {config.max_passes}"
        )
    if config.stall_limit is not None and config.stall_limit < 1:
        raise ValueError(
            "stall_limit must be a positive int or None, got "
            f"{config.stall_limit}"
        )


def adjust_neighbor_gains(
    index, state: PartitionState, u: int, prev_side: int, k: float
) -> None:
    """Apply the O(1)-per-edge gain updates for the neighbours of a node
    that just switched away from ``prev_side``.

    This is the heap pass's update rule: friends move by ``±2·w``; each
    rejection edge moves its *other* endpoint by
    ``(2·side−1)·k·(1−2·prev_side)·w``. Exported so the property tests
    can drive the heap index through the exact production update path.
    """
    view = state.view
    sides = state.sides
    active = view.active
    fp, fi, op, oi, ip_, ii = view.csr.hot()
    fw, ow, iw = view.csr.hot_weights() or (None, None, None)
    unit = repeat(1)
    lo, hi = fp[u], fp[u + 1]
    for v, w in zip(fi[lo:hi], unit if fw is None else fw[lo:hi]):
        if active[v] and v in index:
            index.adjust(v, 2.0 * w if sides[v] == prev_side else -2.0 * w)
    rej_sign = k * (1 - 2 * prev_side)
    for idx, wt, lo, hi in (
        (oi, ow, op[u], op[u + 1]),
        (ii, iw, ip_[u], ip_[u + 1]),
    ):
        for v, w in zip(idx[lo:hi], unit if wt is None else wt[lo:hi]):
            if active[v] and v in index:
                index.adjust(v, (2 * sides[v] - 1) * rej_sign * w)


def _run_passes(
    state: PartitionState,
    k: float,
    config: KLConfig,
    stats: Optional[KLStats],
    bucket: bool,
    subset: Optional[List[int]] = None,
) -> None:
    """The pass skeleton of Algorithm 1, shared by every pass body.

    ``subset`` (ascending, active, unlocked node ids) replaces the
    eligible list: only those nodes switch and every other side is
    read-only context. A subset's run keeps the cut counters only
    (``side_sizes`` is not written back).

    ``vals`` holds each eligible node's start-of-pass gain: a float for
    the heap pass, and for the bucket pass the integer bucket index
    ``k_scaled·rd − fd·res + offset``, where ``fd``/``rd`` are the
    switch's friend/rejection counter deltas (weight sums on weighted
    graphs) and ``k_scaled/res`` is ``k`` in lowest terms
    (:func:`~repro.core.gains._lowest_terms`): ``k = 2`` on the grid of
    8 runs at ``(2, 1)``, not ``(16, 8)``. Every bucket index is
    then its gain times ``res`` exactly, so the integer pass reproduces
    the float pop order and best-prefix decisions bit for bit — and the
    reduction, one positive factor on every gain, changes none of them
    while cutting the bucket array and its empty-bucket steps by that
    factor. ``zero`` is the value of a zero gain.

    Pass 1 fills ``vals`` with one batch kernel call; later passes
    recompute only the previous pass's dirty frontier (its applied
    prefix and their neighbours, the only nodes whose gains can have
    changed) to the same values. A subset's first refresh is a dirty
    one over the candidates. On the numpy backend a frontier above a
    quarter of the eligible nodes (of the level, for a subset) flips
    back to the batch kernel, a pure-speed choice. A matrix-pass level
    keeps no ``vals``: :func:`_matrix_pass` derives every pass's start
    keys from the level's dense rows, so the level calls no gain kernel
    and never builds the plain-list adjacency. The bucket bound comes
    memoized from :meth:`CSRGraph.bucket_gain_bound`; on residual views
    the full-graph bound only offset-shifts every bucket index
    uniformly, which leaves pop order and recorded gains (``b −
    offset``) untouched.
    """
    view = state.view
    csr = view.csr
    active = view.active
    sides = state.sides
    locked = state.locked
    n = csr.num_nodes
    numpy_batch = csr.backend == "numpy"
    matrix = False
    if bucket:
        k_scaled, res = _lowest_terms(k, RESOLUTION)
        zero = csr.bucket_gain_bound(res, k_scaled) + 1
        matrix = _use_matrix(csr, zero)
    if not matrix:
        weights = csr.hot_weights()
        # Bucket passes switch over the active-filtered adjacency (no
        # per-edge mask checks); weighted buckets need an all-active
        # view, where it is the full CSR the weights are positional
        # against.
        adj = view.hot_active() if bucket else csr.hot()
        fp, fi, op, oi, ip_, ii = adj

    if bucket:

        def batch() -> list:
            kernel = weighted_gain_deltas if csr.weighted else gain_deltas
            fd_all, rd_all = kernel(view, sides)
            return [
                k_scaled * rd - fd * res + zero for fd, rd in zip(fd_all, rd_all)
            ]

        def fill(vals: list, nodes) -> None:
            # ``adj`` is already active-filtered (unit) or all-active
            # (weighted), so no mask is passed.
            for u in nodes:
                if active[u] and not locked[u]:
                    fd, rd = node_deltas(adj, weights, None, sides, u, sides[u])
                    vals[u] = k_scaled * rd - fd * res + zero

    else:
        zero = 0.0

        def batch() -> list:
            return heap_gains(view, sides, k)

        def fill(vals: list, nodes) -> None:
            for u in nodes:
                if active[u] and not locked[u]:
                    vals[u] = state.switch_gain(u, k)

    if subset is None:
        eligible = [u for u in range(n) if active[u] and not locked[u]]
        vals: Optional[list] = None
        dirty = None  # None -> full refresh
    else:
        eligible = subset
        vals = [zero] * n
        dirty = subset

    def crowded(nodes) -> bool:
        # Big enough that one batch kernel call beats scalar refreshes.
        span = n if subset is not None else len(eligible)
        return numpy_batch and 4 * len(nodes) > span

    # Scalar refreshes where no batch kernel fits: python heaps, and
    # python subset buckets, whose small candidate lists should not pay
    # the O(V+E) kernel.
    use_batch = numpy_batch or (bucket and subset is None)

    for _ in range(config.max_passes):
        if stats is not None:
            stats.passes += 1
            stats.objective_history.append(state.objective(k))

        if matrix:
            applied, tested = _matrix_pass(
                state, eligible, k_scaled, res, zero, config.stall_limit
            )
        else:
            if vals is None or dirty is None or crowded(dirty):
                if use_batch:
                    vals = batch()
                else:
                    if vals is None:
                        vals = [zero] * n
                    fill(vals, eligible)
            else:
                fill(vals, dirty)
            if bucket:
                applied, tested = _bucket_pass(
                    state, eligible, vals, adj, weights, k_scaled, res, zero,
                    config.stall_limit,
                )
            else:
                applied, tested = _heap_pass(
                    state, eligible, vals, k, config.stall_limit
                )
        if stats is not None:
            stats.switches_tested += tested
            stats.switches_applied += len(applied)

        if not applied:
            break
        if matrix or crowded(applied):
            # The next pass refreshes in full either way.
            dirty = None
        else:
            # Rolled-back switches are net no-ops, so only the applied
            # prefix and its neighbourhood can enter the next pass with
            # a changed gain.
            dirty = set(applied)
            for u in applied:
                dirty.update(fi[fp[u] : fp[u + 1]])
                dirty.update(oi[op[u] : op[u + 1]])
                dirty.update(ii[ip_[u] : ip_[u + 1]])

    if subset is None:
        ones = sum(s for s, a in zip(sides, active) if a)
        state.side_sizes = [view.num_active - ones, ones]


def _bucket_pass(
    state: PartitionState,
    eligible: List[int],
    gain_b: list,
    adj: Tuple[list, ...],
    weights,
    k_scaled: int,
    res: int,
    offset: int,
    stall_limit: Optional[int],
    source: Optional[Callable[..., Tuple[Sequence[int], ...]]] = None,
) -> Tuple[List[int], int]:
    """One pass over the fused integer-scaled FM bucket list, in place.

    Loads ``eligible`` at their bucket indices ``gain_b`` in ascending
    node order (the FM discipline — LIFO within each bucket), pops
    switches in max-gain order, rolls back to the best prefix (exact
    integer reversal of the recorded counter deltas) and writes the cut
    counters back to ``state``. Each switch fuses the counter update with
    the neighbour bucket relinks — one sweep per incident edge in the
    fixed order (friends, rejections cast, rejections received), no
    function calls — which is where the speed comes from (see
    ``BENCH_gain_index.json``). Unweighted graphs take the unit sweep
    over the active-filtered adjacency; weighted graphs take the
    weighted sweep, which scales every step by the edge weight. These
    six sweeps repeat the switch rule of
    :func:`~repro.core.kernels.node_deltas` inline on purpose: merged
    into one loop (unit weights as ``repeat(1)``) they made whole
    solves 6–15 % slower, and one loop per sweep was slower as well.

    ``k_scaled/res`` is the pass's ``k``, and ``gain_b`` holds each
    gain times ``res`` plus ``offset`` (which must exceed every
    reachable scaled magnitude). Any common scale gives the same pass;
    callers use ``k`` in lowest terms
    (:func:`~repro.core.gains._lowest_terms`), the smallest one, which
    keeps ``heads`` (``2·offset + 1`` buckets) and the max-bucket walk
    through empty buckets as short as the gains allow.

    ``source`` (unit weights only) replaces ``adj`` as the origin of
    adjacency. The cluster master passes one: there, each popped node's
    ``(friends, rej_out, rej_in)`` comes from ``source(u, heads, nxt,
    max_b, bucket_of)``, called once ``u`` has left the bucket list, so a
    prefetcher can walk the live buckets (``heads``/``nxt``, top bucket
    ``max_b``, each listed node's bucket in ``bucket_of``, ``-1`` once
    popped) for the next pops. The source may read those arrays but not
    write them; the pass only iterates the three sequences it returns, so
    a record can be handed over as fetched, with no copy. ``state`` only
    needs ``sides``, ``f_cross`` and ``r_cross``.

    Returns ``(applied prefix, switches tested)``.
    """
    if source is None:
        fp, fi, op, oi, ip_, ii = adj
    sides = state.sides
    n = len(sides)
    two_res = 2 * res
    absent = -1
    heads = [absent] * (2 * offset + 1)
    nxt = [absent] * n
    prv = [absent] * n
    bucket_of = [absent] * n
    max_b = -1
    # The lists above are fresh, so only the displaced head needs a prv
    # write.
    for u in eligible:
        b = gain_b[u]
        h = heads[b]
        nxt[u] = h
        if h >= 0:
            prv[h] = u
        heads[b] = u
        bucket_of[u] = b
        if b > max_b:
            max_b = b
    size = len(eligible)
    if weights is not None:
        fw, ow, iw = weights

    f_cross = state.f_cross
    r_cross = state.r_cross
    sequence: List[tuple] = []
    cumulative = 0
    best_cumulative = 0
    best_length = 0
    stall = 0
    while size:
        if stall_limit is not None and stall >= stall_limit:
            break
        while heads[max_b] < 0:
            max_b -= 1
        b = max_b
        u = heads[b]
        nx = nxt[u]
        heads[b] = nx
        if nx >= 0:
            prv[nx] = absent
        bucket_of[u] = absent
        size -= 1

        s = sides[u]
        fd = 0
        rd = 0
        if s:
            rs = -k_scaled
            rd_on_susp = 1
            rd_on_legit = -1
        else:
            rs = k_scaled
            rd_on_susp = -1
            rd_on_legit = 1
        if weights is None:
            if source is None:
                friends = fi[fp[u] : fp[u + 1]]
                rej_out = oi[op[u] : op[u + 1]]
                rej_in = ii[ip_[u] : ip_[u + 1]]
            else:
                friends, rej_out, rej_in = source(u, heads, nxt, max_b, bucket_of)
            for v in friends:
                if sides[v] == s:
                    fd += 1
                    d = two_res
                else:
                    fd -= 1
                    d = -two_res
                bv = bucket_of[v]
                if bv >= 0:
                    nbv = bv + d
                    nx2 = nxt[v]
                    pv2 = prv[v]
                    if pv2 >= 0:
                        nxt[pv2] = nx2
                    else:
                        heads[bv] = nx2
                    if nx2 >= 0:
                        prv[nx2] = pv2
                    h = heads[nbv]
                    nxt[v] = h
                    prv[v] = absent
                    if h >= 0:
                        prv[h] = v
                    heads[nbv] = v
                    bucket_of[v] = nbv
                    if nbv > max_b:
                        max_b = nbv
            for v in rej_out:
                if sides[v]:
                    rd += rd_on_susp
                    d = rs
                else:
                    d = -rs
                bv = bucket_of[v]
                if bv >= 0:
                    nbv = bv + d
                    nx2 = nxt[v]
                    pv2 = prv[v]
                    if pv2 >= 0:
                        nxt[pv2] = nx2
                    else:
                        heads[bv] = nx2
                    if nx2 >= 0:
                        prv[nx2] = pv2
                    h = heads[nbv]
                    nxt[v] = h
                    prv[v] = absent
                    if h >= 0:
                        prv[h] = v
                    heads[nbv] = v
                    bucket_of[v] = nbv
                    if nbv > max_b:
                        max_b = nbv
            for v in rej_in:
                if sides[v]:
                    d = rs
                else:
                    rd += rd_on_legit
                    d = -rs
                bv = bucket_of[v]
                if bv >= 0:
                    nbv = bv + d
                    nx2 = nxt[v]
                    pv2 = prv[v]
                    if pv2 >= 0:
                        nxt[pv2] = nx2
                    else:
                        heads[bv] = nx2
                    if nx2 >= 0:
                        prv[nx2] = pv2
                    h = heads[nbv]
                    nxt[v] = h
                    prv[v] = absent
                    if h >= 0:
                        prv[h] = v
                    heads[nbv] = v
                    bucket_of[v] = nbv
                    if nbv > max_b:
                        max_b = nbv
        else:
            lo, hi = fp[u], fp[u + 1]
            for v, w in zip(fi[lo:hi], fw[lo:hi]):
                if sides[v] == s:
                    fd += w
                    d = two_res * w
                else:
                    fd -= w
                    d = -two_res * w
                bv = bucket_of[v]
                if bv >= 0:
                    nbv = bv + d
                    nx2 = nxt[v]
                    pv2 = prv[v]
                    if pv2 >= 0:
                        nxt[pv2] = nx2
                    else:
                        heads[bv] = nx2
                    if nx2 >= 0:
                        prv[nx2] = pv2
                    h = heads[nbv]
                    nxt[v] = h
                    prv[v] = absent
                    if h >= 0:
                        prv[h] = v
                    heads[nbv] = v
                    bucket_of[v] = nbv
                    if nbv > max_b:
                        max_b = nbv
            lo, hi = op[u], op[u + 1]
            for v, w in zip(oi[lo:hi], ow[lo:hi]):
                if sides[v]:
                    rd += rd_on_susp * w
                    d = rs * w
                else:
                    d = -rs * w
                bv = bucket_of[v]
                if bv >= 0:
                    nbv = bv + d
                    nx2 = nxt[v]
                    pv2 = prv[v]
                    if pv2 >= 0:
                        nxt[pv2] = nx2
                    else:
                        heads[bv] = nx2
                    if nx2 >= 0:
                        prv[nx2] = pv2
                    h = heads[nbv]
                    nxt[v] = h
                    prv[v] = absent
                    if h >= 0:
                        prv[h] = v
                    heads[nbv] = v
                    bucket_of[v] = nbv
                    if nbv > max_b:
                        max_b = nbv
            lo, hi = ip_[u], ip_[u + 1]
            for v, w in zip(ii[lo:hi], iw[lo:hi]):
                if sides[v]:
                    d = rs * w
                else:
                    rd += rd_on_legit * w
                    d = -rs * w
                bv = bucket_of[v]
                if bv >= 0:
                    nbv = bv + d
                    nx2 = nxt[v]
                    pv2 = prv[v]
                    if pv2 >= 0:
                        nxt[pv2] = nx2
                    else:
                        heads[bv] = nx2
                    if nx2 >= 0:
                        prv[nx2] = pv2
                    h = heads[nbv]
                    nxt[v] = h
                    prv[v] = absent
                    if h >= 0:
                        prv[h] = v
                    heads[nbv] = v
                    bucket_of[v] = nbv
                    if nbv > max_b:
                        max_b = nbv

        f_cross += fd
        r_cross += rd
        sides[u] = 1 - s
        sequence.append((u, fd, rd))
        cumulative += b - offset
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_length = len(sequence)
            stall = 0
        else:
            stall += 1

    return _keep_prefix(state, sequence, best_length, f_cross, r_cross)


def _keep_prefix(
    state: PartitionState,
    sequence: List[tuple],
    best_length: int,
    f_cross: int,
    r_cross: int,
) -> Tuple[List[int], int]:
    """Roll an integer pass back to its best prefix: undo the switches
    after it (exact reversal of their recorded ``(u, fd, rd)``), write
    the counters to ``state`` and return ``(applied prefix, switches
    tested)``."""
    sides = state.sides
    for u, fd, rd in reversed(sequence[best_length:]):
        f_cross -= fd
        r_cross -= rd
        sides[u] = 1 - sides[u]
    state.f_cross = f_cross
    state.r_cross = r_cross
    return [u for u, _, _ in sequence[:best_length]], len(sequence)


#: The matrix pass runs on levels at least this full: adjacency entries
#: (each friendship in both rows, each rejection in its caster's and
#: its receiver's row) of at least ``_MATRIX_FILL · n²``. Sparser levels
#: stay on the bucket list, whose cost follows the edges, not ``n²``
#: (DESIGN.md §5 has the measured crossover).
_MATRIX_FILL = 0.5
#: ... and of at least this many nodes (near-complete graphs cross over
#: at 64–96 nodes).
_MATRIX_MIN_NODES = 128
#: Matrix-pass key layout: ``bucket · 2**_STAMP_BITS + stamp``.
_STAMP_BITS = 32
#: Key of a node no pop may return (popped or never eligible).
_BURIED = -(1 << 62)


def _use_matrix(csr, offset: int) -> bool:
    """Whether a bucket pass over ``csr`` at bucket offset ``offset``
    runs as :func:`_matrix_pass`: numpy backend, a near-complete level
    (see ``_MATRIX_FILL``), and a key range that fits int64.

    The headroom: live keys lie in ``[2**32, (2·offset)·2**32)``. A
    buried key starts at ``-2**62``; each pop of a neighbour ``u`` moves
    its bucket part by ``±G[u, v]`` (``G = 2·res·F − k_scaled·R``) and
    replaces its stamp with one below ``2**32``. Each node pops at most
    once a pass, and ``Σ_u |G[u, v]| ≤ 2·bound`` with ``bound = offset
    − 1`` the graph's scaled gain bound. With
    ``2·offset ≤ 2**30`` a buried key stays below ``-2**32``, under
    every live key, and nothing overflows. Stamps stay below
    ``n + n·step ≤ 3·n²``, so ``3·n² < 2**32`` keeps them in their field.
    """
    n = csr.num_nodes
    if csr.backend != "numpy" or n < _MATRIX_MIN_NODES:
        return False
    entries = len(csr.f_idx) + len(csr.ro_idx) + len(csr.ri_idx)
    if entries < _MATRIX_FILL * n * n:
        return False
    # A row sweep is at most 3·(n − 1) long, so the stamp clock's step
    # is at most 3n − 2.
    return 2 * offset <= 1 << 30 and 3 * n * n < 1 << _STAMP_BITS


def _matrix_pass(
    state: PartitionState,
    eligible: List[int],
    k_scaled: int,
    res: int,
    offset: int,
    stall_limit: Optional[int],
) -> Tuple[List[int], int]:
    """:func:`_bucket_pass` replayed on dense row matrices, in place.

    Same arguments bar ``gain_b`` and the adjacency, same pops, prefix,
    counters and return value. The adjacency comes from
    :meth:`CSRGraph.numpy_matrices`, and the start-of-pass bucket
    indices are derived from it: one ``fr @ sus`` product gives every
    node's two dot products, whose ``fd``/``rd`` below are exactly the
    batch kernel's.

    Each node holds one int64 key ``b·2**32 + stamp``; a
    node's stamp is its load position, and each relink sets it to
    ``clock + rank``, where ``rank`` is the slot of the node's *last*
    occurrence in the popped node's friends → rejections cast →
    rejections received sweep and ``clock`` moves past every stamp used
    so far. The bucket list puts each relinked node at the head of its
    new bucket, so within a bucket the most recently relinked or loaded
    node pops first: exactly the node with the highest stamp. ``argmax``
    over the keys therefore pops what the bucket list pops — highest
    bucket, LIFO within it — and a pop is about ten numpy calls over
    rows of length ``n`` instead of one Python relink per incident
    edge. Popped and never-eligible nodes are *buried* at ``-2**62``;
    :func:`_use_matrix` admits only key ranges where a buried key, which
    still takes every row update, stays below every live key.

    The level's matrices cover every node; on a residual view inactive
    neighbours drop out of ``fd``/``rd`` through the active mask (they
    are never eligible, so their keys stay buried).
    """
    import numpy as np

    view = state.view
    csr = view.csr
    mats = csr.numpy_matrices()
    fr, occ, rank, step = mats["fr"], mats["occ"], mats["rank"], mats["step"]
    # ``scale @ fr[u]`` is ``G[u] << 32`` with ``G = 2·res·F − k·R``.
    scale = np.array([2 * res << _STAMP_BITS, -k_scaled << _STAMP_BITS])
    sides = state.sides
    n = len(sides)
    side_np = np.array(sides, dtype=np.int64)
    if view.num_active == n:
        f_act, ri_act = mats["f_sum"], mats["ri_sum"]
        sus = side_np
    else:
        # Residual bucket passes are unweighted (``_use_bucket``), so
        # the active weight sums are active neighbour counts.
        arrs = csr.numpy_arrays()
        act = np.frombuffer(view.active, dtype=np.uint8).astype(np.int64)
        f_act = _segment_sums(np, act[arrs["f_idx"]], arrs["f_ptr"]).tolist()
        ri_act = _segment_sums(np, act[arrs["ri_idx"]], arrs["ri_ptr"]).tolist()
        sus = side_np * act
    # ``fd = σ·(2·F[u]·sus − F[u]·act)`` and ``rd = σ·(R[u]·sus −
    # Ri[u]·act)`` with ``σ = 2·side(u) − 1``; a relink moves ``v`` by
    # ``σ·(2·side(v) − 1)·G[u, v]`` buckets, so ``up``/``down`` hold
    # ``±(2·side − 1)`` for the two signs of ``σ``.
    up = side_np * 2 - 1
    down = -up
    key = np.full(n, _BURIED, dtype=np.int64)
    if eligible:
        elig = np.array(eligible, dtype=np.int64)
        # One product over the whole level: slicing ``fr[elig]`` first
        # would copy the rows.
        dots = fr.dot(sus)[elig]
        fd = up[elig] * (2 * dots[:, 0] - np.asarray(f_act)[elig])
        rd = up[elig] * (dots[:, 1] - np.asarray(ri_act)[elig])
        loaded = k_scaled * rd - fd * res + offset
        key[elig] = (loaded << _STAMP_BITS) + np.arange(len(elig))
    high = ~((1 << _STAMP_BITS) - 1)
    moved = np.empty(n, dtype=np.int64)
    delta = np.empty(n, dtype=np.int64)
    clock = len(eligible)

    f_cross = state.f_cross
    r_cross = state.r_cross
    sequence: List[tuple] = []
    cumulative = 0
    best_cumulative = 0
    best_length = 0
    stall = 0
    for _ in range(len(eligible)):
        if stall_limit is not None and stall >= stall_limit:
            break
        u = int(key.argmax())
        b = int(key[u]) >> _STAMP_BITS
        key[u] = _BURIED
        s = sides[u]
        a, c = fr[u].dot(sus).tolist()
        if s:
            fd = 2 * a - f_act[u]
            rd = c - ri_act[u]
            np.multiply(scale.dot(fr[u]), up, out=delta)
        else:
            fd = f_act[u] - 2 * a
            rd = ri_act[u] - c
            np.multiply(scale.dot(fr[u]), down, out=delta)
        np.bitwise_and(key, high, out=moved)
        moved += delta
        moved += rank[u]
        moved += clock
        np.copyto(key, moved, where=occ[u])
        clock += step

        sides[u] = 1 - s
        sus[u] = 1 - s
        up[u] = 1 - 2 * s
        down[u] = 2 * s - 1
        f_cross += fd
        r_cross += rd
        sequence.append((u, fd, rd))
        cumulative += b - offset
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_length = len(sequence)
            stall = 0
        else:
            stall += 1

    return _keep_prefix(state, sequence, best_length, f_cross, r_cross)


def _heap_pass(
    state: PartitionState,
    eligible: List[int],
    gains: list,
    k: float,
    stall_limit: Optional[int],
) -> Tuple[List[int], int]:
    """One pass over a lazy-deletion heap of float gains, in place.

    Switches go through ``state.switch`` (exact integer counters) and
    neighbour gains through :func:`adjust_neighbor_gains`; a prefix must
    beat the best one by more than ``_EPS`` to count as an improvement.
    Returns ``(applied prefix, switches tested)``.
    """
    sides = state.sides
    index = HeapGainIndex()
    index.bulk_load((u, gains[u]) for u in eligible)
    sequence: List[int] = []
    cumulative = 0.0
    best_cumulative = 0.0
    best_length = 0
    stall = 0
    while stall_limit is None or stall < stall_limit:
        popped = index.pop_max()
        if popped is None:
            break
        u, gain = popped
        prev_side = sides[u]
        state.switch(u)
        sequence.append(u)
        cumulative += gain
        if cumulative > best_cumulative + _EPS:
            best_cumulative = cumulative
            best_length = len(sequence)
            stall = 0
        else:
            stall += 1
        adjust_neighbor_gains(index, state, u, prev_side, k)

    for u in reversed(sequence[best_length:]):
        state.switch(u)
    return sequence[:best_length], len(sequence)


def _use_bucket(view, k: float) -> bool:
    """The pass body for ``k`` on ``view``: ``True`` for
    :func:`_bucket_pass`, ``False`` for :func:`_heap_pass`.

    The bucket pass needs ``k`` on the ``1/RESOLUTION`` grid. The
    weighted bucket pass also indexes the positional weight arrays of
    the *full* slot layout, so it needs an all-active view; residual
    weighted views take the heap. (Unweighted buckets run on the
    re-packed ``hot_active`` adjacency, so any view works.)
    """
    csr = view.csr
    bucket_ok = not csr.weighted or view.num_active == csr.num_nodes
    return bucket_ok and _on_grid(k, RESOLUTION)


def extended_kl_state(
    state: PartitionState,
    k: float,
    config: Optional[KLConfig] = None,
    stats: Optional[KLStats] = None,
) -> PartitionState:
    """Minimize the linearized objective over a CSR partition state.

    The input state is copied, not mutated (it shares the residual view
    and lock vector). This is the engine entry point shared by
    :func:`extended_kl`, the MAAR sweep, Rejecto's residual rounds, and
    the weighted multilevel refinement.
    """
    _check_k(k)
    config = config or KLConfig()
    _check_config(config)
    out = state.copy()
    _run_passes(out, k, config, stats, _use_bucket(out.view, k))
    return out


def refine_subset(
    view,
    sides: List[int],
    locked: Sequence[bool],
    nodes: Sequence[int],
    k: float,
    config: Optional[KLConfig] = None,
):
    """Extended-KL passes restricted to a fixed candidate subset, in place.

    The region-parallel multilevel refinement decomposes the cut
    frontier into connected boundary regions
    (:func:`~repro.core.multilevel.solve_maar_multilevel`) and refines
    each through this entry point: the shared pass skeleton
    (:func:`_run_passes`) with ``nodes`` as its eligible list, so only
    those nodes may switch — every other side is read-only context.
    Because the regions are closed under all three adjacency layers, two
    calls on distinct regions never read each other's writes: their
    ``(delta_f, delta_r)`` add exactly and their move sets are disjoint,
    which is what makes the region merge independent of worker count
    and execution order.

    :func:`_use_bucket` picks the pass body exactly as in
    :func:`extended_kl_state`: on the ``1/8`` grid the fused integer
    bucket pass (unweighted and weighted graphs), off it — the
    Dinkelbach polish's ratio — the float heap pass.

    ``sides`` is mutated to the refined labels. Returns ``(moved,
    delta_f, delta_r, tested, applied)``: the ascending list of nodes
    whose side net-changed, the exact cut-counter deltas those moves
    caused, and the tentative/applied switch counts. Node ids must lie
    in ``[0, n)``; duplicates, locked and inactive nodes are dropped.
    """
    _check_k(k)
    config = config or KLConfig()
    _check_config(config)
    n = view.csr.num_nodes
    if len(sides) != n:
        raise ValueError(f"sides has length {len(sides)}, expected {n}")
    if len(locked) != n:
        raise ValueError(f"locked has length {len(locked)}, expected {n}")
    cand = sorted(set(nodes))
    if cand and not (0 <= cand[0] and cand[-1] < n):
        bad = cand[0] if cand[0] < 0 else cand[-1]
        raise ValueError(f"node id {bad} is out of range for {n} nodes")
    active = view.active
    cand = [u for u in cand if active[u] and not locked[u]]
    bucket = _use_bucket(view, k)
    entry = [sides[u] for u in cand]
    stats = KLStats()
    state = PartitionState.counting_deltas(view, sides, locked)
    _run_passes(state, k, config, stats, bucket, subset=cand)
    moved = [u for u, s in zip(cand, entry) if sides[u] != s]
    return (
        moved,
        state.f_cross,
        state.r_cross,
        stats.switches_tested,
        stats.switches_applied,
    )


def extended_kl(
    graph,
    k: float,
    initial,
    locked: Optional[Sequence[bool]] = None,
    config: Optional[KLConfig] = None,
    stats: Optional[KLStats] = None,
) -> PartitionState:
    """Minimize ``|F(Ū,U)| − k·|R⃗⟨Ū,U⟩|`` from the given initial partition.

    Parameters
    ----------
    graph:
        The rejection-augmented social graph: an
        :class:`~repro.core.graph.AugmentedSocialGraph` builder or a
        finalized :class:`~repro.core.csr.CSRGraph`.
    k:
        The rejection weight of the linearized objective (positive).
    initial:
        Starting cut: anything with a ``sides`` list (one 0/1 label per
        node); it is copied, not mutated.
    locked:
        Optional per-node flags; locked nodes (seeds) never switch.
    config:
        Search configuration; defaults to :class:`KLConfig`.
    stats:
        Optional diagnostics accumulator.

    Returns
    -------
    PartitionState
        The improved cut over the graph's full view.
    """
    state = PartitionState(graph.csr().view(), initial.sides, locked)
    return extended_kl_state(state, k, config, stats)
