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
gain refresh (batch kernel or dirty frontier), the ``frontier=
"boundary"`` scope with its convergence closure, and the final counter
write-back. Both entry points run on it: :func:`extended_kl_state`
over every unlocked active node, and :func:`refine_subset` (multilevel
region refinement) over a fixed candidate subset. Each pass itself
runs in one of two bodies:

* :func:`_bucket_pass` — an *inlined* integer-scaled FM bucket list for
  ``k`` on the ``1/resolution`` grid (scaled by ``k``'s reduced
  denominator, not by ``resolution``), over unweighted graphs and
  weighted coarse graphs (the multilevel hierarchy's int64
  :class:`~repro.core.csr.WeightedCSRGraph`). Counter
  updates and neighbour relinks happen in one fused sweep per switched
  node with zero per-edge function calls; unit-weight and weighted
  edges each get their own sweep, picked once per switched node.
* :func:`_heap_pass` — a lazy-deletion heap of float gains for off-grid
  ``k`` (the multilevel Dinkelbach polish) and weighted residual views.

Both bodies keep one greedy discipline (same gain arithmetic, same FM
LIFO tie-breaks, same best-prefix rollback). The simulated cluster's
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
from typing import Callable, List, Optional, Sequence, Tuple

from .csr import PartitionState
from .gains import HeapGainIndex, _lowest_terms, _on_grid
from .graph import AugmentedSocialGraph
from .kernels import (
    boundary_nodes,
    gain_deltas,
    heap_gains,
    weighted_boundary_nodes,
    weighted_gain_deltas,
    weighted_heap_gains,
)
from .partition import Partition

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

    Attributes
    ----------
    gain_index:
        The pass body the shared skeleton runs: ``"bucket"`` (integer FM
        bucket list), ``"heap"`` (lazy-deletion heap of float gains) or
        ``"auto"`` (bucket when ``k`` sits on the ``1/resolution`` grid
        and the graph is unweighted — or weighted on an all-active view —
        heap otherwise).
    resolution:
        Grid denominator (a positive int): ``k`` is *on the grid*, and
        can run the bucket pass, when it is a multiple of
        ``1/resolution``. The default geometric ``k`` sequence (k = 1/8 ·
        2^i) sits on the default grid of 8. It does not fix the bucket
        scale: each pass runs at ``k``'s reduced denominator (see
        :func:`repro.core.gains._lowest_terms`), so ``k = 2`` buckets
        whole gains and ``k = 1/8`` eighths, whatever ``resolution``
        says.
    max_passes:
        Upper bound on improvement passes. KL converges in a handful of
        passes in practice [21]; the bound only guards pathologies.
    stall_limit:
        If set (a positive int), a pass stops tentatively switching once
        this many consecutive switches failed to improve the best prefix
        gain. ``None`` performs the full pass (the paper's behaviour); a
        finite limit trades a little cut quality for a large speedup on
        big graphs (see the ablation benchmark).
    incremental:
        When ``True`` (default), passes after the first refresh their
        start-of-pass gains only on the *dirty frontier* — the previous
        pass's applied prefix plus its neighbours, the only nodes whose
        gains can have changed — instead of re-sweeping all V+E edges.
        Bit-identical to the full refresh (gains are recomputed to the
        same integers/floats and loaded in the same ascending node
        order); ``False`` forces the full O(V+E) refresh every pass and
        is kept only as the parity/benchmark reference.
    frontier:
        ``"full"`` (default) loads every unlocked active node into the
        gain index — the classic KL pass, whose tentative sweep costs
        O(V+E) even when the partition is nearly converged. When the
        start point is already good (multilevel uncoarsening projects a
        refined coarse cut), ``"boundary"`` seeds the pass from
        :func:`~repro.core.kernels.boundary_nodes` instead: the nodes on
        the cut or with a positive switch gain, plus their neighbours.
        The scope then *grows* — every applied prefix admits its dirty
        frontier, and at convergence a closure sweep readmits any
        positive-gain node the scope missed — so the scoped search never
        stops while a profitable single switch exists anywhere (the
        invariant ``tests/core/test_refinement.py`` checks on arbitrary
        workloads). Both pass bodies run under the same scope. On
        refinement workloads the scoped pass is almost always
        bit-identical to the full one — partitions, counters and
        objective history (pinned on fixed workloads in the same test
        file); rarely (~0.5 % of random refinement workloads) the two
        take different compound-move paths through interior nodes and
        settle on equally converged cuts whose objectives differ by a
        move or two, in either direction. On arbitrary start points the
        full engine may hill-climb through interior nodes the scope
        never admits, so ``"full"`` remains the default.
    """

    gain_index: str = "auto"
    resolution: int = 8
    max_passes: int = 30
    stall_limit: Optional[int] = None
    incremental: bool = True
    frontier: str = "full"


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
    res = config.resolution
    if isinstance(res, bool) or not isinstance(res, int) or res < 1:
        raise ValueError(f"resolution must be a positive int, got {res!r}")
    if config.frontier not in ("full", "boundary"):
        raise ValueError(
            f"unknown frontier {config.frontier!r}; expected 'full' or "
            "'boundary'"
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
    csr = view.csr
    fp, fi, op, oi, ip_, ii = csr.hot()
    active = view.active
    weights = csr.hot_weights()
    rej_sign = k * (1 - 2 * prev_side)
    if weights is None:
        for i in range(fp[u], fp[u + 1]):
            v = fi[i]
            if active[v] and v in index:
                index.adjust(v, 2.0 if sides[v] == prev_side else -2.0)
        for i in range(op[u], op[u + 1]):
            v = oi[i]
            if active[v] and v in index:
                index.adjust(v, (2 * sides[v] - 1) * rej_sign)
        for i in range(ip_[u], ip_[u + 1]):
            w = ii[i]
            if active[w] and w in index:
                index.adjust(w, (2 * sides[w] - 1) * rej_sign)
    else:
        fw, ow, iw = weights
        for i in range(fp[u], fp[u + 1]):
            v = fi[i]
            if active[v] and v in index:
                index.adjust(
                    v, 2.0 * fw[i] if sides[v] == prev_side else -2.0 * fw[i]
                )
        for i in range(op[u], op[u + 1]):
            v = oi[i]
            if active[v] and v in index:
                index.adjust(v, (2 * sides[v] - 1) * rej_sign * ow[i])
        for i in range(ip_[u], ip_[u + 1]):
            w = ii[i]
            if active[w] and w in index:
                index.adjust(w, (2 * sides[w] - 1) * rej_sign * iw[i])


def _run_passes(
    state: PartitionState,
    k: float,
    config: KLConfig,
    stats: Optional[KLStats],
    bucket: bool,
    subset: Optional[List[int]] = None,
) -> None:
    """The pass skeleton of Algorithm 1, shared by both pass bodies.

    ``subset`` (ascending, active, unlocked node ids) replaces the
    eligible list: only those nodes switch and every other side is
    read-only context. A subset gets no boundary scope, and its run
    keeps the cut counters only (``side_sizes`` is not written back).

    ``vals`` holds each eligible node's start-of-pass gain: a float for
    the heap pass, and for the bucket pass the integer bucket index
    ``k_scaled·rd − fd·res + offset``, where ``fd``/``rd`` are the
    switch's friend/rejection counter deltas (weight sums on weighted
    graphs) and ``k_scaled/res`` is ``k`` in lowest terms
    (:func:`~repro.core.gains._lowest_terms`): ``k = 2`` on the default
    grid of 8 runs at ``(2, 1)``, not ``(16, 8)``. Every bucket index is
    then its gain times ``res`` exactly, so the integer pass reproduces
    the float pop order and best-prefix decisions bit for bit — and the
    reduction, one positive factor on every gain, changes none of them
    while cutting the bucket array and its empty-bucket steps by that
    factor. ``zero`` is the value of a zero gain.

    Pass 1 (and ``incremental=False``) fills ``vals`` with one batch
    kernel call; later passes recompute only the previous pass's dirty
    frontier — identical values either way. A subset's first refresh is
    a dirty one over the candidates. On the numpy backend a frontier
    above a quarter of the eligible nodes (of the level, for a subset)
    flips back to the batch kernel, a pure-speed choice. The bucket
    bound comes memoized from :meth:`CSRGraph.bucket_gain_bound`; on
    residual views the full-graph bound only offset-shifts every bucket
    index uniformly, which leaves pop order and recorded gains
    (``b − offset``) untouched.
    """
    view = state.view
    csr = view.csr
    active = view.active
    sides = state.sides
    locked = state.locked
    n = csr.num_nodes
    weights = csr.hot_weights()
    numpy_batch = csr.backend == "numpy"
    # Bucket passes switch over the active-filtered adjacency (no
    # per-edge mask checks); weighted buckets need an all-active view,
    # where it is the full CSR the weights are positional against.
    adj = view.hot_active() if bucket else csr.hot()
    fp, fi, op, oi, ip_, ii = adj

    if bucket:
        k_scaled, res = _lowest_terms(k, config.resolution)
        zero = csr.bucket_gain_bound(res, k_scaled) + 1

        def batch() -> list:
            kernel = gain_deltas if weights is None else weighted_gain_deltas
            fd_all, rd_all = kernel(view, sides)
            return [
                k_scaled * rd - fd * res + zero for fd, rd in zip(fd_all, rd_all)
            ]

        def fill(vals: list, nodes) -> None:
            for u in nodes:
                if not active[u] or locked[u]:
                    continue
                s = sides[u]
                fd = rd = 0
                if weights is None:
                    for v in fi[fp[u] : fp[u + 1]]:
                        fd += 1 if sides[v] == s else -1
                    for v in oi[op[u] : op[u + 1]]:
                        if sides[v]:
                            rd += 1
                    for v in ii[ip_[u] : ip_[u + 1]]:
                        if not sides[v]:
                            rd -= 1
                else:
                    fw, ow, iw = weights
                    lo, hi = fp[u], fp[u + 1]
                    for v, w in zip(fi[lo:hi], fw[lo:hi]):
                        fd += w if sides[v] == s else -w
                    lo, hi = op[u], op[u + 1]
                    for v, w in zip(oi[lo:hi], ow[lo:hi]):
                        if sides[v]:
                            rd += w
                    lo, hi = ip_[u], ip_[u + 1]
                    for v, w in zip(ii[lo:hi], iw[lo:hi]):
                        if not sides[v]:
                            rd -= w
                # A legitimate node's switch reverses every rejection delta.
                vals[u] = k_scaled * (rd if s else -rd) - fd * res + zero

    else:
        zero = 0.0

        def batch() -> list:
            if csr.weighted:
                return weighted_heap_gains(view, sides, k)
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

    # Boundary frontier (KLConfig.frontier="boundary"): restrict the
    # tentative passes to the cut frontier instead of the whole graph.
    # The scope grows with every applied prefix's dirty frontier, and
    # the convergence closure below readmits any positive-gain node the
    # scope missed, so no profitable single switch is ever left behind.
    scope: Optional[List[bool]] = None
    if config.frontier == "boundary" and subset is None:
        kernel = weighted_boundary_nodes if csr.weighted else boundary_nodes
        eligible = [u for u in kernel(view, sides, k) if not locked[u]]
        scope = [False] * n
        for u in eligible:
            scope[u] = True
    # Scalar refreshes where no batch kernel fits: python heaps, and
    # scoped or subset python buckets, whose small candidate lists
    # should not pay the O(V+E) kernel.
    use_batch = numpy_batch or (bucket and scope is None and subset is None)

    for _ in range(config.max_passes):
        if stats is not None:
            stats.passes += 1
            stats.objective_history.append(state.objective(k))

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
            if scope is None:
                break
            # Convergence closure: readmit every positive-gain node
            # outside the scope. If none exists the scoped search has
            # genuinely converged — no profitable single switch remains
            # anywhere in the graph. The pass applied nothing, so a batch
            # refresh leaves the in-scope gains as they were.
            outside = [
                u
                for u in range(n)
                if active[u] and not locked[u] and not scope[u]
            ]
            if use_batch:
                vals = batch()
            else:
                fill(vals, outside)
            fresh = [u for u in outside if vals[u] > zero]
            if not fresh:
                break
            for u in fresh:
                scope[u] = True
            eligible = sorted(eligible + fresh)
            dirty = set()
            continue

        track_dirty = config.incremental and not crowded(applied)
        if track_dirty or scope is not None:
            # Rolled-back switches are net no-ops, so only the applied
            # prefix and its neighbourhood can enter the next pass with
            # a changed gain. (When the prefix alone already exceeds the
            # batch-refresh threshold, skip collecting the frontier —
            # the next pass refreshes in full either way. In boundary
            # mode the frontier is always collected: it is also how the
            # scope grows.)
            dirty = set(applied)
            for u in applied:
                dirty.update(fi[fp[u] : fp[u + 1]])
                dirty.update(oi[op[u] : op[u + 1]])
                dirty.update(ii[ip_[u] : ip_[u + 1]])
            if scope is not None:
                grown = [
                    v
                    for v in dirty
                    if active[v] and not locked[v] and not scope[v]
                ]
                if grown:
                    for v in grown:
                        scope[v] = True
                    eligible = sorted(eligible + grown)
            if not track_dirty:
                dirty = None
        else:
            dirty = None

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
    weighted sweep, which scales every step by the edge weight.

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
    max_b, size)``, called once ``u`` has left the bucket list, so a
    prefetcher can walk the live buckets (``heads``/``nxt``, top bucket
    ``max_b``, ``size`` nodes left) for the next pops. ``state`` only
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
                friends, rej_out, rej_in = source(u, heads, nxt, max_b, size)
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

    for u, fd, rd in reversed(sequence[best_length:]):
        f_cross -= fd
        r_cross -= rd
        sides[u] = 1 - sides[u]
    state.f_cross = f_cross
    state.r_cross = r_cross
    return [u for u, _, _ in sequence[:best_length]], len(sequence)


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


def _use_bucket(view, k: float, config: KLConfig) -> bool:
    """Resolve ``config.gain_index`` to a pass body: ``True`` for
    :func:`_bucket_pass`, ``False`` for :func:`_heap_pass`.

    The weighted bucket pass indexes the positional weight arrays of the
    *full* slot layout, so it needs an all-active view; residual weighted
    views fall back to the heap. (Unweighted buckets run on the re-packed
    ``hot_active`` adjacency, so any view works.)
    """
    csr = view.csr
    bucket_ok = not csr.weighted or view.num_active == csr.num_nodes
    kind = config.gain_index
    if kind == "auto":
        return bucket_ok and _on_grid(k, config.resolution)
    if kind == "heap":
        return False
    if kind != "bucket":
        raise ValueError(f"unknown gain index kind {kind!r}")
    if not bucket_ok:
        raise ValueError(
            "the weighted bucket engine requires an all-active view "
            "(weights are positional); pass gain_index='heap' or 'auto'"
        )
    if not _on_grid(k, config.resolution):
        raise ValueError(
            f"k={k} is off the 1/{config.resolution} bucket grid; "
            "pass gain_index='heap' or 'auto'"
        )
    return True


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
    _run_passes(out, k, config, stats, _use_bucket(out.view, k, config))
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

    ``config.gain_index`` picks the pass body exactly as in
    :func:`extended_kl_state`: on the ``1/resolution`` grid the fused
    integer bucket pass (unweighted and weighted graphs), off it —
    the Dinkelbach polish's ratio — the float heap pass. ``frontier``
    does not apply: the subset is the scope.

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
    bucket = _use_bucket(view, k, config)
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
    graph: AugmentedSocialGraph,
    k: float,
    initial: Partition,
    locked: Optional[Sequence[bool]] = None,
    config: Optional[KLConfig] = None,
    stats: Optional[KLStats] = None,
) -> Partition:
    """Minimize ``|F(Ū,U)| − k·|R⃗⟨Ū,U⟩|`` from the given initial partition.

    Parameters
    ----------
    graph:
        The rejection-augmented social graph.
    k:
        The rejection weight of the linearized objective (positive).
    initial:
        Starting partition; it is copied, not mutated.
    locked:
        Optional per-node flags; locked nodes (seeds) never switch.
    config:
        Search configuration; defaults to :class:`KLConfig`.
    stats:
        Optional diagnostics accumulator.

    Returns
    -------
    Partition
        The improved partition.
    """
    _check_k(k)
    config = config or KLConfig()
    n = graph.num_nodes
    if locked is None:
        locked = [False] * n
    elif len(locked) != n:
        raise ValueError(f"locked has length {len(locked)}, expected {n}")
    state = PartitionState(graph.csr().view(), initial.sides, locked)
    out = extended_kl_state(state, k, config, stats)
    return Partition.from_counts(graph, out.sides, out.f_cross, out.r_cross)
