"""Batch kernels over the flat CSR arrays, and the one switch rule.

Algorithm 1 has one local rule: switching ``u`` changes ``|F(Ū,U)|``
by its same-side minus cross-side friends and ``|R⃗⟨Ū,U⟩|`` by
``(2·side(u)−1)·(out_susp(u) − in_legit(u))``. Weighted coarse graphs
and the cluster's shard blocks apply the same rule with each edge
counted by its weight. This module writes it once per backend:
:func:`node_deltas` (one node, scalar) with its batch loop, one numpy
delta body, and one numpy/scalar pair of cut-count bodies. A missing
weight array means weight 1 and a missing active mask means every node
is active, so the same four bodies serve unit graphs, int64-weighted
graphs (:class:`~repro.core.csr.WeightedCSRGraph`), residual views and
shard blocks. ``PartitionState.switch``/``switch_gain``, the KL
bucket refresh and every kernel below call them:

* :func:`gain_deltas` / :func:`weighted_gain_deltas` — per-node
  friend-delta and rejection-delta (the two integers every gain
  formula is assembled from); each refuses the other graph kind;
* :func:`heap_gains` — per-node float gains ``-(fd − k·rd)`` for the
  heap engine;
* :func:`recount_active` — the boundary counters ``f_cross``/``r_cross``
  (weight sums on weighted graphs) and the side-1 population;
* :func:`active_in_rejections` — in-rejection counts restricted to
  active rejecters (Rejecto's member-evidence ordering; weights are
  ignored);
* :func:`scaled_gain_bound` — the integer-scaled lifetime gain bound
  that sizes the FM bucket array;
* :func:`shard_gain_deltas` / :func:`shard_cut_counts` — the same
  deltas (folded into integer-scaled gains) and counters over one
  contiguous CSR *shard block* (a worker-resident slice of the graph,
  see :mod:`repro.cluster.blocks`), so the distributed engine's
  per-pass gain rebuild runs as whole-array kernels on each worker;
* :func:`boundary_nodes` / :func:`cut_regions` — multilevel region
  refinement's scope: the positive-gain nodes plus their friends, split
  into the connected regions that refine independently;
* :func:`heavy_edge_matching` / :func:`matching_to_mapping` /
  :func:`contract_arrays` — the multilevel coarsening step as flat-array
  kernels: mutual heaviest-neighbour matching in rounds, matching →
  coarse-id mapping, and edge/node-weight contraction via int64
  scatter-adds.

Dispatch follows the graph's ``backend`` attribute: ``"numpy"`` runs the
vectorized bodies over zero-copy ``frombuffer`` views, ``"python"`` the
scalar ones. Both produce **bit-identical** results — all quantities
are integers (or single float expressions over integers, identical
elementwise in IEEE double), so the engines never see which backend
filled their arrays. Every weight is an int64
(:class:`~repro.core.csr.WeightedCSRGraph` is the only weighted graph):
contraction of a unit-weight augmented graph only ever **sums unit
edges**, and integer sums are order-insensitive. That is what gives the
weighted multilevel path the bucket index and the batch kernels. The
property tests in ``tests/core/test_kernels.py`` pin every kernel to the
dict-adjacency oracles of ``tests/core/partition_oracle.py`` and
``tests/core/weighted_oracle.py``, which share no code with this module.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "buffer_typecode",
    "buffer_tolist",
    "gain_deltas",
    "heap_gains",
    "boundary_nodes",
    "cut_regions",
    "recount_active",
    "active_in_rejections",
    "scaled_gain_bound",
    "shard_gain_deltas",
    "shard_cut_counts",
    "weighted_gain_deltas",
    "node_deltas",
    "heavy_edge_matching",
    "matching_to_mapping",
    "contract_arrays",
]


def buffer_typecode(buf) -> Optional[str]:
    """The ``array``-style typecode of a flat buffer: ``"q"`` for int64.

    The CSR arrays historically were always ``array("q")``;
    memory-mapped snapshots (:mod:`repro.core.storage`) introduce
    ``np.memmap`` segments and ``memoryview`` casts as drop-in storage.
    This normalizes all three to the one-letter typecode the dispatch
    checks care about (an ``array`` reports its own typecode; any other
    buffer that is not int64 gives ``None``, e.g. a plain list).
    """
    code = getattr(buf, "typecode", None)  # array.array
    if code is not None:
        return code
    if getattr(buf, "format", None) == "q":  # memoryview over an mmap
        return "q"
    dtype = getattr(buf, "dtype", None)  # numpy ndarray / memmap
    if dtype is not None and dtype.name == "int64":
        return "q"
    return None


def buffer_tolist(buf) -> List:
    """``list(buf)`` with native Python elements.

    ``array.tolist``/``memoryview.tolist``/``ndarray.tolist`` all yield
    plain ``int``/``float`` items; a bare ``list(...)`` over a numpy
    buffer would yield ``np.int64`` scalars instead, which the pure-
    Python hot loops must never see (slower arithmetic, and list
    contents would differ by backend).
    """
    tolist = getattr(buf, "tolist", None)
    if tolist is not None:
        return tolist()
    return list(buf)


def _check_unweighted(csr) -> None:
    if csr.f_wt is not None:
        raise ValueError(
            "these batch kernels are unweighted-only; weighted graphs "
            "use the weighted_* twins"
        )


def _check_weighted(csr) -> None:
    if csr.f_wt is None:
        raise ValueError(
            "weighted kernels require a WeightedCSRGraph; unweighted "
            "graphs use the plain kernels"
        )


def _use_numpy(csr) -> bool:
    return csr.backend == "numpy"


def _np_state(view):
    """Numpy, the graph's array dict (per-slot row ids included) and the
    active mask as bools — ``None`` when every node is active."""
    import numpy as np

    csr = view.csr
    csr.numpy_rows()
    active = None
    if view.num_active != csr.num_nodes:
        active = np.frombuffer(view.active, dtype=np.uint8).astype(bool)
    return np, csr.numpy_arrays(), active


def _view_hot(view):
    """``(hot, weights, active)`` of a view for the scalar bodies:
    plain-list adjacency, plain-list weights (``None`` when unweighted)
    and the active mask (``None`` when every node is active)."""
    csr = view.csr
    active = None if view.num_active == csr.num_nodes else view.active
    return csr.hot(), csr.hot_weights(), active


def _segment_sums(np, contrib, ptr):
    """Per-row sums of ``contrib`` under CSR ``ptr`` (empty rows -> 0)."""
    cumulative = np.zeros(len(contrib) + 1, dtype=np.int64)
    np.cumsum(contrib, dtype=np.int64, out=cumulative[1:])
    return cumulative[ptr[1:]] - cumulative[ptr[:-1]]


# ----------------------------------------------------------------------
# The switch rule: one numpy body, one scalar body, for every graph kind
# ----------------------------------------------------------------------
# Each body serves the three graph kinds. A unit graph has no weight
# arrays (every edge counts 1); a WeightedCSRGraph counts each edge by
# its int64 weight; a shard block is a row range [lo, lo + m) of an
# unweighted graph with local pointers and global neighbour ids. Every
# neighbour id indexes the *global* sides and active mask, and
# ``active=None`` means every node is active.


def node_deltas(hot, weights, active, sides, row: int, s: int) -> Tuple[int, int]:
    """``(fd, rd)`` of switching the node in adjacency row ``row``,
    currently on side ``s`` (Algorithm 1's one local rule).

    ``fd`` is the weight of the node's friends on its own side minus
    those across: the change of ``|F(Ū,U)|``. ``rd`` is
    ``(2s−1)·(out_susp − in_legit)``: the weight of the rejections it
    cast onto side 1 minus those it received from side 0, signed by its
    side — the change of ``|R⃗⟨Ū,U⟩|``. Only active neighbours count.
    ``hot`` is the six plain-list CSR arrays (``row`` indexes the
    pointers), ``weights`` their three weight lists or ``None``.
    """
    fp, fi, op, oi, ip_, ii = hot
    fd = rd = 0
    if weights is None:
        for v in fi[fp[row] : fp[row + 1]]:
            if active is None or active[v]:
                fd += 1 if sides[v] == s else -1
        for v in oi[op[row] : op[row + 1]]:
            if sides[v] and (active is None or active[v]):
                rd += 1
        for v in ii[ip_[row] : ip_[row + 1]]:
            if not sides[v] and (active is None or active[v]):
                rd -= 1
    else:
        fw, ow, iw = weights
        for i in range(fp[row], fp[row + 1]):
            v = fi[i]
            if active is None or active[v]:
                fd += fw[i] if sides[v] == s else -fw[i]
        for i in range(op[row], op[row + 1]):
            v = oi[i]
            if sides[v] and (active is None or active[v]):
                rd += ow[i]
        for i in range(ip_[row], ip_[row + 1]):
            v = ii[i]
            if not sides[v] and (active is None or active[v]):
                rd -= iw[i]
    return fd, (rd if s else -rd)


def _deltas_py(hot, weights, active, sides, lo: int, m: int):
    """:func:`node_deltas` of rows ``0..m-1`` (nodes ``lo..lo+m-1``);
    inactive nodes get ``(0, 0)``."""
    fd = [0] * m
    rd = [0] * m
    for r in range(m):
        u = lo + r
        if active is None or active[u]:
            fd[r], rd[r] = node_deltas(hot, weights, active, sides, r, sides[u])
    return fd, rd


def _deltas_np(np, arrs, active, sides, lo: int = 0):
    """The numpy body of :func:`_deltas_py`: int64 ``(fd, rd)`` arrays
    over the ``m`` rows of ``arrs`` (a CSR graph's or a shard block's
    array dict, per-slot row ids included)."""
    sides = np.asarray(sides, dtype=np.int64)
    own = sides[lo : lo + len(arrs["f_ptr"]) - 1]
    f_idx, ro_idx, ri_idx = arrs["f_idx"], arrs["ro_idx"], arrs["ri_idx"]
    f_wt, ro_wt, ri_wt = arrs.get("f_wt"), arrs.get("ro_wt"), arrs.get("ri_wt")

    same = sides[f_idx] == own[arrs["f_row"]]
    contrib = np.where(same, 1, -1) if f_wt is None else np.where(same, f_wt, -f_wt)
    susp = sides[ro_idx] == 1
    legit = sides[ri_idx] == 0
    if active is not None:
        contrib = np.where(active[f_idx], contrib, 0)
        susp &= active[ro_idx]
        legit &= active[ri_idx]
    fd = _segment_sums(np, contrib, arrs["f_ptr"])
    out_susp = _segment_sums(
        np, susp if ro_wt is None else np.where(susp, ro_wt, 0), arrs["ro_ptr"]
    )
    in_legit = _segment_sums(
        np, legit if ri_wt is None else np.where(legit, ri_wt, 0), arrs["ri_ptr"]
    )
    rd = (2 * own - 1) * (out_susp - in_legit)
    if active is not None:
        mine = active[lo : lo + len(own)]
        fd = np.where(mine, fd, 0)
        rd = np.where(mine, rd, 0)
    return fd, rd


def _cut_counts_py(hot, weights, active, sides, lo: int, m: int):
    """``(f_cross, r_cross, side1_population)`` of rows ``0..m-1``:
    active cross friendships counted once per pair (at the row of the
    smaller *global* id), rejections cast by active side-0 nodes onto
    active side-1 nodes counted at the caster's row, each by weight."""
    fp, fi, op, oi = hot[:4]
    fw, ow = weights[:2] if weights is not None else (None, None)
    f_cross = r_cross = ones = 0
    for r in range(m):
        u = lo + r
        if active is not None and not active[u]:
            continue
        s = sides[u]
        ones += s
        for i in range(fp[r], fp[r + 1]):
            v = fi[i]
            if u < v and sides[v] != s and (active is None or active[v]):
                f_cross += 1 if fw is None else fw[i]
        if s == 0:
            for i in range(op[r], op[r + 1]):
                v = oi[i]
                if sides[v] == 1 and (active is None or active[v]):
                    r_cross += 1 if ow is None else ow[i]
    return f_cross, r_cross, ones


def _cut_counts_np(np, arrs, active, sides, lo: int = 0):
    """The numpy body of :func:`_cut_counts_py`."""
    sides = np.asarray(sides, dtype=np.int64)
    own = sides[lo : lo + len(arrs["f_ptr"]) - 1]
    f_row, f_idx = arrs["f_row"], arrs["f_idx"]
    ro_row, ro_idx = arrs["ro_row"], arrs["ro_idx"]
    f_mask = ((f_row + lo if lo else f_row) < f_idx) & (
        own[f_row] != sides[f_idx]
    )
    r_mask = (own[ro_row] == 0) & (sides[ro_idx] == 1)
    ones = own == 1
    if active is not None:
        mine = active[lo : lo + len(own)]
        f_mask &= mine[f_row] & active[f_idx]
        r_mask &= mine[ro_row] & active[ro_idx]
        ones &= mine
    f_wt, ro_wt = arrs.get("f_wt"), arrs.get("ro_wt")
    f_cross = np.count_nonzero(f_mask) if f_wt is None else f_wt[f_mask].sum()
    r_cross = np.count_nonzero(r_mask) if ro_wt is None else ro_wt[r_mask].sum()
    return int(f_cross), int(r_cross), int(np.count_nonzero(ones))


def _view_deltas(view, sides) -> Tuple[List[int], List[int]]:
    csr = view.csr
    if _use_numpy(csr):
        fd, rd = _deltas_np(*_np_state(view), sides)
        return fd.tolist(), rd.tolist()
    return _deltas_py(*_view_hot(view), sides, 0, csr.num_nodes)


# ----------------------------------------------------------------------
# Gain deltas
# ----------------------------------------------------------------------
def gain_deltas(view, sides: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Per-node ``(friend_delta, rejection_delta)`` of a switch.

    ``friend_delta[u]`` counts active friends on ``u``'s side minus
    active friends on the other side; ``rejection_delta[u]`` is
    ``(2·side(u)−1) · (out_susp(u) − in_legit(u))`` — the two integers
    the engines combine into ``gain(u) = -(fd − k·rd)`` and the scaled
    bucket index ``k_scaled·rd − fd·res``. Entries for inactive nodes
    are 0; entries for locked nodes are computed like any other (locks
    are the caller's concern).
    """
    _check_unweighted(view.csr)
    return _view_deltas(view, sides)


def weighted_gain_deltas(view, sides: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Weighted per-node ``(friend_delta, rejection_delta)`` of a switch.

    Exactly :func:`gain_deltas` with each edge contributing its int64
    weight instead of 1, so both entries stay exact integers and both
    backends are bit-identical. Requires a weighted graph
    (:func:`_check_weighted`); entries for inactive nodes are 0.
    """
    _check_weighted(view.csr)
    return _view_deltas(view, sides)


def heap_gains(view, sides: Sequence[int], k: float) -> List[float]:
    """Per-node float gains ``-(fd − k·rd)``, the heap engine's initial
    index content, on unweighted and weighted graphs. Bit-identical to
    ``PartitionState.switch_gain`` on active nodes: both evaluate the
    same single IEEE-double expression over the same integers."""
    kernel = weighted_gain_deltas if view.csr.weighted else gain_deltas
    fd, rd = kernel(view, sides)
    return [-(fd[u] - k * rd[u]) for u in range(len(fd))]


# ----------------------------------------------------------------------
# Region refinement scope (multilevel)
# ----------------------------------------------------------------------
def boundary_nodes(view, sides: Sequence[int], k: float) -> List[int]:
    """The movable frontier: positive-gain seeds plus their friends.

    Multilevel region refinement opens every round with it. Only active
    nodes whose switch is profitable right now (``k·rd > fd``) seed the
    frontier, plus their *friends* — the partners KL's compound moves
    pair a seed with. Cut membership is no seed: a converged friend-spam
    cut crosses an accepted attack edge at most legitimate users, so
    that clause would blanket the graph. Rejection-layer neighbours stay
    out too: a fake's rejectors are most of the legitimate population,
    and any of them a seed's switch turns profitable seeds the next
    round's frontier instead.

    Unweighted and weighted graphs (the weighted deltas decide the
    gain). Friends come from the full adjacency, so on a residual view
    inactive friends are included, and locked nodes are not filtered:
    both are the caller's concern (:func:`repro.core.kl.refine_subset`
    drops them). Both backends return the same ascending list: the one
    float comparison ``k·rd > fd`` runs over the same exact integers.
    """
    csr = view.csr
    if _use_numpy(csr):
        np, arrs, active = _np_state(view)
        fd, rd = _deltas_np(np, arrs, active, sides)
        # Inactive rows have fd = rd = 0, so they never seed.
        seed = k * rd > fd
        out = seed.copy()
        out[arrs["f_idx"][seed[arrs["f_row"]]]] = True
        return np.flatnonzero(out).tolist()
    fp, fi = csr.hot()[:2]
    fd, rd = _deltas_py(*_view_hot(view), sides, 0, csr.num_nodes)
    out = bytearray(csr.num_nodes)
    for u in range(csr.num_nodes):
        if k * rd[u] > fd[u]:
            out[u] = 1
            for v in fi[fp[u] : fp[u + 1]]:
                out[v] = 1
    return [u for u, hit in enumerate(out) if hit]


def cut_regions(csr, nodes: Sequence[int]) -> List[List[int]]:
    """Split a frontier into connected *regions*.

    Regions are the connected components of the subgraph ``nodes``
    induce under all three edge layers (friendship + both rejection
    directions), whatever the edge weights. No edge of any layer joins
    two regions — every neighbour of a member is in the same region or
    outside the frontier, hence frozen — so refining the regions
    independently and composing their ``(moves, Δf, Δr)`` is exact in
    any execution order or worker count.

    ``nodes`` must be ascending and distinct. Regions come out in order
    of their smallest member, each ascending, on both backends: numpy
    runs min-label propagation with pointer jumping over the induced
    edges, pure python a depth-first search from each unclaimed member
    in turn.
    """
    if not nodes:
        return []
    if _use_numpy(csr):
        return _cut_regions_np(csr, nodes)
    return _cut_regions_py(csr, nodes)


def _cut_regions_np(csr, nodes):
    import numpy as np

    arrs = csr.numpy_arrays()
    f_row, ro_row, _ = csr.numpy_rows()
    members = np.asarray(nodes, dtype=np.int64)
    m = len(members)
    member = np.zeros(csr.num_nodes, dtype=bool)
    member[members] = True
    # Members renumbered 0..m-1, ascending like ``nodes``.
    pos = np.zeros(csr.num_nodes, dtype=np.int32)
    pos[members] = np.arange(m, dtype=np.int32)

    def induced(row, idx, mirrored):
        keep = member[row] & member[idx]
        if mirrored:  # friendships are stored both ways: keep one
            keep &= row < idx
        return pos[row[keep]], pos[idx[keep]]

    # The received-rejection layer mirrors the cast one, so friendships
    # plus cast rejections are every induced edge of the three layers,
    # each once.
    fa, fb = induced(f_row, arrs["f_idx"], True)
    ra, rb = induced(ro_row, arrs["ro_idx"], False)
    a = np.concatenate((fa, ra))
    b = np.concatenate((fb, rb))

    # label[i] <= i always names a member of i's region. Each round
    # hooks the larger root of every edge whose ends disagree onto the
    # smaller, then jumps pointers until every label is a root again —
    # the jumps are what make the next round's hooks land on roots, so
    # every round merges trees. An edge whose ends agree stays agreed,
    # so it leaves the list; once none is left, each region is labelled
    # by its smallest member.
    label = np.arange(m, dtype=np.int32)
    while True:
        la = label[a]
        lb = label[b]
        live = la != lb
        if not live.any():
            break
        a, b, la, lb = a[live], b[live], la[live], lb[live]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped

    order = np.argsort(label, kind="stable")
    grouped = label[order]
    cuts = [0, *(np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist(), m]
    # Regions hold the caller's own id objects rather than fresh ones.
    flat = [nodes[i] for i in order.tolist()]
    return [flat[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _cut_regions_py(csr, nodes):
    fp, fi, op, oi, ip_, ii = csr.hot()
    layers = ((fp, fi), (op, oi), (ip_, ii))
    # 1 = a member no region has claimed yet.
    unclaimed = bytearray(csr.num_nodes)
    for u in nodes:
        unclaimed[u] = 1
    regions: List[List[int]] = []
    for seed in nodes:
        if not unclaimed[seed]:
            continue
        unclaimed[seed] = 0
        stack = [seed]
        region: List[int] = []
        while stack:
            u = stack.pop()
            region.append(u)
            for ptr, idx in layers:
                for v in idx[ptr[u] : ptr[u + 1]]:
                    if unclaimed[v]:
                        unclaimed[v] = 0
                        stack.append(v)
        region.sort()
        regions.append(region)
    return regions


# ----------------------------------------------------------------------
# Boundary counters
# ----------------------------------------------------------------------
def recount_active(view, sides: Sequence[int]) -> Tuple[int, int, int]:
    """``(f_cross, r_cross, side1_population)`` over the active mask.

    ``f_cross`` counts active-active cross friendships once per
    unordered pair; ``r_cross`` counts rejections cast by active side-0
    nodes onto active side-1 nodes — the exact quantities
    :meth:`PartitionState.recount` re-derives. On a weighted graph both
    are int64 weight sums; the third entry stays the plain active
    side-1 node count that ``PartitionState.side_sizes`` tracks.
    """
    csr = view.csr
    if _use_numpy(csr):
        return _cut_counts_np(*_np_state(view), sides)
    return _cut_counts_py(*_view_hot(view), sides, 0, csr.num_nodes)


def active_in_rejections(view) -> List[int]:
    """Per-node in-rejection counts restricted to active rejecters —
    ``view.rejections_received(u)`` for every node in one sweep. Counts
    rejecters, not weights, so weighted graphs are accepted too."""
    csr = view.csr
    if _use_numpy(csr):
        np, arrs, active = _np_state(view)
        if active is None:
            return np.diff(arrs["ri_ptr"]).tolist()
        return _segment_sums(np, active[arrs["ri_idx"]], arrs["ri_ptr"]).tolist()
    _, _, _, _, ip_, ii = csr.hot()
    active = view.active
    return [
        sum(1 for i in range(ip_[u], ip_[u + 1]) if active[ii[i]])
        for u in range(csr.num_nodes)
    ]


# ----------------------------------------------------------------------
# Gain bounds
# ----------------------------------------------------------------------
def scaled_gain_bound(csr, resolution: int, k_scaled: int) -> int:
    """Graph-wide bound on the integer-scaled gain magnitude,
    ``max_u deg_F(u)·res + k_scaled·deg_R(u)`` — with *weighted* degrees
    on weighted graphs (each edge counts its weight), so the same
    bound sizes the weighted bucket array exactly.

    Computed over *all* nodes: full-graph degrees bound the
    active-filtered ones, so one cached value stays valid for every
    residual view and every pass of a solve (a looser bound only sizes
    the bucket array — it never changes pop order, because gains are
    offset-shifted uniformly). Prefer :meth:`CSRGraph.bucket_gain_bound`,
    which memoizes this per ``(resolution, k_scaled)`` across the whole
    ``k``-sweep and Rejecto's rounds. The KL passes ask for it at ``k``
    in lowest terms (:func:`repro.core.gains._lowest_terms`), so
    ``resolution`` here is the bucket scale of one ``k``, not the
    grid's 8.
    """
    if csr.num_nodes == 0:
        return 0
    weighted = csr.f_wt is not None
    if _use_numpy(csr):
        import numpy as np

        arrs = csr.numpy_arrays()
        if weighted:
            deg_f = _segment_sums(np, arrs["f_wt"], arrs["f_ptr"])
            deg_r = _segment_sums(np, arrs["ro_wt"], arrs["ro_ptr"])
            deg_r = deg_r + _segment_sums(np, arrs["ri_wt"], arrs["ri_ptr"])
        else:
            deg_f = np.diff(arrs["f_ptr"])
            deg_r = np.diff(arrs["ro_ptr"]) + np.diff(arrs["ri_ptr"])
        return int((deg_f * resolution + k_scaled * deg_r).max())
    fp, _, op, _, ip_, _ = csr.hot()
    weights = csr.hot_weights()
    bound = 0
    for u in range(csr.num_nodes):
        if weighted:
            fw, ow, iw = weights
            deg_f = sum(fw[fp[u] : fp[u + 1]])
            deg_r = sum(ow[op[u] : op[u + 1]]) + sum(iw[ip_[u] : ip_[u + 1]])
        else:
            deg_f = fp[u + 1] - fp[u]
            deg_r = (op[u + 1] - op[u]) + (ip_[u + 1] - ip_[u])
        weight = deg_f * resolution + k_scaled * deg_r
        if weight > bound:
            bound = weight
    return bound


# ----------------------------------------------------------------------
# Shard-block kernels (distributed engine, Section V)
# ----------------------------------------------------------------------
#: Duck-typed protocol of a shard block: ``lo``/``num_nodes`` delimit the
#: contiguous global node range, ``backend`` selects the variant,
#: ``hot()`` yields six plain-list arrays ``(f_ptr, f_idx, ro_ptr,
#: ro_idx, ri_ptr, ri_idx)`` with *local* (rebased-to-0) pointers and
#: *global* neighbour ids, and ``numpy_state()`` yields the matching
#: int64 views plus cached per-slot local row ids ``f_row``/``ro_row``/
#: ``ri_row``. ``repro.cluster.blocks.ShardBlock`` implements it.


def shard_gain_deltas(block, sides: Sequence[int], k_scaled: int, res: int) -> List[int]:
    """Per-node integer-scaled switch gains over one shard block.

    :func:`gain_deltas` restricted to the block's contiguous node range
    ``[lo, lo + num_nodes)`` with every node active — the cluster engine
    always partitions the *full* graph, so no mask is carried — folded
    into the bucket-scale gain ``k_scaled·rd − fd·res`` (``k`` is
    ``k_scaled/res``) the master's integer bucket pass loads. ``sides``
    is the full global side vector (a list on the python backend, an
    ``int64`` array on numpy). Both backends produce bit-identical
    integers.
    """
    if block.backend == "numpy":
        import numpy as np

        fd, rd = _deltas_np(np, block.numpy_state(), None, sides, block.lo)
        return (k_scaled * rd - res * fd).tolist()
    fd, rd = _deltas_py(block.hot(), None, None, sides, block.lo, block.num_nodes)
    return [k_scaled * r - res * f for f, r in zip(fd, rd)]


def shard_cut_counts(block, sides: Sequence[int]) -> Tuple[int, int]:
    """Boundary-counter contributions of one shard block.

    Returns ``(f_cross_part, r_cross_part)``: cross friendships counted
    once per unordered pair via the *global* ``u < v`` dedup (so the
    per-block parts sum to the exact graph-wide ``f_cross`` with no
    halving step), and rejections cast by the block's side-0 nodes onto
    side-1 targets (each rejection counted once, at its caster's row).
    """
    if block.backend == "numpy":
        import numpy as np

        counts = _cut_counts_np(np, block.numpy_state(), None, sides, block.lo)
    else:
        counts = _cut_counts_py(
            block.hot(), None, None, sides, block.lo, block.num_nodes
        )
    return counts[:2]


# ----------------------------------------------------------------------
# Multilevel coarsening (heavy-edge matching + contraction)
# ----------------------------------------------------------------------
def heavy_edge_matching(
    csr,
    priority: Sequence[int],
    locked: Optional[Sequence[bool]] = None,
    rounds: int = 4,
) -> List[int]:
    """Mutual heaviest-neighbour matching over the friendship layer.

    ``priority`` must be a permutation of ``range(num_nodes)`` — it
    breaks weight ties deterministically via the composite int64 key
    ``weight·n + priority[v]`` (unique per neighbour, so the per-row max
    is unambiguous and both backends agree bit-for-bit). In each round
    every free node picks its heaviest free neighbour; mutual picks
    ``cand[u] == v and cand[v] == u`` are matched and removed, and the
    rounds repeat until no pair forms (at most ``rounds`` times). A
    final greedy cleanup then resolves the non-mutual leftovers —
    mutual-only rounds stall on stars, where every leaf picks the hub
    but the hub answers one leaf per round: candidates are recomputed
    once more under the current free mask and awarded in ascending node
    order, a serial O(V) loop both backends run identically.
    Nodes flagged in ``locked`` are never matched — they survive
    coarsening as singletons so lock projection stays trivial. Returns
    ``match`` with ``match[u] == u`` for unmatched nodes. Works on
    unweighted (unit-weight) and weighted graphs.
    """
    n = csr.num_nodes
    if len(priority) != n or sorted(priority) != list(range(n)):
        raise ValueError("priority must be a permutation of range(num_nodes)")
    if _use_numpy(csr):
        return _heavy_edge_matching_np(csr, priority, locked, rounds)
    return _heavy_edge_matching_py(csr, priority, locked, rounds)


def _heavy_edge_matching_py(csr, priority, locked, rounds) -> List[int]:
    fp, fi, *_ = csr.hot()
    weights = csr.hot_weights()
    fw = weights[0] if weights is not None else None
    n = csr.num_nodes
    free = [True] * n
    if locked is not None:
        for u in range(n):
            if locked[u]:
                free[u] = False
    match = list(range(n))
    cand = [-1] * n
    for _ in range(rounds):
        for u in range(n):
            best_key = -1
            best_v = -1
            if free[u]:
                for i in range(fp[u], fp[u + 1]):
                    v = fi[i]
                    if v == u or not free[v]:
                        continue
                    key = (fw[i] if fw is not None else 1) * n + priority[v]
                    if key > best_key:
                        best_key = key
                        best_v = v
            cand[u] = best_v
        paired = 0
        for u in range(n):
            v = cand[u]
            if v > u and cand[v] == u:
                match[u] = v
                match[v] = u
                free[u] = free[v] = False
                paired += 1
        if paired == 0:
            break
    # Greedy cleanup: candidates under the final free mask, resolved
    # serially in ascending node order.
    for u in range(n):
        best_key = -1
        best_v = -1
        if free[u]:
            for i in range(fp[u], fp[u + 1]):
                v = fi[i]
                if v == u or not free[v]:
                    continue
                key = (fw[i] if fw is not None else 1) * n + priority[v]
                if key > best_key:
                    best_key = key
                    best_v = v
        cand[u] = best_v
    for u in range(n):
        if not free[u]:
            continue
        v = cand[u]
        if v >= 0 and free[v]:
            match[u] = v
            match[v] = u
            free[u] = free[v] = False
    return match


def _heavy_edge_matching_np(csr, priority, locked, rounds) -> List[int]:
    import numpy as np

    arrs = csr.numpy_arrays()
    f_row, _, _ = csr.numpy_rows()
    f_ptr, f_idx = arrs["f_ptr"], arrs["f_idx"]
    n = csr.num_nodes
    pr = np.asarray(priority, dtype=np.int64)
    inv = np.empty(n, dtype=np.int64)
    inv[pr] = np.arange(n, dtype=np.int64)
    if "f_wt" in arrs:
        keys_base = arrs["f_wt"] * n + pr[f_idx]
    else:
        keys_base = n + pr[f_idx]
    free = np.ones(n, dtype=bool)
    if locked is not None:
        free &= ~np.asarray(locked, dtype=bool)
    match = np.arange(n, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    nonempty = np.diff(f_ptr) > 0
    starts = f_ptr[:-1][nonempty]
    row_max = np.empty(n, dtype=np.int64)
    for _ in range(rounds):
        valid = free[f_row] & free[f_idx] & (f_row != f_idx)
        keys = np.where(valid, keys_base, -1)
        row_max.fill(-1)
        if len(starts):
            row_max[nonempty] = np.maximum.reduceat(keys, starts)
        row_max[~free] = -1
        cand = np.where(row_max >= 0, inv[row_max % n], -1)
        cand_safe = np.where(cand >= 0, cand, 0)
        mutual = (cand > ids) & (cand[cand_safe] == ids)
        us = ids[mutual]
        if not len(us):
            break
        vs = cand[us]
        match[us] = vs
        match[vs] = us
        free[us] = False
        free[vs] = False
    # Greedy cleanup: one more vectorized candidate computation, then
    # the same ascending-node-order serial resolution as the python
    # fallback (free-mask state is identical, so the results are too).
    valid = free[f_row] & free[f_idx] & (f_row != f_idx)
    keys = np.where(valid, keys_base, -1)
    row_max.fill(-1)
    if len(starts):
        row_max[nonempty] = np.maximum.reduceat(keys, starts)
    row_max[~free] = -1
    cand = np.where(row_max >= 0, inv[row_max % n], -1)
    free_list = free.tolist()
    cand_list = cand.tolist()
    match_list = match.tolist()
    for u in range(n):
        if not free_list[u]:
            continue
        v = cand_list[u]
        if v >= 0 and free_list[v]:
            match_list[u] = v
            match_list[v] = u
            free_list[u] = free_list[v] = False
    return match_list


def matching_to_mapping(match: Sequence[int], backend: str) -> Tuple[List[int], int]:
    """Collapse a matching into ``(mapping, num_coarse)`` where
    ``mapping[u]`` is ``u``'s coarse node id: the rank of the pair
    representative ``min(u, match[u])`` among all representatives, so
    coarse ids follow fine-node order and both backends agree exactly."""
    if backend == "numpy":
        import numpy as np

        reps = np.minimum(
            np.arange(len(match), dtype=np.int64),
            np.asarray(match, dtype=np.int64),
        )
        uniq, inverse = np.unique(reps, return_inverse=True)
        return inverse.tolist(), len(uniq)
    mapping = [0] * len(match)
    next_id = 0
    for u, v in enumerate(match):
        if v >= u:
            mapping[u] = next_id
            if v > u:
                mapping[v] = next_id
            next_id += 1
    return mapping, next_id


def _to_q(np, arr):
    out = array("q")
    out.frombytes(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return out


def contract_arrays(csr, mapping: Sequence[int], num_coarse: int) -> Tuple:
    """Contract ``csr`` under ``mapping`` into flat int64 coarse arrays.

    Returns the ten buffers a :class:`~repro.core.csr.WeightedCSRGraph`
    is built from, in constructor order: ``(f_ptr, f_idx, ro_ptr,
    ro_idx, ri_ptr, ri_idx, f_wt, ro_wt, ri_wt, node_weight)``. Each
    coarse edge weight is the exact int64 sum of the fine slots that
    map onto it (unit weight 1 on unweighted inputs); self-loops
    (``mapping[u] == mapping[v]``) are dropped, rows come out sorted
    ascending, and node weights accumulate per coarse node (unit on
    plain graphs). The numpy path runs ``np.unique`` + ``np.add.at``
    scatter-adds per layer; the python path sums into per-row dicts —
    both exact integers, hence bit-identical.
    """
    if _use_numpy(csr):
        return _contract_np(csr, mapping, num_coarse)
    return _contract_py(csr, mapping, num_coarse)


def _contract_np(csr, mapping, num_coarse):
    import numpy as np

    arrs = csr.numpy_arrays()
    f_row, ro_row, ri_row = csr.numpy_rows()
    mp = np.asarray(mapping, dtype=np.int64)

    def layer(row, idx, wts):
        cu = mp[row]
        cv = mp[idx]
        keep = cu != cv
        key = cu[keep] * num_coarse + cv[keep]
        uniq, inverse = np.unique(key, return_inverse=True)
        if wts is None:
            sums = np.bincount(inverse, minlength=len(uniq)).astype(np.int64)
        else:
            sums = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(sums, inverse, wts[keep])
        counts = np.bincount(uniq // num_coarse, minlength=num_coarse)
        ptr = np.zeros(num_coarse + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        return ptr, uniq % num_coarse, sums

    f_ptr, f_idx, f_wt = layer(f_row, arrs["f_idx"], arrs.get("f_wt"))
    ro_ptr, ro_idx, ro_wt = layer(ro_row, arrs["ro_idx"], arrs.get("ro_wt"))
    ri_ptr, ri_idx, ri_wt = layer(ri_row, arrs["ri_idx"], arrs.get("ri_wt"))

    nw = getattr(csr, "node_weight", None)
    if nw is None:
        coarse_nw = np.bincount(mp, minlength=num_coarse).astype(np.int64)
    else:
        coarse_nw = np.zeros(num_coarse, dtype=np.int64)
        np.add.at(coarse_nw, mp, np.frombuffer(nw, dtype=np.int64))
    return (
        _to_q(np, f_ptr),
        _to_q(np, f_idx),
        _to_q(np, ro_ptr),
        _to_q(np, ro_idx),
        _to_q(np, ri_ptr),
        _to_q(np, ri_idx),
        _to_q(np, f_wt),
        _to_q(np, ro_wt),
        _to_q(np, ri_wt),
        _to_q(np, coarse_nw),
    )


def _contract_py(csr, mapping, num_coarse):
    fp, fi, op, oi, ip_, ii = csr.hot()
    weights = csr.hot_weights()
    fw, ow, iw = weights if weights is not None else (None, None, None)
    n = csr.num_nodes

    def pack(rows):
        ptr = array("q", [0]) * (num_coarse + 1)
        idx = array("q")
        wt = array("q")
        total = 0
        for cu in range(num_coarse):
            row = rows[cu]
            total += len(row)
            ptr[cu + 1] = total
            for cv in sorted(row):
                idx.append(cv)
                wt.append(row[cv])
        return ptr, idx, wt

    f_rows = [dict() for _ in range(num_coarse)]
    ro_rows = [dict() for _ in range(num_coarse)]
    ri_rows = [dict() for _ in range(num_coarse)]
    for u in range(n):
        cu = mapping[u]
        for rows, ptr_a, idx_a, wt_a in (
            (f_rows, fp, fi, fw),
            (ro_rows, op, oi, ow),
            (ri_rows, ip_, ii, iw),
        ):
            acc = rows[cu]
            for i in range(ptr_a[u], ptr_a[u + 1]):
                cv = mapping[idx_a[i]]
                if cv == cu:
                    continue
                acc[cv] = acc.get(cv, 0) + (wt_a[i] if wt_a is not None else 1)

    nw = getattr(csr, "node_weight", None)
    coarse_nw = array("q", [0]) * num_coarse
    for u in range(n):
        coarse_nw[mapping[u]] += nw[u] if nw is not None else 1
    f_ptr, f_idx, f_wt = pack(f_rows)
    ro_ptr, ro_idx, ro_wt = pack(ro_rows)
    ri_ptr, ri_idx, ri_wt = pack(ri_rows)
    return (
        f_ptr,
        f_idx,
        ro_ptr,
        ro_idx,
        ri_ptr,
        ri_idx,
        f_wt,
        ro_wt,
        ri_wt,
        coarse_nw,
    )
