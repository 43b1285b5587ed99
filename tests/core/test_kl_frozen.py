"""Frozen KL signatures: engine results pinned as short hashes.

Every case runs :func:`~repro.core.kl.extended_kl_state` and hashes the
full outcome ``(sides, f_cross, r_cross, side_sizes, objective_history,
passes, tested, applied)``. The hashes were captured from the engine
when its unweighted bucket, weighted bucket and heap passes were three
separate loops, so they stay an oracle for any rewrite of the pass
machinery that claims to change nothing: the bucket and heap engines
can no longer vouch for each other once they share one skeleton.

One entry per ``(graph kind, pass body, k)``; each entry folds 24 runs
— four seeds × random and perturbed-converged starts × ``stall_limit``
None/1/5 — into one hash, and both backends must reproduce it. Graph kinds cover
unweighted and int64-weighted (contracted ``coarse_state``) graphs,
locked nodes, and unweighted and weighted residual views. A ``"heap"``
entry forces the heap pass (:mod:`.pass_body`); ``"bucket"`` and
``"auto"`` entries reach their body through the engine's own rule.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.csr import PartitionState
from repro.core.kl import KLConfig, KLStats, extended_kl_state

from ..conftest import random_augmented_graph
from .pass_body import forced_body
from .test_weighted_parity import BACKENDS, coarse_state

SEEDS = (0, 1, 2, 3)
STALLS = (None, 1, 5)

#: ``(kind, body, k) -> hash`` of the 24 folded run signatures.
FROZEN = {
    ('plain', 'bucket', 0.5): '5e52e3f0de8dea49',
    ('plain', 'bucket', 2.0): '8269121cd76ca8ad',
    ('plain', 'heap', 0.5): '5e52e3f0de8dea49',
    ('plain', 'heap', 2.0): '8269121cd76ca8ad',
    ('plain', 'auto', 0.3): '142a7a59d10622f6',
    ('locked', 'bucket', 0.5): '4ff9afabc8bb2554',
    ('locked', 'bucket', 2.0): 'cd92a30f1af99880',
    ('locked', 'heap', 0.5): '4ff9afabc8bb2554',
    ('locked', 'heap', 2.0): 'cd92a30f1af99880',
    ('locked', 'auto', 0.3): 'eb37df21eb2edee9',
    ('residual', 'bucket', 0.5): '85b6f53b715a74d0',
    ('residual', 'bucket', 2.0): '7d1f1d12895588af',
    ('residual', 'heap', 0.5): '85b6f53b715a74d0',
    ('residual', 'heap', 2.0): '7d1f1d12895588af',
    ('residual', 'auto', 0.3): '6d1a50f4e4d0d9f2',
    ('weighted', 'bucket', 0.5): '036b8348a6ef7012',
    ('weighted', 'bucket', 2.0): '12153c785178ae75',
    ('weighted', 'heap', 0.5): '036b8348a6ef7012',
    ('weighted', 'heap', 2.0): '12153c785178ae75',
    ('weighted', 'auto', 0.3): 'ea9699ec12ea59bd',
    ('weighted_locked', 'bucket', 0.5): '395e3dfa1e6aaa1d',
    ('weighted_locked', 'bucket', 2.0): 'be8e88105102dfbd',
    ('weighted_locked', 'heap', 0.5): '395e3dfa1e6aaa1d',
    ('weighted_locked', 'heap', 2.0): 'be8e88105102dfbd',
    ('weighted_locked', 'auto', 0.3): '934d976836350a13',
    ('weighted_residual', 'heap', 0.5): '17371d85290e3eb5',
    ('weighted_residual', 'heap', 2.0): 'c3be09306f1f4435',
    ('weighted_residual', 'auto', 0.3): '9e2488ffd75f39e4',
}

BUCKET_KINDS = ("plain", "locked", "residual", "weighted", "weighted_locked")
HEAP_ONLY_KINDS = ("weighted_residual",)
ENGINES = (
    ("bucket", 0.5),
    ("bucket", 2.0),
    ("heap", 0.5),
    ("heap", 2.0),
    ("auto", 0.3),  # off the 1/8 grid: the heap engine
)
CASES = [
    (kind, body, k)
    for kind in BUCKET_KINDS + HEAP_ONLY_KINDS
    for body, k in ENGINES
    if kind in BUCKET_KINDS or body != "bucket"
]


def _graph(kind: str, seed: int, backend: str):
    """``(view, sides, locked)`` of one graph kind at one seed."""
    rng = random.Random(1000 + seed)
    if kind.startswith("weighted"):
        csr, sides = coarse_state(seed, levels=1 + seed % 2, backend=backend)
    else:
        graph = random_augmented_graph(
            num_nodes=90, num_friendships=220, num_rejections=110, seed=seed
        )
        csr = graph.csr(backend)
        sides = [rng.randint(0, 1) for _ in range(csr.num_nodes)]
    n = csr.num_nodes
    view = csr.view()
    if kind.endswith("residual"):
        view = view.without(u for u in range(n) if rng.random() < 0.15)
    locked = [False] * n
    if kind.endswith("locked") or kind == "residual":
        locked = [rng.random() < 0.15 for _ in range(n)]
    return view, sides, locked


def _perturbed(view, sides, locked, k: float, seed: int):
    """A converged cut with a few flips: the shape refinement sees."""
    converged = extended_kl_state(PartitionState(view, sides, locked), k)
    out = list(converged.sides)
    rng = random.Random(seed)
    for _ in range(max(1, len(out) // 10)):
        out[rng.randrange(len(out))] ^= 1
    return out


def _signature(view, sides, locked, k: float, config: KLConfig) -> str:
    stats = KLStats()
    out = extended_kl_state(PartitionState(view, sides, locked), k, config, stats)
    return repr(
        (
            list(out.sides),
            out.f_cross,
            out.r_cross,
            list(out.side_sizes),
            stats.objective_history,
            stats.passes,
            stats.switches_tested,
            stats.switches_applied,
        )
    )


def entry_hash(kind: str, body: str, k: float, backend: str) -> str:
    """The folded hash of one ``FROZEN`` entry on one backend. The
    converged starts come from the engine's own rule; only the hashed
    runs are forced onto ``body``."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        view, sides, locked = _graph(kind, seed, backend)
        starts = (sides, _perturbed(view, sides, locked, k, seed))
        for start in starts:
            for stall_limit in STALLS:
                config = KLConfig(stall_limit=stall_limit)
                with forced_body(body):
                    signature = _signature(view, start, locked, k, config)
                digest.update(signature.encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind,body,k", CASES)
def test_signature_frozen(kind, body, k, backend):
    assert entry_hash(kind, body, k, backend) == FROZEN[kind, body, k]


def test_cases_cover_every_frozen_entry():
    assert sorted(FROZEN) == sorted(CASES)
