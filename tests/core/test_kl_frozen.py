"""Frozen KL signatures: engine results pinned as short hashes.

Every case runs :func:`~repro.core.kl.extended_kl_state` and hashes the
full outcome ``(sides, f_cross, r_cross, side_sizes, objective_history,
passes, tested, applied)``. The hashes were captured from the engine
when its unweighted bucket, weighted bucket and heap passes were three
separate loops, so they stay an oracle for any rewrite of the pass
machinery that claims to change nothing: the bucket and heap engines
can no longer vouch for each other once they share one skeleton.

One entry per ``(graph kind, gain index, k)``; each entry folds 96 runs
— four seeds × random and perturbed-converged starts × ``frontier``
full/boundary × ``stall_limit`` None/1/5 × ``incremental`` on/off —
into one hash, and both backends must reproduce it. Graph kinds cover
unweighted and int64-weighted (contracted ``coarse_state``) graphs,
locked nodes, and unweighted and weighted residual views.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.csr import PartitionState
from repro.core.kl import KLConfig, KLStats, extended_kl_state

from ..conftest import random_augmented_graph
from .test_weighted_parity import BACKENDS, coarse_state

SEEDS = (0, 1, 2, 3)
STALLS = (None, 1, 5)

#: ``(kind, gain_index, k) -> hash`` of the 96 folded run signatures.
FROZEN = {
    ('plain', 'bucket', 0.5): '8b6e81c94a05c831',
    ('plain', 'bucket', 2.0): 'a6aa6ccbbd8f3827',
    ('plain', 'heap', 0.5): '8b6e81c94a05c831',
    ('plain', 'heap', 2.0): 'a6aa6ccbbd8f3827',
    ('plain', 'auto', 0.3): '5fb80f0af16f6e74',
    ('locked', 'bucket', 0.5): '806edb98614ba4b2',
    ('locked', 'bucket', 2.0): '7ca95faa9fd6f509',
    ('locked', 'heap', 0.5): '806edb98614ba4b2',
    ('locked', 'heap', 2.0): '7ca95faa9fd6f509',
    ('locked', 'auto', 0.3): 'e520cdfbdbd99fa0',
    ('residual', 'bucket', 0.5): '7fc4dc5b840ded94',
    ('residual', 'bucket', 2.0): '758127c4a3504497',
    ('residual', 'heap', 0.5): '7fc4dc5b840ded94',
    ('residual', 'heap', 2.0): '758127c4a3504497',
    ('residual', 'auto', 0.3): '5935203a834ea085',
    ('weighted', 'bucket', 0.5): 'ac282c7f00aba3bc',
    ('weighted', 'bucket', 2.0): 'b9445cc16ecc74e8',
    ('weighted', 'heap', 0.5): 'ac282c7f00aba3bc',
    ('weighted', 'heap', 2.0): 'b9445cc16ecc74e8',
    ('weighted', 'auto', 0.3): '181a6c622e2fb9aa',
    ('weighted_locked', 'bucket', 0.5): '14360598eb5dbc40',
    ('weighted_locked', 'bucket', 2.0): '40620af6c6f93c2a',
    ('weighted_locked', 'heap', 0.5): '14360598eb5dbc40',
    ('weighted_locked', 'heap', 2.0): '40620af6c6f93c2a',
    ('weighted_locked', 'auto', 0.3): 'c7cc26832c3a07d6',
    ('weighted_residual', 'heap', 0.5): 'c5a9163b6bb8f8cd',
    ('weighted_residual', 'heap', 2.0): '50d144902a8f49d9',
    ('weighted_residual', 'auto', 0.3): '3461ab0e7cbd7368',
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
    (kind, gain_index, k)
    for kind in BUCKET_KINDS + HEAP_ONLY_KINDS
    for gain_index, k in ENGINES
    if kind in BUCKET_KINDS or gain_index != "bucket"
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


def entry_hash(kind: str, gain_index: str, k: float, backend: str) -> str:
    """The folded hash of one ``FROZEN`` entry on one backend."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        view, sides, locked = _graph(kind, seed, backend)
        starts = (sides, _perturbed(view, sides, locked, k, seed))
        for start in starts:
            for frontier in ("full", "boundary"):
                for stall_limit in STALLS:
                    for incremental in (True, False):
                        config = KLConfig(
                            gain_index=gain_index,
                            stall_limit=stall_limit,
                            incremental=incremental,
                            frontier=frontier,
                        )
                        signature = _signature(view, start, locked, k, config)
                        digest.update(signature.encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind,gain_index,k", CASES)
def test_signature_frozen(kind, gain_index, k, backend):
    assert entry_hash(kind, gain_index, k, backend) == FROZEN[kind, gain_index, k]


def test_cases_cover_every_frozen_entry():
    assert sorted(FROZEN) == sorted(CASES)
