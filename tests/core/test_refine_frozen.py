"""Frozen region-refinement signatures: ``refine_subset`` pinned as hashes.

Every case runs :func:`~repro.core.kl.refine_subset` and hashes its full
outcome ``(sides, moved, delta_f, delta_r, tested, applied)``. The hashes
were captured while ``refine_subset`` still carried its own float-heap
pass loop, so they stay an oracle for running region refinement on the
shared pass skeleton of :mod:`repro.core.kl`: same cuts, same counter
deltas, same switch counts.

One entry per ``(graph kind, gain index, k)``; each entry folds, over
four seeds × random and perturbed-converged starts × ``stall_limit``
None/1/256 × ``max_passes`` 1/30, the runs on four kinds of candidate
subset: the whole graph, a random sixth and a random half of it (either
side of the numpy backend's quarter-of-the-level batch-refresh rule),
and the connected ``cut_regions`` regions of the movable frontier,
refined in turn against one shared side vector as the multilevel
region worker does. Graph kinds cover unweighted and int64-weighted
(contracted ``coarse_state``) graphs, locked nodes, and unweighted and
weighted residual views; ``k`` covers the 1/8 grid (0.5, 2) and off-grid
ratios (0.3, 1.7). Both backends must reproduce every hash.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.csr import PartitionState
from repro.core.kernels import boundary_nodes, cut_regions
from repro.core.kl import KLConfig, extended_kl_state, refine_subset

from ..conftest import random_augmented_graph
from .test_weighted_parity import BACKENDS, coarse_state

SEEDS = (0, 1, 2, 3)
STALLS = (None, 1, 256)
MAX_PASSES = (1, 30)

#: ``(kind, gain_index, k) -> hash`` of the folded run signatures.
FROZEN = {
    ('plain', 'auto', 0.5): 'a06ebf3fb4763283',
    ('plain', 'auto', 2.0): '7276e64f02f58a99',
    ('plain', 'heap', 0.5): 'a06ebf3fb4763283',
    ('plain', 'heap', 2.0): '7276e64f02f58a99',
    ('plain', 'auto', 0.3): '2e96913a118d4f2a',
    ('plain', 'auto', 1.7): '79553600c9ec1615',
    ('locked', 'auto', 0.5): '4cef061f7cefbd0d',
    ('locked', 'auto', 2.0): '0e24c6fc4dfbe841',
    ('locked', 'heap', 0.5): '4cef061f7cefbd0d',
    ('locked', 'heap', 2.0): '0e24c6fc4dfbe841',
    ('locked', 'auto', 0.3): 'a4f4a91a7f382b30',
    ('locked', 'auto', 1.7): 'b9fd57988b66518f',
    ('residual', 'auto', 0.5): '899f95ecbad12279',
    ('residual', 'auto', 2.0): '541657eb87b7e612',
    ('residual', 'heap', 0.5): '899f95ecbad12279',
    ('residual', 'heap', 2.0): '541657eb87b7e612',
    ('residual', 'auto', 0.3): '5e7d7cfde26efc92',
    ('residual', 'auto', 1.7): '667caa8112eda05c',
    ('weighted', 'auto', 0.5): '321020a65a2f8747',
    ('weighted', 'auto', 2.0): 'aafb0cff80568ce3',
    ('weighted', 'heap', 0.5): '321020a65a2f8747',
    ('weighted', 'heap', 2.0): 'aafb0cff80568ce3',
    ('weighted', 'auto', 0.3): '321020a65a2f8747',
    ('weighted', 'auto', 1.7): 'fb66c336300a2970',
    ('weighted_locked', 'auto', 0.5): '8cc566051b11941a',
    ('weighted_locked', 'auto', 2.0): 'e8f09230c921af7c',
    ('weighted_locked', 'heap', 0.5): '8cc566051b11941a',
    ('weighted_locked', 'heap', 2.0): 'e8f09230c921af7c',
    ('weighted_locked', 'auto', 0.3): '8cc566051b11941a',
    ('weighted_locked', 'auto', 1.7): 'ad8133f4b2bedca3',
    ('weighted_residual', 'auto', 0.5): '6f39234c65d60014',
    ('weighted_residual', 'auto', 2.0): '3fa79ccbb46360dd',
    ('weighted_residual', 'heap', 0.5): '6f39234c65d60014',
    ('weighted_residual', 'heap', 2.0): '3fa79ccbb46360dd',
    ('weighted_residual', 'auto', 0.3): '40af73bc7febca39',
    ('weighted_residual', 'auto', 1.7): '9305461136f78c86',
}

KINDS = (
    "plain",
    "locked",
    "residual",
    "weighted",
    "weighted_locked",
    "weighted_residual",
)
ENGINES = (
    ("auto", 0.5),
    ("auto", 2.0),
    ("heap", 0.5),
    ("heap", 2.0),
    ("auto", 0.3),  # off the 1/8 grid: the heap engine
    ("auto", 1.7),
)
CASES = [(kind, gain_index, k) for kind in KINDS for gain_index, k in ENGINES]


def _graph(kind: str, seed: int, backend: str):
    """``(view, sides, locked)`` of one graph kind at one seed."""
    rng = random.Random(2000 + seed)
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
    if kind.endswith("locked") or kind.endswith("residual"):
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


def _subsets(view, sides, k: float, seed: int):
    """The whole graph, a random sixth, a random half, then the regions."""
    n = view.csr.num_nodes
    rng = random.Random(seed)
    yield [list(range(n))]
    yield [sorted(rng.sample(range(n), n // 6))]
    yield [sorted(rng.sample(range(n), n // 2))]
    yield cut_regions(view.csr, boundary_nodes(view, sides, k))


def entry_hash(kind: str, gain_index: str, k: float, backend: str) -> str:
    """The folded hash of one ``FROZEN`` entry on one backend."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        view, sides, locked = _graph(kind, seed, backend)
        starts = (sides, _perturbed(view, sides, locked, k, seed))
        for start in starts:
            for stall_limit in STALLS:
                for max_passes in MAX_PASSES:
                    config = KLConfig(
                        gain_index=gain_index,
                        stall_limit=stall_limit,
                        max_passes=max_passes,
                    )
                    for regions in _subsets(view, start, k, seed):
                        local = list(start)
                        for region in regions:
                            result = refine_subset(
                                view, local, locked, region, k, config
                            )
                            digest.update(repr((local, result)).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind,gain_index,k", CASES)
def test_signature_frozen(kind, gain_index, k, backend):
    assert entry_hash(kind, gain_index, k, backend) == FROZEN[kind, gain_index, k]


def test_cases_cover_every_frozen_entry():
    assert sorted(FROZEN) == sorted(CASES)
