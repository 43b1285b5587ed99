"""Frozen cluster signatures: distributed KL outcomes pinned as short hashes.

Every case runs :class:`~repro.cluster.engine.DistributedKL` (or
:func:`~repro.cluster.engine.distributed_maar`) and hashes the full
outcome: ``(sides, f_cross, r_cross, objective_history, passes,
switches_tested, switches_applied, bytes_by_kind, by_kind,
fetch_batches, records_fetched, prefetch hits, prefetch misses)``. The
hashes were captured when the cluster master ran its own pass loop over
a float bucket gain index, separate from :mod:`repro.core.kl`. Now that
the master runs kl's integer bucket pass body, the parity tests against
``extended_kl`` no longer check that body independently; these hashes
do — down to which nodes ride along in every prefetch batch.

One entry per ``(kind, k)``; each folds four scenario seeds × two starts
(rejection-init and random sides) into one hash, and both backends must
reproduce it. Kinds cover the prefetch buffer shapes (4096/64, an
evicting 96/16, and 0 = fetch on demand), locked nodes, snapshot
reference transport, ``replication=2`` with a worker failing mid-pass,
and ``distributed_maar`` sweeps (``k_steps=4``, keyed ``k=None``) under
the three buffer shapes.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.attacks import ScenarioConfig, build_scenario
from repro.cluster import ClusterConfig, ClusterRunStats, DistributedKL, distributed_maar
from repro.core import CSRGraph, MAARConfig
from repro.core.objectives import LEGITIMATE, SUSPICIOUS
from repro.core.storage import clear_snapshot_cache

from .test_engine import BACKENDS

SEEDS = (0, 1, 2, 3)
K_VALUES = (0.125, 0.5, 1.0, 4.0)

#: kind -> ClusterConfig overrides
KINDS = {
    "prefetch": {"buffer_capacity": 4096, "prefetch_batch": 64},
    "tight": {"buffer_capacity": 96, "prefetch_batch": 16},
    "on_demand": {"buffer_capacity": 0},
    "locked": {"buffer_capacity": 96, "prefetch_batch": 16},
    "reference": {"buffer_capacity": 96, "prefetch_batch": 16},
    "failover": {"num_workers": 4, "num_partitions": 8, "replication": 2,
                 "buffer_capacity": 96, "prefetch_batch": 16},
}

#: ``(kind, k) -> hash`` of the folded run signatures.
FROZEN = {
    ('prefetch', 0.125): 'cb497890657a6fa1',
    ('prefetch', 0.5): 'd9c5fa46c0cea4c3',
    ('prefetch', 1.0): '7964a1775f403919',
    ('prefetch', 4.0): '198a81a74409d90e',
    ('tight', 0.125): 'f903d34a21ac6c99',
    ('tight', 0.5): '1d6c7e0b1adfff67',
    ('tight', 1.0): '705da3069f7abcab',
    ('tight', 4.0): 'dabb35347b49a1c7',
    ('on_demand', 0.125): '30946f26960999f1',
    ('on_demand', 0.5): '9a22d4cc227fa95d',
    ('on_demand', 1.0): 'cf0598f9d5c9f167',
    ('on_demand', 4.0): '57f603a156b41871',
    ('locked', 0.125): '1bb1250725ffcbe3',
    ('locked', 0.5): '0fa5a616ff033fd4',
    ('locked', 1.0): 'c0c58dd180f4f231',
    ('locked', 4.0): '6b47a2ed21281c73',
    ('reference', 0.125): 'cb12ad8f7f3168f2',
    ('reference', 0.5): '0cf9fa434a3b2f03',
    ('reference', 1.0): 'daebc7563fa4b216',
    ('reference', 4.0): '11d8263af51fee35',
    ('failover', 0.125): 'f79a1a98327eb21b',
    ('failover', 0.5): '5f503abe3e6fae2a',
    ('failover', 1.0): '834eb565bee0b92b',
    ('failover', 4.0): '8ab5c3625a0d79fb',
    ('maar', None): '84af00b6a6ad9341',
}

CASES = [(kind, k) for kind in KINDS for k in K_VALUES] + [("maar", None)]


def _graph(seed: int, backend: str, tmp_path, reference: bool):
    scenario = build_scenario(
        ScenarioConfig(num_legit=300, num_fakes=60, seed=300 + seed)
    )
    csr = scenario.graph.csr(backend)
    if reference:
        path = csr.save(tmp_path / f"graph-{seed}.csrbin")
        csr = CSRGraph.open(path, backend=backend)
    return csr


def _starts(csr, seed: int):
    rng = random.Random(seed)
    init = [
        SUSPICIOUS if csr.rejections_received(u) else LEGITIMATE
        for u in range(csr.num_nodes)
    ]
    return init, [rng.randint(0, 1) for _ in range(csr.num_nodes)]


def _fail_mid_pass(engine, worker_index: int = 2, after: int = 3) -> None:
    """Kill one worker after ``after`` fetch batches, mid-pass."""
    original = engine._fetch_records
    calls = [0]

    def fetch(nodes):
        calls[0] += 1
        if calls[0] == after:
            engine.context.workers[worker_index].fail()
        return original(nodes)

    engine._fetch_records = fetch


def _signature(outcome, stats: ClusterRunStats, csr=None) -> str:
    sides, f_cross, r_cross = outcome
    network = stats.network
    bytes_by_kind = dict(network.bytes_by_kind)
    path = getattr(csr, "snapshot_path", None)
    if path is not None:
        # Each reference message carries the snapshot path: leave its
        # (temporary-directory dependent) length out of the ledger.
        path_bytes = len(str(path).encode("utf-8"))
        bytes_by_kind["upload"] -= path_bytes * network.by_kind["upload"]
    return repr(
        (
            list(sides),
            f_cross,
            r_cross,
            stats.objective_history,
            stats.passes,
            stats.switches_tested,
            stats.switches_applied,
            sorted(bytes_by_kind.items()),
            sorted(network.by_kind.items()),
            stats.fetch_batches,
            stats.records_fetched,
            stats.prefetch_hits,
            stats.prefetch_misses,
        )
    )


def _run(csr, kind: str, k: float, start, seed: int) -> str:
    config = ClusterConfig(**KINDS[kind])
    engine = DistributedKL(csr, config)
    if kind == "failover":
        _fail_mid_pass(engine)
    locked = None
    if kind == "locked":
        rng = random.Random(50 + seed)
        locked = [rng.random() < 0.15 for _ in range(csr.num_nodes)]
    stats = ClusterRunStats()
    outcome = engine.run(k, start, locked=locked, stats=stats)
    if kind == "failover":
        assert not engine.context.workers[2].alive, "no failure injected"
    return _signature(outcome, stats, csr)


def _run_maar(csr) -> str:
    signatures = []
    for kind in ("prefetch", "tight", "on_demand"):
        stats = ClusterRunStats()
        suspicious, rate, best_k = distributed_maar(
            csr, ClusterConfig(**KINDS[kind]), MAARConfig(k_steps=4), stats=stats
        )
        sides = [0] * csr.num_nodes
        for u in suspicious:
            sides[u] = 1
        signatures.append(repr((rate, best_k)) + _signature((sides, 0, 0), stats))
    return "".join(signatures)


def entry_hash(kind: str, k, backend: str, tmp_path) -> str:
    """The folded hash of one ``FROZEN`` entry on one backend."""
    digest = hashlib.sha256()
    clear_snapshot_cache()
    try:
        for seed in SEEDS:
            csr = _graph(seed, backend, tmp_path, kind == "reference")
            if kind == "maar":
                digest.update(_run_maar(csr).encode())
                continue
            for start in _starts(csr, seed):
                digest.update(_run(csr, kind, k, start, seed).encode())
    finally:
        clear_snapshot_cache()
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind,k", CASES)
def test_signature_frozen(kind, k, backend, tmp_path):
    assert entry_hash(kind, k, backend, tmp_path) == FROZEN[kind, k]


def test_cases_cover_every_frozen_entry():
    assert sorted(FROZEN, key=repr) == sorted(CASES, key=repr)
