"""Frozen cluster signatures: distributed KL outcomes pinned as short hashes.

Every case runs :class:`~repro.cluster.engine.DistributedKL` (or
:func:`~repro.cluster.engine.distributed_maar`) and hashes it twice.
The *outcome* hash covers ``(sides, f_cross, r_cross,
objective_history, passes, switches_tested, switches_applied)``; the
*ledger* hash covers ``(bytes_by_kind, by_kind, fetch_batches,
records_fetched, prefetch hits, prefetch misses)``. The outcome hashes
were captured when the cluster master ran its own pass loop over a
float bucket gain index, separate from :mod:`repro.core.kl`, and
re-captured unchanged when the hash was split in two. Now that the
master runs kl's integer bucket pass body, the parity tests against
``extended_kl`` no longer check that body independently; these hashes
do. The ledger hash pins the prefetch protocol down to which nodes ride
along in every fetch batch: a change to the walk or the buffer may move
it, and must leave the outcome hash alone.

One entry per ``(kind, k)``; each folds four scenario seeds × two starts
(rejection-init and random sides) into one hash pair, and both backends must
reproduce it. Kinds cover the prefetch buffer shapes (4096/64, an
evicting 96/16, and 0 = fetch on demand), locked nodes, snapshot
reference transport, ``replication=2`` with a worker failing mid-pass,
and ``distributed_maar`` sweeps (``k_steps=4``, keyed ``k=None``) under
the three buffer shapes.
"""

from __future__ import annotations

import hashlib
import random
from typing import Tuple

import pytest

from repro.attacks import ScenarioConfig, build_scenario
from repro.cluster import ClusterConfig, ClusterRunStats, DistributedKL, distributed_maar
from repro.cluster import engine as engine_module
from repro.cluster.master import prefetch_source
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

#: ``(kind, k) -> (outcome hash, ledger hash)`` of the folded runs.
FROZEN = {
    ('prefetch', 0.125): ('75a288676121a5ea', '0c8668141f328df1'),
    ('prefetch', 0.5): ('5779718039c81c0f', 'b5c4cb910f701bca'),
    ('prefetch', 1.0): ('642f53b190df2920', '871a99a0de3af228'),
    ('prefetch', 4.0): ('521c0605bea3d4fe', '600c7cedbe212bb9'),
    ('tight', 0.125): ('75a288676121a5ea', 'dc29ab2b4dc1e39a'),
    ('tight', 0.5): ('5779718039c81c0f', 'da833686a96c7af1'),
    ('tight', 1.0): ('642f53b190df2920', 'ff1cdf5ba473cbab'),
    ('tight', 4.0): ('521c0605bea3d4fe', 'cf42c3f07768cc25'),
    ('on_demand', 0.125): ('75a288676121a5ea', '93759cd34cbab93f'),
    ('on_demand', 0.5): ('5779718039c81c0f', 'ed980f139ab50ec5'),
    ('on_demand', 1.0): ('642f53b190df2920', '310ac9bec1f65e97'),
    ('on_demand', 4.0): ('521c0605bea3d4fe', '020143f06f6f41f6'),
    ('locked', 0.125): ('022686e296ee55b3', 'a431324165c034d6'),
    ('locked', 0.5): ('f01a35d1ddfc0a3e', 'd7e03318338d664a'),
    ('locked', 1.0): ('f815567d48551cd8', '88b85931b3a027e6'),
    ('locked', 4.0): ('f8deb582fd9d39cb', 'ff0d08bb7f167c51'),
    ('reference', 0.125): ('75a288676121a5ea', '405211798f9305c6'),
    ('reference', 0.5): ('5779718039c81c0f', 'd42bb4bf2c287f12'),
    ('reference', 1.0): ('642f53b190df2920', '22d77659f8b22459'),
    ('reference', 4.0): ('521c0605bea3d4fe', '9061627c8ec55e86'),
    ('failover', 0.125): ('75a288676121a5ea', 'c24745c308e43e17'),
    ('failover', 0.5): ('5779718039c81c0f', 'f4d8c34277a1e95b'),
    ('failover', 1.0): ('642f53b190df2920', 'a1d103790839d3b5'),
    ('failover', 4.0): ('521c0605bea3d4fe', '5cc2b4535080eef0'),
    ('maar', None): ('c3b885befac57dd7', 'c6a2703b603086ea'),
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


def _signature(outcome, stats: ClusterRunStats, csr=None) -> Tuple[str, str]:
    """``(outcome, ledger)`` reprs of one run.

    The outcome is what the pass computed; the ledger is what the wire
    carried. A change to the prefetch protocol may move the second but
    never the first."""
    sides, f_cross, r_cross = outcome
    network = stats.network
    bytes_by_kind = dict(network.bytes_by_kind)
    path = getattr(csr, "snapshot_path", None)
    if path is not None:
        # Each reference message carries the snapshot path: leave its
        # (temporary-directory dependent) length out of the ledger.
        path_bytes = len(str(path).encode("utf-8"))
        bytes_by_kind["upload"] -= path_bytes * network.by_kind["upload"]
    result = (
        list(sides),
        f_cross,
        r_cross,
        stats.objective_history,
        stats.passes,
        stats.switches_tested,
        stats.switches_applied,
    )
    ledger = (
        sorted(bytes_by_kind.items()),
        sorted(network.by_kind.items()),
        stats.fetch_batches,
        stats.records_fetched,
        stats.prefetch_hits,
        stats.prefetch_misses,
    )
    return repr(result), repr(ledger)


def _run(csr, kind: str, k: float, start, seed: int):
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
    return _signature(outcome, stats, csr), stats


def _run_maar(csr, stats_list=None) -> Tuple[str, str]:
    """The three sweeps' folded signatures; each sweep's stats go to
    ``stats_list`` when given."""
    results, ledgers = [], []
    for kind in ("prefetch", "tight", "on_demand"):
        stats = ClusterRunStats()
        suspicious, rate, best_k = distributed_maar(
            csr, ClusterConfig(**KINDS[kind]), MAARConfig(k_steps=4), stats=stats
        )
        sides = [0] * csr.num_nodes
        for u in suspicious:
            sides[u] = 1
        result, ledger = _signature((sides, 0, 0), stats)
        results.append(repr((rate, best_k)) + result)
        ledgers.append(ledger)
        if stats_list is not None:
            stats_list.append(stats)
    return "".join(results), "".join(ledgers)


def entry_hashes(kind: str, k, backend: str, tmp_path) -> Tuple[str, str]:
    """The folded ``(outcome, ledger)`` hashes of one ``FROZEN`` entry on
    one backend."""
    outcome_digest = hashlib.sha256()
    ledger_digest = hashlib.sha256()
    clear_snapshot_cache()
    try:
        for seed in SEEDS:
            csr = _graph(seed, backend, tmp_path, kind == "reference")
            if kind == "maar":
                runs = [_run_maar(csr)]
            else:
                runs = [
                    _run(csr, kind, k, start, seed)[0]
                    for start in _starts(csr, seed)
                ]
            for result, ledger in runs:
                outcome_digest.update(result.encode())
                ledger_digest.update(ledger.encode())
    finally:
        clear_snapshot_cache()
    return outcome_digest.hexdigest()[:16], ledger_digest.hexdigest()[:16]


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    """:func:`entry_hashes`, computed once per entry and backend for
    both tests below."""
    cache = {}

    def lookup(kind, k, backend) -> Tuple[str, str]:
        if (kind, k, backend) not in cache:
            cache[kind, k, backend] = entry_hashes(
                kind, k, backend, tmp_path_factory.mktemp("frozen")
            )
        return cache[kind, k, backend]

    return lookup


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind,k", CASES)
def test_signature_frozen(kind, k, backend, hashes):
    """The outcome: sides, cut counters, objective history, passes and
    switch counts."""
    assert hashes(kind, k, backend)[0] == FROZEN[kind, k][0]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind,k", CASES)
def test_ledger_frozen(kind, k, backend, hashes):
    """The wire ledger: bytes and messages by kind, fetch batches,
    records fetched, prefetch hits and misses."""
    assert hashes(kind, k, backend)[1] == FROZEN[kind, k][1]


def test_cases_cover_every_frozen_entry():
    assert sorted(FROZEN, key=repr) == sorted(CASES, key=repr)


#: A miss visits fewer than this many times ``prefetch_batch`` bucket
#: list entries: ``2·batch`` resident skips from the top, ``4·batch``
#: after the cursor, and under ``batch`` nodes taken.
WALK_BOUND = 7


class _Counted:
    """A ``heads``/``nxt`` list that counts the nodes read out of it."""

    __slots__ = ("items", "reads")

    def __init__(self, items) -> None:
        self.items = items
        self.reads = 0

    def __getitem__(self, i):
        v = self.items[i]
        if v >= 0:
            self.reads += 1
        return v


class _Probe:
    """Wraps every record source the engine builds and records each
    breach of the prefetch contract: a record fetched twice in one pass,
    a buffer over capacity, the longest walk of a miss in batches."""

    def __init__(self) -> None:
        self.refetched = []
        self.over_capacity = []
        self.walk_batches = 0.0
        self._pass_lists = None
        self._pass_fetched = set()

    def source_for(self, buffer):
        source = prefetch_source(buffer)
        fetch = buffer._fetch_batch

        def fetch_batch(nodes):
            for u in nodes:
                if u in self._pass_fetched:
                    self.refetched.append(u)
                self._pass_fetched.add(u)
            return fetch(nodes)

        def counted(u, heads, nxt, max_b, bucket_of):
            if bucket_of is not self._pass_lists:
                # Every pass builds its bucket list afresh.
                self._pass_lists = bucket_of
                self._pass_fetched = set()
            heads, nxt = _Counted(heads), _Counted(nxt)
            record = source(u, heads, nxt, max_b, bucket_of)
            self.walk_batches = max(
                self.walk_batches, (heads.reads + nxt.reads) / buffer.batch_size
            )
            if len(buffer) > buffer.capacity:
                self.over_capacity.append(len(buffer))
            return record

        buffer._fetch_batch = fetch_batch
        return counted


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", [*KINDS, "maar"])
def test_prefetch_fetches_each_record_once_per_pass(
    kind, backend, tmp_path, monkeypatch
):
    """No record crosses the wire twice in one pass, the buffer stays
    within capacity, and a miss walks a bounded stretch of the list."""
    probe = _Probe()
    monkeypatch.setattr(engine_module, "prefetch_source", probe.source_for)
    clear_snapshot_cache()
    try:
        csr = _graph(0, backend, tmp_path, kind == "reference")
        runs = []
        if kind == "maar":
            _run_maar(csr, runs)
        else:
            for k in K_VALUES:
                for start in _starts(csr, 0):
                    runs.append(_run(csr, kind, k, start, 0)[1])
    finally:
        clear_snapshot_cache()
    for stats in runs:
        assert stats.records_fetched <= stats.switches_tested
    assert probe.refetched == []
    assert probe.over_capacity == []
    assert probe.walk_batches < WALK_BOUND
    # The probe saw the walks (a fetch-on-demand buffer has no room).
    assert (probe.walk_batches > 0) == (kind != "on_demand")
