"""The prefetch buffer's read tier and the clairvoyant yardstick.

Every pass of a run pops each eligible node exactly once, so a read
record is worth keeping only if the next pass will find it still held:
when the run's eligible set fits the buffer, read records are kept and
every pass after the first fetches nothing; otherwise each record is
dropped as soon as it is read. The live buffer is judged against
:func:`~tests.cluster.clairvoyant.clairvoyant_batches`, a replay of the
same reads by a buffer that knows their order.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterRunStats, DistributedKL
from repro.cluster import engine as engine_module
from repro.cluster.master import prefetch_source
from repro.cluster.prefetch import READ
from repro.core.storage import clear_snapshot_cache

from .clairvoyant import clairvoyant_batches, distinct_batches
from .test_cluster_frozen import K_VALUES, KINDS, _graph, _run, _run_maar, _starts
from .test_engine import BACKENDS


class _Runs:
    """Wraps every record source the engine builds, one per run, and
    keeps each run's buffer, read log and per-pass fetch log."""

    def __init__(self, check_read=None) -> None:
        self.runs = []
        self._check_read = check_read

    def source_for(self, buffer):
        source = prefetch_source(buffer)
        fetch = buffer._fetch_batch
        run = {"buffer": buffer, "reads": [], "fetches": []}
        self.runs.append(run)
        lists = []

        def fetch_batch(nodes):
            run["fetches"].append((len(lists), list(nodes)))
            return fetch(nodes)

        def logged(u, heads, nxt, max_b, bucket_of):
            if not lists or bucket_of is not lists[-1]:
                lists.append(bucket_of)  # every pass builds a fresh list
            run["reads"].append(u)
            record = source(u, heads, nxt, max_b, bucket_of)
            if self._check_read is not None:
                self._check_read(buffer, u)
            return record

        buffer._fetch_batch = fetch_batch
        return logged


def _run_kind(kind, backend, tmp_path, monkeypatch, runs):
    """Every run of one frozen kind on the seed-0 graph, through
    ``runs``; returns each run's (or sweep's) stats."""
    monkeypatch.setattr(engine_module, "prefetch_source", runs.source_for)
    clear_snapshot_cache()
    try:
        csr = _graph(0, backend, tmp_path, kind == "reference")
        if kind == "maar":
            stats = []
            _run_maar(csr, stats)
            return stats
        return [
            _run(csr, kind, k, start, 0)[1]
            for k in K_VALUES
            for start in _starts(csr, 0)
        ]
    finally:
        clear_snapshot_cache()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", [*KINDS, "maar"])
def test_live_batches_at_least_clairvoyant(kind, backend, tmp_path, monkeypatch):
    """No run fetches in fewer batches than the clairvoyant replay of
    its own reads."""
    runs = _Runs()
    _run_kind(kind, backend, tmp_path, monkeypatch, runs)
    assert runs.runs
    for run in runs.runs:
        buffer = run["buffer"]
        clairvoyant = clairvoyant_batches(
            run["reads"], buffer.capacity, buffer.batch_size
        )
        assert buffer.stats.fetch_batches >= clairvoyant
        assert clairvoyant >= distinct_batches(run["reads"], buffer.batch_size)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("locked_share", [0.0, 0.5])
def test_passes_after_the_first_fetch_nothing_when_the_eligible_set_fits(
    locked_share, backend, monkeypatch
):
    """With every eligible record kept, only a run's first pass fetches.
    Half the nodes locked, the buffer holds the eligible set but not the
    graph — the eligible set is what counts."""
    runs = _Runs()
    monkeypatch.setattr(engine_module, "prefetch_source", runs.source_for)
    csr = _graph(0, backend, None, False)
    rng = random.Random(5)
    locked = [rng.random() < locked_share for _ in range(csr.num_nodes)]
    eligible = locked.count(False)
    capacity = eligible if locked_share else 4096
    assert capacity < csr.num_nodes or not locked_share
    passes = 0
    for k in K_VALUES:
        for start in _starts(csr, 0):
            stats = ClusterRunStats()
            engine = DistributedKL(csr, ClusterConfig(buffer_capacity=capacity))
            engine.run(k, start, locked=locked, stats=stats)
            passes += stats.passes
    assert passes > 2 * len(runs.runs)  # the later passes exist
    for run in runs.runs:
        assert run["buffer"].keep_read
        assert {pass_index for pass_index, _ in run["fetches"]} == {1}
        fetched = [u for _, nodes in run["fetches"] for u in nodes]
        assert sorted(fetched) == sorted(set(run["reads"]))


def _no_read_record_held(buffer, u):
    assert buffer.resident[u] == 0, f"read record {u} still held"
    assert READ not in buffer.resident


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["tight", "locked", "failover"])
def test_no_record_held_after_it_is_read_when_the_eligible_set_does_not_fit(
    kind, backend, tmp_path, monkeypatch
):
    runs = _Runs(check_read=_no_read_record_held)
    stats = _run_kind(kind, backend, tmp_path, monkeypatch, runs)
    for run in runs.runs:
        assert not run["buffer"].keep_read
    # Reads are hits or misses, and only unread records stay held.
    assert sum(s.prefetch_hits + s.prefetch_misses for s in stats) == sum(
        len(run["reads"]) for run in runs.runs
    )
    for run in runs.runs:
        buffer = run["buffer"]
        assert len(buffer) == buffer.unread <= buffer.capacity


class TestClairvoyantReplay:
    def test_hand_replay(self):
        # capacity 2, batch 2: 0 brings 1; 2 comes alone and, read last
        # again, is evicted; its second read misses again.
        assert clairvoyant_batches([0, 1, 2, 0, 1, 2], 2, 2) == 3
        assert clairvoyant_batches([0, 1, 2, 0, 1, 2], 3, 3) == 1
        assert clairvoyant_batches([0, 1, 2, 0, 1, 2], 0, 4) == 6

    def test_evicts_the_farthest_next_read(self):
        # Capacity 2, no ride-alongs. Read after 0 and 1, record 2 is
        # never read again and goes at once; in the second sequence 1,
        # read last, goes instead (LRU would drop 0 and miss once more).
        assert clairvoyant_batches([0, 1, 2, 0, 1], 2, 1) == 3
        assert clairvoyant_batches([0, 1, 2, 0, 2, 1], 2, 1) == 4

    @given(
        st.lists(st.integers(0, 12), max_size=60),
        st.integers(1, 16),
        st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_between_the_bounds(self, reads, capacity, batch):
        """Never fewer batches than full fetches of each record once,
        never more than one per read; one batch when everything fits."""
        batches = clairvoyant_batches(reads, capacity, batch)
        assert distinct_batches(reads, min(batch, capacity)) <= batches <= len(reads)
        distinct = len(set(reads))
        if distinct and distinct <= min(batch, capacity):
            assert batches == 1
