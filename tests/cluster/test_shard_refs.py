"""Tests for shard-block *references*: snapshot-backed distribution.

When the graph came out of a ``.csrbin`` snapshot, ``distribute_csr``
ships O(1) :class:`BlockRef` messages instead of pickled array payloads;
workers map their slices out of the shared file on first access. The
contract under test: reference mode is bit-identical to payload mode,
the avoided payload bytes are ledgered (not silently dropped *or*
counted as sent), and non-snapshot graphs cannot pretend to be
reference-shippable.
"""

import pytest

from repro.cluster import (
    ClusterContext,
    ClusterRunStats,
    NetworkSimulator,
    distributed_maar,
)
from repro.cluster.blocks import BlockRef, ShardBlock, block_payload_bytes
from repro.core import AugmentedSocialGraph, CSRGraph
from repro.core.storage import clear_snapshot_cache


def build_csr(num_nodes=24):
    friendships = [(u, u + 1) for u in range(num_nodes - 1)]
    friendships += [(u, u + 5) for u in range(0, num_nodes - 5, 3)]
    rejections = [(u, (u + num_nodes // 2) % num_nodes) for u in range(0, num_nodes, 2)]
    return AugmentedSocialGraph.from_edges(
        num_nodes, friendships=friendships, rejections=rejections
    ).csr()


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_snapshot_cache()
    yield
    clear_snapshot_cache()


@pytest.fixture
def snapshot(tmp_path):
    csr = build_csr()
    path = csr.save(tmp_path / "graph.csrbin")
    return csr, path


class TestTransportSelection:
    def test_reference_requires_snapshot(self):
        context = ClusterContext(2)
        with pytest.raises(ValueError, match="snapshot-backed"):
            context.distribute_csr(build_csr(), 2, transport="reference")

    def test_unknown_transport_rejected(self, snapshot):
        _, path = snapshot
        context = ClusterContext(2)
        with pytest.raises(ValueError, match="transport"):
            context.distribute_csr(CSRGraph.open(path), 2, transport="carrier-pigeon")

    def test_auto_uses_payloads_for_plain_graphs(self):
        context = ClusterContext(2)
        sharded = context.distribute_csr(build_csr(), 2)
        worker = context.workers_for(0)[0]
        assert sharded.key(0) in worker.blocks
        assert not worker.block_refs

    def test_auto_uses_references_for_snapshot_graphs(self, snapshot):
        _, path = snapshot
        context = ClusterContext(2)
        sharded = context.distribute_csr(CSRGraph.open(path), 2)
        worker = context.workers_for(0)[0]
        assert sharded.key(0) in worker.block_refs
        assert sharded.key(0) not in worker.blocks  # not materialized yet

    def test_payload_override_forces_arrays(self, snapshot):
        _, path = snapshot
        context = ClusterContext(2)
        sharded = context.distribute_csr(
            CSRGraph.open(path), 2, transport="payload"
        )
        worker = context.workers_for(0)[0]
        assert sharded.key(0) in worker.blocks


class TestWireAccounting:
    def test_reference_upload_is_tiny_and_ledgered(self, snapshot):
        csr, path = snapshot
        payload_net = NetworkSimulator()
        ClusterContext(2, payload_net).distribute_csr(csr, 4, transport="payload")
        ref_net = NetworkSimulator()
        ClusterContext(2, ref_net).distribute_csr(
            CSRGraph.open(path), 4, transport="reference"
        )
        payload_bytes = payload_net.stats.bytes_by_kind["upload"]
        ref_bytes = ref_net.stats.bytes_by_kind["upload"]
        assert ref_bytes < payload_bytes
        # avoided + shipped add back up to the payload-mode volume
        assert ref_net.stats.bytes_avoided + ref_bytes == payload_bytes
        assert ref_net.stats.avoided_by_kind == {"upload": ref_net.stats.bytes_avoided}
        # avoided bytes are a savings ledger, never counted as sent
        assert ref_net.stats.bytes_sent == ref_bytes

    def test_block_payload_bytes_matches_real_block(self, snapshot):
        csr, _ = snapshot
        lo, hi = 0, csr.num_nodes // 2 - 1
        assert block_payload_bytes(csr, lo, hi) == ShardBlock.from_csr(
            csr, lo, hi
        ).payload_bytes()

    def test_negative_avoided_rejected(self):
        net = NetworkSimulator()
        with pytest.raises(ValueError):
            net.avoided("upload", -1)


class TestBlockRef:
    def test_materialize_matches_direct_slice(self, snapshot):
        csr, path = snapshot
        ref = BlockRef(str(path), 0, csr.num_nodes - 1)
        block = ref.materialize()
        direct = ShardBlock.from_csr(csr, 0, csr.num_nodes - 1)
        assert block.hot() == direct.hot()

    def test_refs_on_same_file_share_one_mapping(self, snapshot):
        from repro.core import storage

        csr, path = snapshot
        mid = csr.num_nodes // 2
        BlockRef(str(path), 0, mid - 1).materialize()
        BlockRef(str(path), mid, csr.num_nodes - 1).materialize()
        # Both slices were cut from one cached snapshot open, not two.
        assert len(storage._OPEN_CACHE) == 1

    def test_worker_materializes_lazily(self, snapshot):
        _, path = snapshot
        context = ClusterContext(2)
        sharded = context.distribute_csr(
            CSRGraph.open(path), 2, transport="reference"
        )
        worker = context.block_replica_for(0, sharded.key(0))
        assert sharded.key(0) not in worker.blocks
        lo, hi = sharded.range_of(0)
        worker.block_slices(sharded.key(0), [lo])
        assert sharded.key(0) in worker.blocks

    def test_failed_worker_drops_refs(self, snapshot):
        _, path = snapshot
        context = ClusterContext(2, replication=2)
        sharded = context.distribute_csr(
            CSRGraph.open(path), 2, transport="reference"
        )
        worker = context.block_replica_for(0, sharded.key(0))
        worker.fail()
        assert not worker.block_refs
        fallback = context.block_replica_for(0, sharded.key(0))
        assert fallback is not worker


class TestEndToEndParity:
    @pytest.mark.parametrize("num_legit,num_fakes", [(180, 40)])
    def test_reference_mode_bit_identical(self, tmp_path, num_legit, num_fakes):
        from repro.attacks import ScenarioConfig, build_scenario

        scenario = build_scenario(
            ScenarioConfig(num_legit=num_legit, num_fakes=num_fakes, seed=11)
        )
        csr = scenario.graph.csr()
        snap = csr.save(tmp_path / "scenario.csrbin")
        results = {}
        for transport, graph in (
            ("payload", csr),
            ("reference", CSRGraph.open(snap)),
        ):
            stats = ClusterRunStats()
            nodes, rate, k = distributed_maar(graph, stats=stats)
            results[transport] = (tuple(nodes), rate, k, stats)
        assert results["payload"][:3] == results["reference"][:3]
        ref_stats = results["reference"][3]
        assert ref_stats.network.bytes_avoided > 0
        assert (
            ref_stats.network.bytes_by_kind["upload"]
            < results["payload"][3].network.bytes_by_kind["upload"]
        )

    def test_reference_mode_python_backend(self, tmp_path):
        from repro.attacks import ScenarioConfig, build_scenario

        scenario = build_scenario(
            ScenarioConfig(num_legit=90, num_fakes=20, seed=5)
        )
        csr = scenario.graph.csr(backend="python")
        snap = csr.save(tmp_path / "py.csrbin")
        mapped = CSRGraph.open(snap, backend="python")
        payload_result = distributed_maar(csr)
        reference_result = distributed_maar(mapped)
        assert tuple(payload_result[0]) == tuple(reference_result[0])
        assert payload_result[1:] == reference_result[1:]
