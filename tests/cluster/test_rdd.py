"""Tests for the cluster context: block placement, upload accounting and
replica failover."""

import pytest

from repro.cluster import ClusterContext, NetworkSimulator
from repro.core import AugmentedSocialGraph


@pytest.fixture
def csr():
    return AugmentedSocialGraph.from_edges(
        12,
        friendships=[(u, u + 1) for u in range(11)],
        rejections=[(0, 6), (11, 3)],
    ).csr()


class TestParallelize:
    """Distributing a source graph across the workers."""

    def test_upload_charged(self, csr):
        net = NetworkSimulator()
        context = ClusterContext(3, net, replication=2)
        context.distribute_csr(csr, num_partitions=4)
        # One upload message per partition per replica.
        assert net.stats.by_kind.get("upload") == 4 * 2
        assert net.stats.bytes_sent > 0

    def test_invalid_arguments(self, csr):
        with pytest.raises(ValueError):
            ClusterContext(3).distribute_csr(csr, 0)
        with pytest.raises(ValueError):
            ClusterContext(0)


class TestDistributeCSR:
    def test_blocks_land_on_every_replica(self, csr):
        context = ClusterContext(num_workers=3, replication=2)
        sharded = context.distribute_csr(csr, num_partitions=4)
        for pid in range(4):
            holders = [
                w
                for w in context.workers
                if w.has_block(sharded.key(pid))
            ]
            assert len(holders) == 2

    def test_upload_bytes_scale_with_replication(self, csr):
        net1 = NetworkSimulator()
        ClusterContext(3, net1, replication=1).distribute_csr(csr, 4)
        net2 = NetworkSimulator()
        ClusterContext(3, net2, replication=2).distribute_csr(csr, 4)
        assert net1.stats.bytes_by_kind["upload"] > 0
        assert (
            net2.stats.bytes_by_kind["upload"]
            == 2 * net1.stats.bytes_by_kind["upload"]
        )

    def test_block_replica_failover(self, csr):
        from repro.cluster import DataLossError

        context = ClusterContext(num_workers=3, replication=2)
        sharded = context.distribute_csr(csr, num_partitions=3)
        primary = context.block_replica_for(0, sharded.key(0))
        primary.fail()
        fallback = context.block_replica_for(0, sharded.key(0))
        assert fallback is not primary and fallback.alive
        fallback.fail()
        with pytest.raises(DataLossError):
            context.block_replica_for(0, sharded.key(0))
