"""Fault-tolerance tests: worker failures and block replication — the
Spark behaviours the mini-cluster substrate models."""

import pytest

from repro.attacks import ScenarioConfig, build_scenario
from repro.cluster import (
    ClusterConfig,
    ClusterContext,
    DataLossError,
    DistributedKL,
    NetworkSimulator,
    ShardBlock,
    WorkerFailure,
)
from repro.core import AugmentedSocialGraph, CSRGraph, extended_kl
from repro.core.objectives import LEGITIMATE, SUSPICIOUS

from ..core.partition_oracle import Partition


def build_csr(num_nodes=30):
    friendships = [(u, u + 1) for u in range(num_nodes - 1)]
    friendships += [(u, u + 4) for u in range(0, num_nodes - 4, 3)]
    rejections = [(u, (u + num_nodes // 2) % num_nodes) for u in range(0, num_nodes, 2)]
    return AugmentedSocialGraph.from_edges(
        num_nodes, friendships=friendships, rejections=rejections
    ).csr()


class TestWorkerFailure:
    def test_failed_worker_refuses_requests(self):
        csr = build_csr()
        context = ClusterContext(2)
        sharded = context.distribute_csr(csr, 2)
        worker = context.workers[0]
        key = sharded.key(0)
        worker.fail()
        with pytest.raises(WorkerFailure):
            worker.store_block(key, ShardBlock.from_csr(csr, 0, 1))
        with pytest.raises(WorkerFailure):
            worker.block_slices(key, [0])
        with pytest.raises(WorkerFailure):
            worker.block_pass_state(key, 1, 1)
        with pytest.raises(WorkerFailure):
            worker.install_sides([LEGITIMATE] * csr.num_nodes)

    def test_failure_loses_resident_state(self, tmp_path):
        csr = build_csr()
        snapshot = CSRGraph.open(csr.save(tmp_path / "graph.csrbin"))
        context = ClusterContext(2, replication=2)
        payload = context.distribute_csr(csr, 2)
        context.distribute_csr(snapshot, 2)
        worker = context.workers[0]
        worker.install_sides([LEGITIMATE] * csr.num_nodes)
        assert worker.blocks and worker.block_refs and worker.sides is not None
        worker.fail()
        assert not worker.alive
        assert not worker.blocks and not worker.block_refs
        assert worker.sides is None
        assert not worker.has_block(payload.key(0))


class TestReplication:
    def test_replicated_source_survives_one_failure(self):
        csr = build_csr()
        context = ClusterContext(3, replication=2)
        sharded = context.distribute_csr(csr, 6)
        context.workers[0].fail()
        for pid in range(6):
            key = sharded.key(pid)
            lo, hi = sharded.range_of(pid)
            nodes = list(range(lo, hi))
            worker = context.block_replica_for(pid, key)
            assert worker.alive
            records, nbytes = worker.block_slices(key, nodes)
            fresh = ShardBlock.from_csr(csr, lo, hi)
            assert (records, nbytes) == fresh.slices(nodes)
            assert len(records) == len(nodes)

    def test_unreplicated_source_is_lost(self):
        context = ClusterContext(3, replication=1)
        sharded = context.distribute_csr(build_csr(), 6)
        context.workers[0].fail()
        # Round-robin placement puts partitions 0 and 3 on worker 0.
        for pid in (0, 3):
            with pytest.raises(DataLossError):
                context.block_replica_for(pid, sharded.key(pid))
        assert context.block_replica_for(1, sharded.key(1)).alive

    def test_all_replicas_down_is_data_loss(self):
        context = ClusterContext(2, replication=2)
        sharded = context.distribute_csr(build_csr(), 2)
        for worker in context.workers:
            worker.fail()
        for pid in range(2):
            with pytest.raises(DataLossError):
                context.block_replica_for(pid, sharded.key(pid))

    def test_replication_bounds_validated(self):
        with pytest.raises(ValueError):
            ClusterContext(2, replication=3)
        with pytest.raises(ValueError):
            ClusterContext(2, replication=0)

    def test_replication_charges_extra_upload(self):
        csr = build_csr()
        net1 = NetworkSimulator()
        ClusterContext(4, net1, replication=1).distribute_csr(csr, 4)
        net2 = NetworkSimulator()
        ClusterContext(4, net2, replication=3).distribute_csr(csr, 4)
        assert net1.stats.bytes_sent > 0
        assert net2.stats.bytes_sent == 3 * net1.stats.bytes_sent
        assert net2.stats.messages == 3 * net1.stats.messages


class TestEngineUnderFailure:
    def test_distributed_kl_survives_worker_failure(self):
        """With replication, the KL engine fails over mid-run data access
        and still computes the exact same cut."""
        scenario = build_scenario(
            ScenarioConfig(num_legit=300, num_fakes=60, seed=61)
        )
        graph = scenario.graph
        init = [
            SUSPICIOUS if graph.rej_in[u] else LEGITIMATE
            for u in range(graph.num_nodes)
        ]
        reference = extended_kl(graph, 1.0, Partition(graph, init))
        engine = DistributedKL(
            graph,
            ClusterConfig(num_workers=4, num_partitions=8, replication=2),
        )
        engine.context.workers[1].fail()  # one worker down before the run
        sides, f_cross, r_cross = engine.run(1.0, init)
        assert sides == reference.sides
        assert (f_cross, r_cross) == (reference.f_cross, reference.r_cross)

    def test_unreplicated_engine_loses_data(self):
        scenario = build_scenario(
            ScenarioConfig(num_legit=200, num_fakes=40, seed=62)
        )
        graph = scenario.graph
        init = [0] * graph.num_nodes
        engine = DistributedKL(
            graph,
            ClusterConfig(num_workers=4, num_partitions=8, replication=1),
        )
        engine.context.workers[0].fail()
        with pytest.raises(DataLossError):
            engine.run(1.0, init)

    @staticmethod
    def _fail_after_fetches(engine, worker_index, after):
        """Shadow the engine's bound fetch method with a wrapper that
        kills one worker after ``after`` fetch batches, mid-pass."""
        original = engine._fetch_records
        state = {"calls": 0}

        def wrapper(nodes):
            state["calls"] += 1
            if state["calls"] == after:
                engine.context.workers[worker_index].fail()
            return original(nodes)

        engine._fetch_records = wrapper
        return state

    def test_mid_pass_failure_fails_over_bit_identically(self):
        """A worker dying *between fetch batches of an in-flight pass*
        must be absorbed by the surviving replica without perturbing the
        result — same cut, same counters as the undisturbed run."""
        scenario = build_scenario(
            ScenarioConfig(num_legit=300, num_fakes=60, seed=63)
        )
        graph = scenario.graph
        init = [
            SUSPICIOUS if graph.rej_in[u] else LEGITIMATE
            for u in range(graph.num_nodes)
        ]
        config = ClusterConfig(num_workers=4, num_partitions=8, replication=2)
        reference = DistributedKL(graph, config).run(1.0, init)

        engine = DistributedKL(graph, config)
        state = self._fail_after_fetches(engine, worker_index=2, after=3)
        outcome = engine.run(1.0, init)
        assert state["calls"] > 3, "failure must land mid-pass, not at the end"
        assert not engine.context.workers[2].alive
        assert outcome == reference

    def test_mid_pass_failure_without_replicas_raises_not_hangs(self):
        """With replication=1, losing a worker mid-pass surfaces as
        DataLossError from the next fetch that needs its blocks — a
        clean failure, not a hang or a silently wrong answer."""
        scenario = build_scenario(
            ScenarioConfig(num_legit=200, num_fakes=40, seed=64)
        )
        graph = scenario.graph
        init = [
            SUSPICIOUS if graph.rej_in[u] else LEGITIMATE
            for u in range(graph.num_nodes)
        ]
        engine = DistributedKL(
            graph,
            # buffer_capacity=0 forces a fetch per pop, so the very next
            # lookup of a lost block trips the error.
            ClusterConfig(
                num_workers=4,
                num_partitions=8,
                replication=1,
                buffer_capacity=0,
            ),
        )
        self._fail_after_fetches(engine, worker_index=1, after=2)
        with pytest.raises(DataLossError):
            engine.run(1.0, init)
