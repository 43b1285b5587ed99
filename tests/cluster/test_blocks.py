"""Tests for the CSR shard-block layer: slicing, wire-format byte math,
and shard-kernel parity with the full-graph kernels across backends."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.blocks import (
    COUNTER_BYTES,
    INT_BYTES,
    MESSAGE_HEADER_BYTES,
    BlockRef,
    ShardBlock,
    ShardedCSR,
    partition_bounds,
)
try:
    import numpy  # noqa: F401

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - numpy is present in CI's main job
    HAS_NUMPY = False

from repro.core.kernels import (
    gain_deltas,
    heap_gains,
    recount_active,
    shard_cut_counts,
    shard_gain_deltas,
)
from repro.core.storage import clear_snapshot_cache

from ..conftest import augmented_graphs
from ..core.partition_oracle import Partition, cut_counts, switch_deltas

BACKENDS = ("python", "numpy") if HAS_NUMPY else ("python",)


def make_blocks(csr, num_partitions):
    bounds = partition_bounds(csr.num_nodes, num_partitions)
    return [
        ShardBlock.from_csr(csr, bounds[p], bounds[p + 1])
        for p in range(num_partitions)
    ]


def sides_for(n, seed=3):
    return [(u * seed + 1) % 3 % 2 for u in range(n)]


class TestPartitionBounds:
    def test_even_split(self):
        assert partition_bounds(12, 4) == [0, 3, 6, 9, 12]

    def test_remainder_spread_to_leading_partitions(self):
        assert partition_bounds(10, 4) == [0, 3, 6, 8, 10]

    def test_more_partitions_than_nodes(self):
        bounds = partition_bounds(3, 5)
        assert bounds == [0, 1, 2, 3, 3, 3]

    def test_empty_graph(self):
        assert partition_bounds(0, 3) == [0, 0, 0, 0]

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            partition_bounds(5, 0)

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds_cover_exactly(self, n, p):
        bounds = partition_bounds(n, p)
        assert len(bounds) == p + 1
        assert bounds[0] == 0 and bounds[-1] == n
        widths = [bounds[i + 1] - bounds[i] for i in range(p)]
        assert all(w >= 0 for w in widths)
        assert max(widths) - min(widths) <= 1


class TestShardedCSR:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fetch_skips_empty_blocks(self, backend):
        """With more partitions than nodes the trailing blocks are empty;
        every node's fetched record is still its own CSR row, served by
        the one partition that owns it."""
        from repro.cluster import ClusterConfig, DistributedKL
        from repro.core import AugmentedSocialGraph

        graph = AugmentedSocialGraph.from_edges(
            4, friendships=[(0, 1), (1, 2), (2, 3)], rejections=[(0, 3), (3, 1)]
        )
        csr = graph.csr(backend)
        dkl = DistributedKL(csr, ClusterConfig(num_workers=3, num_partitions=7))
        assert dkl.sharded.bounds == [0, 1, 2, 3, 4, 4, 4, 4]
        fp, fi, op, oi, ip_, ii = csr.hot()
        nodes = [3, 0, 2, 1, 3]
        fetched = dkl._fetch_records(nodes)
        assert sorted(node for node, _ in fetched) == sorted(nodes)
        for u, (friends, rej_out, rej_in) in fetched:
            assert friends == fi[fp[u] : fp[u + 1]]
            assert rej_out == oi[op[u] : op[u + 1]]
            assert rej_in == ii[ip_[u] : ip_[u + 1]]

    def test_keys_distinct_per_shard_and_partition(self):
        a = ShardedCSR(0, [0, 2, 4], "python")
        b = ShardedCSR(1, [0, 2, 4], "python")
        assert a.key(0) != a.key(1)
        assert a.key(0) != b.key(0)


@given(augmented_graphs(max_nodes=24, max_edges=60), st.integers(1, 7))
@settings(max_examples=30, deadline=None)
def test_blocks_reassemble_adjacency(graph, num_partitions):
    """Slicing into blocks and fetching every node back reproduces the
    graph's adjacency exactly."""
    csr = graph.csr()
    blocks = make_blocks(csr, num_partitions)
    seen = 0
    for block in blocks:
        node_range = list(range(block.lo, block.hi))
        if not node_range:
            continue
        records, _ = block.slices(node_range)
        for node, (friends, rej_out, rej_in) in zip(node_range, records):
            assert list(friends) == sorted(graph.friends[node])
            assert list(rej_out) == sorted(graph.rej_out[node])
            assert list(rej_in) == sorted(graph.rej_in[node])
            seen += 1
    assert seen == csr.num_nodes


class TestShardKernelParity:
    """Shard kernels against the full-graph kernels and, since both run
    the one switch rule, against the dict-adjacency oracle too."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(augmented_graphs(max_nodes=20, max_edges=50), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_gain_deltas_concat(self, backend, graph, num_partitions):
        """Concatenating per-block scaled gains equals the full-graph
        deltas folded at the same scale, and the oracle's."""
        csr = graph.csr(backend)
        sides = sides_for(csr.num_nodes)
        k_scaled, res = 3, 8
        fd_ref, rd_ref = gain_deltas(csr.view(), sides)
        gains = []
        for block in make_blocks(csr, num_partitions):
            gains.extend(shard_gain_deltas(block, sides, k_scaled, res))
        assert gains == [k_scaled * rd - res * fd for fd, rd in zip(fd_ref, rd_ref)]
        oracle = Partition(graph, sides)
        assert gains == [
            k_scaled * rd - res * fd
            for fd, rd in (switch_deltas(oracle, u) for u in range(csr.num_nodes))
        ]
        assert all(type(g) is int for g in gains)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(augmented_graphs(max_nodes=20, max_edges=50), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_cut_counts_sum(self, backend, graph, num_partitions):
        """Per-block counter parts sum to the exact global counters —
        no halving, thanks to the global u < v dedup."""
        csr = graph.csr(backend)
        sides = sides_for(csr.num_nodes, seed=5)
        f_ref, r_ref, _ = recount_active(csr.view(), sides)
        f_sum = r_sum = 0
        for block in make_blocks(csr, num_partitions):
            f_part, r_part = shard_cut_counts(block, sides)
            f_sum += f_part
            r_sum += r_part
        assert (f_sum, r_sum) == (f_ref, r_ref)
        assert (f_sum, r_sum) == cut_counts(graph, sides)

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
    @given(augmented_graphs(max_nodes=20, max_edges=50))
    @settings(max_examples=20, deadline=None)
    def test_backends_bit_identical(self, graph):
        sides = sides_for(graph.num_nodes, seed=7)
        results = []
        for backend in ("python", "numpy"):
            csr = graph.csr(backend)
            blocks = make_blocks(csr, 3)
            results.append(
                [
                    (shard_gain_deltas(b, sides, 3, 8), shard_cut_counts(b, sides))
                    for b in blocks
                ]
            )
        assert results[0] == results[1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pass_state_matches_heap_gains(self, backend):
        """Block gains are the heap engine's float gains scaled to the
        bucket scale of ``k = k_scaled/res``, exactly."""
        from repro.attacks import ScenarioConfig, build_scenario

        graph = build_scenario(
            ScenarioConfig(num_legit=80, num_fakes=20, seed=11)
        ).graph
        csr = graph.csr(backend)
        sides = sides_for(csr.num_nodes, seed=2)
        k_scaled, res = 3, 8
        reference = heap_gains(csr.view(), sides, k_scaled / res)
        sides_arg = sides
        if backend == "numpy":
            import numpy as np

            sides_arg = np.asarray(sides, dtype=np.int64)
        for block in make_blocks(csr, 4):
            gains, _, _ = block.pass_state(sides_arg, k_scaled, res)
            assert gains == [g * res for g in reference[block.lo : block.hi]]


class TestSlices:
    @pytest.fixture
    def block(self):
        from repro.core import AugmentedSocialGraph

        graph = AugmentedSocialGraph.from_edges(
            6,
            friendships=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            rejections=[(0, 3), (5, 1)],
        )
        return ShardBlock.from_csr(graph.csr(), 1, 5)

    def test_request_order_preserved(self, block):
        records, _ = block.slices([4, 2, 3])
        assert records[1][0] == [1, 3]  # node 2's friends
        assert records[0] == ([3, 5], [], [])
        assert records[2] == ([2, 4], [], [0])

    def test_out_of_block_request_rejected(self, block):
        with pytest.raises(KeyError):
            block.slices([0])
        with pytest.raises(KeyError):
            block.slices([5])

    def test_payload_bytes_exact(self, block):
        _, nbytes = block.slices([2])
        # nodes(1) + three offset arrays of 2 + friends [1, 3] + no
        # rejections, all int64, plus the fixed header.
        elements = 1 + 3 * 2 + 2 + 0 + 0
        assert nbytes == MESSAGE_HEADER_BYTES + INT_BYTES * elements
        # Node 3 adds its id, one entry per offset array, two friends
        # and one rejection received.
        _, nbytes = block.slices([2, 3])
        elements += 1 + 3 + 2 + 0 + 1
        assert nbytes == MESSAGE_HEADER_BYTES + INT_BYTES * elements

    def test_block_payload_bytes_exact(self, block):
        # 4 nodes -> three ptr arrays of 5 entries; edge slots counted
        # directly off the arrays.
        elements = 3 * 5 + block.num_edges
        assert block.payload_bytes() == MESSAGE_HEADER_BYTES + INT_BYTES * elements

    def test_counter_constant_covers_two_int64(self):
        assert COUNTER_BYTES == 2 * INT_BYTES


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("source", ("payload", "snapshot"))
@given(
    graph=augmented_graphs(max_nodes=24, max_edges=60),
    num_partitions=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_slices_are_csr_rows_at_exact_size(
    backend, source, graph, num_partitions, data
):
    """Any node batch fetched from a payload block or a snapshot-mapped
    block comes back as the CSR rows, in request order, at exactly
    ``header + 8·(4m + 3 + Σ|adjacency|)`` bytes."""
    csr = graph.csr(backend)
    fp, fi, op, oi, ip_, ii = csr.hot()
    bounds = partition_bounds(csr.num_nodes, num_partitions)
    with tempfile.TemporaryDirectory() as tmp:
        clear_snapshot_cache()
        path = str(csr.save(Path(tmp) / "graph.csrbin"))
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                if lo == hi:
                    continue
                if source == "payload":
                    block = ShardBlock.from_csr(csr, lo, hi)
                else:
                    block = BlockRef(path, lo, hi).materialize(backend)
                nodes = data.draw(
                    st.lists(st.integers(lo, hi - 1), max_size=2 * (hi - lo))
                )
                records, nbytes = block.slices(nodes)
                assert len(records) == len(nodes)
                adjacency = 0
                for u, (friends, rej_out, rej_in) in zip(nodes, records):
                    assert friends == fi[fp[u] : fp[u + 1]]
                    assert rej_out == oi[op[u] : op[u + 1]]
                    assert rej_in == ii[ip_[u] : ip_[u + 1]]
                    assert all(
                        type(v) is int for v in friends + rej_out + rej_in
                    )
                    adjacency += len(friends) + len(rej_out) + len(rej_in)
                assert nbytes == MESSAGE_HEADER_BYTES + INT_BYTES * (
                    4 * len(nodes) + 3 + adjacency
                )
                outside = data.draw(
                    st.one_of(
                        st.integers(-3, lo - 1), st.integers(hi, hi + 3)
                    )
                )
                with pytest.raises(KeyError):
                    block.slices(nodes + [outside])
        finally:
            clear_snapshot_cache()
