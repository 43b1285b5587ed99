"""Spark-like mini-cluster substrate (Section V, Table II).

A single-process stand-in for the paper's Spark/EC2 deployment that
preserves its *data layout* and traffic patterns: replicated CSR shard
blocks on simulated workers that can fail, master-resident node status
and gain buckets, LRU prefetching of node structure, and full
network-I/O accounting. See DESIGN.md, substitution 2.
"""

from .blocks import BlockSlices, ShardBlock, ShardedCSR, partition_bounds
from .engine import (
    ClusterConfig,
    ClusterRunStats,
    DistributedKL,
    distributed_maar,
)
from .netsim import NetworkModel, NetworkSimulator, NetworkStats
from .prefetch import PrefetchBuffer, PrefetchStats
from .rdd import ClusterContext, DataLossError
from .worker import Worker, WorkerFailure

__all__ = [
    "ClusterConfig",
    "ClusterRunStats",
    "DistributedKL",
    "distributed_maar",
    "NetworkModel",
    "NetworkSimulator",
    "NetworkStats",
    "PrefetchBuffer",
    "PrefetchStats",
    "ClusterContext",
    "Worker",
    "WorkerFailure",
    "DataLossError",
    "BlockSlices",
    "ShardBlock",
    "ShardedCSR",
    "partition_bounds",
]
