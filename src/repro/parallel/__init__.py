"""Parallel PLT mining (the paper's §6 partitioning claim, ICPP venue)."""

from repro.parallel.backend import BACKENDS, DONE, ClusterBackend, create_backend
from repro.parallel.count_distribution import (
    mine_count_distribution,
    node_level_counts,
)
from repro.parallel.distributed import mine_distributed, owner_of_rank
from repro.parallel.executor import default_workers, mine_parallel, topdown_parallel
from repro.parallel.faults import FaultPlan
from repro.parallel.shm import SharedMemoryExecutor
from repro.parallel.processcluster import ProcessCluster
from repro.parallel.simcluster import ClusterStats, NodeContext, SimCluster
from repro.parallel.partitioner import (
    ConditionalTask,
    conditional_tasks,
    lpt_partition,
)

__all__ = [
    "default_workers",
    "mine_parallel",
    "topdown_parallel",
    "mine_count_distribution",
    "node_level_counts",
    "mine_distributed",
    "owner_of_rank",
    "FaultPlan",
    "SharedMemoryExecutor",
    "SimCluster",
    "ProcessCluster",
    "ClusterBackend",
    "create_backend",
    "BACKENDS",
    "DONE",
    "NodeContext",
    "ClusterStats",
    "ConditionalTask",
    "conditional_tasks",
    "lpt_partition",
]
