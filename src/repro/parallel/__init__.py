"""Parallel PLT mining (the paper's §6 partitioning claim, ICPP venue)."""

from repro import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "default_workers": "executor",
        "mine_parallel": "executor",
        "topdown_parallel": "executor",
        "mine_count_distribution": "count_distribution",
        "node_level_counts": "count_distribution",
        "mine_distributed": "distributed",
        "owner_of_rank": "distributed",
        "FaultPlan": "faults",
        "SharedMemoryExecutor": "shm",
        "SimCluster": "simcluster",
        "ProcessCluster": "processcluster",
        "ClusterBackend": "backend",
        "create_backend": "backend",
        "BACKENDS": "backend",
        "DONE": "backend",
        "NodeContext": "simcluster",
        "ClusterStats": "simcluster",
        "ConditionalTask": "partitioner",
        "conditional_tasks": "partitioner",
        "lpt_partition": "partitioner",
    },
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
