"""Multi-node deployment: range partitioning + a fan-out coordinator.

Implements Section II's distributed picture — one storage-manager
instance per node, each independently delta-encoding its partition —
with ArrayStore-style regular range partitioning (the paper's
reference [2]).

Modules: ``coordinator`` (routing, generation pinning, locking; owns
the all-or-nothing write fan and the failover reader), ``sync`` (the
lineage-row reader, the prefix rule, re-create / replay), ``repair``
(copy digests, anti-entropy repair, replacement, verified revive),
``rebalance`` (online resharding), ``partitioning`` (band geometry).
"""

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.partitioning import (
    Band,
    MigrationSlab,
    RangePartitioner,
    rebalance_plan,
)

__all__ = ["Band", "ClusterCoordinator", "MigrationSlab",
           "RangePartitioner", "rebalance_plan"]
