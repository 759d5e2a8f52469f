"""Multi-node deployment: range partitioning + a fan-out coordinator.

Implements Section II's distributed picture — one storage-manager
instance per node, each independently delta-encoding its partition —
with ArrayStore-style regular range partitioning (the paper's
reference [2]).

Modules: ``coordinator`` (routing, generation pinning, locking; builds
every fleet of managers and owns the stage → commit → fence write fan and
the failover reader), ``repair`` (the copy comparison,
anti-entropy repair by shipping stored bytes, replacement, verified
revive), ``rebalance`` (online resharding into a private fleet: the
lineage-row reader, catch-up passes, one swap), ``partitioning`` (band
geometry).
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
