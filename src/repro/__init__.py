"""repro — a versioned storage manager for scientific array databases.

A from-scratch reproduction of *Efficient Versioning for Scientific
Array Databases* (Seering, Cudre-Mauroux, Madden, Stonebraker —
ICDE 2012): a chunked, no-overwrite array store that automatically
delta-encodes versions, a virtual-root spanning-tree optimizer that
chooses which versions to materialize, workload-aware layouts, and an
AQL-style declarative front end.

Quickstart::

    import numpy as np
    from repro import Database

    db = Database("/tmp/arrays")
    db.execute("CREATE UPDATABLE ARRAY Example "
               "( A::INTEGER ) [ I=0:2, J=0:2 ];")
    db.insert("Example", np.arange(9, dtype=np.int32).reshape(3, 3))
    db.insert("Example", 2 * np.arange(9, dtype=np.int32).reshape(3, 3))
    stack = db.execute("SELECT * FROM Example@*;").value   # 2x3x3

See README.md for the architecture overview and docs/paper.md for the
paper-to-module mapping.
"""

from repro.cluster import ClusterCoordinator
from repro.core import (
    ArrayData,
    ArraySchema,
    Attribute,
    DeltaListPayload,
    DensePayload,
    Dimension,
    ReproError,
    SparsePayload,
)
from repro.materialize import (
    Layout,
    MaterializationMatrix,
    RangeQuery,
    SnapshotQuery,
    WeightedQuery,
    head_biased_layout,
    optimal_layout,
    workload_aware_layout,
)
from repro.query import Database, VersionSpec
from repro.storage import VersionedStorageManager

__version__ = "1.0.0"

__all__ = [
    "ArrayData",
    "ArraySchema",
    "Attribute",
    "ClusterCoordinator",
    "Database",
    "DeltaListPayload",
    "DensePayload",
    "Dimension",
    "Layout",
    "MaterializationMatrix",
    "RangeQuery",
    "ReproError",
    "SnapshotQuery",
    "SparsePayload",
    "VersionSpec",
    "VersionedStorageManager",
    "WeightedQuery",
    "head_biased_layout",
    "optimal_layout",
    "workload_aware_layout",
]
