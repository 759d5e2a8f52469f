"""The ``Database`` facade: storage manager + query processor + AQL.

This is the top of Figure 1: declarative statements come in, the query
processor translates them into storage-system commands, and results flow
back.  It is also the public entry point the examples use.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.array import ArrayData, Payload
from repro.core.schema import ArraySchema
from repro.query.aql import AQLExecutor, AQLResult
from repro.query.processor import QueryProcessor, VersionSpec
from repro.storage.manager import VersionedStorageManager


class Database:
    """A versioned array database rooted at a directory.

    >>> db = Database("/tmp/mydb")                        # doctest: +SKIP
    >>> db.execute("CREATE UPDATABLE ARRAY Example "
    ...            "( A::INTEGER ) [ I=0:2, J=0:2 ];")    # doctest: +SKIP
    """

    def __init__(self, root: str | Path, **options):
        """``options`` are :class:`VersionedStorageManager`'s keyword
        options (``chunk_bytes``, ``backend``, ``cache_bytes``, ...)."""
        self.manager = VersionedStorageManager(root, **options)
        self.processor = QueryProcessor(self.manager)
        self.executor = AQLExecutor(self.manager, base_path=Path(root))

    # ------------------------------------------------------------------
    # Declarative interface
    # ------------------------------------------------------------------
    def execute(self, aql: str) -> AQLResult:
        """Run one AQL statement (Appendix A syntax)."""
        return self.executor.execute(aql)

    # ------------------------------------------------------------------
    # Programmatic interface
    # ------------------------------------------------------------------
    def create_array(self, name: str, schema: ArraySchema, **kwargs):
        return self.manager.create_array(name, schema, **kwargs)

    def insert(self, name: str,
               payload: Payload | ArrayData | np.ndarray,
               timestamp: float | None = None) -> int:
        return self.manager.insert(name, payload, timestamp)

    def select(self, spec: str | VersionSpec, **kwargs) -> np.ndarray:
        """Select by spec string (``"Example@3"``, ``"Example@*"``)."""
        if isinstance(spec, str):
            spec = spec_from_string(spec)
        return self.processor.select(spec, **kwargs)

    def versions(self, name: str) -> list[int]:
        return self.manager.get_versions(name)

    def branch(self, source: str, version: int, new_name: str):
        return self.manager.branch(source, version, new_name)

    def merge(self, parents: list[tuple[str, int]], new_name: str):
        return self.manager.merge(parents, new_name)

    def properties(self, name: str) -> dict:
        return self.manager.properties(name)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def stats(self):
        """The store's I/O counters (bytes, chunks, file opens)."""
        return self.manager.stats

    def cache_info(self) -> dict:
        """Chunk-cache budgets, occupancy, and hit/miss counters."""
        return self.manager.cache_info()

    def close(self) -> None:
        self.manager.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def spec_from_string(text: str) -> VersionSpec:
    """Parse ``Name@3`` / ``Name@'1-5-2011'`` / ``Name@*`` spec strings."""
    from repro.core.errors import AQLSyntaxError

    if "@" not in text:
        raise AQLSyntaxError(f"version spec {text!r} needs an '@'")
    name, _, version = text.partition("@")
    name = name.strip()
    version = version.strip()
    if version == "*":
        return VersionSpec(array=name, all_versions=True)
    if version.startswith("'") and version.endswith("'"):
        return VersionSpec(array=name, date=version[1:-1])
    try:
        return VersionSpec(array=name, version=int(version))
    except ValueError:
        pass
    if version.isidentifier():
        return VersionSpec(array=name, label=version)
    raise AQLSyntaxError(
        f"cannot parse version {version!r} in spec {text!r}")
