"""Shared store construction for the OSM experiments (Tables III/IV/VI).

The paper evaluates four configurations of the storage manager on the
16-week OSM tile series:

* **Chunks + Deltas** — chunked, hybrid delta chains, no compression;
* **Chunks** — chunked, every version materialized;
* **Chunks + Deltas + LZ** — chunked, hybrid+LZ delta chains, LZ on
  materialized chunks;
* **Uncompressed** — no chunking (one container per version), no deltas,
  no compression: the raw-file baseline.

Tile size and chunk budget scale together (paper: 1 GB tiles, 10 MB
chunks — a 102x ratio; we default to 512x512 = 256 KB tiles with 16 KB
chunks, a 16x ratio that still leaves a 4x4 chunk grid).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from paper.harness import timed
from repro.core.schema import ArraySchema
from repro.datasets import osm_series
from repro.storage import (
    POLICY_CHAIN,
    POLICY_MATERIALIZE,
    VersionedStorageManager,
)

ARRAY = "osm"

#: Configuration name -> VersionedStorageManager keyword arguments.
CONFIGURATIONS: dict[str, dict] = {
    "Chunks + Deltas": dict(compressor="none", delta_codec="hybrid",
                            delta_policy=POLICY_CHAIN, chunked=True),
    "Chunks": dict(compressor="none", delta_policy=POLICY_MATERIALIZE,
                   chunked=True),
    "Chunks + Deltas + LZ": dict(compressor="lz",
                                 delta_codec="hybrid+lz",
                                 delta_policy=POLICY_CHAIN, chunked=True),
    "Uncompressed": dict(compressor="none",
                         delta_policy=POLICY_MATERIALIZE, chunked=False),
}


def build_store(root: Path, config_name: str, tiles: list[np.ndarray],
                chunk_bytes: int) -> tuple[VersionedStorageManager, float]:
    """Create one configured store and import the tiles into it.

    Returns the manager and the import wall-clock seconds.
    """
    config = dict(CONFIGURATIONS[config_name])
    chunked = config.pop("chunked")
    shape = tiles[0].shape
    budget = chunk_bytes if chunked else tiles[0].nbytes + 1
    manager = VersionedStorageManager(root, chunk_bytes=budget, **config)
    manager.create_array(ARRAY,
                         ArraySchema.simple(shape, dtype=tiles[0].dtype))
    with timed() as import_timer:
        for tile in tiles:
            manager.insert(ARRAY, tile)
    return manager, import_timer.seconds


def build_all(base: Path, *, versions: int = 16,
              shape: tuple[int, int] = (512, 512),
              chunk_bytes: int = 16 * 1024
              ) -> tuple[list[np.ndarray],
                         dict[str, tuple[VersionedStorageManager, float]]]:
    """Build every configuration over one shared tile series."""
    tiles = osm_series(versions, shape=shape)
    stores = {}
    for name in CONFIGURATIONS:
        slug = name.lower().replace(" ", "").replace("+", "-")
        stores[name] = build_store(base / slug, name, tiles, chunk_bytes)
    return tiles, stores


def one_chunk_region(manager: VersionedStorageManager
                     ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A query window covering exactly the first chunk of the grid."""
    record = manager.catalog.get_array(ARRAY)
    grid = manager.grid_for(record)
    chunk = grid.chunks()[0]
    return chunk.lo, chunk.hi
