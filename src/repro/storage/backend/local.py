"""The paper's substrate: one file per object under a root directory,
with an optional group-fsync durability barrier."""

from __future__ import annotations

import os
import shutil
import threading
from collections.abc import Sequence
from pathlib import Path

from repro.core.errors import StorageError
from repro.storage.backend.base import StorageBackend


class LocalFileBackend(StorageBackend):
    """Local-filesystem backend: one object per file under ``root``.

    ``durable=True`` arms the :meth:`sync` durability barrier: writes
    and appends stay buffered (the kernel's write-back proceeds in the
    background while later chunks are still being encoded), and the
    barrier fsyncs the touched objects in one group — so the write
    pipeline leaves payload bytes crash-safe *before* the catalog
    transaction that names them commits, at a per-version rather than
    per-chunk flush cost.  The fsync waits release the GIL and are
    fanned :data:`SYNC_FAN` deep, which lets the filesystem journal
    batch the commits.
    """

    name = "local"

    def __init__(self, root: str | Path, durable: bool = False):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.durable = durable
        if durable:
            self.name = "durable"
        # Files created since the last barrier: their directory entries
        # need an fsync too, but only once — appends to existing files
        # never do (the entry is already durable).
        self._fresh_files: set[Path] = set()
        self._fresh_lock = threading.Lock()

    def _resolve(self, path: str) -> Path:
        return self.root / path

    def _note_fresh(self, target: Path) -> None:
        if self.durable and not target.exists():
            with self._fresh_lock:
                self._fresh_files.add(target)

    def write(self, path: str, payload: bytes) -> None:
        target = self._resolve(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        self._note_fresh(target)
        with open(target, "wb") as handle:
            handle.write(payload)

    def append(self, path: str, payload: bytes) -> int:
        target = self._resolve(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        self._note_fresh(target)
        with open(target, "ab") as handle:
            offset = handle.tell()
            handle.write(payload)
        return offset

    def sync(self, paths: Sequence[str]) -> None:
        if not self.durable or not paths:
            return
        distinct = list(dict.fromkeys(paths))

        def fsync_at(target: "Path") -> None:
            fd = os.open(target, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

        # The journal group-commits whatever flushes are in flight, so
        # depth — not CPU parallelism — sets the batching factor.
        self._fan_barrier(lambda path: fsync_at(self._resolve(path)),
                          distinct)
        # A freshly created file is only crash-safe once its directory
        # entry is too: fsync each distinct parent directory up to the
        # backend root, or the barrier could survive the data but lose
        # the name.  Appends to files whose entries an earlier barrier
        # already flushed skip this — only fresh files pay it.
        with self._fresh_lock:
            fresh = [target for path in distinct
                     if (target := self._resolve(path))
                     in self._fresh_files]
            self._fresh_files.difference_update(fresh)
        directories: list[Path] = []
        seen: set[Path] = set()
        for target in fresh:
            parent = target.parent
            while parent not in seen and \
                    parent.is_relative_to(self.root):
                seen.add(parent)
                directories.append(parent)
                parent = parent.parent
        for directory in directories:
            fsync_at(directory)

    def read(self, path: str, offset: int, length: int) -> bytes:
        return self.read_many(path, [(offset, length)])[0]

    def read_many(self, path: str,
                  spans: Sequence[tuple[int, int]]) -> list[bytes]:
        target = self._resolve(path)
        try:
            with open(target, "rb") as handle:
                payloads = []
                for offset, length in spans:
                    handle.seek(offset)
                    payload = handle.read(length)
                    if len(payload) != length:
                        raise StorageError(
                            f"chunk file {target} truncated: wanted "
                            f"{length} bytes at {offset}, got "
                            f"{len(payload)}")
                    payloads.append(payload)
        except FileNotFoundError as exc:
            raise StorageError(f"missing chunk file {target}") from exc
        return payloads

    def delete(self, prefix: str) -> None:
        target = self._resolve(prefix)
        if target.is_dir():
            shutil.rmtree(target)
        elif target.exists():
            target.unlink()

    def total_bytes(self, prefix: str = "") -> int:
        base = self._resolve(prefix) if prefix else self.root
        if not base.exists():
            return 0
        if base.is_file():
            return base.stat().st_size
        return sum(f.stat().st_size for f in base.rglob("*") if f.is_file())
