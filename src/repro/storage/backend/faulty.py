"""Deterministic fault injection over any inner backend: the seeded
schedule and the wrapper that follows it."""

from __future__ import annotations

import random
import threading
from collections.abc import Sequence

from repro.core.errors import StorageError
from repro.storage.backend.base import StorageBackend
from repro.storage.iostats import IOStats

#: Operation kinds the seeded fault schedule can target.  Reads are
#: deliberately absent: a failed read is what replica *failover*
#: recovers from, and the chaos suite injects those by marking whole
#: nodes dead rather than by schedule — a scheduled read fault on an
#: unreplicated store could never be survived, so it would only ever
#: test the error message.
FAULT_KINDS = ("write", "append", "sync")

#: How far into an instance's life the seeded schedule reaches: fault
#: indices are drawn from ``1..FAULT_HORIZON``.  A finite horizon is
#: what makes chaos workloads terminate — a retried operation
#: eventually runs out of scheduled failures — while staying long
#: enough that faults land mid-version, mid-compensation, and
#: mid-repack across the sweep of seeds.
FAULT_HORIZON = 24


def seeded_fault_schedule(seed: int) -> dict[str, frozenset[int]]:
    """The deterministic fault schedule implied by ``seed``.

    Seed 0 is the fault-free mode (an empty schedule for every kind);
    any other seed derives, per operation kind, a small set of 1-based
    operation indices that will fail.  The derivation uses its own
    :class:`random.Random` instance, so the schedule depends only on
    the seed — never on interleaving, global RNG state, or how many
    backends a test built first.
    """
    if seed < 0:
        raise StorageError(
            f"fault-injection seed must be >= 0, got {seed}")
    if seed == 0:
        return {kind: frozenset() for kind in FAULT_KINDS}
    rng = random.Random(seed)
    return {kind: frozenset(rng.sample(range(1, FAULT_HORIZON + 1),
                                       rng.randint(1, 3)))
            for kind in FAULT_KINDS}


class FaultInjectingBackend(StorageBackend):
    """Deterministic fault injection over any inner backend.

    The wrapper forwards every operation to ``inner`` and keeps a
    per-kind operation counter; when a counter hits an index in the
    seeded schedule the operation fails *the way that kind of fault
    fails in the field*:

    * **write** — raises before a single byte reaches the inner
      backend (the object never changes);
    * **append** — *tears*: a deterministic prefix of the payload
      lands, then the error propagates (the debris stays, exactly like
      a crashed process mid-append; the catalog-after-placement
      transaction is what must make it unobservable);
    * **sync** — raises before the inner barrier runs, so nothing the
      barrier would have made durable (or finalized) gets either;
    * **dead node** — :meth:`mark_dead` makes *every* subsequent
      operation raise until :meth:`revive`, which is how the chaos
      suite and the failover bench take a node offline.

    Injected faults are recorded in ``injected`` (``(kind, index)``
    pairs, in firing order) and counted in ``faults_injected`` so the
    chaos suite can do exact accounting.  With ``seed=0`` the schedule
    is empty and the wrapper must be indistinguishable from ``inner``
    — the conformance grid runs that mode to prove the wrapper itself
    honors the full backend contract.

    The counters are lock-protected (concurrent readers and a writer
    may share one instance), and the fault decision depends only on
    ``(seed, kind, index)``.  The write pipeline places a version's
    chunks from one thread in canonical task order at every ``workers``
    degree, so which placement draws fault #N — and with it the whole
    schedule — replays identically across runs and degrees.
    """

    name = "faulty"

    def __init__(self, inner: StorageBackend, seed: int = 0,
                 schedule: "dict[str, frozenset[int]] | None" = None):
        self.inner = inner
        self.seed = seed
        self.ephemeral = inner.ephemeral
        raw = seeded_fault_schedule(seed) if schedule is None else schedule
        unknown = set(raw) - set(FAULT_KINDS)
        if unknown:
            raise StorageError(
                f"fault schedule names unknown operation kinds "
                f"{sorted(unknown)}; expected a subset of {FAULT_KINDS}")
        self.schedule = {kind: frozenset(raw.get(kind, ()))
                         for kind in FAULT_KINDS}
        self.faults_injected = 0
        self.injected: list[tuple[str, int]] = []
        self._op_counts = dict.fromkeys(FAULT_KINDS, 0)
        self._fault_lock = threading.Lock()
        self._dead = False

    # -- fault controls ------------------------------------------------
    @property
    def dead(self) -> bool:
        return self._dead

    def mark_dead(self) -> None:
        """Take the node offline: every operation raises until
        :meth:`revive`."""
        self._dead = True

    def revive(self) -> None:
        self._dead = False

    def _check_alive(self) -> None:
        if self._dead:
            raise StorageError(
                f"injected fault: node is dead ({self.inner.name} "
                "backend unreachable)")

    def _tick(self, kind: str) -> int | None:
        """Count one operation of ``kind``; return its index when the
        schedule says this one fails, else None."""
        self._check_alive()
        with self._fault_lock:
            self._op_counts[kind] += 1
            index = self._op_counts[kind]
            if index in self.schedule[kind]:
                self.faults_injected += 1
                self.injected.append((kind, index))
                return index
        return None

    # -- forwarding with injection ---------------------------------------
    def bind_stats(self, stats: "IOStats") -> None:
        self.inner.bind_stats(stats)

    def write(self, path: str, payload: bytes) -> None:
        index = self._tick("write")
        if index is not None:
            raise StorageError(
                f"injected fault: write #{index} of {path} failed "
                "before any byte landed")
        self.inner.write(path, payload)

    def append(self, path: str, payload: bytes) -> int:
        index = self._tick("append")
        if index is not None:
            # Torn append: a deterministic prefix lands, then the
            # error.  The tear point depends only on (seed, index, the
            # payload length), so a schedule replays byte-identically.
            torn = 0
            if payload:
                torn = random.Random(
                    f"{self.seed}:torn:{index}").randrange(len(payload))
            if torn:
                self.inner.append(path, payload[:torn])
            raise StorageError(
                f"injected fault: append #{index} of {path} torn after "
                f"{torn}/{len(payload)} bytes")
        return self.inner.append(path, payload)

    def sync(self, paths: Sequence[str]) -> None:
        index = self._tick("sync")
        if index is not None:
            raise StorageError(
                f"injected fault: sync #{index} failed before the "
                "barrier was raised")
        self.inner.sync(paths)

    def read(self, path: str, offset: int, length: int) -> bytes:
        self._check_alive()
        return self.inner.read(path, offset, length)

    def read_many(self, path: str,
                  spans: Sequence[tuple[int, int]]) -> list[bytes]:
        self._check_alive()
        return self.inner.read_many(path, spans)

    def delete(self, prefix: str) -> None:
        self._check_alive()
        self.inner.delete(prefix)

    def total_bytes(self, prefix: str = "") -> int:
        self._check_alive()
        return self.inner.total_bytes(prefix)

    def close(self) -> None:
        # Cleanup must work even on a "dead" node — the process is
        # shutting the handle down, not talking to the substrate.
        self.inner.close()
        super().close()

    def __getattr__(self, name: str):
        # Transparent introspection (e.g. the object store's
        # ``pending_parts``) so a wrapped backend stays observable in
        # tests.  Private attributes stay local.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.inner, name)
