"""The five workloads: what each builds, issues, and checks.

Every workload drives the store through its public API only, with one
client thread in a closed loop and the library-default (serial)
workers.  Stores are constructed with ``chunk_bytes``, ``backend``,
``cache_bytes``, ``nodes`` and ``replication`` and nothing else — the
``workers=`` / ``planner=`` / ``fuse_chains=`` / ``prefetch=`` kwargs
are slated for deletion and the benchmark must outlive them.

A workload generates its inputs and its whole op list from the seed
(:meth:`Workload.generate`), builds its store (:meth:`Workload.build`,
the timed set-up), and then hands the runner one op at a time:
:meth:`Workload.bind` prepares the op's inputs and returns the call to
time, :meth:`Workload.check` compares the result with ground truth
after the timer has stopped.  Op *counts* are fixed per second of
``--seconds`` (:data:`OPS_PER_SECOND`, frozen from the 2-core reference
box so that ``--seconds 10`` measures about ten seconds there): the run
is a fixed op list, not run-for-N-seconds, so counters repeat exactly.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from repro import (
    ArraySchema,
    ClusterCoordinator,
    Database,
    DeltaListPayload,
)

from . import datagen
from .datagen import DTYPE, Op

ARRAY = "A"
#: Versions loaded in set-up by the workloads that start from a chain.
CHAIN = 32
#: Versions loaded in set-up by the workloads that measure appends, so
#: every measured insert is a steady-state delta append.
WARM_VERSIONS = 4
#: Versions read back (besides the head) after a workload that writes.
READ_BACK = 8

#: Ops issued per second of ``--seconds``, per workload and kind.
OPS_PER_SECOND = {
    "ingest-chain": 20.0,
    "scan-deep": 35.0,
    "region-hot": 6200.0,
    "mixed-rw": 6.0,
    # cluster-rf2 runs phases, not a mix: inserts, then healthy and
    # degraded reads (each), then a fixed three repair cycles.
    "cluster-rf2.insert": 1.2,
    "cluster-rf2.read": 4.4,
}

#: Draws the one fixed op interleaving of ``mixed-rw`` (see there).
SCHEDULE_SEED = 2012
MIXED_SHARES = {"snapshot": 0.40, "range": 0.10, "region": 0.30,
                "insert": 0.15, "update": 0.05}

WRITE_KINDS = frozenset({"insert", "update"})
#: Kinds that move no array bytes (cluster lifecycle steps).
CONTROL_KINDS = frozenset({"kill", "revive", "repair"})

# Methods wrapped per layer when a run is traced.  A name that no
# longer exists is reported as untraced, not an error.
QUERY_FACADE = ("execute", "select", "insert")
QUERY_EXECUTOR = ("execute", "run")
QUERY_PROCESSOR = ("select", "resolve", "select_version", "select_window",
                   "select_stack", "select_stack_window")
MANAGER = ("insert", "select", "select_region", "select_versions",
           "select_versions_region", "replay_version", "get_versions",
           "version_digests", "logical_digest", "create_array",
           "delete_array", "list_arrays")
CATALOG = ("get_array", "get_version", "get_versions", "latest_version",
           "get_chunk", "chunks_for_version", "all_chunks", "put_chunks",
           "create_array", "delete_array", "list_arrays",
           "merge_parents_of", "stored_bytes")
ENCODER = ("write_version", "plan_version", "encode_chunk")
DECODER = ("read_version", "read_region", "reconstruct", "chain_state")
CACHE = ("get", "peek", "put", "invalidate_array")
CHUNKSTORE = ("write_chunk", "sync_chunks", "read_chunk", "read_chunks",
              "delete_array")
BACKEND = ("write", "append", "read", "read_many", "sync", "delete")
COORDINATOR = ("insert", "select", "select_region", "mark_node_dead",
               "revive_node", "revive", "replace_replica", "repair")


def attach_manager(tracer, manager) -> None:
    """Wrap one storage manager and the layers beneath it."""
    tracer.wrap(manager, "manager", MANAGER)
    tracer.wrap(getattr(manager, "catalog", None), "catalog", CATALOG)
    tracer.wrap(getattr(manager, "encoder", None), "pipeline.encode",
                ENCODER)
    tracer.wrap(getattr(manager, "decoder", None), "pipeline.decode",
                DECODER)
    tracer.wrap(getattr(manager, "cache", None), "pipeline.cache", CACHE)
    tracer.wrap(getattr(manager, "store", None), "chunkstore", CHUNKSTORE)
    tracer.wrap(getattr(manager, "backend", None), "backend", BACKEND)


def attach_database(tracer, db) -> None:
    """Wrap a ``Database`` facade, its query layer, and its manager."""
    tracer.wrap(db, "query", QUERY_FACADE)
    executor = getattr(db, "executor", None)
    tracer.wrap(executor, "query", QUERY_EXECUTOR)
    tracer.wrap(getattr(executor, "processor", None), "query",
                QUERY_PROCESSOR)
    tracer.wrap(getattr(db, "processor", None), "query", QUERY_PROCESSOR)
    attach_manager(tracer, db.manager)


def counters_of(stats) -> dict[str, int]:
    """The integer counters of one public ``IOStats``."""
    return {name: value for name, value in vars(stats.snapshot()).items()
            if isinstance(value, int) and not name.startswith("_")}


def add_counters(total: dict[str, int], more: dict[str, int]) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value


class Workload:
    """Common state and the runner-facing protocol."""

    name = ""
    why = ""
    #: The op kind whose median latency is the workload's ``op_p50_ms``.
    primary = ""

    def __init__(self, seed: int, scale: datagen.Scale, seconds: float):
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.series = datagen.VersionSeries(seed, scale)
        #: version -> ground-truth array, for every version a read may
        #: be checked against.
        self.truth: dict[int, np.ndarray] = {}
        self.ops: list[Op] = []
        self.tracer = None
        #: Versions inserted so far (set-up included).
        self.head = 0
        #: Versions read back after the run (workloads that write).
        self.sampled: list[int] = []

    def count(self, key: str | None = None, minimum: int = 4,
              multiple_of: int = 1) -> int:
        """Ops to issue: the frozen rate times ``--seconds``, rounded
        to whole rounds of ``multiple_of`` so a balanced draw gives
        every seed exactly the same multiset."""
        wanted = max(minimum, OPS_PER_SECOND[key or self.name]
                     * self.seconds)
        return max(1, round(wanted / multiple_of)) * multiple_of

    # -- protocol ------------------------------------------------------
    def generate(self) -> None:
        """Build inputs, ground truth and the op list from the seed."""
        raise NotImplementedError

    def build(self, root) -> None:
        """Construct the store, load it, warm it (the timed set-up)."""
        raise NotImplementedError

    def attach(self, tracer) -> None:
        raise NotImplementedError

    def bind(self, op: Op):
        """Prepare one op's inputs; returns the zero-argument call the
        runner times."""
        raise NotImplementedError

    def check(self, op: Op, result) -> bool:
        raise NotImplementedError

    def logical_bytes(self, op: Op) -> int:
        """Array bytes the op returns (reads) or accepts (writes)."""
        if op.kind in CONTROL_KINDS:
            return 0
        if op.kind == "region":
            return self.scale.window ** 2 * np.dtype(DTYPE).itemsize
        return op.span * self.scale.version_bytes

    def read_back(self) -> list[bool]:
        """Post-run oracle checks (read-back of written versions)."""
        return []

    def counters(self) -> dict[str, int]:
        raise NotImplementedError

    def stored_bytes(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------
    def inserted_bytes(self) -> int:
        return self.head * self.scale.version_bytes

    def sampled_versions(self, final_head: int) -> list[int]:
        """The head plus :data:`READ_BACK` seeded earlier versions."""
        rng = datagen.stream(self.seed, 9)
        earlier = rng.choice(np.arange(1, final_head),
                             size=min(READ_BACK, final_head - 1),
                             replace=False)
        return sorted({final_head, *(int(v) for v in earlier)})


class StoreWorkload(Workload):
    """A workload over one ``Database``."""

    backend = "memory"
    #: Chunk-cache budget as a share of the decoded size of
    #: :data:`CHAIN` versions (0 = cache off).
    cache_share = 0.0
    db = None

    def open(self, root) -> None:
        cache_bytes = int(self.cache_share * CHAIN
                          * self.scale.version_bytes)
        self.db = Database(root, chunk_bytes=self.scale.chunk_bytes,
                           backend=self.backend, cache_bytes=cache_bytes)
        self.db.create_array(ARRAY, ArraySchema.simple(self.scale.shape,
                                                       dtype=DTYPE))
        self.head = 0

    def load(self, versions) -> None:
        for array in versions:
            self.db.insert(ARRAY, array)
            self.head += 1

    def attach(self, tracer) -> None:
        self.tracer = tracer
        attach_database(tracer, self.db)

    def counters(self) -> dict[str, int]:
        totals = counters_of(self.db.stats)
        info = self.db.cache_info()
        totals["cache_info_hits"] = info["hits"]
        totals["cache_info_misses"] = info["misses"]
        return totals

    def stored_bytes(self) -> int:
        return self.db.manager.store.total_bytes()

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    # -- op helpers ----------------------------------------------------
    def snapshot_call(self, version: int):
        return partial(self.db.select, f"{ARRAY}@{version}")

    def check_snapshot(self, version: int, result) -> bool:
        return np.array_equal(result, self.truth[version])

    def window_of(self, op: Op) -> np.ndarray:
        r0, r1, c0, c1 = op.window
        return self.truth[op.version][r0:r1 + 1, c0:c1 + 1]

    def read_back(self) -> list[bool]:
        return [self.check_snapshot(v, self.db.select(f"{ARRAY}@{v}"))
                for v in self.sampled]


class IngestChain(StoreWorkload):
    name = "ingest-chain"
    why = ("appends onto one growing chain on local files, cache off: "
           "plan, encode, place, sync and catalog commit do all the "
           "work and decode almost none")
    primary = "insert"
    backend = "local"

    def generate(self) -> None:
        self.warm = self.series.build(WARM_VERSIONS)
        self.ops = [Op("insert", version=WARM_VERSIONS + i + 1)
                    for i in range(self.count())]
        self.sampled = self.sampled_versions(self.ops[-1].version)
        for version, array in enumerate(self.warm, 1):
            if version in self.sampled:
                self.truth[version] = array
        self.current = self.warm[-1]

    def build(self, root) -> None:
        self.open(root)
        self.load(self.warm)

    def bind(self, op: Op):
        # Ground truth is the base plus the seeded update lists: only
        # the running head and the sampled versions are kept.
        self.current = self.series.step(self.current, op.version - 1)
        if op.version in self.sampled:
            self.truth[op.version] = self.current
        return partial(self.db.insert, ARRAY, self.current)

    def check(self, op: Op, result) -> bool:
        self.head += 1
        return result == op.version


class ScanDeep(StoreWorkload):
    name = "scan-deep"
    why = ("whole-version reads at chain depths 1-32 from memory, cache "
           "off: locate, read, fused decode and assemble dominate while "
           "backend and catalog are nearly free")
    primary = "snapshot"

    def generate(self) -> None:
        self.truth = dict(enumerate(self.series.build(CHAIN), 1))
        rng = datagen.stream(self.seed, 3)
        self.ops = [Op("snapshot", version=v) for v in datagen.balanced(
            rng, range(1, CHAIN + 1), self.count(multiple_of=CHAIN))]

    def build(self, root) -> None:
        self.open(root)
        self.load(self.truth[v] for v in range(1, CHAIN + 1))
        for version in (1, CHAIN):
            self.db.select(f"{ARRAY}@{version}")

    def bind(self, op: Op):
        return self.snapshot_call(op.version)

    def check(self, op: Op, result) -> bool:
        return self.check_snapshot(op.version, result)


class RegionHot(StoreWorkload):
    name = "region-hot"
    why = ("small AQL window reads, 90 % at the head, working set cached: "
           "AQL parse, query processor, manager, catalog lookups and "
           "cache probe are the whole cost; kernels and backend idle")
    primary = "region"
    backend = "local"
    cache_share = 1.0
    #: Untimed warm-up ops per second of ``--seconds``.
    warm_rate = 200.0

    def _region_ops(self, rng, count: int) -> list[Op]:
        head = rng.random(count) < 0.9
        anywhere = rng.integers(1, CHAIN + 1, size=count)
        return [Op("region", version=CHAIN if at_head else int(v),
                   window=window)
                for at_head, v, window in zip(
                    head, anywhere,
                    datagen.windows(rng, self.scale, count))]

    def generate(self) -> None:
        self.truth = dict(enumerate(self.series.build(CHAIN), 1))
        self.warm_ops = self._region_ops(
            datagen.stream(self.seed, 4),
            max(16, round(self.warm_rate * self.seconds)))
        self.ops = self._region_ops(datagen.stream(self.seed, 3),
                                    self.count())

    def build(self, root) -> None:
        self.open(root)
        self.load(self.truth[v] for v in range(1, CHAIN + 1))
        for op in self.warm_ops:
            self.bind(op)()

    def bind(self, op: Op):
        r0, r1, c0, c1 = op.window
        return partial(
            self.db.execute,
            f"SELECT * FROM SUBSAMPLE({ARRAY}@{op.version}, "
            f"{r0}, {r1}, {c0}, {c1});")

    def check(self, op: Op, result) -> bool:
        return np.array_equal(result.value, self.window_of(op))


class MixedRW(StoreWorkload):
    name = "mixed-rw"
    why = ("snapshot, range and cold region reads beside appends and "
           "updates on the object backend, cache 1/8 of the working "
           "set: admission, invalidation, re-base and over-fetch "
           "trade-offs need both sides")
    primary = "insert"
    backend = "object"
    cache_share = 1.0 / 8.0

    def generate(self) -> None:
        self.truth = dict(enumerate(self.series.build(CHAIN), 1))
        # The interleaving is part of the workload's definition, not of
        # its seeded input: with a cache an eighth of the working set a
        # read costs what the ops before it left behind, so a seeded
        # order would measure the shuffle.  One fixed order is drawn
        # from a constant; the seed sets the data, the region windows
        # and the update coordinates.
        rng = datagen.stream(SCHEDULE_SEED, 3)
        count = self.count(minimum=2 * len(MIXED_SHARES))
        kinds = datagen.mixture(rng, MIXED_SHARES, count)
        # *What* is issued is the same for every seed: reads take
        # evenly spaced depths of the initial chain (a snapshot costs
        # about as much as its depth, so a free draw would make the
        # seed, not the store, set the run's cost), and writes follow
        # one fixed sequence — updates evenly spaced among the appends,
        # against evenly spaced versions — because an update's stored
        # size is its distance from the head it lands on.
        slots = [i for i, kind in enumerate(kinds) if kind in WRITE_KINDS]
        updates = kinds.count("update")
        for j, slot in enumerate(slots):
            is_update = (j + 1) * updates // len(slots) \
                > j * updates // len(slots)
            kinds[slot] = "update" if is_update else "insert"

        def shuffled(values: list) -> iter:
            return iter(datagen.balanced(rng, values, len(values)))

        def depths(kind: str) -> list[float]:
            n = kinds.count(kind)
            return [(i + 0.5) / n for i in range(n)]

        fractions = {kind: shuffled(depths(kind))
                     for kind in ("snapshot", "range", "region")}
        fractions["update"] = iter(depths("update"))
        spans = shuffled([(2, 3, 4)[i % 3]
                          for i in range(kinds.count("range"))])
        regions = iter(datagen.windows(datagen.stream(self.seed, 3),
                                       self.scale, count))
        head = CHAIN
        self.ops = []
        for kind in kinds:
            if kind == "insert":
                head += 1
                self.ops.append(Op(kind, version=head))
                continue
            fraction = next(fractions[kind])
            if kind == "update":
                # ``version`` is the one the update is applied against.
                head += 1
                self.ops.append(Op(kind,
                                   version=1 + int(fraction * CHAIN)))
            elif kind == "range":
                span = next(spans)
                start = 1 + int(fraction * (CHAIN - span + 1))
                self.ops.append(Op(kind, version=start, span=span))
            else:
                self.ops.append(Op(
                    kind, version=1 + int(fraction * CHAIN),
                    window=next(regions) if kind == "region" else None))
        self.sampled = self.sampled_versions(head)

    def build(self, root) -> None:
        self.open(root)
        self.load(self.truth[v] for v in range(1, CHAIN + 1))
        for version in (1, CHAIN):
            self.db.select(f"{ARRAY}@{version}")

    def bind(self, op: Op):
        manager = self.db.manager
        if op.kind == "snapshot":
            return self.snapshot_call(op.version)
        if op.kind == "range":
            return partial(manager.select_versions, ARRAY,
                           list(range(op.version, op.version + op.span)))
        if op.kind == "region":
            r0, r1, c0, c1 = op.window
            return partial(manager.select_region, ARRAY, op.version,
                           (r0, c0), (r1, c1))
        new = self.head + 1
        if op.kind == "insert":
            self.truth[new] = self.series.step(self.truth[self.head], new)
            return partial(self.db.insert, ARRAY, self.truth[new])
        coords, values, self.truth[new] = self.series.update_list(
            self.truth[op.version], new)
        return partial(self.db.insert, ARRAY, DeltaListPayload.of(
            coords, values, base_version=op.version))

    def check(self, op: Op, result) -> bool:
        if op.kind == "snapshot":
            return self.check_snapshot(op.version, result)
        if op.kind == "range":
            return all(np.array_equal(layer, self.truth[op.version + i])
                       for i, layer in enumerate(result)) \
                and len(result) == op.span
        if op.kind == "region":
            return np.array_equal(result.single(), self.window_of(op))
        self.head += 1
        return result == self.head


class ClusterRF2(Workload):
    name = "cluster-rf2"
    why = ("3 nodes x 2 copies in memory: inserts, healthy reads, a "
           "node kill, degraded reads, revive, three replace-and-repair "
           "cycles; fan-out, replica writes, failover and replay cost "
           "exist nowhere else")
    primary = "snapshot"
    nodes = 3
    replication = 2
    coordinator = None

    def generate(self) -> None:
        inserts = self.count("cluster-rf2.insert")
        reads = self.count("cluster-rf2.read")
        final = WARM_VERSIONS + inserts
        self.truth = dict(enumerate(self.series.build(final), 1))
        # Healthy and degraded reads both fetch the head (Table V's
        # *Head*): the same work on both sides of the kill, so the
        # difference between their medians is the failover's cost.
        self.ops = (
            [Op("insert", version=WARM_VERSIONS + i + 1)
             for i in range(inserts)]
            + [Op("snapshot", version=final)] * reads
            + [Op("kill", version=1)]
            + [Op("degraded_snapshot", version=final)] * reads
            + [Op("revive", version=1)]
            + [Op("repair", version=node) for node in range(self.nodes)])
        self.sampled = self.sampled_versions(final)
        self.fingerprint_before = None
        self.repair_seconds: list[float] = []
        self.repair_bytes: list[int] = []
        self.retired: dict[str, int] = {}

    def build(self, root) -> None:
        self.coordinator = ClusterCoordinator(
            root, nodes=self.nodes, replication=self.replication,
            backend="memory", chunk_bytes=self.scale.chunk_bytes)
        self.coordinator.create_array(
            ARRAY, ArraySchema.simple(self.scale.shape, dtype=DTYPE))
        self.head = 0
        for version in range(1, WARM_VERSIONS + 1):
            self.coordinator.insert(ARRAY, self.truth[version])
            self.head += 1

    def managers(self) -> list:
        return [manager for row in self.coordinator.replicas
                for manager in row]

    def attach(self, tracer) -> None:
        self.tracer = tracer
        tracer.wrap(self.coordinator, "cluster", COORDINATOR)
        for manager in self.managers():
            attach_manager(tracer, manager)

    def _repair_cycle(self, node: int) -> dict:
        """Swap one band's primary copy for blank hardware, resync it
        from its peer, and bring it back into rotation."""
        coordinator = self.coordinator
        add_counters(self.retired,
                     counters_of(coordinator.replicas[node][0].stats))
        fresh = coordinator.replace_replica(node, 0)
        if self.tracer is not None:
            attach_manager(self.tracer, fresh)
        started = time.perf_counter()
        report = coordinator.repair(node, 0)
        self.repair_seconds.append(time.perf_counter() - started)
        self.repair_bytes.append(report["bytes"])
        coordinator.revive(node, 0)
        return report

    def bind(self, op: Op):
        coordinator = self.coordinator
        if op.kind == "insert":
            return partial(coordinator.insert, ARRAY,
                           self.truth[op.version])
        if op.kind in ("snapshot", "degraded_snapshot"):
            return partial(coordinator.select, ARRAY, op.version)
        if op.kind == "kill":
            # The logical fingerprint must survive everything below.
            self.fingerprint_before = coordinator.fingerprint()
            return partial(coordinator.mark_node_dead, op.version)
        if op.kind == "revive":
            return partial(coordinator.revive_node, op.version,
                           repair=True)
        return partial(self._repair_cycle, op.version)

    def check(self, op: Op, result) -> bool:
        if op.kind == "insert":
            self.head += 1
            return result == op.version
        if op.kind in ("snapshot", "degraded_snapshot"):
            return np.array_equal(result.single(), self.truth[op.version])
        if op.kind == "kill":
            return len(self.coordinator.dead_replicas()) == self.replication
        if op.kind == "revive":
            return not self.coordinator.dead_replicas()
        return result["versions"] == self.head and result["bytes"] > 0

    def read_back(self) -> list[bool]:
        # Each band was rebuilt once, so the cycles together replayed
        # every inserted byte exactly once.
        return [self.coordinator.fingerprint() == self.fingerprint_before,
                not self.coordinator.dead_replicas(),
                sum(self.repair_bytes) == self.inserted_bytes(),
                *(np.array_equal(
                    self.coordinator.select(ARRAY, v).single(),
                    self.truth[v]) for v in self.sampled)]

    def counters(self) -> dict[str, int]:
        totals = dict(self.retired)
        add_counters(totals, counters_of(self.coordinator.stats))
        hits = misses = 0
        for manager in self.managers():
            add_counters(totals, counters_of(manager.stats))
            info = manager.cache_info()
            hits += info["hits"]
            misses += info["misses"]
        totals["cache_info_hits"] = hits
        totals["cache_info_misses"] = misses
        return totals

    def stored_bytes(self) -> int:
        return sum(manager.store.total_bytes()
                   for manager in self.managers())

    def close(self) -> None:
        if self.coordinator is not None:
            self.coordinator.close()
            self.coordinator = None


WORKLOADS = {cls.name: cls for cls in (IngestChain, ScanDeep, RegionHot,
                                       MixedRW, ClusterRF2)}
