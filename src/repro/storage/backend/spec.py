"""The backend spec grammar: registry names, the parameterized spec
forms, the ``REPRO_BACKEND`` default, and :func:`resolve_backend`."""

from __future__ import annotations

import os
from pathlib import Path

from repro.core.errors import StorageError
from repro.storage.backend.base import StorageBackend
from repro.storage.backend.faulty import FaultInjectingBackend
from repro.storage.backend.local import LocalFileBackend
from repro.storage.backend.memory import InMemoryBackend
from repro.storage.backend.objectstore import ObjectStoreBackend
from repro.storage.backend.striped import StripedBackend

#: Names accepted by :func:`resolve_backend` (and the CLI / bench axis).
#: ``striped:<n>[:<child>]``, ``object[:durable]``, and
#: ``faulty:<seed>[:<inner>]`` specs are also accepted — see
#: :func:`parse_striped_spec` / :func:`parse_object_spec` /
#: :func:`parse_faulty_spec`; :func:`ensure_backend_spec` validates any
#: of them without side effects.
BACKEND_NAMES = ("local", "memory", "durable", "object")


def parse_striped_spec(spec: str) -> tuple[int, str]:
    """Validate a ``striped:<n>[:<child>]`` spec string.

    Returns ``(stripes, child_name)``; raises :class:`StorageError` on
    malformed specs so callers can validate configuration before any
    side effect (the CLI's validate-before-side-effects rule).
    """
    parts = spec.split(":")
    if parts[0] != "striped" or len(parts) not in (2, 3):
        raise StorageError(
            f"malformed striped backend spec {spec!r}; expected"
            " 'striped:<n>' or 'striped:<n>:<child>'")
    try:
        stripes = int(parts[1])
    except ValueError:
        raise StorageError(
            f"striped backend spec {spec!r} needs an integer stripe"
            " count") from None
    if stripes < 1:
        raise StorageError(
            f"striped backend spec {spec!r} needs at least one stripe")
    child = parts[2] if len(parts) == 3 else "local"
    if child not in BACKEND_NAMES:
        raise StorageError(
            f"striped backend spec {spec!r} names unknown child backend"
            f" {child!r}; expected one of {BACKEND_NAMES}")
    return stripes, child


def parse_object_spec(spec: str) -> bool:
    """Validate an ``object[:durable]`` spec string.

    Returns the durable flag; raises :class:`StorageError` on malformed
    specs so callers can validate configuration before any side effect
    (the same validate-before-side-effects rule as
    :func:`parse_striped_spec`).
    """
    parts = spec.split(":")
    if parts[0] != "object" or len(parts) > 2:
        raise StorageError(
            f"malformed object backend spec {spec!r}; expected"
            " 'object' or 'object:durable'")
    if len(parts) == 1:
        return False
    if parts[1] != "durable":
        raise StorageError(
            f"object backend spec {spec!r} names unknown mode"
            f" {parts[1]!r}; the only mode is 'durable'")
    return True


def parse_faulty_spec(spec: str) -> tuple[int, str]:
    """Validate a ``faulty:<seed>[:<inner>]`` spec string.

    Returns ``(seed, inner_name)``; raises :class:`StorageError` on
    malformed specs so callers can validate configuration before any
    side effect (the same validate-before-side-effects rule as the
    other spec parsers).  Seed 0 is the fault-free conformance mode.
    """
    parts = spec.split(":")
    if parts[0] != "faulty" or len(parts) not in (2, 3):
        raise StorageError(
            f"malformed faulty backend spec {spec!r}; expected"
            " 'faulty:<seed>' or 'faulty:<seed>:<inner>'")
    try:
        seed = int(parts[1])
    except ValueError:
        raise StorageError(
            f"faulty backend spec {spec!r} needs an integer seed") \
            from None
    if seed < 0:
        raise StorageError(
            f"faulty backend spec {spec!r} needs a seed >= 0")
    inner = parts[2] if len(parts) == 3 else "local"
    if inner not in BACKEND_NAMES:
        raise StorageError(
            f"faulty backend spec {spec!r} names unknown inner backend"
            f" {inner!r}; expected one of {BACKEND_NAMES}")
    return seed, inner


def _build_object(durable: bool, root: Path) -> StorageBackend:
    return ObjectStoreBackend(root, durable=durable)


def _build_striped(parsed: tuple[int, str], root: Path) -> StorageBackend:
    stripes, child = parsed
    return StripedBackend([resolve_backend(child, root / f"stripe{i}")
                           for i in range(stripes)])


def _build_faulty(parsed: tuple[int, str], root: Path) -> StorageBackend:
    seed, inner = parsed
    return FaultInjectingBackend(resolve_backend(inner, root), seed=seed)


# The spec grammar, walked in one place (_spec_builder): a registry
# name builds from the root alone; a parameterized form is its prefix,
# the parser that validates it without side effects, and the builder
# taking what the parser returned.
_PLAIN_SPECS = {
    "local": LocalFileBackend,
    "durable": lambda root: LocalFileBackend(root, durable=True),
    "memory": lambda root: InMemoryBackend(),
}
_SPEC_FORMS = {
    "object": (parse_object_spec, _build_object),
    "striped": (parse_striped_spec, _build_striped),
    "faulty": (parse_faulty_spec, _build_faulty),
}
_SPEC_GRAMMAR = (f"one of {BACKEND_NAMES}, 'object[:durable]',"
                 " 'striped:<n>[:<child>]', or 'faulty:<seed>[:<inner>]'")


def _spec_builder(spec: str):
    """Validate a string spec; returns ``build`` with ``build(root)``
    the backend it names.  Nothing is created until ``build`` runs."""
    if spec in _PLAIN_SPECS:
        return _PLAIN_SPECS[spec]
    for prefix, (parse, build) in _SPEC_FORMS.items():
        if spec.startswith(prefix):
            parsed = parse(spec)
            return lambda root: build(parsed, root)
    raise StorageError(
        f"unknown storage backend {spec!r}; expected {_SPEC_GRAMMAR}")


def ensure_backend_spec(spec: str) -> str:
    """Validate a string backend spec without building anything.

    Accepts the :data:`BACKEND_NAMES` registry names plus the
    ``striped:<n>[:<child>]``, ``object[:durable]``, and
    ``faulty:<seed>[:<inner>]`` spec forms — exactly what
    :func:`resolve_backend` accepts as strings.  The CLI and the
    test-suite's ``REPRO_BACKEND`` handling both validate through
    here, so a bad flag or a misconfigured CI matrix cell fails loudly
    before any directory or catalog is created.
    """
    _spec_builder(spec)
    return spec


def default_backend_spec() -> str:
    """The spec used when a caller passes ``backend=None``.

    Defers to the ``REPRO_BACKEND`` environment variable — the CI
    matrix runs the whole storage/query/cluster subset over the object
    path this way, mirroring how ``REPRO_WORKERS`` forces the
    parallelism degree — and falls back to the paper's local files.
    Malformed values are rejected loudly: an env cell silently falling
    back to local files would make the object-backend matrix row test
    nothing.
    """
    raw = os.environ.get("REPRO_BACKEND")
    if raw is None or raw == "":
        return "local"
    try:
        return ensure_backend_spec(raw)
    except StorageError as exc:
        raise StorageError(f"REPRO_BACKEND: {exc}") from None


def resolve_backend(spec, root: str | Path) -> StorageBackend:
    """Turn a backend spec into a concrete backend instance.

    ``spec`` may be None (default: the ``REPRO_BACKEND`` environment
    variable, else local files under ``root``), one of
    :data:`BACKEND_NAMES`, an ``object[:durable]`` spec (the S3-style
    emulation rooted at ``root``), a ``striped:<n>[:<child>]`` spec (N
    stripes under ``root/stripe<i>``, or N in-memory stripes), a
    ``faulty:<seed>[:<inner>]`` spec (deterministic fault injection
    over an inner backend rooted at ``root``), a ready
    :class:`StorageBackend`, or a factory callable invoked with
    ``root`` — the factory form is what lets a cluster coordinator
    construct one independent backend per node.
    """
    if spec is None:
        spec = default_backend_spec()
    if isinstance(spec, str):
        return _spec_builder(spec)(Path(root))
    if isinstance(spec, StorageBackend):
        return spec
    if callable(spec):
        backend = spec(Path(root))
        if not isinstance(backend, StorageBackend):
            raise StorageError(
                f"backend factory {spec!r} returned {type(backend).__name__},"
                " not a StorageBackend")
        return backend
    raise StorageError(
        f"unknown storage backend {spec!r}; expected {_SPEC_GRAMMAR},"
        " a StorageBackend, or a factory callable")
