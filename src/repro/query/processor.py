"""The query processor's select primitives (Section II-B).

Wraps a :class:`~repro.storage.manager.VersionedStorageManager` with the
four Select forms of the paper plus version *resolution*: versions can be
named by id (``Example@3``), by date (``Example@'1-5-2011'``), or all at
once (``Example@*``).  The processor translates each declarative request
into storage-manager operations — exactly the role the query processor
plays in Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from repro.core.array import ArrayData
from repro.core.errors import AQLExecutionError, VersionNotFoundError
from repro.storage.manager import VersionedStorageManager
from repro.storage.metadata import ArraySnapshot


@dataclass(frozen=True)
class VersionSpec:
    """A parsed ``array@version`` reference.

    Exactly one of ``version`` (an id), ``date`` (a timestamp string),
    ``label`` (an arbitrary named version) or ``all_versions`` is set.
    """

    array: str
    version: int | None = None
    date: str | None = None
    label: str | None = None
    all_versions: bool = False

    def __post_init__(self) -> None:
        markers = sum((self.version is not None, self.date is not None,
                       self.label is not None, self.all_versions))
        if markers != 1:
            raise AQLExecutionError(
                f"version spec for {self.array!r} must name exactly one "
                "of: id, date, label, or '*'")


def parse_date(text: str) -> float:
    """Parse the paper's ``'1-5-2011'`` (month-day-year) date syntax.

    A trailing ``HH:MM[:SS]`` component is also accepted; timestamps are
    interpreted as UTC for determinism.
    """
    formats = ("%m-%d-%Y %H:%M:%S", "%m-%d-%Y %H:%M", "%m-%d-%Y")
    for fmt in formats:
        try:
            parsed = datetime.strptime(text, fmt)
        except ValueError:
            continue
        # End-of-day semantics for date-only stamps: "the version that
        # existed on that date" includes anything created that day.
        if fmt == "%m-%d-%Y":
            parsed = parsed.replace(hour=23, minute=59, second=59)
        return parsed.replace(tzinfo=timezone.utc).timestamp()
    raise AQLExecutionError(
        f"cannot parse date {text!r}; expected M-D-YYYY[ HH:MM[:SS]]")


class QueryProcessor:
    """Resolves version specs and executes the four select forms.

    Each form's ``array`` is an array name or a catalog snapshot of it
    (:meth:`~repro.storage.metadata.MetadataCatalog.snapshot`) that the
    caller pinned, as the storage manager's select forms take it.
    """

    def __init__(self, manager: VersionedStorageManager):
        self.manager = manager

    # ------------------------------------------------------------------
    # Version resolution
    # ------------------------------------------------------------------
    def resolve(self, spec: VersionSpec,
                snap: ArraySnapshot | None = None) -> list[int]:
        """The concrete version ids a spec denotes (ordered), read from
        ``snap`` when the caller pinned the array's snapshot."""
        if spec.version is not None:
            return [spec.version]
        if snap is None:
            snap = self.manager.catalog.snapshot(spec.array)
        if spec.all_versions:
            versions = [row.version for row in snap.get_versions()]
            if not versions:
                raise VersionNotFoundError(
                    f"array {spec.array!r} has no versions")
            return versions
        if spec.date is not None:
            return [snap.version_at(parse_date(spec.date))]
        return [snap.version_for_label(spec.label)]

    # ------------------------------------------------------------------
    # The four select forms
    # ------------------------------------------------------------------
    def select_version(self, array: str | ArraySnapshot,
                       version: int) -> ArrayData:
        """Form 1: array name + version id -> full contents."""
        return self.manager.select(array, version)

    def select_window(self, array: str | ArraySnapshot, version: int,
                      corner_lo: tuple[int, ...],
                      corner_hi: tuple[int, ...]) -> ArrayData:
        """Form 2: + two opposite corners of a hyper-rectangle."""
        return self.manager.select_region(array, version, corner_lo,
                                          corner_hi)

    def select_stack(self, array: str | ArraySnapshot, versions: list[int],
                     attribute: str | None = None) -> np.ndarray:
        """Form 3: ordered version list -> N+1-dimensional stack."""
        return self.manager.select_versions(array, versions, attribute)

    def select_stack_window(self, array: str | ArraySnapshot,
                            versions: list[int],
                            corner_lo: tuple[int, ...],
                            corner_hi: tuple[int, ...],
                            attribute: str | None = None) -> np.ndarray:
        """Form 4: version list + hyper-rectangle -> stacked windows."""
        return self.manager.select_versions_region(
            array, versions, corner_lo, corner_hi, attribute)

    # ------------------------------------------------------------------
    # Spec-driven entry point (used by the AQL executor)
    # ------------------------------------------------------------------
    def select(self, spec: VersionSpec,
               window: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
               time_range: tuple[int, int] | None = None, *,
               snap: ArraySnapshot | None = None) -> np.ndarray:
        """Evaluate any select against a version spec.

        ``window`` restricts the spatial region; ``time_range`` (pairs of
        zero-based indices into the resolved version list, inclusive)
        restricts the stacked dimension — this is how ``SUBSAMPLE`` maps
        onto the processor.  Single-version selects return N-dimensional
        arrays; multi-version selects return N+1-dimensional stacks.
        The whole select reads one committed state of the array: the
        snapshot taken here, or ``snap`` when the caller pinned one.
        """
        if snap is None:
            snap = self.manager.catalog.snapshot(spec.array)
        versions = self.resolve(spec, snap)
        if time_range is not None:
            first, last = time_range
            if not (0 <= first <= last < len(versions)):
                raise AQLExecutionError(
                    f"time range {time_range} outside the "
                    f"{len(versions)} stacked versions")
            versions = versions[first:last + 1]

        single = len(versions) == 1 and not spec.all_versions \
            and time_range is None
        if single:
            if window is None:
                return self.select_version(snap, versions[0]).single()
            return self.select_window(snap, versions[0], *window).single()
        if window is None:
            return self.select_stack(snap, versions)
        return self.select_stack_window(snap, versions, *window)
