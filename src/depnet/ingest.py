"""Loading, filtering, and validation of package release metadata.

The input is three CSV files (packages, releases, dependency declarations)
in the style of registry metadata dumps. Parsing is strict about internal
consistency: every release must belong to a known package and every
dependency row must refer to an existing source release. Dependency rows
whose *target* is unknown are kept at parse time and removed by
:func:`filter_dependencies`, which mirrors how real dumps contain
references to packages hosted outside the registry.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import mmap
import os
import statistics
import struct
import sys
import zipfile
import zlib
from collections.abc import Callable, Iterable, Iterator, Sequence, Set as AbstractSet
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta
from itertools import chain, islice, repeat
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .timeutil import Month, iter_months, parse_timestamp

# Dependency kinds that denote install/run-time requirements. Everything
# else (dev, test, build, optional, ...) is excluded by default.
DEFAULT_INCLUDED_KINDS = frozenset({"runtime", "imports", "depends", "normal"})


class DatasetError(ValueError):
    """Raised for malformed or internally inconsistent input data."""


def version_sort_key(version: str) -> tuple:
    """Ordering key for version strings.

    Dot-separated segments compare numerically when both sides are digits,
    lexicographically otherwise; numeric segments sort before non-numeric.
    """
    parts = []
    for seg in version.split("."):
        if seg.isdigit():
            parts.append((0, int(seg), ""))
        else:
            parts.append((1, 0, seg))
    return tuple(parts)


@dataclass(frozen=True, slots=True)
class PackageRecord:
    name: str
    ecosystem: str


@dataclass(frozen=True, slots=True)
class ReleaseRecord:
    package: str
    version: str
    timestamp: datetime


@dataclass(frozen=True, slots=True)
class DependencyRecord:
    source_package: str
    source_version: str
    target_package: str
    constraint: str
    kind: str


@dataclass(slots=True)
class FilterReport:
    """Counts of records dropped by each filtering rule."""

    kind_dropped: int = 0
    excluded_packages_dropped: int = 0
    excluded_releases_dropped: int = 0
    excluded_deps_dropped: int = 0
    unresolved_deps_dropped: int = 0
    unresolved_fraction: float = 0.0
    duplicate_deps_dropped: int = 0

    def total_deps_dropped(self) -> int:
        return (
            self.kind_dropped
            + self.excluded_deps_dropped
            + self.unresolved_deps_dropped
            + self.duplicate_deps_dropped
        )


_OPEN = np.iinfo(np.int64).max  # the end of an interval that never ends


class _DatasetIndex:
    """Flat lookup arrays over a Dataset's columns, built once and shared.

    A package's *position* is its place in ``packages``: the package ids
    with a release, in the order of each one's first release row. Every
    array is filled in an order that depends only on row order in the
    Dataset, never on string hashing. All of them are numpy arrays.

    * ``releases`` holds release ids in (position, timestamp, version)
      order; position k's releases are the entries from ``offset_array[k]``
      to ``offset_array[k + 1]``. Entry j is a release of the package at
      position ``entry_positions[j]``, made at ``times_us[j]``, int64
      microseconds since the epoch. It is its package's latest release on
      [``times_us[j]``, ``end_us[j]``): ``end_us[j]`` is the time of the
      package's next entry, and ``_OPEN`` after its last one. An entry
      followed by one at the same instant has an empty interval.
    * The dependency rows are grouped by the entry of their release, in
      entry order and, within an entry, in declaration order: row i
      belongs to entry ``row_entries[i]`` and resolves to the target
      position ``row_targets[i]``, ``len(packages)`` for a target with no
      release. Both are int32 arrays.
    * The updates (non-first entries) are in time order: update k is a
      release of the package at position ``update_positions[k]`` at
      ``update_times_us[k]``.

    The index is built with numpy sorts; ``version_sort_key`` runs only on
    the entries that tie on (position, timestamp). A target code is a
    package id or, past the package ids, a name that is no package (see
    :class:`Dataset`), so ``row_targets`` is one lookup of the codes.

    :meth:`updates_during` reads the updates in a half-open span of
    microseconds, [start, end), so that consecutive spans tile without
    overlap. Every time is a whole microsecond, so a trailing window
    (start, end] that counts an update at its very end is the span
    [start + 1, end + 1).

    ``spans`` holds the :class:`_EdgeSpans` table that ``snapshot`` builds
    from these arrays on first use; ``None`` until then.

    A dataset read from the column file gets its index and table from the
    file (see :meth:`_stored`): read-only arrays of the mapped file, equal
    to the ones a build gives, so that no warm command sorts the timeline.
    """

    # The index's arrays, as the column file stores them.
    ARRAYS = (
        "packages", "releases", "entry_positions", "times_us", "offset_array",
        "row_entries", "row_targets", "update_times_us", "update_positions", "end_us",
    )

    @classmethod
    def _stored(cls, arrays: dict[str, np.ndarray], spans: "_EdgeSpans") -> "_DatasetIndex":
        """The index whose arrays are ``arrays``, one per name of
        ``ARRAYS``, with the edge-span table ``spans``."""
        idx = cls.__new__(cls)
        for name in cls.ARRAYS:
            setattr(idx, name, arrays[name])
        idx.spans = spans
        return idx

    def __init__(self, dataset: "Dataset"):
        n_releases = len(dataset.release_time)
        times_us, release_package = dataset.release_time, dataset.release_package
        self.packages = packages = release_package[_first_of_each_key(release_package)]
        unreleased = len(packages)
        # The position of every target code, so of every package id too:
        # ``unreleased`` for a package without releases and for a name that
        # is no package.
        place = np.full(len(dataset.dependency_target.table), unreleased, np.int64)
        place[packages] = np.arange(unreleased)
        position = place[release_package]

        # One stable sort orders the releases by (position, timestamp, row);
        # runs that tie on (position, timestamp) are then put in version order.
        self.releases = releases = np.lexsort((times_us, position))
        self.entry_positions = position = position[releases]
        self.times_us = times_us = times_us[releases]
        tied = np.equal(position[1:], position[:-1])
        tied &= np.equal(times_us[1:], times_us[:-1])
        # Where the tie flag turns on and off: pairs (lo, hi) such that the
        # entries lo..hi share their (position, timestamp).
        bounds = np.flatnonzero(np.diff(tied, prepend=False, append=False)).tolist()
        codes, table = dataset.release_version
        for lo, hi in zip(bounds[::2], bounds[1::2]):
            run = releases[lo : hi + 1].tolist()
            run.sort(key=lambda r: version_sort_key(table[codes[r]]))
            releases[lo : hi + 1] = run
        self.offset_array = offsets = np.zeros(unreleased + 1, np.int64)
        np.cumsum(np.bincount(position, minlength=unreleased), out=offsets[1:])

        entry_of = np.empty(n_releases, np.int32)
        entry_of[releases] = np.arange(n_releases, dtype=np.int32)
        row_entries = entry_of[dataset.dependency_source]
        del entry_of
        rows = np.argsort(row_entries, kind="stable")
        self.row_entries = row_entries[rows]
        del row_entries
        self.row_targets = place.astype(np.int32)[dataset.dependency_target.codes[rows]]
        del rows, place

        # The non-first entries, sorted stably by time.
        later = np.ones(n_releases, bool)
        later[offsets[:-1]] = False
        updates = np.flatnonzero(later)
        updates = updates[np.argsort(times_us[updates], kind="stable")]
        self.update_times_us = times_us[updates]
        self.update_positions = position[updates]

        # Each entry's interval end, made last: the row sort's temporaries
        # are freed by then, so it adds nothing to the peak of the build.
        self.end_us = end = np.empty_like(times_us)
        end[:-1] = times_us[1:]
        end[offsets[1:] - 1] = _OPEN
        self.spans = None

    def updates_during(self, start_us: int, end_us: int) -> tuple[np.ndarray, np.ndarray]:
        """The times and positions of the updates made in [start_us,
        end_us), microseconds since the epoch, in time order.

        Raises ``ValueError`` when start_us > end_us.
        """
        if start_us > end_us:
            raise ValueError("inverted window")
        lo, hi = np.searchsorted(self.update_times_us, (start_us, end_us))
        return self.update_times_us[lo:hi], self.update_positions[lo:hi]


class _EdgeSpans(NamedTuple):
    """Every edge of every snapshot of a dataset, with the span of time on
    which it is alive, and every dependency row that a snapshot drops, with
    the span on which it is dropped; ``snapshot._edge_spans`` builds it.

    Index entry j, a release of the package at position p made at t_j, is
    p's latest release on [t_j, end_j), ``end_j`` being the index's
    ``end_us``. Each distinct target q of that release that resolves and is
    not p gives the edge p -> q, alive on [max(t_j, first(q)), end_j),
    where first(q) is q's first release time: edge i is ``source[i] ->
    target[i]``, alive on [``start[i]``, ``end[i]``), in entry order and,
    within an entry, in declaration order. An edge whose span is empty has
    ``end[i] == start[i]``: no instant is in it, and a count of the bounds
    at or before an instant takes both of its bounds or neither. A row of
    entry j whose target q does not exist yet is dropped on
    [t_j, min(end_j, first(q))), first(q) being open for a target without
    release; ``drop_start`` and ``drop_end`` hold the bounds of the
    non-empty ones, each sorted. Times are int64 microseconds since the
    epoch; positions are int32.
    """

    source: np.ndarray
    target: np.ndarray
    start: np.ndarray
    end: np.ndarray
    drop_start: np.ndarray
    drop_end: np.ndarray


class RecordView(Sequence):
    """Records built from a Dataset's columns as they are read, a block of
    rows at a time; ``len`` reads the column's length. Equal to a list of
    the same records. ``columns(rows)`` gives the fields of the records of
    ``rows``, a slice or a sequence of row numbers, one list per field."""

    __slots__ = ("_n", "_record", "_columns")

    def __init__(self, n: int, record: type, columns: Callable[[object], tuple[list, ...]]):
        self._n = n
        self._record = record
        self._columns = columns

    def __len__(self) -> int:
        return self._n

    def take(self, rows) -> list:
        """The records of ``rows``, built in one pass over the columns."""
        return list(map(self._record, *self._columns(rows)))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(self._n)[i])
        return self.take([range(self._n)[i]])[0]

    def __iter__(self):
        for start in range(0, self._n, _BLOCK_ROWS):
            yield from self.take(slice(start, start + _BLOCK_ROWS))

    def __eq__(self, other):
        if isinstance(other, (list, RecordView)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


class PackageView(AbstractSet):
    """The package records of a Dataset, built as they are read; each one
    carries the dataset's ecosystem. Equal to a set of the same records."""

    __slots__ = ("_dataset",)

    def __init__(self, dataset: "Dataset"):
        self._dataset = dataset

    def __len__(self) -> int:
        return len(self._dataset.names)

    def __iter__(self):
        ecosystem = self._dataset.ecosystem
        return (PackageRecord(name, ecosystem) for name in self._dataset.names)

    def __contains__(self, record) -> bool:
        return (
            isinstance(record, PackageRecord)
            and record.ecosystem == self._dataset.ecosystem
            and record.name in self._dataset.package_ids
        )

    def __repr__(self) -> str:
        return repr(set(self))


class Coded(NamedTuple):
    """A string column as int64 codes into a table of distinct strings:
    row i holds ``table[codes[i]]``, so equal codes mean equal strings.
    The table may hold values that no row uses."""

    codes: np.ndarray
    table: list[str]

    def decode(self, rows=slice(None)) -> list[str]:
        """The strings of ``rows``, a slice or a sequence of row numbers."""
        return list(map(self.table.__getitem__, self.codes[rows].tolist()))

    def select(self, rows) -> "Coded":
        """The column of ``rows``, any numpy index of ``codes``."""
        return Coded(self.codes[rows], self.table)


class Dataset:
    """A validated collection of packages, releases, and dependencies.

    Each column has one form, an int64 array or a :class:`Coded` string
    column, which the cyclic garbage collector does not walk:

    * ``names`` is the package name table and ``package_ids`` maps a name
      to its package id, its place in ``names``;
    * release r has the package id ``release_package[r]``, the version in
      row r of ``release_version`` and the time ``release_time[r]`` in
      microseconds since the epoch;
    * dependency row i has its source release id ``dependency_source[i]``
      and, in row i of ``dependency_target``, ``dependency_constraint`` and
      ``dependency_kind``, its target package name, constraint and kind;
    * a target code below ``len(names)`` is that package id: the target
      table is ``names`` followed by the target names that are no
      package, in order of first appearance.

    Releases and dependency rows keep the order in which they were given.
    ``packages``, ``releases`` and ``dependencies`` are record views, built
    as a caller reads them; a ``ReleaseRecord`` carries a naive datetime.
    The constructor takes records and converts them once, with package ids
    in name order. It raises ``DatasetError`` for a package record of
    another ecosystem, a release of an unlisted package and a dependency of
    an unknown release. Kinds are lowercased, as :func:`parse_dataset`
    lowercases them. Releases may repeat a (package, version), which
    :func:`validate_dataset` reports; a dependency row then belongs to the
    first of them, and the later ones have none. Dependency records find
    their release through the integer join that :func:`parse_dataset`
    uses (:class:`_ReleaseJoin`), whose stable sort puts the first
    release of a repeated pair first.

    Immutable by convention after construction; the lazy index makes
    concurrent read access safe (rebuilding it is idempotent). A dataset
    that :func:`load_filtered` reads from the column file is immutable in
    fact: its arrays are read-only views of the mapped file, and its index
    and edge-span table come from the file with it.
    """

    __slots__ = (
        "names", "package_ids",
        "release_package", "release_version", "release_time",
        "dependency_source", "dependency_target", "dependency_constraint", "dependency_kind",
        "cutoff", "ecosystem", "filter_report", "_index",
    )

    def __init__(
        self,
        packages: Iterable[PackageRecord],
        releases: Iterable[ReleaseRecord],
        dependencies: Iterable[DependencyRecord],
        cutoff: datetime,
        ecosystem: str = "default",
        filter_report: Optional[FilterReport] = None,
    ):
        packages = set(packages)
        foreign = {p.ecosystem for p in packages} - {ecosystem}
        if foreign:
            raise DatasetError(
                f"package records of ecosystem(s) {sorted(foreign)} in a {ecosystem!r} dataset"
            )
        names = sorted({p.name for p in packages})
        package_ids = {name: pid for pid, name in enumerate(names)}
        releases = list(releases)
        try:
            release_package = np.array([package_ids[rel.package] for rel in releases], np.int64)
        except KeyError as exc:
            raise DatasetError(f"no package or release {exc}") from None
        coder = _Coder()
        coder.add([r.version for r in releases])
        versions = coder.column()
        join = _ReleaseJoin(package_ids, coder.code, release_package, versions.codes)
        dependencies = list(dependencies)
        sources, source_versions, targets, constraints, kinds = (
            [getattr(dep, field) for dep in dependencies] for field in (
                "source_package", "source_version", "target_package", "constraint", "kind")
        )
        source = join.find(sources, source_versions)
        if (source < 0).any():
            k = int(np.argmax(source < 0))
            raise DatasetError(f"no package or release {(sources[k], source_versions[k])!r}")
        kinds = _lowered(_encoded(kinds))
        self._set(
            names, package_ids,
            (release_package, versions, _micros([r.timestamp for r in releases])),
            (source, _encoded(targets, package_ids), _encoded(constraints), kinds),
            cutoff, ecosystem, filter_report,
        )

    @classmethod
    def _from_columns(
        cls, names, package_ids, releases, dependencies, cutoff, ecosystem, filter_report=None
    ) -> "Dataset":
        d = cls.__new__(cls)
        d._set(names, package_ids, releases, dependencies, cutoff, ecosystem, filter_report)
        return d

    def _set(self, names, package_ids, releases, dependencies, cutoff, ecosystem, filter_report):
        self.names = names
        self.package_ids = package_ids
        self.release_package, self.release_version, self.release_time = releases
        (
            self.dependency_source, self.dependency_target,
            self.dependency_constraint, self.dependency_kind,
        ) = dependencies
        self.cutoff = cutoff
        self.ecosystem = ecosystem
        self.filter_report = filter_report if filter_report is not None else FilterReport()
        self._index: Optional[_DatasetIndex] = None

    def index(self) -> _DatasetIndex:
        idx = self._index
        if idx is None:
            idx = _DatasetIndex(self)
            self._index = idx
        return idx

    @property
    def packages(self) -> PackageView:
        return PackageView(self)

    @property
    def releases(self) -> RecordView:
        return RecordView(len(self.release_package), ReleaseRecord, self._release_columns)

    @property
    def dependencies(self) -> RecordView:
        return RecordView(len(self.dependency_source), DependencyRecord, self._dependency_columns)

    def _package_names(self, rids) -> list[str]:
        """The package name of each release of ``rids``."""
        return list(map(self.names.__getitem__, self.release_package[rids].tolist()))

    def _release_columns(self, rids) -> tuple[list, list, list]:
        """The package names, versions and datetimes of the releases ``rids``."""
        return (
            self._package_names(rids),
            self.release_version.decode(rids),
            self.release_time[rids].astype("datetime64[us]").tolist(),
        )

    def _dependency_columns(self, rows) -> tuple[list, ...]:
        """The fields of the dependency records of ``rows``, a list each."""
        rids = self.dependency_source[rows]
        return (
            self._package_names(rids),
            self.release_version.decode(rids),
            self.dependency_target.decode(rows),
            self.dependency_constraint.decode(rows),
            self.dependency_kind.decode(rows),
        )

    @property
    def package_names(self) -> set[str]:
        return set(self.names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.cutoff == other.cutoff
            and self.ecosystem == other.ecosystem
            and self.packages == other.packages
            and self.releases == other.releases
            and self.dependencies == other.dependencies
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"Dataset(packages={self.packages!r}, releases={self.releases!r}, "
            f"dependencies={self.dependencies!r}, cutoff={self.cutoff!r}, "
            f"ecosystem={self.ecosystem!r})"
        )


# Rows that the csv.reader path reads, checks and converts at a time, a
# column at a time, and that a CSV write joins at a time. Larger blocks are
# slower: at 16,384 rows a block's row lists and strings outgrow the CPU
# caches, and the 100k-package fixture parsed in 2.0 s against 1.5 s (in
# process, 2-vCPU machine).
_BLOCK_ROWS = 4096
# Bytes of a CSV file that the parse reads at a time and splits without
# ``csv.reader`` when they are plain (see ``_plain_lines``), about 1,800
# dependency rows. A chunk and its text stay under glibc's 128 KiB mmap
# threshold: one 100k-package load peaked at 150.8 MiB with 64 KiB chunks,
# 156.7 with 256 KiB and 158.8 with 1 MiB, against 148.9 for csv.reader
# alone, at equal parse times (2-vCPU machine).
_CHUNK_BYTES = 1 << 16
# ``csv.reader`` keeps a NUL byte as data from Python 3.11 on and rejects
# its line before, so only from 3.11 on is text with NUL plain.
_NUL_IS_DATA = sys.version_info >= (3, 11)


def _plain_lines(data: bytes, width: int) -> int:
    """The number of lines of ``data`` when it is plain, else 0. Plain
    ``data`` is whole lines, each ended by a newline, that read as rows of
    ``width`` fields by cutting the text at every comma and newline: it
    holds no quote and no carriage return (nor NUL where ``csv.reader``
    rejects it, see ``_NUL_IS_DATA``), no line is empty or longer than
    ``csv.field_size_limit()``, and every line has exactly ``width - 1``
    commas. Such text is what ``csv.writer`` writes for its rows and what
    ``csv.reader`` reads from it, so ``write_csv`` writes it as one text
    and the parse splits it without ``csv.reader``."""
    if width < 1 or not data.endswith(b"\n") or b'"' in data or b"\r" in data:
        return 0
    if not _NUL_IS_DATA and b"\0" in data:
        return 0
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    # Each line's length with its newline.
    spans = np.diff(ends, prepend=-1)
    if spans.min() < 2 or spans.max() > csv.field_size_limit() + 1:
        return 0
    commas = np.flatnonzero(buf == ord(","))
    if len(commas) != len(ends) * (width - 1):
        return 0
    if width > 1:
        # With as many commas as the lines need, each line has its own when
        # the first and the last of each line's share fall inside it.
        commas = commas.reshape(-1, width - 1)
        if not ((commas[:, -1] < ends).all() and (commas[1:, 0] > ends[:-1]).all()):
            return 0
    return len(ends)


def _open(path: Path):
    """The CSV file at ``path`` opened for reading bytes."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise DatasetError(f"{path}: file not found") from None


def _not_utf8(path: Path) -> DatasetError:
    """The error for the text file at ``path``, which is not UTF-8: it names
    the physical line of the first byte that does not decode, found by a
    re-read that runs only on failure."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[:exc.start]
    line = 1 + data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
    return DatasetError(f"{path}, line {line}: not valid UTF-8")


def _is_utf8(text: str) -> bool:
    """Whether ``text``, decoded with ``errors="surrogateescape"``, came
    from UTF-8: a byte that is not UTF-8 decodes to a lone surrogate, which
    UTF-8 text never does. ASCII text is told apart in constant time."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _columns(path: Path, header: Optional[list[str]], required: list[str]):
    """The width of the ``header`` row of the CSV file at ``path`` and the
    places of the ``required`` columns in it."""
    if header is None:
        raise DatasetError(f"{path}: missing header row")
    missing = [col for col in required if col not in header]
    if missing:
        raise DatasetError(f"{path}: missing column(s) {', '.join(missing)}")
    return len(header), [header.index(col) for col in required]


def _chunk(handle) -> bytes:
    """The next bytes of ``handle``, up to ``_CHUNK_BYTES`` cut after their
    last newline, the handle moved back to the cut; empty at the end of the
    file and when no whole line fits. The last line of the file gets a newline if it has none (a
    short read is the end of the file)."""
    data = handle.read(_CHUNK_BYTES)
    if len(data) < _CHUNK_BYTES:
        return data if data.endswith(b"\n") or not data else data + b"\n"
    cut = data.rfind(b"\n") + 1
    handle.seek(cut - len(data), 1)
    return data[:cut]


def _plain_text(data: bytes, width: int) -> Optional[str]:
    """``data`` decoded when it is plain (see ``_plain_lines``) and UTF-8,
    else ``None``."""
    try:
        return data.decode("utf-8") if _plain_lines(data, width) else None
    except UnicodeDecodeError:
        return None


def _blocks(path: Path, required: list[str]):
    """The data rows of the CSV file at ``path`` in blocks, each as (number
    of rows before it, a list of values per ``required`` column). Blank
    lines are skipped.

    The file is read in chunks of whole lines. A chunk that is plain (see
    ``_plain_lines``) and UTF-8 is split at its commas and newlines, and a
    column is one stride slice. From the first chunk that is not, or from
    the start when the header line is not, one ``csv.reader`` reads the
    rest in blocks of ``_BLOCK_ROWS``, so a quoted field is never cut.

    A row that cannot be read ends the blocks: one whose field count
    differs from the header's, one that ``csv.reader`` rejects (a field
    longer than ``csv.field_size_limit()``) and one with bytes that are not
    UTF-8. The rows before it are given first, and its error is raised
    when the caller asks for the next block, so a fault that the caller
    finds in those rows comes first."""
    with _open(path) as handle:
        first = handle.readline()
        if not first.endswith(b"\n"):
            first += b"\n"
        # Rows read and lines past them; no line is read until the header is.
        start = lines = 0
        header = _plain_text(first, first.count(b",") + 1)
        if header is not None:
            width, columns = _columns(path, header[:-1].split(","), required)
            lines = 1
            at = handle.tell()
            while (text := _plain_text(_chunk(handle), width)) is not None:
                fields = text.replace("\n", ",").split(",")
                del fields[-1]  # the empty text after the last newline
                yield start, [fields[i::width] for i in columns]
                rows = len(fields) // width
                start += rows
                lines += rows
                at = handle.tell()
            handle.seek(at)
        else:
            handle.seek(0)
        with io.TextIOWrapper(
            handle, encoding="utf-8", errors="surrogateescape", newline=""
        ) as stream:
            reader = csv.reader(stream)

            def read(count: int) -> tuple[list[list[str]], Optional[DatasetError]]:
                """Up to ``count`` rows, cut before the first that cannot be
                read, and the error of that one."""
                rows: list[list[str]] = []
                error = None
                try:
                    rows.extend(islice(reader, count))
                except csv.Error as exc:
                    error = DatasetError(f"{path}, line {lines + reader.line_num}: {exc}")
                if not _is_utf8("".join(chain.from_iterable(rows))):
                    cut = next(k for k, row in enumerate(rows) if not _is_utf8("".join(row)))
                    return rows[:cut], _not_utf8(path)
                return rows, error

            if not lines:
                rows, error = read(1)
                if error is not None:
                    raise error
                width, columns = _columns(path, (rows or [None])[0], required)
            while True:
                block, error = read(_BLOCK_ROWS)
                end = error is not None or len(block) < _BLOCK_ROWS
                if set(map(len, block)) != {width}:
                    block = [row for row in block if row]
                    cut = next((k for k, row in enumerate(block) if len(row) != width), None)
                    if cut is not None:
                        message = f"{len(block[cut])} fields, the header has {width}"
                        error = _fault(path, [(start + cut, 0, message)])
                        block, end = block[:cut], True
                if block:
                    values = list(zip(*block))
                    yield start, [values[i] for i in columns]
                    start += len(block)
                if error is not None:
                    raise error
                if end:
                    return


def _fault(path: Path, faults: list[tuple]) -> DatasetError:
    """The error for the first of ``faults`` found in the CSV file at
    ``path``, each (row, rule, text) or (row, rule, text, earlier row)
    for a row that repeats an earlier one. Rows count data rows from 0,
    blank lines skipped; the earliest row wins, and the lowest rule among
    the faults of one row. A re-read with ``csv.reader`` gives the physical
    lines; it runs only on failure, and reads bytes that are not UTF-8
    past the fault as replacement characters. A row that ``csv.reader``
    rejects before the fault fails with its own line, as in ``_blocks``."""
    row, _, text, *earlier = min(faults)
    with _open(path) as handle, io.TextIOWrapper(
        handle, encoding="utf-8", errors="replace", newline=""
    ) as stream:
        reader = csv.reader(stream)
        try:
            next(reader)  # the header
            lines = [reader.line_num for _ in islice(filter(None, reader), row + 1)]
        except csv.Error as exc:
            raise DatasetError(f"{path}, line {reader.line_num}: {exc}") from None
    if not earlier:
        return DatasetError(f"{path}, line {lines[row]}: {text}")
    return DatasetError(f"{path}: {text} (lines {lines[earlier[0]]} and {lines[row]})")


def _timestamps(values: Sequence[str]) -> tuple[list[datetime], Optional[int]]:
    """``values`` parsed by ``parse_timestamp``, up to the first that it
    cannot parse, and the place of that one (``None`` when all parse).
    Naive ISO-8601 text goes through ``datetime.fromisoformat`` in one
    ``map``; a block with padding, a zone suffix or an offset falls back
    to ``parse_timestamp`` a value at a time."""
    try:
        times = list(map(datetime.fromisoformat, values))
        if set(map(attrgetter("tzinfo"), times)) <= {None}:
            return times, None
    except ValueError:
        pass
    times = []
    for k, value in enumerate(values):
        try:
            times.append(parse_timestamp(value))
        except ValueError:
            return times, k
    return times, None


def write_csv(handle, header: list[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a header and rows of strings as CSV that reads back field for
    field. ``csv.writer`` quotes a field holding a newline but not one
    holding a bare carriage return, where ``csv.reader`` would split the
    row, so a row with a carriage return is written with every field quoted.

    Rows go out ``_BLOCK_ROWS`` at a time. A block of rows of one width
    whose joined text is plain (see ``_plain_lines``) is written as that one
    text, each row its fields joined by commas, the text ``csv.writer``
    gives; any other block is written by ``csv.writer`` a row at a time.
    """
    plain = csv.writer(handle, lineterminator="\n")
    quoted = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(header)
    rows = iter(rows)
    while block := list(islice(rows, _BLOCK_ROWS)):
        lines = list(map(",".join, block))
        text = "\n".join(lines) + "\n"
        widths = set(map(len, block))
        data = text.encode("utf-8", "surrogatepass")
        if len(widths) == 1 and _plain_lines(data, widths.pop()) == len(block):
            handle.write(text)
        else:
            for row, line in zip(block, lines):
                (quoted if "\r" in line else plain).writerow(row)


def parse_dataset(
    packages_path, releases_path, dependencies_path,
    cutoff: Optional[datetime],
    ecosystem: str = "default",
) -> Dataset:
    """Load the three CSV files into an unfiltered Dataset.

    ``cutoff`` marks the end of the observation window (the censoring
    boundary) and must be at or after the last release; pass ``None`` to
    use the maximum release timestamp. No filtering is applied here; the
    filter report starts at all zeros.

    Each file is read in blocks of rows, and each block is checked and
    converted a column at a time. A malformed row fails with its file and
    line: of the faults in a file, the one on the earliest row, and of the
    faults on one row, the first in the order the checks are listed in.
    Package ids follow the order of the package rows. The string columns
    are coded as they are read, each table in order of first appearance.

    A dependency row finds its source release by integer keys, not by a
    dict of string pairs: each release's key is its package id times the
    number of distinct versions plus its version's code, and one stable
    sort of the keys, made after the last release row, is both the lookup
    array and the check for a repeated release. A block of dependency rows
    takes its package ids and version codes from the two tables and its
    release ids from one ``np.searchsorted`` (see :class:`_ReleaseJoin`).
    """
    packages_path = Path(packages_path)
    releases_path = Path(releases_path)
    dependencies_path = Path(dependencies_path)
    names, package_ids = _parse_packages(packages_path)
    releases, join = _parse_releases(releases_path, names, package_ids)
    cutoff = _checked_cutoff(cutoff, _last_time(releases[2]), releases_path)
    dependencies = _parse_dependencies(dependencies_path, join, package_ids)
    del join
    return Dataset._from_columns(names, package_ids, releases, dependencies, cutoff, ecosystem)


def _parse_packages(path: Path) -> tuple[list[str], dict[str, int]]:
    """The names of the package rows and the id of each; checks: an empty
    name, a repeated name. Names are coded as they are read, so a row whose
    code is not its own row number repeats the row that its code names."""
    names = _Coder()
    for start, (block,) in _blocks(path, ["name"]):
        names.add(block)
        faults = []
        if "" in block:
            faults.append((start + block.index(""), 0, "empty value in column 'name'"))
        if len(names.code) != start + len(block):
            row = next(row for row, code in enumerate(names.codes[start:], start) if code != row)
            faults.append((row, 1, f"duplicate package '{block[row - start]}'", names.codes[row]))
        if faults:
            raise _fault(path, faults)
    return list(names.code), names.code


def _parse_releases(path: Path, names: list[str], package_ids: dict[str, int]):
    """The release columns (package id, coded version, time) and their
    join; checks: an unknown package, an empty version, an unparseable
    timestamp, a repeated (package, version).

    A repeat is looked for once, in the join of the rows read. That join is
    made after the last row, and also when a row fails another check or
    cannot be read, of the rows before it, so that the earliest row wins."""
    release_package = [np.empty(0, np.int64)]
    release_time = [np.empty(0, np.int64)]
    versions = _Coder()

    def joined() -> _ReleaseJoin:
        """The join of the rows so far; raises the fault of their first
        repeated release."""
        package, version = np.concatenate(release_package), np.array(versions.codes, np.int64)
        join = _ReleaseJoin(package_ids, versions.code, package, version)
        repeat = join.repeat()
        if repeat is not None:
            earlier, row = repeat
            text = f"duplicate release {names[package[row]]} {list(versions.code)[version[row]]}"
            raise _fault(path, [(row, 3, text, earlier)]) from None
        return join

    required = ["package", "version", "timestamp"]
    try:
        for start, (packages, block, stamps) in _blocks(path, required):
            pids = _ids(package_ids, packages)
            times, bad = _timestamps(stamps)
            faults = []
            unknown = np.flatnonzero(pids < 0)
            if len(unknown):
                k = int(unknown[0])
                faults.append((start + k, 0, f"release of unknown package '{packages[k]}'"))
            if "" in block:
                faults.append((start + block.index(""), 1, "empty value in column 'version'"))
            if bad is not None:
                text = f"column 'timestamp' has unparseable value {stamps[bad]!r}"
                faults.append((start + bad, 2, text))
            if faults:
                # The rows before the first fault pass every check but the last.
                k = min(faults)[0] - start
                release_package.append(pids[:k])
                versions.add(block[:k])
                raise _fault(path, faults)
            release_package.append(pids)
            versions.add(block)
            release_time.append(_micros(times))
    except DatasetError:
        joined()
        raise
    join = joined()
    columns = (np.concatenate(release_package), versions.column(), np.concatenate(release_time))
    return columns, join


def _parse_dependencies(path: Path, join: _ReleaseJoin, package_ids: dict[str, int]):
    """The dependency columns (source release id, and the coded target,
    constraint and kind); checks: an unknown source release, an empty
    target. Sources are found through ``join``. Targets are coded by
    package id, and past the ids in order of first appearance. Kinds are
    lowercased (see ``_lowered``)."""
    source = [np.empty(0, np.int64)]
    targets, constraints, kinds = _Coder(package_ids), _Coder(), _Coder()
    required = ["source_package", "source_version", "target_package", "constraint", "kind"]
    for start, (packages, versions, target, constraint, kind) in _blocks(path, required):
        rids = join.find(packages, versions)
        faults = []
        unknown = np.flatnonzero(rids < 0)
        if len(unknown):
            k = int(unknown[0])
            text = f"dependency of unknown release {packages[k]} {versions[k]}"
            faults.append((start + k, 0, text))
        if "" in target:
            faults.append((start + target.index(""), 1, "empty value in column 'target_package'"))
        if faults:
            raise _fault(path, faults)
        source.append(rids)
        targets.add(target)
        constraints.add(constraint)
        kinds.add(kind)
    return np.concatenate(source), targets.column(), constraints.column(), _lowered(kinds.column())


def _lowered(kinds: Coded) -> Coded:
    """The coded kind column ``kinds`` lowercased, as both constructors of
    a Dataset store it: its table is lowercased and coded again, so each
    distinct value is lowercased once."""
    lowered = _Coder()
    lowered.add([value.lower() for value in kinds.table])
    return lowered.column().select(kinds.codes)


def _ids(codes: dict[str, int], values: Sequence[str]) -> np.ndarray:
    """The code of each of ``values`` in ``codes`` as int64, -1 for a value
    that has none."""
    return np.fromiter(map(codes.get, values, repeat(-1)), np.int64, len(values))


class _ReleaseJoin:
    """The release id of a (package, version) pair, found by integer keys.

    Release r's key is ``package * width + version``: its package id, its
    version's code in ``version_codes`` and ``width``, the number of those
    codes, so that two releases share a key exactly when they share their
    pair. ``keys`` holds the keys sorted, stably, and ``rids`` the release
    id of each, so the first release of a repeated pair comes first."""

    __slots__ = ("package_ids", "version_codes", "keys", "rids")

    def __init__(
        self, package_ids: dict[str, int], version_codes: dict[str, int],
        release_package: np.ndarray, release_version: np.ndarray,
    ):
        self.package_ids = package_ids
        self.version_codes = version_codes
        keys = release_package * len(version_codes) + release_version
        self.rids = np.argsort(keys, kind="stable")
        self.keys = keys[self.rids]

    def repeat(self) -> Optional[tuple[int, int]]:
        """(earlier, row): ``row`` is the first release, in release order,
        whose pair an earlier release has, and ``earlier`` the first
        release of that pair; ``None`` when no pair repeats."""
        later = np.flatnonzero(self.keys[1:] == self.keys[:-1]) + 1
        if not len(later):
            return None
        at = later[np.argmin(self.rids[later])]
        return int(self.rids[np.searchsorted(self.keys, self.keys[at])]), int(self.rids[at])

    def find(self, packages: Sequence[str], versions: Sequence[str]) -> np.ndarray:
        """The release id of each pair (``packages[i]``, ``versions[i]``), of
        the first release of a repeated pair, and -1 for a pair that no
        release has, as int64."""
        package = _ids(self.package_ids, packages)
        version = _ids(self.version_codes, versions)
        keys = package * len(self.version_codes) + version
        keys[(package < 0) | (version < 0)] = -1
        if not len(self.keys):
            return np.full(len(keys), -1, np.int64)
        at = np.searchsorted(self.keys, keys)
        at[at == len(self.keys)] = 0
        rids = self.rids[at]
        rids[self.keys[at] != keys] = -1
        return rids


class _Coder:
    """Codes a string column as it is read, a block of values at a time:
    each value gets the next free code when it first appears. ``known``
    gives the first codes, 0 to len(known) - 1, as a table does."""

    __slots__ = ("code", "codes")

    def __init__(self, known: dict[str, int] = {}):
        self.code: dict[str, int] = dict(known)
        self.codes: list[int] = []

    def add(self, values: Sequence[str]) -> None:
        code = self.code
        # A block of one value, as a kind or constraint column often is,
        # takes that value's code once; ``count`` compares in C, and a
        # block whose ends differ is not counted at all.
        if values and values[-1] == values[0] and values.count(values[0]) == len(values):
            self.codes += repeat(code.setdefault(values[0], len(code)), len(values))
            return
        # One hash lookup per value: ``map`` takes the table's size just
        # before each ``setdefault``, which is the next free code.
        self.codes += map(code.setdefault, values, map(len, repeat(code)))

    def column(self) -> Coded:
        """The codes as an int64 array, with the table. The coder lets go
        of its list of codes, so that a parse making several columns does
        not hold each list beside its array until it returns."""
        codes, self.codes = self.codes, []
        return Coded(np.array(codes, np.int64), list(self.code))


def _checked_cutoff(
    cutoff: Optional[datetime], last_release: Optional[datetime], releases_path
) -> datetime:
    """``cutoff``, or the last release timestamp when it is ``None``. Raises
    ``DatasetError`` for a cutoff before the last release, and for no cutoff
    on a dataset without releases."""
    if cutoff is None:
        if last_release is None:
            raise DatasetError(f"{releases_path}: empty dataset requires an explicit cutoff")
        return last_release
    if last_release is not None and last_release > cutoff:
        raise DatasetError(
            f"{releases_path}: release timestamp {last_release.isoformat()} "
            f"is after the cutoff {cutoff.isoformat()}"
        )
    return cutoff


def load_dataset_dir(
    directory, cutoff: Optional[datetime] = None, ecosystem: Optional[str] = None
) -> Dataset:
    """Parse ``packages.csv``, ``releases.csv``, ``dependencies.csv`` from a directory.

    An explicit ``cutoff`` or ``ecosystem`` wins. Otherwise each comes from
    ``manifest.json`` (as :func:`depnet.fixtures.write_dataset` writes it)
    when that file records it; failing that, the cutoff is the last release
    timestamp and the ecosystem is the directory name.
    """
    directory = Path(directory)
    cutoff, ecosystem = _dataset_settings(directory, cutoff, ecosystem)
    return parse_dataset(
        directory / "packages.csv",
        directory / "releases.csv",
        directory / "dependencies.csv",
        cutoff,
        ecosystem=ecosystem,
    )


def _dataset_settings(
    directory: Path, cutoff: Optional[datetime], ecosystem: Optional[str]
) -> tuple[Optional[datetime], str]:
    """The cutoff (``None`` for the last release) and the ecosystem of the
    dataset in ``directory``, resolved as :func:`load_dataset_dir` describes."""
    manifest_cutoff, manifest_ecosystem = _read_manifest(directory / "manifest.json")
    return (
        cutoff or manifest_cutoff,
        ecosystem or manifest_ecosystem or directory.name or "default",
    )


def _read_manifest(path: Path) -> tuple[Optional[datetime], Optional[str]]:
    """The cutoff and the ecosystem that ``manifest.json`` records, each
    ``None`` when absent; both ``None`` when there is no such file."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None, None
    except UnicodeDecodeError:
        raise DatasetError(f"{path}: not valid UTF-8") from None
    try:
        manifest = json.loads(text)
    except (ValueError, RecursionError):  # RecursionError: nesting too deep to decode
        raise DatasetError(f"{path}: not valid JSON") from None
    if not isinstance(manifest, dict):
        raise DatasetError(f"{path}: not a JSON object")
    raw, ecosystem = manifest.get("cutoff"), manifest.get("ecosystem")
    for key, value in (("cutoff", raw), ("ecosystem", ecosystem)):
        if value is not None and not isinstance(value, str):
            raise DatasetError(f"{path}: {key} is not a string: {value!r}")
    try:
        return None if raw is None else parse_timestamp(raw), ecosystem
    except ValueError as exc:
        raise DatasetError(f"{path}: unreadable cutoff: {exc}") from None


def load_exclusions(path) -> set[str]:
    """Read an exclusion list: one package name per line, blanks ignored."""
    names = set()
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                name = line.strip()
                if name:
                    names.add(name)
    except UnicodeDecodeError:
        raise _not_utf8(Path(path)) from None
    return names


def filter_dependencies(
    d: Dataset,
    included_kinds: Iterable[str] = DEFAULT_INCLUDED_KINDS,
    excluded_packages: Iterable[str] = (),
) -> Dataset:
    """Apply the dependency-kind, noise-package, and resolvability filters.

    The releases and package records of ``excluded_packages`` are removed.
    Each dependency row is then dropped by the first of these rules it
    breaks, and kept otherwise:

    1. its kind is not in ``included_kinds``;
    2. its source is an excluded package;
    3. its target package does not exist in the filtered dataset, also
       reported as a fraction of the pre-filter dependency rows;
    4. an earlier kept row has the same (source release, target, kind).

    A row whose target is an excluded package therefore counts as
    unresolved, not excluded: the filter removes noise packages as if
    the registry never had them. Filtering is total and idempotent.

    The rules are numpy masks over the rows' source releases, kind codes
    and target codes: a target resolves when its code is the id of a
    package that is kept. When no package is excluded, the filtered
    dataset shares the package table and the release columns with ``d``.
    Its target table is its package table, and every target code is the
    target's package id.
    """
    include = _included_kinds(included_kinds)
    excluded = set(excluded_packages)
    source = d.dependency_source
    if excluded.isdisjoint(d.package_ids):
        names, package_ids = d.names, d.package_ids
        new_pid = np.arange(len(names))
        releases = (d.release_package, d.release_version, d.release_time)
        report = FilterReport()
    else:
        names = [name for name in d.names if name not in excluded]
        package_ids = {name: pid for pid, name in enumerate(names)}
        # The new id of each old package id, -1 for an excluded package.
        new_pid = np.fromiter(map(package_ids.get, d.names, repeat(-1)), np.int64, len(d.names))
        release_package = new_pid[d.release_package]
        kept = release_package >= 0
        releases = (release_package[kept], d.release_version.select(kept), d.release_time[kept])
        # The new id of each old release id, -1 for a release of an
        # excluded package.
        release_map = np.full(len(kept), -1, np.int64)
        release_map[kept] = np.arange(len(releases[0]))
        source = release_map[source]
        report = FilterReport(
            excluded_packages_dropped=len(d.names) - len(names),
            excluded_releases_dropped=len(kept) - len(releases[0]),
        )

    kind, kind_table = d.dependency_kind
    codes, table = d.dependency_target
    # The new id of each target code; -1 past the package ids.
    resolved = np.full(len(table), -1, np.int64)
    resolved[: len(new_pid)] = new_pid
    target = resolved[codes]
    # The rows left after each of rules 1 to 3, which count what each drops.
    keep = np.array([k in include for k in kind_table], bool)[kind]
    left = [len(keep), int(keep.sum())]
    keep &= source >= 0
    left.append(int(keep.sum()))
    keep &= target >= 0
    left.append(int(keep.sum()))
    report.kind_dropped, report.excluded_deps_dropped, report.unresolved_deps_dropped = (
        before - after for before, after in zip(left, left[1:])
    )
    if len(keep):
        report.unresolved_fraction = report.unresolved_deps_dropped / len(keep)
    rows = np.flatnonzero(keep)
    first = _first_of_each_key(source[rows], target[rows], kind[rows])
    report.duplicate_deps_dropped = len(first) - int(first.sum())
    keep[rows[~first]] = False
    del rows, first
    return Dataset._from_columns(
        names, package_ids, releases,
        (
            source[keep],
            Coded(target[keep], names),
            d.dependency_constraint.select(keep),
            d.dependency_kind.select(keep),
        ),
        d.cutoff, d.ecosystem, report,
    )


def _included_kinds(kinds: Iterable[str]) -> frozenset[str]:
    """The dependency kinds that a filter by ``kinds`` keeps: each one
    stripped and lowercased, as the parse lowercases the kind column."""
    return frozenset(k.strip().lower() for k in kinds)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """For each value of the sorted array ``ordered``, whether it starts a
    run of equal values: the first value, and each one unequal to the value
    before it (a neighbour mask)."""
    starts = np.empty(len(ordered), bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def _first_of_each_key(*columns: np.ndarray) -> np.ndarray:
    """For each row, whether no earlier row has its values in all
    ``columns``, integer arrays of one length.

    Each column, offset by its minimum, is one digit of a mixed-radix int64
    key, the first column the most significant; one stable sort of the keys
    puts every repeat after the row it repeats, so the first row of each
    run of equal keys is kept. The key is exact while the product of the
    columns' ranges (max - min + 1) is below 2**63, and ``ValueError`` is
    raised past that. The peak is three int64 arrays of the rows' length:
    the keys, their order and the sorted keys, which replace the unsorted
    ones before the mask is made. (``np.lexsort`` over the columns finds
    the same rows, several times slower; ``np.unique`` copies the keys.)
    """
    if not len(columns[0]):
        return np.zeros(0, bool)
    lows = [int(column.min()) for column in columns]
    ranges = [int(column.max()) - low + 1 for column, low in zip(columns, lows)]
    if math.prod(ranges) >= 1 << 63:
        raise ValueError(f"key ranges {ranges} overflow an int64 key")
    key = columns[0].astype(np.int64)
    key -= lows[0]
    for column, low, size in zip(columns[1:], lows[1:], ranges[1:]):
        # A partial sum may wrap around int64; the sums are exact modulo
        # 2**64, and every finished key lies in [0, 2**63).
        key *= size
        key += column
        key -= low
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = _run_starts(key)
    del key
    first = np.zeros(len(order), bool)
    first[order[starts]] = True
    return first


_DATASET_FILES = ("packages.csv", "releases.csv", "dependencies.csv")


def _dataset_digest(directory: Path) -> tuple[str, list[Optional[int]]]:
    """The SHA-256 of the dataset's CSV files read one after another, and
    the size of each, ``None`` for one that cannot be read (which adds no
    bytes, and is left for the parse to report). Files are read in small
    blocks: freeing one large read raises glibc's mmap threshold, and a
    parse that follows then peaks about 20 MiB higher on the 100k-package
    fixture."""
    digest = hashlib.sha256()
    sizes: list[Optional[int]] = []
    block = bytearray(1 << 16)
    for name in _DATASET_FILES:
        size = 0
        try:
            with open(directory / name, "rb") as handle:
                while n := handle.readinto(block):
                    digest.update(memoryview(block)[:n])
                    size += n
        except OSError:
            size = None
        sizes.append(size)
    return digest.hexdigest(), sizes


# The column file holds a filtered Dataset's columns beside its CSVs, with
# its index and edge-span table; :func:`load_filtered` reads it in place of
# a parse, a filter and the index and span builds, and writes it after
# them. It is laid out as an uncompressed ``np.savez`` archive of plain
# 1-D arrays, so ``np.load(..., allow_pickle=False)`` reads it too. Each
# member's local header is padded so that its ``.npy`` payload starts at a
# multiple of ``_ALIGN`` bytes, and a read maps the file once and views
# each payload in place (see ``_mapped_members``), so loading it runs no
# code and copies no column. Each column is stored in its in-memory form:
# ids and release times as int64, each string column as its int64 codes
# and its table, one UTF-8 blob with int64 offsets into the decoded text
# (package names are coded by their ids). The target column is stored as
# its codes alone, read back as package ids: every target of a filtered
# dataset is a package. A table that repeats a value is refused, so that
# equal codes mean equal strings. The index arrays are the members
# ``index_<name>`` and the span table's ``spans_<field>``. The ``meta``
# member is JSON: the key, the filter report and the raw dataset's last
# release timestamp, which the cutoff rule needs. The cutoff and the
# ecosystem are not stored.
COLUMN_FILE = ".depnet-columns.npz"
_COLUMN_FORMAT = 5
_ALIGN = 64
# The extra field that pads a member's local header: the ID that Android's
# zipalign gives its alignment padding, and the field's own 4-byte header.
_PAD_ID = 0xD935
# A member's local header: its signature, and past 22 bytes, the lengths
# of its name and of its extra field; the name and that field follow it.
_LOCAL_HEADER = struct.Struct("<4s22xHH")
# The ZIP64 extra field that ``force_zip64`` adds to a local header.
_ZIP64_EXTRA = 20
_STRING_COLUMNS = ("names", "release_version", "dependency_constraint", "dependency_kind")
_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)
_DAY_US = 86_400_000_000  # microseconds in a day
# Stored release times lie in this range, which datetime can hold.
_TIME_RANGE = (
    (datetime.min - _EPOCH) // _MICROSECOND,
    (datetime.max - _EPOCH) // _MICROSECOND + 1,
)


def _micros(times: Sequence[datetime]) -> np.ndarray:
    """Datetimes as int64 microseconds since the epoch."""
    return np.fromiter(((t - _EPOCH) // _MICROSECOND for t in times), np.int64, len(times))


def _last_time(times_us: np.ndarray) -> Optional[datetime]:
    """The latest of ``times_us`` as a datetime; ``None`` when empty."""
    return _EPOCH + int(times_us.max()) * _MICROSECOND if len(times_us) else None


def _month_indices(times_us: np.ndarray) -> np.ndarray:
    """The calendar month of each time in int64 microseconds since the
    epoch, numbered as ``timeutil.month_index`` numbers it."""
    months = times_us.astype("datetime64[us]").astype("datetime64[M]").astype(np.int64)
    months += 1970 * 12
    return months


def _encoded(values: Sequence[str], known: dict[str, int] = {}) -> Coded:
    """``values`` coded into the table of the ``known`` codes followed by
    their other distinct values, in order of first appearance."""
    coder = _Coder(known)
    coder.add(values)
    return coder.column()


# Reading a column file that is damaged, truncated or not a column file at
# all fails with one of these, and the caller parses the CSVs instead.
_UNUSABLE = (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile, EOFError,
             NotImplementedError, struct.error, RecursionError)


def _column_key(directory: Path, kinds: AbstractSet[str], excluded: AbstractSet[str]) -> str:
    """The key of the column file for the CSVs in ``directory`` filtered by
    ``kinds`` and ``excluded``: the SHA-256 of the format version, the
    digest and the sizes of the CSVs (so that moving bytes from one file to
    the next changes it), the kinds and the excluded names."""
    digest, sizes = _dataset_digest(directory)
    record = [_COLUMN_FORMAT, digest, sizes, sorted(kinds), sorted(excluded)]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def _write_columns(
    directory: Path, key: str, d: Dataset, last_release: Optional[datetime]
) -> None:
    """Store the columns of ``d``, its index and its edge-span table in the
    column file of ``directory`` under ``key``; the index and the table are
    built first when ``d`` has none, and kept by ``d``. The file is written
    under a temporary name and then moved into place; a write that fails
    leaves no file behind and raises nothing, and one that is interrupted
    removes its temporary file and re-raises. Members are made and written
    one at a time, each array straight from its own buffer, so that at
    most one string column's table and offsets exist at once."""
    from .snapshot import _edge_spans  # snapshot imports this module

    spans = _edge_spans(d)
    meta = {
        "key": key,
        "filter_report": asdict(d.filter_report),
        "last_release": None if last_release is None else last_release.isoformat(),
    }
    tmp = directory / f"{COLUMN_FILE}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as handle, zipfile.ZipFile(handle, "w") as archive:
            for name, array in _column_arrays(d, spans, meta):
                info = _aligned_member(name + ".npy", handle.tell())
                with archive.open(info, "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, array, allow_pickle=False)
        os.replace(tmp, directory / COLUMN_FILE)
    except (OSError, ValueError):
        pass
    finally:
        with suppress(OSError):
            os.unlink(tmp)  # gone after the replace


def _aligned_member(name: str, offset: int) -> zipfile.ZipInfo:
    """A stored member ``name`` whose local header starts at ``offset``,
    its extra field padded so that its data starts at a multiple of
    ``_ALIGN``. ``np.lib.format`` pads an array's header to a multiple of
    64 bytes, so the array's payload starts at one too."""
    info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
    end = offset + _LOCAL_HEADER.size + len(name.encode()) + 4 + _ZIP64_EXTRA
    pad = -end % _ALIGN
    info.extra = struct.pack("<HH", _PAD_ID, pad) + bytes(pad)
    return info


def _column_arrays(d: Dataset, spans: _EdgeSpans, meta: dict):
    """(member name, array) of each member of the column file of ``d``,
    whose edge-span table is ``spans``."""
    yield "meta", np.frombuffer(json.dumps(meta).encode(), np.uint8)
    for name in _STRING_COLUMNS:
        if name == "names":
            codes, table = np.arange(len(d.names), dtype=np.int64), d.names
        else:
            codes, table = getattr(d, name)
        yield name + "_codes", codes
        yield name, np.frombuffer("".join(table).encode("utf-8"), np.uint8)
        offsets = np.zeros(len(table) + 1, np.int64)
        np.cumsum(np.fromiter(map(len, table), np.int64, len(table)), out=offsets[1:])
        yield name + "_offsets", offsets
    yield "release_package", d.release_package
    yield "dependency_source", d.dependency_source
    yield "dependency_target", d.dependency_target.codes
    yield "release_time", d.release_time
    idx = d.index()
    for name in _DatasetIndex.ARRAYS:
        yield "index_" + name, getattr(idx, name)
    for name, array in zip(_EdgeSpans._fields, spans):
        yield "spans_" + name, array


@contextmanager
def _mapped_members(path: Path) -> Iterator[dict[str, np.ndarray]]:
    """Each member of the column file at ``path``, by its name without
    ``.npy``, as a read-only array over the file mapped into memory once.

    Raises one of ``_UNUSABLE`` for a file that is no zip archive and for a
    member that is compressed or encrypted, whose bytes do not match their
    CRC-32, or that is not one plain 1-D array of the ``.npy`` format 1.0:
    its header is read with ``np.lib.format``, and one that asks for Python
    objects is refused, so that reading it runs no code.

    On exit the mapped pages leave the process's resident set (where the
    platform has ``MADV_DONTNEED``). They stay in the page cache, and an
    array read later maps its pages again: the CRC and the checks of a
    read touch every page, and a command reads a few arrays again."""
    with open(path, "rb") as handle:
        with zipfile.ZipFile(handle) as archive:
            infos = archive.infolist()
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        yield _member_arrays(mapped, infos)
    finally:
        if hasattr(mmap, "MADV_DONTNEED"):
            mapped.madvise(mmap.MADV_DONTNEED)


def _member_arrays(mapped: mmap.mmap, infos: list[zipfile.ZipInfo]) -> dict[str, np.ndarray]:
    """The arrays of the members ``infos`` of the mapped column file
    ``mapped``, checked as :func:`_mapped_members` describes."""
    members = {}
    for info in infos:
        signature, name_length, extra_length = _LOCAL_HEADER.unpack_from(mapped, info.header_offset)
        start = info.header_offset + _LOCAL_HEADER.size + name_length + extra_length
        end = start + info.file_size
        if (
            signature != b"PK\x03\x04" or info.compress_type != zipfile.ZIP_STORED
            or info.flag_bits & 1 or end > len(mapped) or not info.filename.endswith(".npy")
        ):
            raise ValueError(f"{info.filename}: not a stored .npy member")
        with memoryview(mapped) as data:
            if zlib.crc32(data[start:end]) != info.CRC:
                raise ValueError(f"{info.filename}: CRC-32 mismatch")
        mapped.seek(start)
        if np.lib.format.read_magic(mapped) != (1, 0):
            raise ValueError(f"{info.filename}: not .npy format 1.0")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(mapped)
        if (
            len(shape) != 1 or fortran_order or dtype.hasobject
            or mapped.tell() + shape[0] * dtype.itemsize != end
        ):
            raise ValueError(f"{info.filename}: not a plain 1-D array")
        members[info.filename[:-4]] = np.frombuffer(mapped, dtype, shape[0], mapped.tell())
    return members


def _read_columns(
    directory: Path, key: str, cutoff: Optional[datetime], ecosystem: Optional[str]
) -> Optional[Dataset]:
    """The Dataset stored by :func:`_write_columns` in the column file of
    ``directory`` under ``key``, with its index and edge-span table, and
    with its cutoff and ecosystem resolved as :func:`load_dataset_dir`
    resolves them, and the same ``DatasetError`` for a cutoff before the
    last release. ``None`` when the file is missing or unreadable, holds
    another key, or fails a check of its lengths and value ranges: a target
    that is no package is out of range."""
    cutoff, ecosystem = _dataset_settings(directory, cutoff, ecosystem)
    try:
        with _mapped_members(directory / COLUMN_FILE) as archive:
            meta = json.loads(archive["meta"].tobytes())
            if meta["key"] != key:
                return None
            names = _stored_coded(archive, "names").decode()
            versions, constraints, kinds = (
                _stored_coded(archive, name)
                for name in ("release_version", "dependency_constraint", "dependency_kind")
            )
            targets = Coded(_in_range(archive["dependency_target"], 0, len(names)), names)
            release_package = _in_range(archive["release_package"], 0, len(names))
            source = _in_range(archive["dependency_source"], 0, len(release_package))
            times = _in_range(archive["release_time"], *_TIME_RANGE)
            index = _stored_index(archive, len(names), len(release_package), len(source))
        report = FilterReport(**meta["filter_report"])
        last_release = meta["last_release"]
        if last_release is not None:
            last_release = datetime.fromisoformat(last_release)
        package_ids = {name: pid for pid, name in enumerate(names)}
        if not (
            len(package_ids) == len(names)
            and len(release_package) == len(versions.codes) == len(times)
            and len(source) == len(targets.codes) == len(constraints.codes) == len(kinds.codes)
        ):
            return None
    except _UNUSABLE:
        return None
    d = Dataset._from_columns(
        names, package_ids,
        (release_package, versions, times),
        (source, targets, constraints, kinds),
        _checked_cutoff(cutoff, last_release, directory / "releases.csv"),
        ecosystem, report,
    )
    d._index = index
    return d


def _stored_index(archive, n_names: int, n_releases: int, n_rows: int) -> _DatasetIndex:
    """The index and edge-span table stored beside the columns of
    ``n_names`` packages, ``n_releases`` releases and ``n_rows`` dependency
    rows. ``ValueError`` for an array of another type or length, or with a
    value out of its range: a position past the packages with a release, a
    release id, an entry or an offset past the releases, a time that no
    datetime holds (an interval end or a span bound may also be open), or
    offsets that do not run from 0 up to the number of releases."""
    n = len(archive["index_packages"])
    edges, drops = len(archive["spans_source"]), len(archive["spans_drop_start"])
    bound = (_TIME_RANGE[0], _OPEN + 1)
    # Each array's type, length and range of values.
    rules = {
        "index_packages": (np.int64, n, 0, n_names),
        "index_releases": (np.int64, n_releases, 0, n_releases),
        "index_entry_positions": (np.int64, n_releases, 0, n),
        "index_times_us": (np.int64, n_releases, *_TIME_RANGE),
        "index_offset_array": (np.int64, n + 1, 0, n_releases + 1),
        "index_row_entries": (np.int32, n_rows, 0, n_releases),
        "index_row_targets": (np.int32, n_rows, 0, n + 1),
        "index_update_times_us": (np.int64, n_releases - n, *_TIME_RANGE),
        "index_update_positions": (np.int64, n_releases - n, 0, n),
        "index_end_us": (np.int64, n_releases, *bound),
        "spans_source": (np.int32, edges, 0, n),
        "spans_target": (np.int32, edges, 0, n),
        "spans_start": (np.int64, edges, *bound),
        "spans_end": (np.int64, edges, *bound),
        "spans_drop_start": (np.int64, drops, *bound),
        "spans_drop_end": (np.int64, drops, *bound),
    }
    arrays = {
        name.split("_", 1)[1]: _in_range(archive[name], low, high, dtype, length)
        for name, (dtype, length, low, high) in rules.items()
    }
    offsets = arrays["offset_array"]
    if offsets[0] != 0 or offsets[-1] != n_releases or (np.diff(offsets) < 0).any():
        raise ValueError("index offsets do not fit the releases")
    return _DatasetIndex._stored(arrays, _EdgeSpans(*(arrays[f] for f in _EdgeSpans._fields)))


def _in_range(
    array: np.ndarray, low: int, high: int, dtype=np.int64, length: Optional[int] = None
) -> np.ndarray:
    """A stored column of ``dtype`` (and of ``length`` values, when given)
    whose values all lie in range(low, high); ``ValueError`` otherwise."""
    if array.dtype != dtype or array.ndim != 1:
        raise ValueError(f"not a {np.dtype(dtype)} column")
    if length is not None and len(array) != length:
        raise ValueError(f"{len(array)} values, not {length}")
    if len(array) and (array.min() < low or array.max() >= high):
        raise ValueError("value out of range")
    return array


def _stored_coded(archive, name: str) -> Coded:
    """A coded string column: the table stored as a UTF-8 blob and the
    offsets of its values in the decoded text, and the codes. ``ValueError``
    when the offsets do not fit the text, the table repeats a value or a
    code is not a place in the table."""
    text = archive[name].tobytes().decode("utf-8")
    offsets = archive[name + "_offsets"]
    bounds = _in_range(offsets, 0, len(text) + 1).tolist()
    if not bounds or bounds[0] != 0 or bounds[-1] != len(text) or (np.diff(offsets) < 0).any():
        raise ValueError(f"offsets of {name} do not fit its text")
    table = [text[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if len(set(table)) != len(table):
        raise ValueError(f"the table of {name} repeats a value")
    return Coded(_in_range(archive[name + "_codes"], 0, len(table)), table)


def load_filtered(directory, cutoff=None, ecosystem=None, kinds=DEFAULT_INCLUDED_KINDS,
                  excluded=()) -> Dataset:
    """The dataset in ``directory``, as :func:`load_dataset_dir` loads it
    with ``cutoff`` and ``ecosystem`` and :func:`filter_dependencies`
    filters it by ``kinds`` and ``excluded``, with its index and edge-span
    table. It is read from the column file when the file's key matches,
    and otherwise parsed and filtered, which writes the column file for
    the next load."""
    directory, kinds, excluded = Path(directory), _included_kinds(kinds), frozenset(excluded)
    key = _column_key(directory, kinds, excluded)
    filtered = _read_columns(directory, key, cutoff, ecosystem)
    if filtered is None:
        filtered = _parse_filtered(directory, key, cutoff, ecosystem, kinds, excluded)[1]
    return filtered


def parse_filtered(directory, cutoff=None, ecosystem=None, kinds=DEFAULT_INCLUDED_KINDS,
                   excluded=(), burst_factor: float = 10.0) -> tuple["ValidationReport", Dataset]:
    """:func:`validate_dataset` of the dataset as parsed, with
    ``burst_factor``, and the dataset as filtered, by the arguments of
    :func:`load_filtered`. It always parses, and writes the column file."""
    directory, kinds, excluded = Path(directory), _included_kinds(kinds), frozenset(excluded)
    key = _column_key(directory, kinds, excluded)
    return _parse_filtered(directory, key, cutoff, ecosystem, kinds, excluded, burst_factor)


def _parse_filtered(directory, key, cutoff, ecosystem, kinds, excluded, burst_factor=None):
    """The validation report of the parsed dataset (``None`` without a
    ``burst_factor``) and the filtered dataset, after the filtered one is
    written to the column file under ``key``. The parsed dataset is let go
    before the index and the span table are built for the file, so that
    the build does not add to the parse's peak."""
    dataset = load_dataset_dir(directory, cutoff=cutoff, ecosystem=ecosystem)
    filtered = filter_dependencies(dataset, kinds, excluded)
    report = None if burst_factor is None else validate_dataset(dataset, burst_factor)
    last_release = _last_time(dataset.release_time)
    del dataset
    _write_columns(directory, key, filtered, last_release)
    return report, filtered


@dataclass(frozen=True, slots=True)
class BurstWarning:
    month: Month
    count: int
    trailing_median: float


@dataclass
class ValidationReport:
    """Report-only anomaly scan; nothing is repaired or reordered."""

    duplicate_releases: list[tuple[str, str]] = field(default_factory=list)
    ordering_flags: list[str] = field(default_factory=list)
    burst_warnings: list[BurstWarning] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        return not (self.duplicate_releases or self.ordering_flags or self.burst_warnings)


def validate_dataset(d: Dataset, burst_factor: float = 10.0) -> ValidationReport:
    """Scan for duplicate releases, version/time ordering conflicts, and
    months whose release count exceeds ``burst_factor`` times the trailing
    12-month median (a fingerprint of bulk imports with bogus timestamps).

    Burst detection needs a full 12 months of history with a non-zero
    median, so early months and all-quiet histories are never flagged.
    """
    report = ValidationReport()
    package = d.release_package
    version, versions = d.release_version
    repeats = np.flatnonzero(~_first_of_each_key(package, version))
    pairs = zip(d._package_names(repeats), d.release_version.decode(repeats))
    report.duplicate_releases = list(pairs)

    # The rank of each distinct version in version order, equal keys
    # sharing one; a stable sort by (package, rank) keeps release order
    # among equal versions, as a sort of each package's releases would.
    keys = list(map(version_sort_key, versions))
    rank = np.empty(len(keys), np.int64)
    previous, r = None, -1
    for v in sorted(range(len(keys)), key=keys.__getitem__):
        if keys[v] != previous:
            previous, r = keys[v], r + 1
        rank[v] = r
    order = np.lexsort((rank[version], package))
    package = package[order]
    times = d.release_time[order]
    late = (package[1:] == package[:-1]) & (times[1:] <= times[:-1])
    report.ordering_flags = sorted(map(d.names.__getitem__, np.unique(package[1:][late]).tolist()))

    if len(d.release_time):
        month = _month_indices(d.release_time)
        low = int(month.min())
        series = np.bincount(month - low).tolist()
        first, last = ((m // 12, m % 12 + 1) for m in (low, low + len(series) - 1))
        months = list(iter_months(first, last))
        for i in range(12, len(series)):
            med = statistics.median(series[i - 12 : i])
            if med > 0 and series[i] > burst_factor * med:
                report.burst_warnings.append(
                    BurstWarning(month=months[i], count=series[i], trailing_median=med)
                )

    return report
