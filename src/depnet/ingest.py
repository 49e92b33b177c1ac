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
import json
import statistics
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Sequence, Set as AbstractSet
from dataclasses import dataclass, field
from datetime import datetime
from itertools import accumulate
from pathlib import Path
from typing import Optional

from .timeutil import Month, iter_months, month_of, parse_timestamp

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


class _DatasetIndex:
    """Flat lookup arrays over a Dataset's columns, built once and shared.

    A package's *position* is its place in ``packages``: the packages with
    a release, in the order of each one's first release row. Every array is
    filled in an order that depends only on row order in the Dataset,
    never on string hashing.

    * ``releases`` holds release ids in (position, timestamp, version)
      order; position k's releases are ``releases[offsets[k]:offsets[k + 1]]``
      and ``times`` holds the timestamp of each entry.
    * Release r's dependency rows resolve, in declaration order, to the
      target positions ``targets[target_offsets[r]:target_offsets[r + 1]]``;
      a target with no release resolves to ``len(packages)``.
    * ``update_times`` and ``update_packages`` list the updates (non-first
      releases) in (timestamp, package name) order.

    Update windows come in two conventions. A trailing window ending at an
    instant, (start, end], counts an update made at that very instant:
    :meth:`updates_in_window`, used by changeability. A span of calendar
    time, [start, end), lets consecutive spans tile without overlap:
    :meth:`updates_during`, used by activity, inequality and age.
    """

    def __init__(self, dataset: "Dataset"):
        names = dataset.names
        release_package = dataset.release_package
        release_time = dataset.release_time
        packages = list(dict.fromkeys(release_package))
        unreleased = len(packages)
        place = [unreleased] * len(names)
        for k, pid in enumerate(packages):
            place[pid] = k
        position = [place[pid] for pid in release_package]

        # Two stable sorts order the releases by (position, timestamp, row);
        # runs that tie on (position, timestamp) are then put in version order.
        releases = sorted(range(len(release_time)), key=release_time.__getitem__)
        releases.sort(key=position.__getitem__)
        times = [release_time[r] for r in releases]
        versions = dataset.release_version
        for lo, hi in _tied_runs(times, [position[r] for r in releases]):
            releases[lo:hi] = sorted(
                releases[lo:hi], key=lambda r: version_sort_key(versions[r])
            )
        offsets = _offsets(position, unreleased)

        source = dataset.dependency_source
        rows = sorted(range(len(source)), key=source.__getitem__)
        self.positions = {names[pid]: k for k, pid in enumerate(packages)}
        target = dataset.dependency_target
        lookup = self.positions.get
        self.targets = [lookup(target[i], unreleased) for i in rows]
        self.target_offsets = _offsets(source, len(release_package))

        # Updates in (timestamp, name) order: each package's non-first
        # releases, packages taken by name, then a stable sort by timestamp.
        by_name = sorted(range(unreleased), key=lambda k: names[packages[k]])
        updates = [r for k in by_name for r in releases[offsets[k] + 1 : offsets[k + 1]]]
        updates.sort(key=release_time.__getitem__)
        self.update_times = [release_time[r] for r in updates]
        self.update_packages = [names[release_package[r]] for r in updates]

        self.packages = packages
        self.releases = releases
        self.offsets = offsets
        self.times = times

    def updates_in_window(self, start: datetime, end: datetime) -> list[tuple[datetime, str]]:
        """(timestamp, package) of the updates in (start, end]; none when
        start >= end."""
        lo = bisect_right(self.update_times, start)
        hi = bisect_right(self.update_times, end)
        return list(zip(self.update_times[lo:hi], self.update_packages[lo:hi]))

    def updates_during(self, start: datetime, end: datetime) -> list[tuple[datetime, str]]:
        """(timestamp, package) of the updates in [start, end).

        Raises ``ValueError`` when start > end.
        """
        if start > end:
            raise ValueError("inverted window")
        lo = bisect_left(self.update_times, start)
        hi = bisect_left(self.update_times, end)
        return list(zip(self.update_times[lo:hi], self.update_packages[lo:hi]))


def _offsets(keys: list[int], n: int) -> list[int]:
    """Once entries are sorted by key, those with key k are the entries
    offsets[k]:offsets[k + 1]; keys are ints in range(n)."""
    counts = [0] * n
    for k in keys:
        counts[k] += 1
    return [0, *accumulate(counts)]


def _tied_runs(times: list, positions: list[int]):
    """(lo, hi) of each run of two or more consecutive entries that share
    both their timestamp and their position."""
    lo = 0
    for j in range(1, len(times) + 1):
        if j == len(times) or times[j] != times[lo] or positions[j] != positions[lo]:
            if j - lo > 1:
                yield lo, j
            lo = j


class RecordView(Sequence):
    """Records built from a Dataset's columns as they are read; ``len``
    reads the column's length. Equal to a list of the same records."""

    __slots__ = ("_ids", "_record")

    def __init__(self, n: int, record: Callable[[int], object]):
        self._ids = range(n)
        self._record = record

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._record, self._ids[i]))
        return self._record(self._ids[i])

    def __iter__(self):
        return map(self._record, self._ids)

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


class Dataset:
    """A validated collection of packages, releases, and dependencies.

    The data is kept as columns of strings, ints and datetimes, which the
    cyclic garbage collector does not track:

    * ``names`` is the package name table and ``package_ids`` maps a name
      to its package id, its place in ``names``;
    * release r is (``release_package[r]``, ``release_version[r]``,
      ``release_time[r]``), a package id, a version and a timestamp;
    * dependency row i is (``dependency_source[i]``,
      ``dependency_target[i]``, ``dependency_constraint[i]``,
      ``dependency_kind[i]``), the id of its source release and the name
      of its target package.

    Releases and dependency rows keep the order in which they were given.
    ``packages``, ``releases`` and ``dependencies`` are record views, built
    as a caller reads them. The constructor takes records and converts
    them once, with package ids in name order. It raises ``DatasetError``
    for a package record of another ecosystem, a release of an unlisted
    package and a dependency of an unknown release. Releases may repeat a
    (package, version), which :func:`validate_dataset` reports; a dependency
    row then belongs to the first of them, and the later ones have none.

    Immutable by convention after construction; the lazy index makes
    concurrent read access safe (rebuilding it is idempotent).
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
        release_ids: dict[tuple[str, str], int] = {}
        for rid, rel in enumerate(releases):
            release_ids.setdefault((rel.package, rel.version), rid)
        dependencies = list(dependencies)
        try:
            release_package = [package_ids[rel.package] for rel in releases]
            source = [release_ids[dep.source_package, dep.source_version] for dep in dependencies]
        except KeyError as exc:
            raise DatasetError(f"no package or release {exc}") from None
        self._set(
            names, package_ids,
            (release_package, [r.version for r in releases], [r.timestamp for r in releases]),
            (
                source,
                [dep.target_package for dep in dependencies],
                [dep.constraint for dep in dependencies],
                [dep.kind for dep in dependencies],
            ),
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
        return RecordView(len(self.release_package), self._release)

    @property
    def dependencies(self) -> RecordView:
        return RecordView(len(self.dependency_source), self._dependency)

    def _release(self, rid: int) -> ReleaseRecord:
        return ReleaseRecord(
            self.names[self.release_package[rid]],
            self.release_version[rid],
            self.release_time[rid],
        )

    def _dependency(self, i: int) -> DependencyRecord:
        rid = self.dependency_source[i]
        return DependencyRecord(
            self.names[self.release_package[rid]],
            self.release_version[rid],
            self.dependency_target[i],
            self.dependency_constraint[i],
            self.dependency_kind[i],
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


def _rows(path: Path, required: list[str]):
    """Each data row of the CSV file at ``path`` as (line, values of the
    ``required`` columns); the file is open only while rows are read. A
    row whose field count differs from the header's is an error, never
    shifted into other columns."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise DatasetError(f"{path}: file not found") from None
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DatasetError(f"{path}: missing header row")
        missing = [col for col in required if col not in header]
        if missing:
            raise DatasetError(f"{path}: missing column(s) {', '.join(missing)}")
        width = len(header)
        columns = [header.index(col) for col in required]
        # line_num counts physical lines, so a quoted field holding a newline
        # does not shift the line numbers of later rows.
        for row in reader:
            if len(row) != width:
                if not row:  # a blank line
                    continue
                raise DatasetError(
                    f"{path}, line {reader.line_num}: {len(row)} fields, the header has {width}"
                )
            yield reader.line_num, [row[i] for i in columns]


def write_csv(handle, header: list[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a header and rows of strings as CSV that reads back field for
    field. ``csv.writer`` quotes a field holding a newline but not one
    holding a bare carriage return, where ``csv.reader`` would split the
    row, so a row with a carriage return is written with every field quoted."""
    plain = csv.writer(handle, lineterminator="\n")
    quoted = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(header)
    for row in rows:
        (quoted if "\r" in "".join(row) else plain).writerow(row)


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
    """
    packages_path = Path(packages_path)
    releases_path = Path(releases_path)
    dependencies_path = Path(dependencies_path)

    names: list[str] = []
    package_ids: dict[str, int] = {}
    package_lines: list[int] = []
    for line, (name,) in _rows(packages_path, ["name"]):
        if not name:
            raise DatasetError(
                f"{packages_path}, line {line}: empty value in column 'name'"
            )
        pid = package_ids.setdefault(name, len(names))
        if pid != len(names):
            raise DatasetError(
                f"{packages_path}: duplicate package '{name}' "
                f"(lines {package_lines[pid]} and {line})"
            )
        names.append(name)
        package_lines.append(line)

    release_package: list[int] = []
    release_version: list[str] = []
    release_time: list[datetime] = []
    release_ids: dict[tuple[str, str], int] = {}
    release_lines: list[int] = []
    for line, (pkg, version, raw_ts) in _rows(releases_path, ["package", "version", "timestamp"]):
        pid = package_ids.get(pkg)
        if pid is None:
            raise DatasetError(
                f"{releases_path}, line {line}: release of unknown package '{pkg}'"
            )
        if not version:
            raise DatasetError(
                f"{releases_path}, line {line}: empty value in column 'version'"
            )
        try:
            ts = parse_timestamp(raw_ts)
        except ValueError:
            raise DatasetError(
                f"{releases_path}, line {line}: column 'timestamp' "
                f"has unparseable value {raw_ts!r}"
            ) from None
        rid = release_ids.setdefault((pkg, version), len(release_lines))
        if rid != len(release_lines):
            raise DatasetError(
                f"{releases_path}: duplicate release {pkg} {version} "
                f"(lines {release_lines[rid]} and {line})"
            )
        release_lines.append(line)
        release_package.append(pid)
        release_version.append(version)
        release_time.append(ts)

    max_ts = max(release_time, default=None)
    if cutoff is None:
        if max_ts is None:
            raise DatasetError(f"{releases_path}: empty dataset requires an explicit cutoff")
        cutoff = max_ts
    elif max_ts is not None and max_ts > cutoff:
        raise DatasetError(
            f"{releases_path}: release timestamp {max_ts.isoformat()} "
            f"is after the cutoff {cutoff.isoformat()}"
        )

    source: list[int] = []
    targets: list[str] = []
    constraints: list[str] = []
    kinds: list[str] = []
    columns = ["source_package", "source_version", "target_package", "constraint", "kind"]
    for line, (src, src_ver, target, constraint, kind) in _rows(dependencies_path, columns):
        rid = release_ids.get((src, src_ver))
        if rid is None:
            raise DatasetError(
                f"{dependencies_path}, line {line}: dependency of unknown "
                f"release {src} {src_ver}"
            )
        if not target:
            raise DatasetError(
                f"{dependencies_path}, line {line}: empty value in column 'target_package'"
            )
        source.append(rid)
        targets.append(target)
        constraints.append(constraint)
        kinds.append(sys.intern(kind.lower()))  # one string per distinct kind

    return Dataset._from_columns(
        names, package_ids,
        (release_package, release_version, release_time),
        (source, targets, constraints, kinds),
        cutoff, ecosystem,
    )


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
    manifest_cutoff, manifest_ecosystem = _read_manifest(directory / "manifest.json")
    return parse_dataset(
        directory / "packages.csv",
        directory / "releases.csv",
        directory / "dependencies.csv",
        cutoff or manifest_cutoff,
        ecosystem=ecosystem or manifest_ecosystem or directory.name or "default",
    )


def _read_manifest(path: Path) -> tuple[Optional[datetime], Optional[str]]:
    """The cutoff and the ecosystem that ``manifest.json`` records, each
    ``None`` when absent; both ``None`` when there is no such file."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None, None
    try:
        manifest = json.loads(text)
        raw = manifest.get("cutoff")
        cutoff = None if raw is None else parse_timestamp(raw)
    except (ValueError, AttributeError, TypeError) as exc:
        raise DatasetError(f"{path}: unreadable cutoff: {exc}") from None
    ecosystem = manifest.get("ecosystem")
    if ecosystem is not None and not isinstance(ecosystem, str):
        raise DatasetError(f"{path}: ecosystem is not a string: {ecosystem!r}")
    return cutoff, ecosystem


def load_exclusions(path) -> set[str]:
    """Read an exclusion list: one package name per line, blanks ignored."""
    names = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            name = line.strip()
            if name:
                names.add(name)
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
    """
    include = {k.strip().lower() for k in included_kinds}
    excluded = set(excluded_packages)
    names = [name for name in d.names if name not in excluded]
    package_ids = {name: pid for pid, name in enumerate(names)}
    # The new id of each old package id; None for an excluded package.
    new_pid = [package_ids.get(name) for name in d.names]
    release_package = d.release_package
    kept = [rid for rid, pid in enumerate(release_package) if new_pid[pid] is not None]
    releases = (
        [new_pid[release_package[rid]] for rid in kept],
        [d.release_version[rid] for rid in kept],
        [d.release_time[rid] for rid in kept],
    )
    # The new id of each old release id; None for a release of an excluded package.
    release_ids: list[Optional[int]] = [None] * len(release_package)
    for new, rid in enumerate(kept):
        release_ids[rid] = new
    report = FilterReport(
        excluded_packages_dropped=len(d.names) - len(names),
        excluded_releases_dropped=len(release_package) - len(kept),
    )

    seen: set[tuple[int, str, str]] = set()
    source: list[int] = []
    targets: list[str] = []
    constraints: list[str] = []
    kinds: list[str] = []
    for rid, target, constraint, kind in zip(
        d.dependency_source, d.dependency_target, d.dependency_constraint, d.dependency_kind
    ):
        if kind not in include:
            report.kind_dropped += 1
        elif release_ids[rid] is None:
            report.excluded_deps_dropped += 1
        elif target not in package_ids:
            report.unresolved_deps_dropped += 1
        elif (key := (rid, target, kind)) in seen:
            report.duplicate_deps_dropped += 1
        else:
            seen.add(key)
            source.append(release_ids[rid])
            targets.append(target)
            constraints.append(constraint)
            kinds.append(kind)
    if d.dependency_source:
        report.unresolved_fraction = report.unresolved_deps_dropped / len(d.dependency_source)

    return Dataset._from_columns(
        names, package_ids, releases, (source, targets, constraints, kinds),
        d.cutoff, d.ecosystem, report,
    )


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

    names = d.names
    seen: set[tuple[int, str]] = set()
    by_package: dict[str, list[tuple[str, datetime]]] = {}
    for pid, version, ts in zip(d.release_package, d.release_version, d.release_time):
        key = (pid, version)
        if key in seen:
            report.duplicate_releases.append((names[pid], version))
        seen.add(key)
        by_package.setdefault(names[pid], []).append((version, ts))

    for pkg in sorted(by_package):
        rels = sorted(by_package[pkg], key=lambda r: version_sort_key(r[0]))
        times = [ts for _, ts in rels]
        if any(b <= a for a, b in zip(times, times[1:])):
            report.ordering_flags.append(pkg)

    if d.release_time:
        counts: dict[Month, int] = {}
        for ts in d.release_time:
            m = month_of(ts)
            counts[m] = counts.get(m, 0) + 1
        first = min(counts)
        last = max(counts)
        months = list(iter_months(first, last))
        series = [counts.get(m, 0) for m in months]
        for i in range(12, len(series)):
            med = statistics.median(series[i - 12 : i])
            if med > 0 and series[i] > burst_factor * med:
                report.burst_warnings.append(
                    BurstWarning(month=months[i], count=series[i], trailing_median=med)
                )

    return report
