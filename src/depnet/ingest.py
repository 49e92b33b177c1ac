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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Optional, Sequence

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
    """Derived lookup structures for a Dataset, built once and shared.

    All containers are populated in a deterministic order that depends only
    on record order in the Dataset, never on string hashing.

    Update windows come in two conventions. A trailing window ending at an
    instant, (start, end], counts an update made at that very instant:
    :meth:`updates_in_window`, used by changeability. A span of calendar
    time, [start, end), lets consecutive spans tile without overlap:
    :meth:`updates_during`, used by activity, inequality and age.
    """

    def __init__(self, dataset: "Dataset"):
        by_package: dict[str, list[ReleaseRecord]] = {}
        for rel in dataset.releases:
            by_package.setdefault(rel.package, []).append(rel)
        for rels in by_package.values():
            rels.sort(key=lambda r: (r.timestamp, version_sort_key(r.version)))
        self.releases_by_package = by_package
        # Parallel timestamp arrays for bisect-based latest-release lookup.
        self.release_times = {p: [r.timestamp for r in rels] for p, rels in by_package.items()}

        deps: dict[tuple[str, str], list[str]] = {}
        for dep in dataset.dependencies:
            deps.setdefault((dep.source_package, dep.source_version), []).append(
                dep.target_package
            )
        self.targets_by_release = deps

        # All updates (non-first releases), time-ordered, for window queries.
        updates: list[tuple[datetime, str]] = []
        for pkg, rels in by_package.items():
            for rel in rels[1:]:
                updates.append((rel.timestamp, pkg))
        updates.sort(key=lambda item: (item[0], item[1]))
        self.updates_sorted = updates
        self.update_times = [ts for ts, _ in updates]

    def updates_in_window(self, start: datetime, end: datetime) -> list[tuple[datetime, str]]:
        """(timestamp, package) of the updates in (start, end]; none when
        start >= end."""
        lo = bisect_right(self.update_times, start)
        hi = bisect_right(self.update_times, end)
        return self.updates_sorted[lo:hi]

    def updates_during(self, start: datetime, end: datetime) -> list[tuple[datetime, str]]:
        """(timestamp, package) of the updates in [start, end).

        Raises ``ValueError`` when start > end.
        """
        if start > end:
            raise ValueError("inverted window")
        lo = bisect_left(self.update_times, start)
        hi = bisect_left(self.update_times, end)
        return self.updates_sorted[lo:hi]


@dataclass
class Dataset:
    """A validated collection of packages, releases, and dependencies.

    Immutable by convention after construction; the lazy index makes
    concurrent read access safe (rebuilding it is idempotent).
    """

    packages: set[PackageRecord]
    releases: list[ReleaseRecord]
    dependencies: list[DependencyRecord]
    cutoff: datetime
    ecosystem: str = "default"
    filter_report: FilterReport = field(default_factory=FilterReport, compare=False)
    _index: Optional[_DatasetIndex] = field(
        default=None, repr=False, compare=False, init=False
    )

    def index(self) -> _DatasetIndex:
        idx = self._index
        if idx is None:
            idx = _DatasetIndex(self)
            self._index = idx
        return idx

    @property
    def package_names(self) -> set[str]:
        return {p.name for p in self.packages}


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

    packages: set[PackageRecord] = set()
    package_lines: dict[str, int] = {}
    for line, (name,) in _rows(packages_path, ["name"]):
        if not name:
            raise DatasetError(
                f"{packages_path}, line {line}: empty value in column 'name'"
            )
        if name in package_lines:
            raise DatasetError(
                f"{packages_path}: duplicate package '{name}' "
                f"(lines {package_lines[name]} and {line})"
            )
        package_lines[name] = line
        packages.add(PackageRecord(name=name, ecosystem=ecosystem))

    releases: list[ReleaseRecord] = []
    release_lines: dict[tuple[str, str], int] = {}
    max_ts: Optional[datetime] = None
    for line, (pkg, version, raw_ts) in _rows(releases_path, ["package", "version", "timestamp"]):
        if pkg not in package_lines:
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
        key = (pkg, version)
        if key in release_lines:
            raise DatasetError(
                f"{releases_path}: duplicate release {pkg} {version} "
                f"(lines {release_lines[key]} and {line})"
            )
        release_lines[key] = line
        releases.append(ReleaseRecord(package=pkg, version=version, timestamp=ts))
        if max_ts is None or ts > max_ts:
            max_ts = ts

    if cutoff is None:
        if max_ts is None:
            raise DatasetError(f"{releases_path}: empty dataset requires an explicit cutoff")
        cutoff = max_ts
    elif max_ts is not None and max_ts > cutoff:
        raise DatasetError(
            f"{releases_path}: release timestamp {max_ts.isoformat()} "
            f"is after the cutoff {cutoff.isoformat()}"
        )

    dependencies: list[DependencyRecord] = []
    columns = ["source_package", "source_version", "target_package", "constraint", "kind"]
    for line, (src, src_ver, target, constraint, kind) in _rows(dependencies_path, columns):
        kind = kind.lower()
        if (src, src_ver) not in release_lines:
            raise DatasetError(
                f"{dependencies_path}, line {line}: dependency of unknown "
                f"release {src} {src_ver}"
            )
        if not target:
            raise DatasetError(
                f"{dependencies_path}, line {line}: empty value in column 'target_package'"
            )
        dependencies.append(
            DependencyRecord(
                source_package=src,
                source_version=src_ver,
                target_package=target,
                constraint=constraint,
                kind=kind,
            )
        )

    return Dataset(
        packages=packages,
        releases=releases,
        dependencies=dependencies,
        cutoff=cutoff,
        ecosystem=ecosystem,
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
    packages = {p for p in d.packages if p.name not in excluded}
    releases = [r for r in d.releases if r.package not in excluded]
    names = {p.name for p in packages}
    report = FilterReport(
        excluded_packages_dropped=len(d.packages) - len(packages),
        excluded_releases_dropped=len(d.releases) - len(releases),
    )

    seen: set[tuple[str, str, str, str]] = set()
    deps: list[DependencyRecord] = []
    for dep in d.dependencies:
        key = (dep.source_package, dep.source_version, dep.target_package, dep.kind)
        if dep.kind not in include:
            report.kind_dropped += 1
        elif dep.source_package in excluded:
            report.excluded_deps_dropped += 1
        elif dep.target_package not in names:
            report.unresolved_deps_dropped += 1
        elif key in seen:
            report.duplicate_deps_dropped += 1
        else:
            seen.add(key)
            deps.append(dep)
    if d.dependencies:
        report.unresolved_fraction = report.unresolved_deps_dropped / len(d.dependencies)

    return Dataset(
        packages=packages,
        releases=releases,
        dependencies=deps,
        cutoff=d.cutoff,
        ecosystem=d.ecosystem,
        filter_report=report,
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

    seen: set[tuple[str, str]] = set()
    by_package: dict[str, list[ReleaseRecord]] = {}
    for rel in d.releases:
        key = (rel.package, rel.version)
        if key in seen:
            report.duplicate_releases.append(key)
        seen.add(key)
        by_package.setdefault(rel.package, []).append(rel)

    for pkg in sorted(by_package):
        rels = sorted(by_package[pkg], key=lambda r: version_sort_key(r.version))
        times = [r.timestamp for r in rels]
        if any(b <= a for a, b in zip(times, times[1:])):
            report.ordering_flags.append(pkg)

    if d.releases:
        counts: dict[Month, int] = {}
        for rel in d.releases:
            m = month_of(rel.timestamp)
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
