from __future__ import annotations

import csv
import gc
import io
import random
import statistics
import tracemalloc
from collections import Counter
from dataclasses import asdict
from datetime import datetime, timedelta

import numpy as np
import pytest

from depnet.ingest import (
    DEFAULT_INCLUDED_KINDS,
    BurstWarning,
    Dataset,
    DatasetError,
    DependencyRecord,
    FilterReport,
    PackageRecord,
    ReleaseRecord,
    ValidationReport,
    _DATASET_FILES,
    filter_dependencies,
    load_dataset_dir,
    load_exclusions,
    parse_dataset,
    validate_dataset,
    version_sort_key,
    write_csv,
)
from depnet import cli, ingest
from depnet.evolution import ecosystem_scan
from depnet.fixtures import GeneratorConfig, generate, write_dataset, write_tiny
from depnet.graphops import (
    dependency_depth,
    dependency_depths,
    transitive_dependency_counts,
    transitive_dependent_counts,
)
from depnet.snapshot import _sorted_unique, build_snapshot
from depnet.stats import _grouped
from depnet.timeutil import add_months, format_month, iter_months, month_of, parse_timestamp

from conftest import constructed_and_reloaded, edge_case_dataset, write_dataset_csvs

TINY_CUTOFF = datetime(2020, 4, 1)
EPOCH = datetime(1970, 1, 1)


def tiny_rows():
    packages = ["a", "b", "c", "d", "e"]
    releases = [
        "e,1.0.0,2020-01-05",
        "a,1.0.0,2020-01-10",
        "b,1.0.0,2020-01-20",
        "c,1.0.0,2020-02-03",
        "a,1.1.0,2020-02-15",
        "c,2.0.0,2020-03-05",
        "d,1.0.0,2020-03-10",
    ]
    dependencies = [
        "a,1.1.0,b,*,runtime",
        "c,1.0.0,a,*,runtime",
        "c,2.0.0,a,*,runtime",
        "c,2.0.0,b,*,runtime",
        "d,1.0.0,c,*,runtime",
    ]
    return packages, releases, dependencies


def _random_filter_dataset(rng: random.Random, kinds: list[str]) -> Dataset:
    """Packages p0.., some never released; dependency rows that target
    them, a ghost that is no package, and repeats of earlier rows under
    the same kind or another one."""
    names = [f"p{i}" for i in range(rng.randint(1, 7))]
    releases = [
        ReleaseRecord(name, f"1.{v}", datetime(2020, 1, 1 + v))
        for name in names
        for v in range(rng.randint(0, 3))
    ]
    deps: list[DependencyRecord] = []
    for _ in range(rng.randint(0, 30) if releases else 0):
        if deps and rng.random() < 0.3:
            old = rng.choice(deps)
            kind = old.kind if rng.random() < 0.5 else rng.choice(kinds)
            deps.append(DependencyRecord(
                old.source_package, old.source_version, old.target_package, ">=1", kind
            ))
            continue
        rel = rng.choice(releases)
        target = rng.choice(names + ["ghost"])
        deps.append(DependencyRecord(rel.package, rel.version, target, "*", rng.choice(kinds)))
    return Dataset(
        packages={PackageRecord(name, "x") for name in names},
        releases=releases,
        dependencies=deps,
        cutoff=datetime(2020, 2, 1),
        ecosystem="x",
    )


def _reference_filter(d: Dataset, included: set[str], excluded: set[str]):
    """Row by row: each dependency row is dropped by the first rule it
    breaks (kind, excluded source, unresolved target, repeated
    (source, version, target, kind)) and kept otherwise."""
    report = FilterReport()
    packages = {p for p in d.packages if p.name not in excluded}
    names = {p.name for p in packages}
    releases = [r for r in d.releases if r.package not in excluded]
    report.excluded_packages_dropped = len(d.packages) - len(packages)
    report.excluded_releases_dropped = len(d.releases) - len(releases)
    seen = []
    kept = []
    for dep in d.dependencies:
        key = (dep.source_package, dep.source_version, dep.target_package, dep.kind)
        if dep.kind not in included:
            report.kind_dropped += 1
        elif dep.source_package in excluded:
            report.excluded_deps_dropped += 1
        elif dep.target_package not in names:
            report.unresolved_deps_dropped += 1
        elif key in seen:
            report.duplicate_deps_dropped += 1
        else:
            seen.append(key)
            kept.append(dep)
    if d.dependencies:
        report.unresolved_fraction = report.unresolved_deps_dropped / len(d.dependencies)
    return packages, releases, kept, report


def parse_tiny(tmp_path, packages, releases, dependencies, cutoff=TINY_CUTOFF):
    d = write_dataset_csvs(tmp_path / "data", packages, releases, dependencies)
    return parse_dataset(
        d / "packages.csv", d / "releases.csv", d / "dependencies.csv", cutoff
    )


class TestParse:
    def test_tiny_counts(self, tiny):
        assert len(tiny.packages) == 5
        assert len(tiny.releases) == 7
        assert len(tiny.dependencies) == 5
        assert tiny.filter_report.kind_dropped == 0
        assert tiny.filter_report.unresolved_deps_dropped == 0

    def test_empty_releases_file(self, tmp_path):
        d = parse_tiny(tmp_path, ["a"], [], [])
        assert d.releases == []
        assert len(d.packages) == 1

    def test_bad_timestamp_names_line(self, tmp_path):
        packages, releases, deps = tiny_rows()
        releases[2] = "b,1.0.0,not-a-date"
        with pytest.raises(DatasetError, match=r"releases\.csv, line 4.*timestamp"):
            parse_tiny(tmp_path, packages, releases, deps)

    def test_duplicate_release_lists_both_lines(self, tmp_path):
        packages, releases, deps = tiny_rows()
        releases.append("a,1.0.0,2020-03-20")
        with pytest.raises(DatasetError, match=r"lines 3 and 9"):
            parse_tiny(tmp_path, packages, releases, deps)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            parse_dataset(
                tmp_path / "nope.csv",
                tmp_path / "nope2.csv",
                tmp_path / "nope3.csv",
                TINY_CUTOFF,
            )

    def test_unknown_source_release_rejected(self, tmp_path):
        packages, releases, deps = tiny_rows()
        deps.append("a,9.9.9,b,*,runtime")
        with pytest.raises(DatasetError, match="unknown.*release"):
            parse_tiny(tmp_path, packages, releases, deps)

    def test_release_of_unknown_package_rejected(self, tmp_path):
        packages, releases, deps = tiny_rows()
        releases.append("zzz,1.0.0,2020-03-20")
        with pytest.raises(DatasetError, match="unknown package"):
            parse_tiny(tmp_path, packages, releases, deps)

    def test_release_after_cutoff_rejected(self, tmp_path):
        packages, releases, deps = tiny_rows()
        with pytest.raises(DatasetError, match="after the cutoff"):
            parse_tiny(tmp_path, packages, releases, deps, cutoff=datetime(2020, 2, 1))

    def test_kinds_lowercased(self, tmp_path):
        packages, releases, deps = tiny_rows()
        deps[0] = "a,1.1.0,b,*,RunTime"
        d = parse_tiny(tmp_path, packages, releases, deps)
        assert d.dependencies[0].kind == "runtime"

    @pytest.mark.parametrize(
        "row, fields", [("e,1.0.0,2020-01-05T00:00:00,surplus", 4), ("e,1.0.0", 2)]
    )
    def test_field_count_off_names_line(self, tmp_path, row, fields):
        packages, releases, deps = tiny_rows()
        releases[0] = row
        with pytest.raises(
            DatasetError, match=rf"releases\.csv, line 2: {fields} fields, the header has 3"
        ):
            parse_tiny(tmp_path, packages, releases, deps)

    def test_line_numbers_count_quoted_newlines(self, tmp_path):
        packages, releases, deps = tiny_rows()
        deps[0] = 'a,1.1.0,b,"*\n",runtime'  # lines 2 and 3
        deps.append("a,9.9.9,b,*,runtime")
        with pytest.raises(DatasetError, match=r"dependencies\.csv, line 8: .*unknown"):
            parse_tiny(tmp_path, packages, releases, deps)

    def test_timezone_normalized_to_utc(self, tmp_path):
        packages = ["a"]
        releases = ["a,1.0.0,2020-01-10T06:00:00+02:00"]
        d = parse_tiny(tmp_path, packages, releases, [])
        assert d.releases[0].timestamp == datetime(2020, 1, 10, 4, 0, 0)

    def test_timestamps_of_every_form_in_one_file(self, tmp_path):
        stamps = [
            "2020-01-10", "2020-01-10T06:00:00+02:00", " 2020-01-11 ", "2020-01-12T01:02:03Z",
            "2020-01-13 04:05:06.789", "2020-01-14T00:00:00z", "2020-01-15T23:00:00-01:30",
        ]
        packages = [f"p{i}" for i in range(len(stamps))]
        releases = [f"p{i},1,{stamp}" for i, stamp in enumerate(stamps)]
        d = parse_tiny(tmp_path, packages, releases, [])
        times = [release.timestamp for release in d.releases]
        assert times == [parse_timestamp(stamp) for stamp in stamps]
        assert all(t.tzinfo is None for t in times)

    def test_coder_matches_two_pass_coder(self):
        # The reference codes a block in two passes: first each new value,
        # in first-appearance order, then every value by lookup.
        rng = random.Random(20170405)
        for _ in range(200):
            alphabet = [f"v{i}" for i in range(rng.randint(1, 30))]
            coder, table, codes = ingest._Coder(), {}, []
            block = []
            for _ in range(rng.randint(0, 6)):
                if rng.random() < 0.4:
                    # A run of one value, new or coded, often the one that
                    # ended the block before, so that the run crosses blocks.
                    value = block[-1] if block and rng.random() < 0.5 else rng.choice(alphabet)
                    block = [value] * rng.randint(1, 40)
                else:
                    block = [rng.choice(alphabet) for _ in range(rng.randint(0, 40))]
                coder.add(tuple(block) if rng.random() < 0.5 else block)
                new = [value for value in dict.fromkeys(block) if value not in table]
                table.update(zip(new, range(len(table), len(table) + len(new))))
                codes += [table[value] for value in block]
            column = coder.column()
            assert column.codes.dtype == np.int64
            assert column.codes.tolist() == codes
            assert column.table == list(table)


def parse_error(tmp_path, packages, releases, dependencies) -> str:
    """The message of the DatasetError that parsing these rows raises, with
    the dataset directory's path replaced by ``D``."""
    with pytest.raises(DatasetError) as caught:
        parse_tiny(tmp_path, packages, releases, dependencies)
    return str(caught.value).replace(str(tmp_path / "data"), "D")


# fault -> (file, row index in that file, row, message): the row put into
# TINY's rows at that index (replacing one, or appended past the end) and
# the message of the fault it makes.
_FAULTS = {
    "empty name": (0, 2, '""', "D/packages.csv, line 4: empty value in column 'name'"),
    "duplicate package": (
        0, 5, "b", "D/packages.csv: duplicate package 'b' (lines 3 and 7)"
    ),
    "unknown package": (
        1, 3, "zzz,1.0.0,2020-02-03",
        "D/releases.csv, line 5: release of unknown package 'zzz'",
    ),
    "empty version": (
        1, 3, "c,,2020-02-03", "D/releases.csv, line 5: empty value in column 'version'"
    ),
    "bad timestamp": (
        1, 3, "c,1.0.0,2020-02-30",
        "D/releases.csv, line 5: column 'timestamp' has unparseable value '2020-02-30'",
    ),
    "duplicate release": (
        1, 5, "a,1.1.0,2020-03-05", "D/releases.csv: duplicate release a 1.1.0 (lines 6 and 7)"
    ),
    "unknown release": (
        2, 2, "c,9.9.9,a,*,runtime",
        "D/dependencies.csv, line 4: dependency of unknown release c 9.9.9",
    ),
    "empty target": (
        2, 2, "c,2.0.0,,*,runtime",
        "D/dependencies.csv, line 4: empty value in column 'target_package'",
    ),
    "package fields": (0, 1, "b,x", "D/packages.csv, line 3: 2 fields, the header has 1"),
    "release fields": (1, 6, "d,1.0.0", "D/releases.csv, line 8: 2 fields, the header has 3"),
    "dependency fields": (
        2, 4, "d,1.0.0,c,*,runtime,x", "D/dependencies.csv, line 6: 6 fields, the header has 5"
    ),
}


def _put(rows: list[str], at: int, row: str) -> None:
    if at < len(rows):
        rows[at] = row
    else:
        rows.append(row)


def _reference_parse(directory) -> tuple:
    """The package names, release records and dependency records of the
    dataset in ``directory`` parsed row by row, as before the block parse,
    or the message of its first fault: the files in order, rows in order,
    the checks of a row in order."""

    def rows(name):
        path = directory / name
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            width = len(next(reader))
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    raise DatasetError(
                        f"{path}, line {reader.line_num}: {len(row)} fields, the header has {width}"
                    )
                yield reader.line_num, row

    path = directory / "packages.csv"
    names, package_lines = [], {}
    for line, (name,) in rows("packages.csv"):
        if not name:
            raise DatasetError(f"{path}, line {line}: empty value in column 'name'")
        if name in package_lines:
            raise DatasetError(
                f"{path}: duplicate package '{name}' (lines {package_lines[name]} and {line})"
            )
        names.append(name)
        package_lines[name] = line
    path = directory / "releases.csv"
    releases, release_lines = [], {}
    for line, (pkg, version, stamp) in rows("releases.csv"):
        if pkg not in package_lines:
            raise DatasetError(f"{path}, line {line}: release of unknown package '{pkg}'")
        if not version:
            raise DatasetError(f"{path}, line {line}: empty value in column 'version'")
        try:
            ts = parse_timestamp(stamp)
        except ValueError:
            raise DatasetError(
                f"{path}, line {line}: column 'timestamp' has unparseable value {stamp!r}"
            ) from None
        if (pkg, version) in release_lines:
            raise DatasetError(
                f"{path}: duplicate release {pkg} {version} "
                f"(lines {release_lines[pkg, version]} and {line})"
            )
        release_lines[pkg, version] = line
        releases.append(ReleaseRecord(pkg, version, ts))
    path = directory / "dependencies.csv"
    deps = []
    for line, (src, version, target, constraint, kind) in rows("dependencies.csv"):
        if (src, version) not in release_lines:
            raise DatasetError(f"{path}, line {line}: dependency of unknown release {src} {version}")
        if not target:
            raise DatasetError(f"{path}, line {line}: empty value in column 'target_package'")
        deps.append(DependencyRecord(src, version, target, constraint, kind.lower()))
    return names, releases, deps


def _random_csvs(rng: random.Random, directory) -> None:
    """The three CSV files of a small random dataset in which, now and then,
    a row breaks a check, a line is blank or a field holds a newline. In
    about a quarter of the datasets no field holds a newline or a quote and
    no line is blank, so that whole files are plain."""

    def maybe(p):
        return rng.random() < p

    plain = maybe(0.25)
    names = [f"p{i}" if not maybe(0.01) else rng.choice(["", "p0", "p0" if plain else 'p"\n"x'])
             for i in range(8)]
    stamps = ["2020-01-01", "2020-01-02T03:04:05", " 2020-01-03", "2020-01-04T00:00:00Z",
              "2020-01-05T10:00:00+02:00", "2020-13-01", "nope"]
    releases = []
    for _ in range(rng.randint(0, 14)):
        pkg = rng.choice(names + ["ghost"] * maybe(0.05))
        odd = ["1.0", "1.0" if plain else "1.0\n1", ""]
        version = rng.choice(odd) if maybe(0.05) else f"1.{rng.randrange(40)}"
        stamp = rng.choice(stamps if maybe(0.05) else stamps[:5])
        releases.append([pkg, version, stamp])
    deps = []
    for _ in range(rng.randint(0, 20) if releases else 0):
        pkg, version, _ = rng.choice(releases)
        if maybe(0.02):
            version = "9.9"
        target = "" if maybe(0.02) else rng.choice(names + ["ghost"])
        constraint = rng.choice(["*", "^1" if plain else "^1\n"])
        deps.append([pkg, version, target, constraint, rng.choice(["runtime", "DEV"])])
    headers = (["name"], ["package", "version", "timestamp"],
               ["source_package", "source_version", "target_package", "constraint", "kind"])
    directory.mkdir(parents=True, exist_ok=True)
    for name, header, rows in zip(_DATASET_FILES, headers, ([[n] for n in names], releases, deps)):
        with open(directory / name, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                if maybe(0.05) and not plain:
                    handle.write("\n")
                writer.writerow(row[:-1] if maybe(0.01) else row)


class TestParseErrors:
    @pytest.mark.parametrize("fault", _FAULTS)
    def test_message_names_file_and_line(self, tmp_path, fault):
        files = tiny_rows()
        which, at, row, message = _FAULTS[fault]
        _put(files[which], at, row)
        assert parse_error(tmp_path, *files) == message

    @pytest.mark.parametrize(
        "first, second",
        [
            ("bad timestamp", "unknown package"),
            ("empty version", "unknown package"),
            ("duplicate release", "empty version"),
            ("unknown package", "bad timestamp"),
            ("release fields", "unknown package"),
            ("empty version", "release fields"),
            ("empty target", "unknown release"),
            ("dependency fields", "empty target"),
            ("duplicate package", "empty name"),
        ],
    )
    def test_earlier_line_wins_whatever_its_rule(self, tmp_path, first, second):
        # The second fault's row is appended after the first fault's.
        files = tiny_rows()
        which, at, row, message = _FAULTS[first]
        other, _, late_row, _ = _FAULTS[second]
        assert which == other
        _put(files[which], at, row)
        files[which].append(late_row)
        assert parse_error(tmp_path, *files) == message

    @pytest.mark.parametrize(
        "row, message",
        [
            ("zzz,,2020-02-03", "release of unknown package 'zzz'"),
            (",1.0.0,nope", "release of unknown package ''"),
            ("c,,nope", "empty value in column 'version'"),
            ("a,1.0.0,nope", "column 'timestamp' has unparseable value 'nope'"),
        ],
    )
    def test_rules_of_one_row_apply_in_order(self, tmp_path, row, message):
        packages, releases, deps = tiny_rows()
        releases.append(row)
        assert parse_error(tmp_path, packages, releases, deps) == (
            f"D/releases.csv, line 9: {message}"
        )

    def test_first_of_two_duplicates_is_reported(self, tmp_path):
        packages, releases, deps = tiny_rows()
        packages += ["c", "a"]
        assert parse_error(tmp_path, packages, releases, deps) == (
            "D/packages.csv: duplicate package 'c' (lines 4 and 7)"
        )

    @pytest.mark.parametrize(
        "row, message",
        [
            ("p39999,9.9,p1,*,runtime", "dependency of unknown release p39999 9.9"),
            ("p39999,1.0,,*,runtime", "empty value in column 'target_package'"),
            ("p39999,1.0,p1", "3 fields, the header has 5"),
        ],
    )
    def test_fault_far_into_a_file_after_quoted_newlines(self, tmp_path, row, message):
        n = 40_005
        packages = [f"p{i}" for i in range(n)]
        releases = [f"p{i},1.0,2020-01-01" for i in range(n)]
        deps = [f"p{i},1.0,p{i + 1},*,runtime" for i in range(n - 1)]
        deps[7] = 'p7,1.0,p8,"*\n\n",runtime'  # lines 9 to 11
        deps.insert(100, "")  # a blank line, skipped
        deps.insert(40_003, row)
        # Past the header and the two extra lines of the quoted field.
        assert parse_error(tmp_path, packages, releases, deps) == (
            f"D/dependencies.csv, line {40_003 + 1 + 1 + 2}: {message}"
        )

    def test_duplicate_far_into_a_file(self, tmp_path):
        n = 40_005
        packages = [f"p{i}" for i in range(n)]
        packages[20] = '"p\n20"'  # lines 22 and 23
        packages.append("p17")
        assert parse_error(tmp_path, packages, [], []) == (
            f"D/packages.csv: duplicate package 'p17' (lines 19 and {n + 2 + 1})"
        )

    @pytest.mark.parametrize("block_rows, chunk_bytes", [
        pytest.param(rows, chunk, id=str(rows) if chunk is None else f"{rows}-chunk{chunk}")
        for rows, chunk in [(1, None), (2, None), (3, None), (4096, None),
                            (4096, 5), (4096, 16), (3, 40), (4096, 40), (4096, 128)]
    ])
    def test_matches_row_by_row_reference(self, tmp_path, monkeypatch, block_rows, chunk_bytes):
        # Blocks of a few rows, and chunks of a few bytes, put faults and
        # repeats on both sides of a block boundary and cut lines.
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
        if chunk_bytes is not None:
            monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk_bytes)
        rng = random.Random(20170402)
        failures = 0
        for k in range(300):
            directory = tmp_path / str(k)
            _random_csvs(rng, directory)
            try:
                expected = _reference_parse(directory)
            except DatasetError as exc:
                expected = str(exc)
                failures += 1
            try:
                d = parse_dataset(*(directory / name for name in _DATASET_FILES), TINY_CUTOFF)
            except DatasetError as exc:
                assert str(exc) == expected
                continue
            assert (d.names, list(d.releases), list(d.dependencies)) == expected
            for codes, table in (d.release_version, d.dependency_target,
                                 d.dependency_constraint, d.dependency_kind):
                assert len(set(table)) == len(table) and codes.dtype == np.int64
        assert 100 < failures < 250


def _no_parse(*args, **kwargs):
    raise AssertionError("the CSVs were parsed")


def _csv_only(monkeypatch) -> None:
    """Make the parse read every file with ``csv.reader``: no chunk is plain."""
    monkeypatch.setattr(ingest, "_plain_lines", lambda data, width: 0)


def parse_both_ways(tmp_path, monkeypatch, files: dict[str, bytes], chunk_bytes=None):
    """The dataset, or the message of its error with the directory as ``D``,
    parsed from ``files`` (name -> bytes, TINY's files for the rest) with
    plain chunks of ``chunk_bytes``, checked equal to the parse by
    ``csv.reader`` alone."""
    directory = write_dataset_csvs(tmp_path / "data", *tiny_rows())
    for name, data in files.items():
        (directory / name).write_bytes(data)
    paths = [directory / name for name in _DATASET_FILES]
    results = []
    for csv_only in (False, True):
        with monkeypatch.context() as patch:
            if chunk_bytes is not None:
                patch.setattr(ingest, "_CHUNK_BYTES", chunk_bytes)
            if csv_only:
                _csv_only(patch)
            try:
                d = parse_dataset(*paths, TINY_CUTOFF)
                results.append((d.names, list(d.releases), list(d.dependencies)))
            except DatasetError as exc:
                results.append(str(exc).replace(str(directory), "D"))
    assert results[0] == results[1]
    return results[0]


def _lines(*lines: str) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


RELEASES_HEADER = "package,version,timestamp"
DEPENDENCIES_HEADER = "source_package,source_version,target_package,constraint,kind"


class TestPlainChunks:
    @pytest.mark.parametrize("data, width, lines", [
        (b"a,b\nc,d\n", 2, 2),
        (b"a\n\0\n", 1, 2 if ingest._NUL_IS_DATA else 0),
        (b",\n", 2, 1),
        (b"a,b\nc,d", 2, 0),  # no final newline
        (b"", 1, 0),
        (b"a,b\n\nc,d\n", 2, 0),  # an empty line
        (b"\na\n", 1, 0),
        (b'a,"b"\n', 2, 0),
        (b"a,b\r\n", 2, 0),
        (b"a,b,c\nd\n", 2, 0),  # as many commas as two rows need, not one per line
        (b"a\nb,c,d\n", 2, 0),
        (b"a,b\n", 3, 0),
        (b"a,b\n", 0, 0),
    ])
    def test_plain_lines(self, data, width, lines):
        assert ingest._plain_lines(data, width) == lines

    def test_nul_is_not_plain_where_csv_reader_rejects_it(self, monkeypatch):
        monkeypatch.setattr(ingest, "_NUL_IS_DATA", False)
        assert ingest._plain_lines(b"a\n\0\n", 1) == 0
        assert ingest._plain_lines(b"a\nb\n", 1) == 2

    def test_line_over_the_field_limit_is_not_plain(self):
        limit = csv.field_size_limit()
        assert ingest._plain_lines(b"v" * limit + b"\n", 1) == 1
        assert ingest._plain_lines(b"v" * (limit + 1) + b"\n", 1) == 0

    def test_quoted_block_between_plain_chunks(self, tmp_path, monkeypatch):
        """Plain chunks, then a field holding a newline, then plain rows: the
        rows from that chunk on are read by csv.reader, and a fault after
        them names its physical line."""
        seen = []
        plain_lines = ingest._plain_lines
        monkeypatch.setattr(ingest, "_plain_lines",
                            lambda data, width: seen.append(plain_lines(data, width)) or seen[-1])
        n = 2000
        packages = [f"p{i}" for i in range(n)]
        releases = [f"p{i},1.0,2020-01-01" for i in range(n)]
        releases[1000] = 'p1000,"1.0\nx",2020-01-01'  # lines 1002 and 1003
        files = {"packages.csv": _lines("name", *packages),
                 "releases.csv": _lines(RELEASES_HEADER, *releases),
                 "dependencies.csv": _lines(DEPENDENCIES_HEADER)}
        names, got, _ = parse_both_ways(tmp_path, monkeypatch, files, chunk_bytes=4096)
        assert names == packages
        assert [r.version for r in got[999:1002]] == ["1.0", "1.0\nx", "1.0"]
        assert len(got) == n
        assert seen[1] > 0 and 0 in seen  # the first release chunk was plain, a later one not
        files["releases.csv"] = _lines(RELEASES_HEADER, *releases, "p1,1.0,2020-01-01")
        message = parse_both_ways(tmp_path, monkeypatch, files, chunk_bytes=4096)
        assert message == f"D/releases.csv: duplicate release p1 1.0 (lines 3 and {n + 3})"

    @pytest.mark.parametrize("chunk_bytes", [None, 8, 20])
    def test_no_final_newline(self, tmp_path, monkeypatch, chunk_bytes):
        packages, releases, deps = tiny_rows()
        files = {name: _lines(header, *rows)[:-1] for name, header, rows in zip(
            _DATASET_FILES, ("name", RELEASES_HEADER, DEPENDENCIES_HEADER),
            (packages, releases, deps))}
        expected = parse_both_ways(tmp_path / "a", monkeypatch, {})
        assert parse_both_ways(tmp_path / "b", monkeypatch, files, chunk_bytes) == expected
        files["packages.csv"] = b"name"
        assert parse_both_ways(tmp_path / "c", monkeypatch, files, chunk_bytes) == (
            "D/releases.csv, line 2: release of unknown package 'e'"
        )

    @pytest.mark.parametrize("at", [0, 2, 5])
    def test_blank_line_in_the_packages_file(self, tmp_path, monkeypatch, at):
        packages = tiny_rows()[0]
        packages.insert(at, "")
        files = {"packages.csv": _lines("name", *packages)}
        names, _, _ = parse_both_ways(tmp_path, monkeypatch, files)
        assert names == ["a", "b", "c", "d", "e"]
        packages.append('""')  # an empty name, line 8
        message = parse_both_ways(tmp_path / "e", monkeypatch, {"packages.csv": _lines(
            "name", *packages)})
        assert message == "D/packages.csv, line 8: empty value in column 'name'"

    def test_blank_line_inside_a_plain_chunk(self, tmp_path, monkeypatch):
        deps = [f"{source},{version},a,*,runtime"
                for source, version in [("c", "1.0.0"), ("c", "2.0.0")] * 50]
        deps.insert(60, "")
        deps.append("c,9.9,a,*,runtime")
        message = parse_both_ways(tmp_path, monkeypatch, {
            "dependencies.csv": _lines(DEPENDENCIES_HEADER, *deps)})
        assert message == "D/dependencies.csv, line 103: dependency of unknown release c 9.9"
        del deps[-1]
        _, _, got = parse_both_ways(tmp_path / "ok", monkeypatch, {
            "dependencies.csv": _lines(DEPENDENCIES_HEADER, *deps)})
        assert len(got) == 100

    def test_nul_bytes_are_data(self, tmp_path, monkeypatch):
        """As ``csv.reader`` reads them: data from Python 3.11 on, and
        before that a fault on their line."""
        releases = tiny_rows()[1]
        releases[0] = "e,1.0\0,2020-01-05"
        got = parse_both_ways(tmp_path, monkeypatch, {
            "releases.csv": _lines(RELEASES_HEADER, *releases)})
        if ingest._NUL_IS_DATA:
            assert got[1][0].version == "1.0\0"
        else:
            assert got == "D/releases.csv, line 2: line contains NUL"

    def test_fault_reread_names_a_line_csv_reader_rejects(self, tmp_path):
        """A row that ``csv.reader`` cannot read before a fault's row fails
        the re-read with its own line, not a ``csv.Error``."""
        path = tmp_path / "packages.csv"
        path.write_bytes(_lines("name", "a", "v" * (csv.field_size_limit() + 1), "b"))
        limit = csv.field_size_limit()
        with pytest.raises(DatasetError) as raised:
            ingest._fault(path, [(2, 0, "a fault")])
        assert str(raised.value) == f"{path}, line 3: field larger than field limit ({limit})"

    @pytest.mark.parametrize("quoted", [False, True])
    def test_field_over_the_limit_names_its_line(self, tmp_path, monkeypatch, quoted):
        releases = tiny_rows()[1]
        version = "v" * 200_000
        releases[1] = f'a,"{version}",2020-01-10' if quoted else f"a,{version},2020-01-10"
        message = parse_both_ways(tmp_path, monkeypatch, {
            "releases.csv": _lines(RELEASES_HEADER, *releases)})
        limit = csv.field_size_limit()
        assert message == f"D/releases.csv, line 3: field larger than field limit ({limit})"

    @pytest.mark.parametrize("name, data, line", [
        ("releases.csv", _lines(RELEASES_HEADER, "e,1.0.0,2020-01-05", "a,1.\xff,2020-01-10"), 3),
        ("packages.csv", _lines("na\xffme", "a"), 1),
        ("dependencies.csv", _lines(DEPENDENCIES_HEADER, 'a,1.1.0,b,"*\n",runtime',
                                    "c,1.0.0,a,\xff,runtime"), 4),
        ("packages.csv", b"name\r\na\r\nb\rc\n\xff\n", 5),
    ])
    @pytest.mark.parametrize("chunk_bytes", [None, 8])
    def test_bytes_that_are_not_utf8_name_their_line(
        self, tmp_path, monkeypatch, name, data, line, chunk_bytes
    ):
        data = data.replace("\xff".encode(), b"\xff")
        message = parse_both_ways(tmp_path, monkeypatch, {name: data}, chunk_bytes)
        assert message == f"D/{name}, line {line}: not valid UTF-8"

    def test_fallback_handle_is_closed_when_the_caller_stops(self, tmp_path):
        directory = write_dataset_csvs(tmp_path, *tiny_rows())
        path = directory / "dependencies.csv"
        path.write_bytes(_lines(DEPENDENCIES_HEADER, 'a,1.1.0,b,"*\n",runtime'))
        blocks = ingest._blocks(path, ["kind"])
        assert next(blocks) == (0, [("runtime",)])
        blocks.close()  # a ResourceWarning here is an error


class TestEarliestRowBeforeAnUnreadableRow:
    """A row that cannot be read ends the blocks only after the rows before
    it are checked, so an earlier fault wins."""

    @pytest.mark.parametrize("chunk_bytes", [None, 16])
    def test_unknown_package_before_bytes_that_are_not_utf8(
        self, tmp_path, monkeypatch, chunk_bytes
    ):
        releases = tiny_rows()[1][:4]
        releases[1] = "zzz,1.0.0,2020-01-10"  # line 3
        releases[3] = "c,1.\xff,2020-02-03"  # line 5
        data = _lines(RELEASES_HEADER, *releases).replace("\xff".encode(), b"\xff")
        message = parse_both_ways(tmp_path, monkeypatch, {"releases.csv": data}, chunk_bytes)
        assert message == "D/releases.csv, line 3: release of unknown package 'zzz'"

    def test_unknown_package_before_a_field_over_the_limit(self, tmp_path, monkeypatch):
        releases = tiny_rows()[1]
        releases[1] = "zzz,1.0.0,2020-01-10"  # line 3
        releases[3] = f"c,{'v' * 200_000},2020-02-03"  # line 5
        message = parse_both_ways(tmp_path, monkeypatch, {
            "releases.csv": _lines(RELEASES_HEADER, *releases)})
        assert message == "D/releases.csv, line 3: release of unknown package 'zzz'"


class TestReleaseJoin:
    def test_version_of_another_package_is_an_unknown_release(self, tmp_path, monkeypatch):
        deps = tiny_rows()[2]
        deps.append("a,2.0.0,b,*,runtime")  # 2.0.0 is a release of c only; line 7
        message = parse_both_ways(tmp_path, monkeypatch, {
            "dependencies.csv": _lines(DEPENDENCIES_HEADER, *deps)})
        assert message == "D/dependencies.csv, line 7: dependency of unknown release a 2.0.0"

    @pytest.mark.parametrize("late", [
        "p8,1,2020-13-01", "p8,1", "p8,\xff,2020-01-01", "q,1,2020-01-01"])
    @pytest.mark.parametrize("chunk_bytes, n", [(None, 6000), (16, 9)])
    def test_repeat_before_a_fault_in_a_later_block(
        self, tmp_path, monkeypatch, chunk_bytes, n, late
    ):
        # Each 16-byte chunk is one row, so the repeat crosses a chunk
        # boundary and the fault comes blocks later; at 6,000 rows the
        # default chunks cut the file twice.
        releases = [f"p{i},1,2020-01-01" for i in range(n)]
        releases[n // 2] = "p1,1,2020-01-01"  # repeats line 3
        releases[-1] = late.replace("p8", f"p{n - 1}")
        data = _lines(RELEASES_HEADER, *releases).replace("\xff".encode(), b"\xff")
        files = {"packages.csv": _lines("name", *(f"p{i}" for i in range(n))),
                 "releases.csv": data}
        message = parse_both_ways(tmp_path, monkeypatch, files, chunk_bytes)
        assert message == f"D/releases.csv: duplicate release p1 1 (lines 3 and {n // 2 + 2})"

    def test_records_join_to_the_first_of_a_repeated_release(self):
        packages = {PackageRecord(name, "default") for name in "pqr"}
        day = datetime(2020, 1, 1)
        releases = [ReleaseRecord(package, version, day) for package, version in [
            ("r", "2"), ("q", "1"), ("p", "2"), ("q", "1"), ("p", "1"), ("p", "2"), ("q", "1"),
        ]]
        deps = [DependencyRecord(package, version, "r", "*", "runtime")
                for package, version in [("q", "1"), ("p", "2"), ("p", "1"), ("r", "2")]]
        d = Dataset(packages, releases, deps, cutoff=day)
        assert d.dependency_source.tolist() == [1, 2, 4, 0]
        for source in [("p", "3"), ("r", "1"), ("s", "1")]:
            with pytest.raises(DatasetError) as raised:
                Dataset(packages, releases, [DependencyRecord(*source, "r", "*", "runtime")], day)
            assert str(raised.value) == f"no package or release {source!r}"
        with pytest.raises(DatasetError) as raised:
            Dataset(packages, [ReleaseRecord("s", "1", day)], [], day)
        assert str(raised.value) == "no package or release 's'"


@pytest.mark.perf
def test_plain_chunks_parse_the_perf_fixture_as_csv_reader_does(tmp_path, monkeypatch):
    """The 100k-package fixture parsed with plain chunks equals its parse by
    ``csv.reader`` alone, and the column files written from the two are
    byte-identical. The plain parse allocates at most 72 MiB at its peak:
    joining dependency rows to releases by integer keys keeps no string
    pair per release (54.5 MiB, against 97.8 MiB with a dict of pairs)."""
    config = GeneratorConfig(n_packages=100_000, months=60, seed=20170401,
                             attachment_bias=1.0, mean_deps=2.5, update_rate=0.03)
    write_dataset(generate(config), tmp_path / "data", config)
    tracemalloc.start()
    try:
        parsed = [ingest.load_dataset_dir(tmp_path / "data")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 72 * 2**20
    with monkeypatch.context() as patch:
        _csv_only(patch)
        parsed.append(ingest.load_dataset_dir(tmp_path / "data"))
    assert parsed[0] == parsed[1]
    files = []
    for k, d in enumerate(parsed):
        directory = tmp_path / str(k)
        directory.mkdir()
        ingest._write_columns(directory, "key", filter_dependencies(d), ingest._last_time(
            d.release_time))
        files.append((directory / ingest.COLUMN_FILE).read_bytes())
    assert files[0] == files[1]


class TestFilter:
    def test_tiny_all_runtime_unchanged(self, tiny):
        filtered = filter_dependencies(tiny, {"runtime"}, set())
        assert len(filtered.dependencies) == 5
        assert filtered == tiny

    def test_kind_filter_drops_dev_row(self, tmp_path):
        packages, releases, deps = tiny_rows()
        deps.append("a,1.1.0,c,*,dev")
        d = parse_tiny(tmp_path, packages, releases, deps)
        filtered = filter_dependencies(d, {"runtime"}, set())
        assert filtered.filter_report.kind_dropped == 1
        assert len(filtered.dependencies) == 5

    def test_unresolved_target_fraction(self, tmp_path):
        packages, releases, deps = tiny_rows()
        deps.append("a,1.1.0,zzz,*,runtime")
        d = parse_tiny(tmp_path, packages, releases, deps)
        filtered = filter_dependencies(d, {"runtime"}, set())
        assert filtered.filter_report.unresolved_deps_dropped == 1
        assert filtered.filter_report.unresolved_fraction == pytest.approx(1 / 6)
        assert len(filtered.dependencies) == 5

    def test_excluded_package_removed_entirely(self, tiny):
        filtered = filter_dependencies(tiny, {"runtime"}, {"c"})
        assert "c" not in filtered.package_names
        assert all(r.package != "c" for r in filtered.releases)
        assert all(dep.source_package != "c" for dep in filtered.dependencies)
        # d -> c now targets a missing package and is dropped as unresolved
        assert filtered.filter_report.excluded_releases_dropped == 2
        assert filtered.filter_report.excluded_deps_dropped == 3
        assert filtered.filter_report.unresolved_deps_dropped == 1

    def test_duplicate_rows_first_wins(self, tmp_path):
        packages, releases, deps = tiny_rows()
        deps.append("a,1.1.0,b,>=1,runtime")  # same (src, ver, target, kind)
        d = parse_tiny(tmp_path, packages, releases, deps)
        filtered = filter_dependencies(d, {"runtime"}, set())
        assert filtered.filter_report.duplicate_deps_dropped == 1
        kept = [
            dep
            for dep in filtered.dependencies
            if dep.source_package == "a" and dep.target_package == "b"
        ]
        assert len(kept) == 1
        assert kept[0].constraint == "*"

    def test_idempotent(self, tmp_path):
        packages, releases, deps = tiny_rows()
        deps += ["a,1.1.0,zzz,*,runtime", "d,1.0.0,b,*,dev"]
        d = parse_tiny(tmp_path, packages, releases, deps)
        once = filter_dependencies(d, {"runtime"}, {"e"})
        twice = filter_dependencies(once, {"runtime"}, {"e"})
        assert once == twice
        assert twice.filter_report.total_deps_dropped() == 0
        assert twice.filter_report.excluded_releases_dropped == 0

    def test_report_counts_match_size_deltas(self, tmp_path):
        rng = random.Random(7)
        kinds = ["runtime", "dev", "test", "imports"]
        packages = [f"p{i}" for i in range(8)]
        releases = [f"p{i},1.0.0,2020-01-{i + 1:02d}" for i in range(8)]
        deps = []
        for _ in range(40):
            src = rng.randrange(8)
            target = rng.choice(packages + ["ghost1", "ghost2"])
            deps.append(f"p{src},1.0.0,{target},*,{rng.choice(kinds)}")
        d = parse_tiny(tmp_path, packages, releases, deps)
        excluded = {"p3"}
        filtered = filter_dependencies(d, {"runtime", "imports"}, excluded)
        fr = filtered.filter_report
        assert len(filtered.dependencies) == len(d.dependencies) - fr.total_deps_dropped()
        assert len(filtered.releases) == len(d.releases) - fr.excluded_releases_dropped
        assert len(filtered.packages) == len(d.packages) - fr.excluded_packages_dropped

    def test_matches_row_by_row_reference(self, tmp_path):
        rng = random.Random(20170401)
        kinds = ["runtime", "imports", "normal", "dev", "test"]
        for _ in range(400):
            built = _random_filter_dataset(rng, kinds)
            included = set(rng.sample(kinds, rng.randint(1, len(kinds))))
            names = sorted(built.package_names) + ["ghost"]
            excluded = set(rng.sample(names, rng.randint(0, min(3, len(names)))))
            for d in constructed_and_reloaded(built, tmp_path / "d"):
                filtered = filter_dependencies(d, included, excluded)
                packages, releases, deps, report = _reference_filter(d, included, excluded)
                assert filtered.packages == packages
                assert filtered.releases == releases
                assert filtered.dependencies == deps
                assert asdict(filtered.filter_report) == asdict(report)

    def test_load_exclusions(self, tmp_path):
        f = tmp_path / "excl.txt"
        f.write_text("noise-pkg\n\nother-pkg\n", encoding="utf-8")
        assert load_exclusions(f) == {"noise-pkg", "other-pkg"}


class TestLoadFiltered:
    """``load_filtered`` and ``parse_filtered`` give what
    ``filter_dependencies(load_dataset_dir(...))`` gives, from the CSVs and
    from the column file that the parse leaves; ``parse_filtered`` also
    gives ``validate_dataset`` of the parsed dataset."""

    @pytest.mark.parametrize("kinds, excluded", [
        (DEFAULT_INCLUDED_KINDS, ()),
        ([" Runtime", "DEV "], {"b"}),
        ((), ["a", "nobody"]),
    ], ids=["default", "padded kinds and an exclusion", "no kinds"])
    def test_both_paths_equal_the_filtered_parse(self, tmp_path, monkeypatch, kinds, excluded):
        packages, releases, deps = tiny_rows()
        deps += ["d,1.0.0,ghost,*,runtime", "a,1.1.0,e,*,Dev", "c,2.0.0,b,*,test",
                 "a,1.1.0,b,*,runtime"]
        directory = write_dataset_csvs(tmp_path / "data", packages, releases, deps)
        options = {"cutoff": TINY_CUTOFF, "kinds": kinds, "excluded": excluded}
        raw = load_dataset_dir(directory, cutoff=TINY_CUTOFF)
        expected = filter_dependencies(raw, kinds, excluded)
        report, cold = ingest.parse_filtered(directory, **options)
        loaded = [cold, ingest.load_filtered(directory, **options)]
        (directory / ingest.COLUMN_FILE).unlink()
        loaded.append(ingest.load_filtered(directory, **options))
        with monkeypatch.context() as patch:
            patch.setattr(ingest, "load_dataset_dir", _no_parse)
            loaded.append(ingest.load_filtered(directory, **options))
        assert report == validate_dataset(raw)
        for d in loaded:
            assert d == expected
            assert asdict(d.filter_report) == asdict(expected.filter_report)
            assert d.dependency_target.table is d.names


class TestRoundTrip:
    def test_parse_write_parse(self, tiny, tmp_path):
        write_dataset(tiny, tmp_path / "out")
        again = parse_dataset(
            tmp_path / "out" / "packages.csv",
            tmp_path / "out" / "releases.csv",
            tmp_path / "out" / "dependencies.csv",
            tiny.cutoff,
            ecosystem="tiny",
        )
        assert again == tiny

    def test_fields_with_commas_and_quotes(self, tmp_path):
        d = Dataset(
            packages={PackageRecord("a,b", "x"), PackageRecord('q"uote', "x")},
            releases=[
                ReleaseRecord("a,b", "1.0.0", datetime(2020, 1, 1)),
                ReleaseRecord('q"uote', "2.0.0", datetime(2020, 1, 2)),
            ],
            dependencies=[
                DependencyRecord("a,b", "1.0.0", 'q"uote', ">=1.0,<2.0", "runtime"),
            ],
            cutoff=datetime(2020, 2, 1),
            ecosystem="x",
        )
        write_dataset(d, tmp_path / "x")
        again = load_dataset_dir(tmp_path / "x")
        assert again == d
        assert filter_dependencies(again).dependencies == d.dependencies

    @pytest.mark.parametrize("name", ["a\rb", "a\r\nb", " a", "a\t", " "])
    def test_carriage_returns_and_padding_round_trip(self, tmp_path, name):
        d = Dataset(
            packages={PackageRecord(name, "x"), PackageRecord("c", "x")},
            releases=[
                ReleaseRecord(name, " 1.0\r", datetime(2020, 1, 1)),
                ReleaseRecord("c", "1.0", datetime(2020, 1, 2)),
            ],
            dependencies=[DependencyRecord("c", "1.0", name, "\r", "runtime ")],
            cutoff=datetime(2020, 2, 1),
            ecosystem="x",
        )
        write_dataset(d, tmp_path / "x")
        assert load_dataset_dir(tmp_path / "x") == d

    def test_write_csv_quotes_only_rows_with_carriage_returns(self):
        buf = io.StringIO()
        write_csv(buf, ["h1", "h2"], [["a,b", "c"], ["d\re", "f"], ["g\nh", " i "]])
        assert buf.getvalue() == 'h1,h2\n"a,b",c\n"d\re","f"\n"g\nh", i \n'

    @pytest.mark.parametrize("field", ["a,b", 'say "hi"', "x\ry", "line\nbreak", ""])
    def test_write_csv_quotes_a_field_alone_in_its_block(self, field):
        """Each kind of field that needs quoting, the only one in a block of
        plain rows, is written as csv.writer writes it and reads back."""
        rows = [[f"pkg-{k}"] for k in range(2 * ingest._BLOCK_ROWS)]
        rows[ingest._BLOCK_ROWS + 3] = [field]
        buf = io.StringIO()
        write_csv(buf, ["name"], rows)
        expected = io.StringIO()
        plain = csv.writer(expected, lineterminator="\n")
        quoted = csv.writer(expected, lineterminator="\n", quoting=csv.QUOTE_ALL)
        plain.writerow(["name"])
        for row in rows:
            (quoted if "\r" in row[0] else plain).writerow(row)
        assert buf.getvalue() == expected.getvalue()
        assert list(csv.reader(io.StringIO(buf.getvalue())))[1:] == rows

    def test_load_takes_cutoff_from_manifest(self, tiny, tmp_path):
        write_dataset(tiny, tmp_path / "out")
        assert load_dataset_dir(tmp_path / "out", ecosystem="tiny") == tiny

    def test_load_takes_ecosystem_from_manifest(self, tiny, tmp_path):
        write_dataset(tiny, tmp_path / "out")
        assert load_dataset_dir(tmp_path / "out") == tiny
        assert load_dataset_dir(tmp_path / "out", ecosystem="npm").ecosystem == "npm"
        (tmp_path / "out" / "manifest.json").unlink()
        assert load_dataset_dir(tmp_path / "out").ecosystem == "out"

    def test_non_string_manifest_ecosystem(self, tiny, tmp_path):
        write_dataset(tiny, tmp_path / "out")
        (tmp_path / "out" / "manifest.json").write_text('{"ecosystem": 7}', encoding="utf-8")
        with pytest.raises(DatasetError, match="manifest.json"):
            load_dataset_dir(tmp_path / "out")

    def test_unreadable_manifest_cutoff(self, tiny, tmp_path):
        write_dataset(tiny, tmp_path / "out")
        (tmp_path / "out" / "manifest.json").write_text('{"cutoff": "soon"}', encoding="utf-8")
        with pytest.raises(DatasetError, match="manifest.json"):
            load_dataset_dir(tmp_path / "out")


class TestLoadFootprint:
    def test_load_leaves_fewer_tracked_objects_than_packages(self, tmp_path):
        # The loaded dataset keeps its rows as numpy columns and tables of
        # strings, which the cyclic collector does not track; per-row
        # objects would show up here, and every full collection would walk
        # them again.
        cfg = GeneratorConfig(n_packages=5000, months=24, seed=3, mean_deps=2.5)
        write_dataset(generate(cfg), tmp_path / "d", cfg)
        gc.collect()
        before = len(gc.get_objects())
        d = filter_dependencies(load_dataset_dir(tmp_path / "d"))
        d.index()
        assert len(gc.get_objects()) - before < cfg.n_packages


class TestCollectorUntouched:
    @pytest.mark.parametrize("source", ["tiny", "generated"])
    def test_depnet_never_switches_the_collector(self, tmp_path, monkeypatch, capsys, source):
        # The collector's state is process-wide; a library that switched it
        # could undo a host thread's own setting.
        directory = tmp_path / source
        if source == "tiny":
            write_tiny(directory)
        else:
            cfg = GeneratorConfig(n_packages=300, months=12, seed=5, mean_deps=2.5)
            write_dataset(generate(cfg), directory, cfg)

        def switched():
            raise AssertionError("the cyclic garbage collector was switched")

        monkeypatch.setattr(gc, "disable", switched)
        monkeypatch.setattr(gc, "enable", switched)
        d = filter_dependencies(load_dataset_dir(directory))
        d.index()
        g = build_snapshot(d, d.cutoff)
        g.int_view()
        g.in_adjacency()
        transitive_dependency_counts(g)
        transitive_dependent_counts(g)
        last = month_of(d.cutoff)
        ecosystem_scan(d, add_months(last, -1), last, jobs=1)
        for package in g.names:
            dependency_depth(g, package)
        dependency_depths(g)
        at = ["--at", format_month(last)]
        # distribution deps runs twice: parsing cold, then from the column file.
        for argv in (["validate"], ["distribution", "deps", *at], ["distribution", "deps", *at]):
            assert cli.run([*argv, "--dataset", str(directory)]) == 0, capsys.readouterr().err


def reference_index(d: Dataset) -> dict:
    """The index of ``d`` by plain sorts over its records: releases in
    (position, timestamp, version, row) order, dependency rows in (entry,
    row) order, updates in (timestamp, entry) order. A dependency row
    belongs to the first release of its (package, version)."""
    records = list(d.releases)
    package = [d.package_ids[r.package] for r in records]
    packages = list(dict.fromkeys(package))
    position = {pid: k for k, pid in enumerate(packages)}
    releases = sorted(
        range(len(records)),
        key=lambda r: (
            position[package[r]], records[r].timestamp, version_sort_key(records[r].version), r
        ),
    )
    offsets = [sum(position[package[r]] < k for r in releases) for k in range(len(packages) + 1)]
    entry_positions = [position[package[r]] for r in releases]
    times_us = [(records[r].timestamp - EPOCH) // timedelta(microseconds=1) for r in releases]
    positions = {d.names[pid]: k for k, pid in enumerate(packages)}
    release_ids: dict = {}
    for rid, r in enumerate(records):
        release_ids.setdefault((r.package, r.version), rid)
    deps = list(d.dependencies)
    source = [release_ids[dep.source_package, dep.source_version] for dep in deps]
    entry_of = {r: j for j, r in enumerate(releases)}
    rows = sorted(range(len(source)), key=lambda i: (entry_of[source[i]], i))
    first = set(offsets[:-1])
    updates = sorted((j for j in range(len(releases)) if j not in first), key=times_us.__getitem__)
    return {
        "packages": packages,
        "releases": releases,
        "offset_array": offsets,
        "entry_positions": entry_positions,
        "times_us": times_us,
        "row_entries": [entry_of[source[i]] for i in rows],
        "row_targets": [positions.get(deps[i].target_package, len(packages)) for i in rows],
        "update_times_us": [times_us[j] for j in updates],
        "update_positions": [entry_positions[j] for j in updates],
    }


def _packages_reversed(directory) -> Dataset:
    """The dataset in ``directory`` parsed with its package rows in reverse
    order, so that package ids no longer follow name order."""
    path = directory / "packages.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([header, *reversed(rows)]) + "\n", encoding="utf-8")
    return load_dataset_dir(directory)


class TestIndex:
    def test_index_matches_reference_sorts(self, tmp_path):
        # Edge cases: version ties at one instant, versions against time,
        # updates of several packages at one instant, listed packages
        # without releases, targets without a package row, no package.
        # Each raw dataset is also indexed filtered, with and without an
        # excluded package: then the target table is the package table.
        rng = random.Random(20170403)
        for _ in range(300):
            raw = constructed_and_reloaded(edge_case_dataset(rng), tmp_path / "d")
            raw += (_packages_reversed(tmp_path / "d"),)
            filtered = [filter_dependencies(d) for d in raw]
            filtered += [filter_dependencies(d, excluded_packages=d.names[:1]) for d in raw]
            assert all(d.dependency_target.table is d.names for d in filtered)
            for d in (*raw, *filtered):
                expected = reference_index(d)
                idx = d.index()
                got = {}
                for name in expected:
                    array = getattr(idx, name)
                    assert array.dtype == (np.int32 if name.startswith("row_") else np.int64)
                    got[name] = array.tolist()
                assert got == expected, d


class TestRunStarts:
    """The users of ``ingest._run_starts`` against plain oracles, on seeded
    random arrays with repeats, of lengths 0 and 1 among others."""

    @staticmethod
    def arrays(rng: random.Random, width: int = 1):
        for length in (0, 1, 2, *(rng.randint(3, 60) for _ in range(150))):
            high = rng.choice((1, 3, 10, 1000))
            yield [np.array([rng.randint(-high, high) for _ in range(length)]) for _ in range(width)]

    def test_first_of_each_key_matches_a_seen_set(self):
        rng = random.Random(1)
        for width in (1, 2, 3):
            for columns in self.arrays(rng, width):
                seen, expected = set(), []
                for key in zip(*(c.tolist() for c in columns)):
                    expected.append(key not in seen)
                    seen.add(key)
                got = ingest._first_of_each_key(*columns)
                assert got.dtype == bool
                assert got.tolist() == expected, columns

    @staticmethod
    def seen_set(columns) -> list[bool]:
        seen, expected = set(), []
        for key in zip(*(c.tolist() for c in columns)):
            expected.append(key not in seen)
            seen.add(key)
        return expected

    def test_first_of_each_key_mixes_int32_and_int64_columns(self):
        rng = random.Random(4)
        for a, b, c in self.arrays(rng, 3):
            columns = (a.astype(np.int32), b, c.astype(np.int32))
            assert ingest._first_of_each_key(*columns).tolist() == self.seen_set(columns)

    def test_first_of_each_key_with_a_column_of_one_value(self):
        rng = random.Random(5)
        for a, b in self.arrays(rng, 2):
            for columns in ((np.full(len(a), 7), b), (a, np.full(len(a), -3, np.int32))):
                assert ingest._first_of_each_key(*columns).tolist() == self.seen_set(columns)

    @pytest.mark.parametrize("low", [0, -(1 << 40), 1 << 40])
    def test_first_of_each_key_just_under_the_int64_bound(self, low):
        # Ranges 2**32 and 2**31 - 1: their product is 2**63 - 2**32, and
        # the keys reach the top of int64.
        rng = random.Random(6)
        top = (1 << 32) - 1, (1 << 31) - 2
        a = np.array([low + rng.choice((0, 1, top[0] - 1, top[0])) for _ in range(200)] + [low])
        b = np.array([low + rng.choice((0, 1, top[1] - 1, top[1])) for _ in range(200)] + [low])
        a[-2], b[-2] = low + top[0], low + top[1]
        assert ingest._first_of_each_key(a, b).tolist() == self.seen_set((a, b))
        # One column of range 2**63 - 1.
        one = np.array([-(1 << 62), 0, (1 << 62) - 2, 0, -(1 << 62)])
        assert ingest._first_of_each_key(one).tolist() == [True, True, True, False, False]

    def test_first_of_each_key_refuses_ranges_past_the_int64_bound(self):
        a, b = np.array([0, (1 << 32) - 1]), np.array([5, 5 + (1 << 31) - 1], np.int64)
        with pytest.raises(ValueError, match="overflow"):
            ingest._first_of_each_key(a, b)
        extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max])
        with pytest.raises(ValueError, match="overflow"):
            ingest._first_of_each_key(extremes)
        with pytest.raises(ValueError, match="overflow"):
            ingest._first_of_each_key(np.array([-1, (1 << 63) - 1]))
        # An empty key is no key at all: nothing to overflow.
        assert ingest._first_of_each_key(np.array([], np.int64)).tolist() == []

    def test_sorted_unique_matches_np_unique(self):
        rng = random.Random(2)
        for (keys,) in self.arrays(rng):
            assert _sorted_unique(keys.copy()).tolist() == np.unique(keys).tolist()

    def test_grouped_matches_np_unique_inverse(self):
        rng = random.Random(3)
        for (values,) in self.arrays(rng):
            durations = values / 4.0
            times, group = _grouped(durations)
            expected_times, expected_group = np.unique(durations, return_inverse=True)
            assert times.tolist() == expected_times.tolist()
            assert group.tolist() == expected_group.tolist()


class TestDatasetRecords:
    def test_record_views_slice_like_lists(self, tiny):
        assert tiny.releases[:3] == list(tiny.releases)[:3]
        assert tiny.dependencies[-2:] == list(tiny.dependencies)[-2:]
        assert tiny.releases[-1] == list(tiny.releases)[-1]

    def test_package_record_of_other_ecosystem_rejected(self):
        with pytest.raises(DatasetError, match="'npm'"):
            Dataset(
                packages={PackageRecord("p", "npm"), PackageRecord("q", "cran")},
                releases=[],
                dependencies=[],
                cutoff=datetime(2020, 1, 1),
                ecosystem="npm",
            )

    def test_repeated_release_dependencies_belong_to_first(self):
        # validate_dataset reports the repeat; until the data is mended, the
        # later copy has no dependency rows of its own.
        d = Dataset(
            packages={PackageRecord("p", "default"), PackageRecord("q", "default")},
            releases=[
                ReleaseRecord("q", "1", datetime(2020, 1, 1)),
                ReleaseRecord("p", "1", datetime(2020, 1, 2)),
                ReleaseRecord("p", "1", datetime(2020, 1, 3)),
            ],
            dependencies=[DependencyRecord("p", "1", "q", "*", "runtime")],
            cutoff=datetime(2020, 2, 1),
        )
        assert d.dependency_source.tolist() == [1]
        assert build_snapshot(d, datetime(2020, 1, 2)).out_degree("p") == 1
        assert build_snapshot(d, datetime(2020, 1, 3)).out_degree("p") == 0

    def test_records_lowercase_kinds_as_the_parse_does(self, tmp_path):
        # A kind given as "Runtime" passes the default filter and reads back
        # equal from the CSVs that write_dataset makes of it.
        d = Dataset(
            packages={PackageRecord("p", "default"), PackageRecord("q", "default")},
            releases=[
                ReleaseRecord("q", "1", datetime(2020, 1, 1)),
                ReleaseRecord("p", "1", datetime(2020, 1, 2)),
            ],
            dependencies=[DependencyRecord("p", "1", "q", "*", "Runtime")],
            cutoff=datetime(2020, 2, 1),
        )
        assert [dep.kind for dep in d.dependencies] == ["runtime"]
        assert len(filter_dependencies(d).dependencies) == 1
        write_dataset(d, tmp_path / "d")
        assert load_dataset_dir(tmp_path / "d") == d

    def test_every_constructor_keeps_coded_tables_distinct(self, tmp_path):
        # Equal codes must mean equal strings: kinds that differ only in
        # case share one lowercased table value, and the filter, the record
        # constructor and the generator keep or build distinct tables.
        packages, releases, deps = tiny_rows()
        deps[1] = "c,1.0.0,a,*,Runtime"
        deps[2] = "c,2.0.0,a,*,RUNTIME"
        parsed = parse_tiny(tmp_path, packages, releases, deps)
        assert parsed.dependency_kind.table == ["runtime"]
        assert parsed.dependency_kind.codes.tolist() == [0] * 5
        built = Dataset(parsed.packages, parsed.releases, parsed.dependencies, parsed.cutoff)
        generated = generate(GeneratorConfig(n_packages=50, months=6, seed=1))
        excluded = filter_dependencies(parsed, excluded_packages={"b"})
        for d in (parsed, excluded, built, generated):
            for codes, table in (d.release_version, d.dependency_target,
                                 d.dependency_constraint, d.dependency_kind):
                assert len(set(table)) == len(table)
                assert codes.dtype == np.int64 and all(0 <= c < len(table) for c in codes.tolist())

    def test_every_constructor_codes_targets_by_package_id(self, tmp_path):
        # A target code below len(names) is that package id, and a target
        # that is no package has a code past them; the package rows are
        # given out of name order, so ids and name order differ.
        packages, releases, deps = tiny_rows()
        packages.reverse()
        deps += ["d,1.0.0,ghost,*,runtime", "a,1.1.0,e,*,dev", "c,2.0.0,phantom,*,runtime",
                 "a,1.0.0,ghost,*,runtime"]
        parsed = parse_tiny(tmp_path, packages, releases, deps)
        built = Dataset(parsed.packages, parsed.releases, parsed.dependencies, parsed.cutoff)
        generated = generate(GeneratorConfig(n_packages=50, months=6, seed=1))
        filtered = filter_dependencies(parsed, included_kinds={"runtime", "dev"})
        excluded = filter_dependencies(parsed, excluded_packages={"b"})
        directory = tmp_path / "data"
        ingest._write_columns(directory, "key", excluded, ingest._last_time(parsed.release_time))
        warm = ingest._read_columns(directory, "key", parsed.cutoff, parsed.ecosystem)
        assert warm == excluded
        for d in (parsed, built, generated, filtered, excluded, warm):
            n = len(d.names)
            for code, name in zip(d.dependency_target.codes.tolist(), d.dependency_target.decode()):
                assert (code < n) == (name in d.package_ids), name
                if code < n:
                    assert d.names[code] == name
        assert parsed.names != built.names
        for d in (parsed, built):
            assert d.dependency_target.table == [*d.names, "ghost", "phantom"]


class TestValidate:
    def test_tiny_clean(self, tiny):
        report = validate_dataset(tiny)
        assert report.is_clean

    def test_burst_warning_flags_mass_import(self):
        # ~20 releases/month for 18 months, then a 25k spike.
        packages = {PackageRecord(f"p{i}", "default") for i in range(18 * 20 + 25000)}
        releases = []
        k = 0
        for month in range(18):
            year, mon = 2015 + month // 12, month % 12 + 1
            for _ in range(20):
                releases.append(ReleaseRecord(f"p{k}", "1.0.0", datetime(year, mon, 15)))
                k += 1
        for _ in range(25000):
            releases.append(ReleaseRecord(f"p{k}", "1.0.0", datetime(2016, 8, 3)))
            k += 1
        d = Dataset(packages=packages, releases=releases, dependencies=[], cutoff=datetime(2016, 9, 1))
        report = validate_dataset(d)
        assert [w.month for w in report.burst_warnings] == [(2016, 8)]
        assert report.burst_warnings[0].count == 25000
        assert report.burst_warnings[0].trailing_median == 20.0

    def test_ordering_flag_on_version_time_conflict(self):
        packages = {PackageRecord("p", "default")}
        releases = [
            ReleaseRecord("p", "2.0.0", datetime(2020, 1, 1)),
            ReleaseRecord("p", "1.9.0", datetime(2020, 2, 1)),
        ]
        d = Dataset(packages=packages, releases=releases, dependencies=[], cutoff=datetime(2020, 3, 1))
        report = validate_dataset(d)
        assert report.ordering_flags == ["p"]

    def test_duplicate_release_reported(self):
        packages = {PackageRecord("p", "default")}
        releases = [
            ReleaseRecord("p", "1.0.0", datetime(2020, 1, 1)),
            ReleaseRecord("p", "1.0.0", datetime(2020, 2, 1)),
        ]
        d = Dataset(packages=packages, releases=releases, dependencies=[], cutoff=datetime(2020, 3, 1))
        report = validate_dataset(d)
        assert report.duplicate_releases == [("p", "1.0.0")]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sorting_every_package(self, seed, tmp_path):
        # Packages with one to four releases, interleaved; "1.0" and "1.00"
        # tie on the version key, so release order breaks the tie. A parse
        # rejects repeated releases, so the parsed copies leave them out;
        # their package ids follow file order, not name order.
        rng = random.Random(seed)
        names = [f"p{i}" for i in range(40)]
        releases = [
            ReleaseRecord(name, rng.choice(["1.0", "1.00", "1.1", "2.0", "1.0.a"]),
                          datetime(2020, 1, rng.randint(1, 5)))
            for name in names
            for _ in range(rng.choice([1, 1, 2, 3, 4]))
        ]
        rng.shuffle(releases)
        d = Dataset(
            packages={PackageRecord(name, "default") for name in names},
            releases=releases, dependencies=[], cutoff=datetime(2020, 2, 1),
        )
        duplicates, flags = _reference_validation(d)
        assert duplicates and flags
        once = Dataset(
            packages=d.packages,
            releases=list({(r.package, r.version): r for r in reversed(releases)}.values()),
            dependencies=[], cutoff=d.cutoff,
        )
        parsed = constructed_and_reloaded(once, tmp_path / "d")[1:]
        for dataset in (d, *parsed, _packages_reversed(tmp_path / "d")):
            duplicates, flags = _reference_validation(dataset)
            report = validate_dataset(dataset)
            assert report.duplicate_releases == duplicates
            assert report.ordering_flags == flags
        assert flags

    def test_bursts_match_counting_months(self):
        # Months on both sides of year boundaries and of the epoch, with
        # gaps; some months far above their trailing median.
        rng = random.Random(11)
        releases = []
        for month in range(-30, 30):
            year, mon = 1970 + month // 12, month % 12 + 1
            count = 40 if month in (-13, -1, 0, 12) else rng.choice([0, 1, 2, 3, 3])
            for k in range(count):
                day = datetime(year, mon, 1) + (datetime(year + mon // 12, mon % 12 + 1, 1)
                                                - datetime(year, mon, 1)) * rng.random()
                releases.append(ReleaseRecord(f"p{len(releases)}", "1", day))
        rng.shuffle(releases)
        d = Dataset(
            packages={PackageRecord(r.package, "default") for r in releases},
            releases=releases, dependencies=[], cutoff=datetime(1980, 1, 1),
        )
        counts = Counter(month_of(r.timestamp) for r in releases)
        months = list(iter_months(min(counts), max(counts)))
        series = [counts[m] for m in months]
        expected = [
            (months[i], series[i], statistics.median(series[i - 12 : i]))
            for i in range(12, len(series))
            if 0 < statistics.median(series[i - 12 : i]) < series[i] / 3
        ]
        report = validate_dataset(d, burst_factor=3)
        got = [(w.month, w.count, w.trailing_median) for w in report.burst_warnings]
        assert got == expected
        assert any(m[0] < 1970 for m, _, _ in expected)
        assert any(m[1] == 1 for m, _, _ in expected)

    def test_burst_across_a_year_boundary(self):
        releases = [
            ReleaseRecord(f"p{month}-{k}", "1", datetime(2015 + month // 12, month % 12 + 1, 28))
            for month in range(1, 13)
            for k in range(2)
        ]
        releases += [ReleaseRecord(f"q{k}", "1", datetime(2016, 2, 1)) for k in range(30)]
        d = Dataset(
            packages={PackageRecord(r.package, "default") for r in releases},
            releases=releases, dependencies=[], cutoff=datetime(2016, 3, 1),
        )
        assert validate_dataset(d).burst_warnings == [BurstWarning((2016, 2), 30, 2)]

    def test_dataset_without_releases_is_clean(self):
        d = Dataset(
            packages={PackageRecord("p", "default")}, releases=[], dependencies=[],
            cutoff=datetime(2020, 1, 1),
        )
        assert validate_dataset(d) == ValidationReport()


def _reference_validation(d: Dataset) -> tuple[list, list]:
    """The repeated releases in row order, and the packages whose releases
    in version order (row order among equal versions) are not strictly
    increasing in time, in name order."""
    seen = set()
    duplicates = []
    by_package: dict[str, list] = {}
    for r in d.releases:
        if (r.package, r.version) in seen:
            duplicates.append((r.package, r.version))
        seen.add((r.package, r.version))
        by_package.setdefault(r.package, []).append((r.version, r.timestamp))
    flags = []
    for name in sorted(by_package):
        ordered = sorted(by_package[name], key=lambda r: version_sort_key(r[0]))
        times = [ts for _, ts in ordered]
        if any(b <= a for a, b in zip(times, times[1:])):
            flags.append(name)
    return duplicates, flags


class TestVersionKey:
    @pytest.mark.parametrize(
        "lo,hi",
        [
            ("1.0.0", "1.1.0"),
            ("1.9.0", "1.10.0"),
            ("1.9.0", "2.0.0"),
            ("1.0", "1.0.1"),
            ("1.0.0", "1.0.0-alpha"),
        ],
    )
    def test_ordering(self, lo, hi):
        assert version_sort_key(lo) < version_sort_key(hi)

    def test_equal(self):
        assert version_sort_key("2.10.3") == version_sort_key("2.10.3")
