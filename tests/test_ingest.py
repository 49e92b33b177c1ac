from __future__ import annotations

import gc
import io
import random
from dataclasses import asdict
from datetime import datetime

import pytest

from depnet.ingest import (
    Dataset,
    DatasetError,
    DependencyRecord,
    FilterReport,
    PackageRecord,
    ReleaseRecord,
    filter_dependencies,
    load_dataset_dir,
    load_exclusions,
    parse_dataset,
    validate_dataset,
    version_sort_key,
    write_csv,
)
from depnet.fixtures import GeneratorConfig, generate, write_dataset
from depnet.snapshot import build_snapshot

from conftest import constructed_and_reloaded, write_dataset_csvs

TINY_CUTOFF = datetime(2020, 4, 1)


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
        # The loaded dataset keeps its rows as columns of strings, ints and
        # datetimes, which the cyclic collector does not track; per-row
        # objects would show up here, and every full collection would walk
        # them again.
        cfg = GeneratorConfig(n_packages=5000, months=24, seed=3, mean_deps=2.5)
        write_dataset(generate(cfg), tmp_path / "d", cfg)
        gc.collect()
        before = len(gc.get_objects())
        d = filter_dependencies(load_dataset_dir(tmp_path / "d"))
        d.index()
        assert len(gc.get_objects()) - before < cfg.n_packages


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
        assert d.dependency_source == [1]
        assert build_snapshot(d, datetime(2020, 1, 2)).out_degree("p") == 1
        assert build_snapshot(d, datetime(2020, 1, 3)).out_degree("p") == 0


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
