from __future__ import annotations

import csv
import io
import json
import sys
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime

import pytest

from depnet import evolution
from depnet.cli import run
from depnet.fixtures import write_dataset, write_tiny
from depnet.graphops import (
    dependency_depth,
    top_level_packages,
    transitive_dependencies,
    transitive_dependents,
)
from depnet.ingest import (
    Dataset,
    DependencyRecord,
    PackageRecord,
    ReleaseRecord,
    filter_dependencies,
    load_dataset_dir,
)
from depnet.snapshot import build_snapshot

from conftest import write_dataset_csvs


@pytest.fixture()
def tiny_dir(tmp_path):
    d = tmp_path / "tiny"
    write_tiny(d)
    return d


def invoke(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tiny_args(tiny_dir):
    return ["--dataset", tiny_dir, "--cutoff", "2020-04-01"]


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 2

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys)
        assert code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, tiny_dir, jobs):
        code, out, err = invoke(
            capsys, "series", "growth", "--from", "2020-01", "--to", "2020-03",
            "--jobs", jobs, *tiny_args(tiny_dir),
        )
        assert code == 2
        assert out == ""
        assert err == f"depnet: --jobs must be at least 1, not {jobs}\n"

    @pytest.mark.parametrize("factor", ["0", "-1", "nan", "inf"])
    def test_burst_factor_not_positive_finite_is_usage_error(self, capsys, tiny_dir, factor):
        code, out, err = invoke(
            capsys, "validate", "--burst-factor", factor, *tiny_args(tiny_dir)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("depnet: --burst-factor must be a positive finite number")
        assert err.count("\n") == 1

    def test_missing_dataset_is_data_error(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "snapshot", "--at", "2020-01-01", "--dataset", tmp_path / "nope"
        )
        assert code == 1
        assert "depnet:" in err

    def test_inverted_range_is_data_error(self, capsys, tiny_dir):
        code, _, err = invoke(
            capsys,
            "series", "growth", "--from", "2020-05", "--to", "2020-02",
            *tiny_args(tiny_dir),
        )
        assert code == 1

    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_series_changeability_rejects_non_positive_window(self, capsys, tiny_dir, window):
        code, out, err = invoke(
            capsys,
            "series", "index", "--index", "changeability", "--window-days", window,
            "--from", "2020-02", "--to", "2020-04", *tiny_args(tiny_dir),
        )
        assert code == 1
        assert out == ""
        assert "window_days must be positive" in err

    def test_series_updates_beyond_cutoff_is_data_error(self, capsys, tiny_dir):
        code, out, err = invoke(
            capsys,
            "series", "updates", "--from", "2020-02", "--to", "2021-02",
            *tiny_args(tiny_dir),
        )
        assert code == 1
        assert out == ""
        assert "beyond the dataset cutoff" in err

    @pytest.mark.parametrize("command", [("distribution", "updates"), ("index", "changeability")])
    def test_instant_beyond_cutoff_names_the_cutoff(self, capsys, tiny_dir, command):
        code, out, err = invoke(capsys, *command, "--at", "2021-01", *tiny_args(tiny_dir))
        assert code == 1
        assert out == ""
        assert "2020-04-01T00:00:00" in err


class _ClosedStdout:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestFailureMessages:
    # capsys comes before monkeypatch so that sys.stdout is restored to
    # the capture before the capture itself is torn down.
    def test_closed_stdout(self, capsys, monkeypatch, tiny_dir):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        code, _, err = invoke(
            capsys, "distribution", "deps", "--at", "2020-04-01", *tiny_args(tiny_dir)
        )
        assert code == 1
        assert err.startswith("depnet: ") and err.count("\n") == 1

    def test_dead_worker(self, capsys, monkeypatch, tiny_dir):
        def dead_pool(*args, **kwargs):
            raise BrokenProcessPool("a worker was terminated abruptly")

        monkeypatch.setattr(evolution, "_map_months", dead_pool)
        code, out, err = invoke(
            capsys, "series", "growth", "--from", "2020-02", "--to", "2020-04",
            "--jobs", "2", *tiny_args(tiny_dir),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("depnet: ") and err.count("\n") == 1


class TestSeries:
    def test_growth_rows(self, capsys, tiny_dir):
        code, out, _ = invoke(
            capsys,
            "series", "growth", "--from", "2020-02", "--to", "2020-04",
            *tiny_args(tiny_dir),
        )
        assert code == 0
        assert out.splitlines() == [
            "month,packages,dependencies",
            "2020-02,3,0",
            "2020-03,4,2",
            "2020-04,5,4",
        ]

    def test_ratio(self, capsys, tiny_dir):
        code, out, _ = invoke(
            capsys,
            "series", "ratio", "--from", "2020-04", "--to", "2020-04",
            *tiny_args(tiny_dir),
        )
        assert code == 0
        assert out.splitlines()[1] == "2020-04,0.8"

    def test_transitive_ratio(self, capsys, tiny_dir):
        code, out, _ = invoke(
            capsys,
            "series", "transitive-ratio", "--from", "2020-04", "--to", "2020-04",
            *tiny_args(tiny_dir),
        )
        assert out.splitlines()[1] == "2020-04,1.5"

    def test_index_series(self, capsys, tiny_dir):
        code, out, _ = invoke(
            capsys,
            "series", "index", "--index", "changeability",
            "--from", "2020-02", "--to", "2020-04",
            *tiny_args(tiny_dir),
        )
        assert code == 0
        assert [line.split(",")[-1] for line in out.splitlines()[1:]] == ["0", "1", "1"]


class TestIndex:
    def test_impact_five_percent(self, capsys, tiny_dir):
        code, out, _ = invoke(
            capsys,
            "index", "impact", "--p", "5", "--at", "2020-04-01",
            *tiny_args(tiny_dir),
        )
        assert code == 0
        assert out.splitlines()[1] == "2020-04,p_impact,5.0,3"

    def test_impact_fifty_percent(self, capsys, tiny_dir):
        _, out, _ = invoke(
            capsys,
            "index", "impact", "--p", "50", "--at", "2020-04-01",
            *tiny_args(tiny_dir),
        )
        assert out.splitlines()[1].endswith(",1")

    def test_changeability(self, capsys, tiny_dir):
        _, out, _ = invoke(
            capsys,
            "index", "changeability", "--at", "2020-03-31", "--window-days", "30",
            *tiny_args(tiny_dir),
        )
        assert out.splitlines()[1] == "2020-03,changeability,30.0,1"

    def test_reusability(self, capsys, tiny_dir):
        _, out, _ = invoke(
            capsys, "index", "reusability", "--at", "2020-04-01", *tiny_args(tiny_dir)
        )
        assert out.splitlines()[1] == "2020-04,reusability,,1"


class TestSnapshotAndDistributions:
    def test_snapshot_before_history(self, capsys, tiny_dir):
        code, out, _ = invoke(
            capsys, "snapshot", "--at", "1900-01-01", *tiny_args(tiny_dir)
        )
        assert code == 0
        assert out.splitlines()[1] == "1900-01-01T00:00:00,0,0,0"

    def test_distribution_updates(self, capsys, tiny_dir):
        _, out, _ = invoke(
            capsys, "distribution", "updates", "--at", "2020-04-01", *tiny_args(tiny_dir)
        )
        lines = out.splitlines()
        assert lines[1].startswith("0,3,")
        assert lines[2].startswith("1-4,2,")
        assert lines[3].startswith("5+,0,")

    def test_distribution_depth(self, capsys, tiny_dir):
        _, out, _ = invoke(
            capsys, "distribution", "depth", "--at", "2020-04-01", *tiny_args(tiny_dir)
        )
        assert out.splitlines()[1] == "2,1,1.0"

    def test_distribution_deps(self, capsys, tiny_dir):
        _, out, _ = invoke(
            capsys, "distribution", "deps", "--at", "2020-04-01", *tiny_args(tiny_dir)
        )
        lines = out.splitlines()
        assert lines[0] == "package,n_direct,n_transitive,n_rev_direct,n_rev_transitive,depth"
        rows = {line.split(",")[0]: line for line in lines[1:]}
        assert rows["d"] == "d,1,3,0,0,2"
        assert rows["b"] == "b,0,0,2,3,0"

    @pytest.mark.parametrize("source", ["tiny", "generated"])
    def test_depth_outputs_match_per_package_queries(self, capsys, tmp_path, source):
        data = tmp_path / source
        if source == "tiny":
            write_tiny(data)
            at, cutoff = "2020-04-01", "2020-04-01"
        else:
            invoke(
                capsys, "fixture", "generate", "--out-dir", data,
                "--n-packages", "400", "--months", "12", "--seed", "7",
            )
            at, cutoff = "2015-11-01", "2016-01-01"
        args = ("--at", at, "--dataset", data, "--cutoff", cutoff)
        g = build_snapshot(
            filter_dependencies(load_dataset_dir(data, cutoff=datetime.fromisoformat(cutoff))),
            datetime.fromisoformat(at),
        )

        hist = Counter(dependency_depth(g, p) for p in top_level_packages(g))
        total = sum(hist.values())
        want = ["bin,count,proportion"]
        want += [f"{depth},{count},{count / total!r}" for depth, count in sorted(hist.items())]
        assert invoke(capsys, "distribution", "depth", *args)[1] == "\n".join(want) + "\n"

        want = ["package,n_direct,n_transitive,n_rev_direct,n_rev_transitive,depth"]
        for p in sorted(g.latest):
            row = (
                p,
                len(g.out_neighbors(p)),
                len(transitive_dependencies(g, p)),
                len(g.in_neighbors(p)),
                len(transitive_dependents(g, p)),
                dependency_depth(g, p),
            )
            want.append(",".join(str(v) for v in row))
        assert invoke(capsys, "distribution", "deps", *args)[1] == "\n".join(want) + "\n"


class TestSurvivalCli:
    def test_summary(self, capsys, tiny_dir):
        code, out, _ = invoke(capsys, "survival", *tiny_args(tiny_dir))
        assert code == 0
        assert out.splitlines() == [
            "label,observations,events,censored",
            "all,7,2,5",
        ]

    def test_split_summary(self, capsys, tiny_dir):
        _, out, _ = invoke(capsys, "survival", "--split-required", *tiny_args(tiny_dir))
        assert out.splitlines()[1:] == ["required,1,0,1", "not_required,6,2,4"]

    def test_km_curves(self, capsys, tiny_dir):
        _, out, _ = invoke(capsys, "survival", "--km", *tiny_args(tiny_dir))
        lines = out.splitlines()
        assert lines[0] == "label,time,survival"
        assert lines[1] == "all,0.0,1.0"

    def test_logrank(self, capsys, tiny_dir):
        code, out, _ = invoke(
            capsys, "survival", "--logrank", "--alpha", "0.05", *tiny_args(tiny_dir)
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == "statistic,significant,alpha,critical_value"
        fields = row.split(",")
        assert fields[1] in ("true", "false")


class TestInequalityCli:
    def test_updates_summary(self, capsys, tiny_dir):
        _, out, _ = invoke(
            capsys,
            "inequality", "updates", "--window", "2020-01-01", "2021-01-01",
            *tiny_args(tiny_dir),
        )
        assert out.splitlines() == [
            "metric,value",
            "n,2",
            "gini,0.0",
            "normalized_gini,0.0",
        ]

    def test_dependents_lorenz(self, capsys, tiny_dir):
        _, out, _ = invoke(
            capsys,
            "inequality", "dependents", "--at", "2020-04-01", "--lorenz",
            *tiny_args(tiny_dir),
        )
        lines = out.splitlines()
        assert lines[0] == "cum_pop,cum_val"
        assert lines[1] == "0.0,0.0"
        assert lines[-1] == "1.0,1.0"

    def test_updates_requires_window(self, capsys, tiny_dir):
        code, _, err = invoke(capsys, "inequality", "updates", *tiny_args(tiny_dir))
        assert code == 1


class TestFormatsAndDeterminism:
    def test_json_format(self, capsys, tiny_dir):
        code, out, _ = invoke(
            capsys,
            "series", "growth", "--from", "2020-02", "--to", "2020-03",
            "--format", "json", *tiny_args(tiny_dir),
        )
        data = json.loads(out)
        assert data == [
            {"month": "2020-02", "packages": 3, "dependencies": 0},
            {"month": "2020-03", "packages": 4, "dependencies": 2},
        ]

    def test_byte_identical_runs(self, capsys, tiny_dir):
        args = (
            "series", "growth", "--from", "2020-01", "--to", "2020-04",
            *tiny_args(tiny_dir),
        )
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second

    def test_out_file_and_manifest(self, tmp_path, capsys, tiny_dir):
        out_file = tmp_path / "growth.csv"
        code, stdout, _ = invoke(
            capsys,
            "series", "growth", "--from", "2020-02", "--to", "2020-04",
            "--out", out_file, "--manifest", *tiny_args(tiny_dir),
        )
        assert code == 0
        assert stdout == ""
        assert out_file.read_text().startswith("month,packages,dependencies")
        manifest = json.loads((tmp_path / "growth.csv.manifest.json").read_text())
        assert manifest["tool"]["name"] == "depnet"
        assert manifest["dataset"]["sha256"]
        assert "--out" in manifest["arguments"]

    def test_csv_fields_with_commas_read_back(self, capsys, tmp_path):
        data = write_dataset_csvs(
            tmp_path / "quoted",
            ['"a,b"', '"q""uote"'],
            ['"a,b",1.0.0,2020-01-01', '"q""uote",1.0.0,2020-01-02'],
            ['"a,b",1.0.0,"q""uote",">=1.0,<2.0",runtime'],
        )
        code, out, _ = invoke(capsys, "distribution", "deps", "--at", "2020-01-02",
                              "--dataset", data)
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [
            ["package", "n_direct", "n_transitive", "n_rev_direct", "n_rev_transitive",
             "depth"],
            ["a,b", "1", "1", "0", "0", "1"],
            ['q"uote', "0", "0", "1", "1", "0"],
        ]

    def test_adversarial_names_read_back(self, capsys, tmp_path):
        names = ["a,b", 'q"uote', "new\nline", "cr\rname", "cr\r\nlf", " padded ", "ünï😀"]
        d = Dataset(
            packages={PackageRecord(name, "x") for name in names},
            releases=[ReleaseRecord(name, "1.0", datetime(2020, 1, 1)) for name in names],
            dependencies=[
                DependencyRecord(src, "1.0", dst, "*", "runtime")
                for src, dst in zip(names, names[1:])
            ],
            cutoff=datetime(2020, 2, 1),
            ecosystem="x",
        )
        write_dataset(d, tmp_path / "x")
        code, out, _ = invoke(capsys, "distribution", "deps", "--at", "2020-01-02",
                              "--dataset", tmp_path / "x", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert [row[0] for row in rows[1:]] == sorted(names)

    def test_padded_target_counts_as_unresolved(self, capsys, tmp_path):
        data = write_dataset_csvs(
            tmp_path / "padded", ["a", "b"],
            ["a,1.0.0,2020-01-01", "b,1.0.0,2020-01-02"],
            ["a,1.0.0, b,*,runtime", "b,1.0.0,a,*,runtime"],
        )
        code, out, _ = invoke(capsys, "validate", "--dataset", data)
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert rows["dependencies"] == "1"
        assert rows["deps_dropped_unresolved"] == "1"

    def test_surplus_field_is_data_error(self, capsys, tiny_dir):
        releases = tiny_dir / "releases.csv"
        text = releases.read_text().replace(
            "e,1.0.0,2020-01-05", "e,1.0.0,2020-01-05T00:00:00,surplus"
        )
        releases.write_text(text)
        code, out, err = invoke(capsys, "validate", *tiny_args(tiny_dir))
        assert code == 1
        assert out == ""
        assert "releases.csv, line 2" in err

    def test_jobs_flag_same_output(self, capsys, tiny_dir):
        base = (
            "series", "transitive-ratio", "--from", "2020-01", "--to", "2020-04",
            *tiny_args(tiny_dir),
        )
        _, serial, _ = invoke(capsys, *base, "--jobs", "1")
        _, parallel, _ = invoke(capsys, *base, "--jobs", "3")
        assert serial == parallel


class TestGrowthFit:
    def test_linear_fit_rows(self, capsys, tiny_dir):
        code, out, _ = invoke(
            capsys,
            "series", "growth", "--fit", "linear",
            "--from", "2020-02", "--to", "2020-04", *tiny_args(tiny_dir),
        )
        assert code == 0
        assert out.splitlines() == [
            "series,model,a,b,r2",
            "packages,linear,1.0,3.0,1.0",
            "dependencies,linear,2.0,0.0,1.0",
        ]

    def test_exponential_fit_skips_zero_series(self, capsys, tiny_dir):
        code, out, err = invoke(
            capsys,
            "series", "growth", "--fit", "exponential", "--log-r2",
            "--from", "2020-02", "--to", "2020-04", *tiny_args(tiny_dir),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "series,model,a,b,r2,r2_log"
        assert lines[1].startswith("packages,exponential,")
        assert "skipping dependencies" in err

    def test_directory_out_uses_metric_and_ecosystem(self, capsys, tmp_path, tiny_dir):
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        code, _, _ = invoke(
            capsys,
            "series", "growth", "--from", "2020-02", "--to", "2020-04",
            "--out", out_dir, "--ecosystem", "tiny", *tiny_args(tiny_dir),
        )
        assert code == 0
        target = out_dir / "growth__tiny.csv"
        assert target.exists()
        assert target.read_text().startswith("month,packages,dependencies")


class TestFixtureCli:
    def test_tiny_write(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "fixture", "tiny", "--out-dir", tmp_path / "t")
        assert code == 0
        assert (tmp_path / "t" / "packages.csv").exists()

    def test_tiny_copy_keeps_tiny_cutoff(self, capsys, tmp_path, tiny_dir):
        code, _, _ = invoke(capsys, "fixture", "tiny", "--out-dir", tmp_path / "t")
        assert code == 0
        growth = ["series", "growth", "--from", "2020-02", "--to", "2020-04"]
        code, out, err = invoke(capsys, *growth, "--dataset", tmp_path / "t")
        assert (code, err) == (0, "")
        _, want, _ = invoke(capsys, *growth, *tiny_args(tiny_dir))
        assert out == want
        assert out.splitlines()[-1] == "2020-04,5,4"

    def test_generate_write(self, capsys, tmp_path):
        code, _, _ = invoke(
            capsys,
            "fixture", "generate", "--out-dir", tmp_path / "g",
            "--n-packages", "50", "--months", "6", "--seed", "5",
        )
        assert code == 0
        manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
        assert manifest["rows"]["packages"] == 50

    def test_generated_cutoff_from_manifest(self, capsys, tmp_path):
        invoke(
            capsys,
            "fixture", "generate", "--out-dir", tmp_path / "g",
            "--n-packages", "50", "--months", "12", "--seed", "5",
        )
        growth = ("series", "growth", "--from", "2015-12", "--dataset", tmp_path / "g")
        code, out, err = invoke(capsys, *growth, "--to", "2016-01")
        assert code == 0, err
        assert out.splitlines()[-1].startswith("2016-01,50,")
        # An explicit --cutoff still wins over the manifest.
        assert invoke(capsys, *growth, "--to", "2016-02")[0] == 1
        assert invoke(capsys, *growth, "--to", "2016-02", "--cutoff", "2016-02-01")[0] == 0

    def test_validate_on_generated(self, capsys, tmp_path):
        invoke(
            capsys,
            "fixture", "generate", "--out-dir", tmp_path / "g",
            "--n-packages", "40", "--months", "5", "--seed", "6",
        )
        code, out, _ = invoke(capsys, "validate", "--dataset", tmp_path / "g")
        assert code == 0
        rows = dict(
            line.split(",", 1) for line in out.splitlines()[1:]
        )
        assert rows["packages"] == "40"
        assert rows["ordering_flags"] == "0"
