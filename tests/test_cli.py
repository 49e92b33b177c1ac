from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import zipfile
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from depnet import cli, evolution, ingest
from depnet.cli import run
from depnet.fixtures import GeneratorConfig, generate, write_dataset, write_tiny
from depnet.graphops import (
    dependency_depth,
    top_level_packages,
    transitive_dependencies,
    transitive_dependents,
)
from depnet.ingest import (
    COLUMN_FILE,
    Dataset,
    DependencyRecord,
    PackageRecord,
    ReleaseRecord,
    filter_dependencies,
    load_dataset_dir,
)
from depnet.snapshot import _edge_spans, build_snapshot

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

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--mean-deps", "nan"], "mean_deps must be a non-negative finite number, not nan"),
            (["--n-packages", "0"], "n_packages must be positive"),
        ],
    )
    def test_bad_generator_value_is_usage_error(self, capsys, tmp_path, option, message):
        code, out, err = invoke(
            capsys, "fixture", "generate", "--out-dir", tmp_path / "x",
            "--n-packages", "50", "--months", "3", *option,
        )
        assert code == 2
        assert out == ""
        assert err == f"depnet: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_missing_dataset_is_data_error(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "snapshot", "--at", "2020-01-01", "--dataset", tmp_path / "nope"
        )
        assert code == 1
        assert "depnet:" in err

    def test_message_quoting_a_line_break_is_one_line(self, capsys, tmp_path):
        data = write_dataset_csvs(tmp_path / "d", ['"a\nb"', '"a\nb"'], [], [])
        code, out, err = invoke(capsys, "validate", "--dataset", data, "--cutoff", "2020-01")
        assert (code, out) == (1, "")
        assert err.endswith(": duplicate package 'a\\nb' (lines 3 and 5)\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("version, message", [
        ("v" * 200_000, "field larger than field limit (131072)"),
        ("1.\udcff", "not valid UTF-8"),
    ], ids=["field limit", "not utf-8"])
    def test_unreadable_field_is_one_line_naming_file_and_line(
        self, capsys, tmp_path, version, message
    ):
        data = write_dataset_csvs(tmp_path / "d", ["a"], [], [])
        (data / "releases.csv").write_bytes(
            f"package,version,timestamp\na,{version},2020-01-01\n".encode("utf-8", "surrogateescape")
        )
        code, out, err = invoke(capsys, "validate", "--dataset", data, "--cutoff", "2020-01")
        assert (code, out) == (1, "")
        assert err == f"depnet: {data / 'releases.csv'}, line 2: {message}\n"

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("text, message", [
        (b"\xff\xfe{}", "not valid UTF-8"),
        (b'["cutoff", "2020-04-01"]', "not a JSON object"),
        (b"{", "not valid JSON"),
        (b'{"cutoff": 5}', "cutoff is not a string: 5"),
        (b"[" * 100_000, "not valid JSON"),
        (b'{"cutoff": "0001-01-01T00:00:00+01:00"}',
         "unreadable cutoff: '0001-01-01T00:00:00+01:00' in UTC is out of range"),
    ], ids=["not utf-8", "array", "not json", "cutoff not a string", "nested too deep",
            "cutoff out of range in UTC"])
    def test_unreadable_manifest_is_one_line_naming_it(self, capsys, tiny_dir, text, message,
                                                       warm):
        snapshot = ("snapshot", "--at", "2020-01-15", "--dataset", tiny_dir)
        if warm:
            assert invoke(capsys, *snapshot)[0] == 0
        (tiny_dir / "manifest.json").write_bytes(text)
        code, out, err = invoke(capsys, *snapshot)
        assert (code, out) == (1, "")
        assert err == f"depnet: {tiny_dir / 'manifest.json'}: {message}\n"

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00"],
                             ids=["before year 1", "after year 9999"])
    def test_timestamp_out_of_range_in_utc_is_one_line(self, capsys, tiny_dir, stamp):
        """An offset that moves a timestamp out of ``datetime``'s range is a
        data error: in a release row it names the file and line, and as
        --cutoff it names the value."""
        releases = tiny_dir / "releases.csv"
        header, first, *rest = releases.read_text(encoding="utf-8").splitlines()
        package, version, _ = first.split(",")
        assert invoke(capsys, "snapshot", "--at", "2020-01-15", *tiny_args(tiny_dir))[0] == 0
        code, out, err = invoke(capsys, "snapshot", "--at", "2020-01-15", "--dataset", tiny_dir,
                                "--cutoff", stamp)
        assert (code, out) == (1, "")
        assert err == f"depnet: {stamp!r} in UTC is out of range\n"
        releases.write_text("\n".join([header, f"{package},{version},{stamp}", *rest]) + "\n",
                            encoding="utf-8")
        code, out, err = invoke(capsys, "validate", *tiny_args(tiny_dir))
        assert (code, out) == (1, "")
        assert err == (f"depnet: {releases}, line 2: column 'timestamp' has unparseable value "
                       f"{stamp!r}\n")

    def test_exclusion_file_not_utf8_names_file_and_line(self, capsys, tiny_dir):
        exclude = tiny_dir.parent / "exclude.txt"
        exclude.write_bytes(b"b\n\xff\n")
        code, out, err = invoke(capsys, "validate", *tiny_args(tiny_dir), "--exclude-file", exclude)
        assert (code, out) == (1, "")
        assert err == f"depnet: {exclude}, line 2: not valid UTF-8\n"

    def test_inverted_range_is_data_error(self, capsys, tiny_dir):
        code, _, err = invoke(
            capsys,
            "series", "growth", "--from", "2020-05", "--to", "2020-02",
            *tiny_args(tiny_dir),
        )
        assert code == 1

    def test_inverted_range_past_the_cutoff_is_reported_as_inverted(self, capsys, tiny_dir):
        code, out, err = invoke(
            capsys,
            "series", "growth", "--from", "2021-05", "--to", "2021-02",
            *tiny_args(tiny_dir),
        )
        assert (code, out) == (1, "")
        assert err == "depnet: inverted month range: 2021-05 > 2021-02\n"

    @pytest.mark.parametrize("start, end", [("2021-05", "2021-02"), ("2020-03", "2020-01")],
                             ids=["past the cutoff", "before the cutoff"])
    def test_inverted_window_names_both_instants(self, capsys, tiny_dir, start, end):
        code, out, err = invoke(
            capsys, "inequality", "updates", "--window", start, end, *tiny_args(tiny_dir),
        )
        assert (code, out) == (1, "")
        assert err == f"depnet: inverted window: {start}-01T00:00:00 > {end}-01T00:00:00\n"

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

    def test_series_impact_rejects_p_out_of_range(self, capsys, tiny_dir):
        code, out, err = invoke(
            capsys,
            "series", "index", "--index", "impact", "--p", "0",
            "--from", "2020-02", "--to", "2020-04", *tiny_args(tiny_dir),
        )
        assert code == 1
        assert out == ""
        assert err == "depnet: p_percent must be in (0, 100]\n"

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

    def test_window_beyond_cutoff_names_the_cutoff(self, capsys, tiny_dir):
        code, out, err = invoke(
            capsys, "inequality", "updates", "--window", "2020-01-01", "2030-01-01",
            *tiny_args(tiny_dir),
        )
        assert code == 1
        assert out == ""
        assert err == (
            "depnet: instant 2030-01-01T00:00:00 is after the dataset cutoff 2020-04-01T00:00:00\n"
        )


class _ClosedStdout:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_runs_as_a_module(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "depnet", "fixture", "tiny", "--out-dir", str(tmp_path / "t")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "")
    assert done.stderr == f"dataset written to {tmp_path / 't'}\n"
    assert (tmp_path / "t" / "packages.csv").is_file()


def _loaded_modules(code: str) -> list[str]:
    """The depnet, ``concurrent`` and ``multiprocessing`` modules loaded
    after ``code`` runs in a new interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code += ("\nprint(' '.join(sorted(m for m in sys.modules"
             " if m.startswith(('depnet', 'concurrent', 'multiprocessing')))))")
    done = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split("\n")[-2].split()


def test_import_and_commands_load_only_the_modules_they_run(tiny_dir):
    """``import depnet`` loads the data model alone, every exported name
    and submodule still resolves, and the warm commands of the benchmark
    load no closure kernel, index, fixture or process pool."""
    assert _loaded_modules("import depnet") == ["depnet", "depnet.ingest", "depnet.timeutil"]
    import depnet

    for name in depnet.__all__:
        assert name in dir(depnet) and getattr(depnet, name) is not None
    assert depnet.indices.h_index([3, 3, 3]) == 3
    assert depnet.gini is depnet.stats.gini and depnet.Dataset is ingest.Dataset
    with pytest.raises(AttributeError):
        depnet.no_such_name
    assert run(["snapshot", "--at", "2020-01", *map(str, tiny_args(tiny_dir))]) == 0
    for command in (["series", "growth", "--from", "2020-01", "--to", "2020-04"],
                    ["survival", "--km", "--split-required"],
                    ["inequality", "dependents", "--at", "2020-04"]):
        argv = [*command, *map(str, tiny_args(tiny_dir))]
        loaded = _loaded_modules(f"from depnet import cli\nassert cli.run({argv!r}) == 0")
        assert {"depnet.cli", "depnet.evolution", "depnet.snapshot"} <= set(loaded)
        assert not any(m.startswith(("depnet.graphops", "depnet.indices", "depnet.fixtures",
                                     "concurrent", "multiprocessing")) for m in loaded), loaded


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
            capsys, "series", "transitive-ratio", "--from", "2020-02", "--to", "2020-04",
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

    @pytest.mark.parametrize("name", ["impact", "reusability", "changeability"])
    def test_empty_snapshot_matches_the_series(self, capsys, tiny_dir, name):
        # No package exists in 1990-01: the index is 0 at that month, and
        # the series over that one month prints the same row.
        code, out, err = invoke(capsys, "index", name, "--at", "1990-01", *tiny_args(tiny_dir))
        assert (code, err) == (0, "")
        code, series, _ = invoke(
            capsys, "series", "index", "--index", name,
            "--from", "1990-01", "--to", "1990-01", *tiny_args(tiny_dir),
        )
        assert code == 0
        assert out == series
        assert out.splitlines()[1].endswith(",0")

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (
                ("index", "changeability", "--at", "0001-01-15"),
                ["0001-01,changeability,30.0,0"],
            ),
            (
                ("series", "index", "--index", "changeability", "--from", "0001-01", "--to", "0001-02"),
                ["0001-01,changeability,30.0,0", "0001-02,changeability,30.0,0"],
            ),
            (
                ("index", "changeability", "--at", "2020-03", "--window-days", "999999999"),
                ["2020-03,changeability,999999999.0,1"],
            ),
        ],
    )
    def test_changeability_window_past_the_earliest_instant(self, capsys, tiny_dir, argv, rows):
        code, out, err = invoke(capsys, *argv, *tiny_args(tiny_dir))
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == rows


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


    def test_km_split_with_an_empty_group(self, capsys, tiny_dir):
        # Without dependencies no release is required: the empty group gets
        # a summary row but no curve, and log-rank needs both groups.
        (tiny_dir / "dependencies.csv").write_text(
            "source_package,source_version,target_package,constraint,kind\n", encoding="utf-8"
        )
        _, out, _ = invoke(capsys, "survival", "--split-required", *tiny_args(tiny_dir))
        assert out.splitlines()[1:] == ["required,0,0,0", "not_required,7,2,5"]
        code, out, err = invoke(capsys, "survival", "--km", "--split-required", *tiny_args(tiny_dir))
        assert (code, err) == (0, "")
        _, unsplit, _ = invoke(capsys, "survival", "--km", *tiny_args(tiny_dir))
        assert out == unsplit.replace("\nall,", "\nnot_required,")
        code, _, err = invoke(capsys, "survival", "--logrank", *tiny_args(tiny_dir))
        assert code == 1 and "two non-empty samples" in err


class TestInequalityCli:
    def test_updates_summary(self, capsys, tiny_dir):
        _, out, _ = invoke(
            capsys,
            "inequality", "updates", "--window", "2020-01-01", "2020-04-01",
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


def csv_writer_text(header, rows) -> str:
    """A table as ``csv.writer`` writes it, every value formatted by
    ``cli._fmt``: the oracle for the CSV output path. A row holding a
    carriage return has every field quoted."""
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n")
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(header)
    for row in rows:
        fields = [cli._fmt(v) for v in row]
        (quoted if "\r" in "".join(fields) else plain).writerow(fields)
    return buf.getvalue()


class _Recorder:
    def __init__(self):
        self.written = []

    def write(self, text):
        self.written.append(text)


class _PipeClosedAfterOneWrite:
    def __init__(self):
        self.written = []

    def write(self, text):
        if self.written:
            raise BrokenPipeError(32, "Broken pipe")
        self.written.append(text)


class TestOutputTargets:
    """A table over more than two blocks reaches stdout, ``--out FILE`` and
    ``--out DIR`` as the same text, with the ``--manifest`` record beside
    it, and a pipe that closes after the first write ends in one line."""

    N = 2 * ingest._BLOCK_ROWS + 1
    HEADER = ["package", "count", "share"]

    @pytest.fixture()
    def argv(self, monkeypatch, tiny_dir):
        columns = [[f"p{k}" for k in range(self.N)], np.arange(self.N), np.linspace(0, 1, self.N)]
        monkeypatch.setattr(cli, "_cmd_snapshot", lambda args: ("tiny", "long", self.HEADER, columns))
        return ["snapshot", "--at", "2020-01", "--dataset", tiny_dir]

    def rows(self):
        return zip([f"p{k}" for k in range(self.N)], range(self.N), np.linspace(0, 1, self.N).tolist())

    @pytest.mark.parametrize("form", ["csv", "json"])
    def test_file_and_directory_targets(self, capsys, tmp_path, tiny_dir, argv, form):
        code, text, err = invoke(capsys, *argv, "--format", form, "--manifest")
        assert (code, json.loads(err)["dataset"]["path"]) == (0, str(tiny_dir))
        if form == "csv":
            assert text == csv_writer_text(self.HEADER, self.rows())
        else:
            assert json.loads(text) == [dict(zip(self.HEADER, row)) for row in self.rows()]
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        for out, written in [(tmp_path / "long.out", tmp_path / "long.out"),
                             (out_dir, out_dir / f"long__tiny.{form}")]:
            assert invoke(capsys, *argv, "--format", form, "--out", out, "--manifest") == (0, "", "")
            assert written.read_text(encoding="utf-8") == text
            manifest = Path(f"{written}.manifest.json").read_text(encoding="utf-8")
            assert json.loads(manifest) == {**json.loads(err), "arguments": [
                *map(str, argv), "--format", form, "--out", str(out), "--manifest"]}

    def test_pipe_closed_after_the_first_write(self, capsys, monkeypatch, argv):
        closed = _PipeClosedAfterOneWrite()
        monkeypatch.setattr(sys, "stdout", closed)
        code = run([str(a) for a in argv])
        err = capsys.readouterr().err
        assert (code, err) == (1, "depnet: output closed before it was fully written\n")
        assert closed.written == ["package,count,share\n"]


class TestFormatsAndDeterminism:
    def test_csv_output_matches_csv_writer(self, capsys):
        values = [
            "a,b", 'say "hi"', '"', "x\ry", "line\nbreak", "\r\n", "", " padded ", "plain",
            ",", float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 0.1, 1e-05, 1e16,
            True, False, 0, -3, 10**20, np.float64(1.5), np.int64(7), np.bool_(True), None,
        ]
        rng = np.random.default_rng(20170401)
        rows = [(), ("",), ("", ""), (float("nan"),), (True, False, -0.0)]
        for _ in range(3000):
            picks = rng.integers(len(values), size=rng.integers(1, 5))
            rows.append(tuple(values[k] for k in picks))
        # Ragged rows, the zero-field one too, go through write_csv; the rows
        # of each width go through the emitter as one table's columns.
        buf = io.StringIO()
        ingest.write_csv(buf, ["h1", "h 2"], ([cli._fmt(v) for v in row] for row in rows))
        assert buf.getvalue() == csv_writer_text(["h1", "h 2"], rows)
        args = cli.build_parser().parse_args(["validate", "--dataset", "unused"])
        for width in range(1, 5):
            shaped = [row for row in rows if len(row) == width]
            header = [f"h{k}" for k in range(width)]
            cli._emit(args, header, [list(column) for column in zip(*shaped)])
            assert capsys.readouterr().out == csv_writer_text(header, shaped)

    def test_long_table_matches_csv_writer(self, monkeypatch):
        """Over more than two blocks, with fields that need quoting only in
        the last one: the blocks before it are each written as one text,
        that one a row at a time, and the text is csv.writer's."""
        n = 2 * ingest._BLOCK_ROWS + 100
        late = 2 * ingest._BLOCK_ROWS + 50
        rng = np.random.default_rng(20170401)
        words = [f"pkg-{k}" for k in rng.integers(1000, size=n)]
        pairs = rng.integers(10, size=n).tolist()
        for k, special in enumerate(["a,b", 'say "hi"', "x\ry", "line\nbreak"]):
            words[late + k] = special
        pairs[late + 7] = (3, 4)
        survival = np.repeat(np.linspace(1.0, 0.0, n // 4), 4)
        survival[-4:] = [-0.0, np.nan, np.inf, 1e16]
        columns = [words, np.arange(n), survival, pairs, rng.integers(2, size=n).astype(bool)]
        header = ["label", "time", "survival", "pair", "flag"]
        rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
        names = [f"name-{k}" for k in range(n)]
        names[late] = ""
        args = cli.build_parser().parse_args(["validate", "--dataset", "unused"])
        for header, columns, rows in ((header, columns, rows),
                                      (["name"], [names], [(v,) for v in names])):
            out = _Recorder()
            monkeypatch.setattr(sys, "stdout", out)
            cli._emit(args, header, columns)
            assert "".join(out.written) == csv_writer_text(header, rows)
            # The header, one write for each of the two plain blocks, and one
            # for each row of the last block.
            assert len(out.written) == 3 + n - 2 * ingest._BLOCK_ROWS
            assert [text.count("\n") for text in out.written[1:3]] == [ingest._BLOCK_ROWS] * 2

    @pytest.mark.parametrize("rows", [0, 1, 2 * ingest._BLOCK_ROWS + 100])
    def test_json_matches_json_dumps(self, monkeypatch, rows):
        """Written a block of rows at a time, the text is what one
        ``json.dumps`` of the list of row dicts gives: floats that are not
        finite, bools, strings that need escapes, values that are no JSON
        scalar, and a repeated name, which keeps its last column."""
        rng = np.random.default_rng(20170402)
        survival = np.linspace(1.0, 0.0, rows)
        survival[-4:] = [-0.0, np.nan, np.inf, -np.inf][-rows:] if rows else []
        words = [f"pkg-{k}" for k in rng.integers(1000, size=rows)]
        mixed = rng.integers(10, size=rows).tolist()
        for k, special in enumerate(['say "hi"', "tab\tline\nbreak", "caf\u00e9 \u2603",
                                     "back\\slash %s", "\x00\x1f", ""][:rows]):
            words[-1 - k] = special
            mixed[k] = [(3, 4), None, {"b": [1.5], "a": "x"}, datetime(2020, 1, 2), True, 2.5][k]
        columns = [words, np.arange(rows), survival, mixed,
                   rng.integers(2, size=rows).astype(bool), words[::-1]]
        header = ["label", "time", "sur%vival", 'a "pair"', "flag", "label"]
        payload = [dict(zip(header, row)) for row in zip(*(
            c.tolist() if isinstance(c, np.ndarray) else c for c in columns))]
        args = cli.build_parser().parse_args(
            ["validate", "--dataset", "unused", "--format", "json"])
        out = _Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        cli._emit(args, header, columns)
        assert "".join(out.written) == json.dumps(
            payload, indent=2, sort_keys=True, default=str) + "\n"
        # The opening bracket, one write per block and the closing one.
        blocks = -(-rows // ingest._BLOCK_ROWS)
        assert len(out.written) == (2 + blocks if rows else 1)

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
        csvs = b"".join(
            (tiny_dir / name).read_bytes()
            for name in ("packages.csv", "releases.csv", "dependencies.csv")
        )
        assert manifest["dataset"]["sha256"] == hashlib.sha256(csvs).hexdigest()
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


def _increment_last_value_byte(path) -> None:
    """Change one byte of a CSV: the last one before its final newline."""
    data = bytearray(path.read_bytes())
    assert data[-1:] == b"\n"
    data[-2] += 1
    path.write_bytes(bytes(data))


def _flip_low_time_bit(path, member="release_time.npy") -> None:
    """Flip the lowest bit of the last stored value of ``member``, by default
    the last release time: a value still in range, which only the member's
    CRC tells from the one written."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    data = bytearray(path.read_bytes())
    start = data.index(b"\x93NUMPY", info.header_offset)
    data[start + info.file_size - 8] ^= 0x01
    path.write_bytes(bytes(data))


def _members(path) -> dict[str, bytes]:
    """The data of each member of the column file at ``path``, by name."""
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def _rezip(path, members: dict[str, bytes]) -> None:
    """Write ``members`` as a plain zip archive at ``path``: stored, with
    their CRC-32s, and not aligned."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)


def _npy(array) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array)
    return buffer.getvalue()


def _set_compression_method(path) -> None:
    """Set the compression method of the first member, in its central
    directory record, to one that ``zipfile`` does not support."""
    data = bytearray(path.read_bytes())
    record = data.index(b"PK\x01\x02")
    data[record + 10:record + 12] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(data))


def _refuse(*args, **kwargs):
    raise PermissionError(13, "Permission denied")


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


def _no_parse(*args, **kwargs):
    raise AssertionError("the CSVs were parsed")


class TestColumnFile:
    """A command that parses a dataset leaves its filtered columns in one
    file beside the CSVs, and a later command with the same key reads them.
    Whatever is wrong with that file, the output is the CSVs' output."""

    GROWTH = ("series", "growth", "--from", "2020-01", "--to", "2020-04")
    DATASET = ["dependencies.csv", "manifest.json", "packages.csv", "releases.csv"]

    @staticmethod
    def key(tiny_dir, kinds=ingest.DEFAULT_INCLUDED_KINDS, excluded=()) -> str:
        return ingest._column_key(tiny_dir, ingest._included_kinds(kinds), frozenset(excluded))

    @staticmethod
    def stored_key(tiny_dir) -> str:
        with np.load(tiny_dir / COLUMN_FILE) as archive:
            return json.loads(archive["meta"].tobytes())["key"]

    @staticmethod
    def listing(directory) -> list[str]:
        return sorted(os.listdir(directory))

    @pytest.mark.parametrize(
        "change", ["packages.csv", "releases.csv", "dependencies.csv", "kinds", "exclusions"]
    )
    def test_changed_input_makes_the_file_stale(self, capsys, tiny_dir, change):
        exclude = tiny_dir.parent / "exclude.txt"
        exclude.write_text("b\n", encoding="utf-8")
        options = ["--kinds", "runtime", "--exclude-file", exclude]
        kinds, excluded = {"runtime"}, {"b"}
        argv = [*self.GROWTH, *tiny_args(tiny_dir)]
        invoke(capsys, *argv, *options)
        old_key = self.key(tiny_dir, kinds, excluded)
        assert ingest._read_columns(tiny_dir, old_key, None, None) is not None
        if change == "kinds":
            options[1] = "runtime,dev"
            kinds = {"runtime", "dev"}
        elif change == "exclusions":
            exclude.write_text("c\n", encoding="utf-8")
            excluded = {"c"}
        else:
            _increment_last_value_byte(tiny_dir / change)
        new_key = self.key(tiny_dir, kinds, excluded)
        assert new_key != old_key
        assert ingest._read_columns(tiny_dir, new_key, None, None) is None
        stale = invoke(capsys, *argv, *options)
        (tiny_dir / COLUMN_FILE).unlink(missing_ok=True)
        assert invoke(capsys, *argv, *options) == stale

    def test_padded_kinds_share_the_key(self, capsys, tiny_dir, monkeypatch):
        """--kinds ' Runtime ,' filters by the kinds of --kinds runtime, so
        each reads the column file that the other wrote, and both print
        one table, cold and warm."""
        argv = [*self.GROWTH, *tiny_args(tiny_dir)]
        outputs, keys = [], []
        for cold, warm in ((" Runtime ,", "runtime"), ("runtime", " Runtime ,")):
            (tiny_dir / COLUMN_FILE).unlink(missing_ok=True)
            outputs.append(invoke(capsys, *argv, "--kinds", cold))
            keys.append(self.stored_key(tiny_dir))
            with monkeypatch.context() as patch:
                patch.setattr(ingest, "load_dataset_dir", _no_parse)
                outputs.append(invoke(capsys, *argv, "--kinds", warm))
        assert keys == [self.key(tiny_dir, {"runtime"})] * 2
        assert outputs[0][0] == 0 and outputs[0][1] and outputs == [outputs[0]] * 4

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "flipped byte", "other format", "directory", "id out of range",
         "code out of range", "repeated table value", "compression method", "format 4",
         "no span table", "truncated member", "flipped span byte", "position out of range",
         "span out of range"],
    )
    def test_unusable_file_falls_back_to_the_csvs(self, capsys, tiny_dir, monkeypatch, damage):
        argv = [*self.GROWTH, *tiny_args(tiny_dir)]
        expected = invoke(capsys, *argv)
        assert expected[0] == 0 and expected[2] == ""
        path = tiny_dir / COLUMN_FILE
        key = self.key(tiny_dir)
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif damage == "flipped byte":
            _flip_low_time_bit(path)
        elif damage == "compression method":
            _set_compression_method(path)
        elif damage == "other format":
            path.unlink()
            with monkeypatch.context() as patch:
                patch.setattr(ingest, "_COLUMN_FORMAT", ingest._COLUMN_FORMAT + 1)
                assert invoke(capsys, *argv) == expected
        elif damage == "directory":
            path.unlink()
            path.mkdir()
        elif damage in ("format 4", "no span table", "truncated member"):
            members = _members(path)
            if damage == "truncated member":
                members["spans_start.npy"] = members["spans_start.npy"][:-8]
            else:
                # The members of format 4: the columns without the index
                # and the table; format 4 wrote them under its own key.
                members = {name: data for name, data in members.items()
                           if not name.startswith(("index_", "spans_"))}
            if damage == "format 4":
                meta = json.loads(np.load(io.BytesIO(members["meta.npy"])).tobytes())
                with monkeypatch.context() as patch:
                    patch.setattr(ingest, "_COLUMN_FORMAT", 4)
                    meta["key"] = self.key(tiny_dir)
                assert meta["key"] != key
                members["meta.npy"] = _npy(np.frombuffer(json.dumps(meta).encode(), np.uint8))
            _rezip(path, members)
        elif damage == "flipped span byte":
            _flip_low_time_bit(path, "spans_end.npy")
        else:
            d = ingest._read_columns(tiny_dir, key, None, None)
            idx = d.index()
            if damage == "position out of range":
                positions = idx.entry_positions.copy()
                positions[-1] = len(idx.packages)
                idx.entry_positions = positions
            elif damage == "span out of range":
                source = idx.spans.source.copy()
                source[-1] = len(idx.packages)
                idx.spans = idx.spans._replace(source=source)
            elif damage == "code out of range":
                codes = d.dependency_target.codes.copy()
                codes[-1] = len(d.names)
                d.dependency_target = ingest.Coded(codes, d.names)
            elif damage == "repeated table value":
                codes, table = d.dependency_constraint
                d.dependency_constraint = ingest.Coded(codes, [*table, table[0]])
            else:
                packages = d.release_package.copy()
                packages[-1] = len(d.names)
                d.release_package = packages
            ingest._write_columns(tiny_dir, key, d, ingest._last_time(d.release_time))
        assert path.exists()
        assert ingest._read_columns(tiny_dir, key, None, None) is None
        assert invoke(capsys, *argv) == expected
        assert self.listing(tiny_dir) == sorted([*self.DATASET, COLUMN_FILE])

    @pytest.mark.parametrize("data", ["tiny", "generated"])
    def test_stored_index_equals_a_fresh_build(self, tmp_path, monkeypatch, data):
        """The index arrays and the edge-span table that a cold load builds
        and a warm one reads from the column file equal, dtypes included, a
        fresh build over the filtered columns. The generated dataset also
        has rows of another kind, unresolved, repeated and self rows, rows
        whose target is released after them, and an excluded package."""
        directory = tmp_path / data
        excluded = set()
        if data == "tiny":
            write_tiny(directory)
        else:
            write_dataset(generate(GeneratorConfig(n_packages=120, months=18, seed=7)), directory)
            with open(directory / "releases.csv", encoding="utf-8") as handle:
                releases = list(csv.reader(handle))[1:]
            first = {}
            for package, version, stamp in releases:
                first[package] = min(first.get(package, stamp), stamp)
            late = max(first, key=first.get)
            excluded = {releases[0][0]}
            rows = []
            for package, version, _ in releases[:60]:
                rows += [f"{package},{version},{late},*,runtime",
                         f"{package},{version},ghost,*,runtime",
                         f"{package},{version},{package},*,runtime",
                         f"{package},{version},{late},*,dev"]
            rows += rows[:8]
            with open(directory / "dependencies.csv", "a", encoding="utf-8") as handle:
                handle.write("\n".join(rows) + "\n")
        cold = ingest.load_filtered(directory, excluded=excluded)
        with monkeypatch.context() as patch:
            patch.setattr(ingest, "load_dataset_dir", _no_parse)
            warm = ingest.load_filtered(directory, excluded=excluded)
        fresh = filter_dependencies(load_dataset_dir(directory), excluded_packages=excluded)
        assert warm == cold == fresh
        index, spans = ingest._DatasetIndex(fresh), _edge_spans(fresh)
        if data == "generated":
            report = fresh.filter_report
            assert report.excluded_deps_dropped and report.unresolved_deps_dropped
            assert report.kind_dropped and report.duplicate_deps_dropped
            assert len(spans.drop_start) and (spans.end == spans.start).any()
        for d in (cold, warm):
            for name in ingest._DatasetIndex.ARRAYS:
                got, expected = getattr(d.index(), name), getattr(index, name)
                assert got.dtype == expected.dtype and got.tolist() == expected.tolist(), name
            for got, expected in zip(_edge_spans(d), spans):
                assert got.dtype == expected.dtype and got.tolist() == expected.tolist()

    def test_warm_arrays_are_read_only_views_of_aligned_members(self, capsys, tiny_dir,
                                                                monkeypatch):
        """A warm dataset's columns, index and span table are read-only
        views of the mapped file, each payload 64-byte aligned, and
        ``np.load`` reads the same arrays."""
        assert invoke(capsys, *self.GROWTH, *tiny_args(tiny_dir))[0] == 0
        with monkeypatch.context() as patch:
            patch.setattr(ingest, "load_dataset_dir", _no_parse)
            d = ingest.load_filtered(tiny_dir, cutoff=datetime(2020, 4, 1))
        idx = d.index()
        coded = (d.release_version, d.dependency_target, d.dependency_constraint,
                 d.dependency_kind)
        arrays = [d.release_package, d.release_time, d.dependency_source,
                  *(column.codes for column in coded),
                  *(getattr(idx, name) for name in idx.ARRAYS), *idx.spans]
        assert not any(array.flags.writeable for array in arrays)
        with pytest.raises(ValueError):
            d.release_time[0] = 0
        with ingest._mapped_members(tiny_dir / COLUMN_FILE) as members:
            assert all(array.ctypes.data % 64 == 0 for array in members.values())
        with np.load(tiny_dir / COLUMN_FILE) as archive:
            assert sorted(archive.files) == sorted(members)
            for name in archive.files:
                assert archive[name].dtype == members[name].dtype
                assert archive[name].tolist() == members[name].tolist()

    @pytest.mark.parametrize("filtered", [True, False])
    def test_file_reads_back_the_dataset(self, capsys, tiny_dir, filtered):
        """The target column is stored as its codes alone and read back as
        package ids into the names table. A filtered dataset reads back, as
        does an unfiltered one whose targets are all packages; one with a
        target that is no package is unusable, and the command parses the
        CSVs."""
        cutoff = datetime(2020, 4, 1)
        d = load_dataset_dir(tiny_dir, cutoff=cutoff)
        if filtered:
            d = filter_dependencies(d)
        key = self.key(tiny_dir)
        ingest._write_columns(tiny_dir, key, d, ingest._last_time(d.release_time))
        with np.load(tiny_dir / COLUMN_FILE) as archive:
            assert [f for f in archive.files if f.startswith("dependency_target")] == [
                "dependency_target"
            ]
            assert archive["dependency_target"].tolist() == d.dependency_target.codes.tolist()
        back = ingest._read_columns(tiny_dir, key, cutoff, None)
        assert back == d and back.dependency_target.table is back.names
        if filtered:
            return
        with open(tiny_dir / "dependencies.csv", "a", encoding="utf-8") as handle:
            handle.write("a,1.1.0,ghost,*,runtime\n")
        argv = [*self.GROWTH, *tiny_args(tiny_dir)]
        expected = invoke(capsys, *argv)
        d = load_dataset_dir(tiny_dir, cutoff=cutoff)
        assert d.dependency_target.codes[-1] == len(d.names)
        key = self.key(tiny_dir)
        ingest._write_columns(tiny_dir, key, d, ingest._last_time(d.release_time))
        assert ingest._read_columns(tiny_dir, key, cutoff, None) is None
        assert invoke(capsys, *argv) == expected

    @pytest.mark.parametrize("failing", [
        (os, "replace", _refuse), (np.lib.format, "write_array", _refuse),
        (np.lib.format, "write_array", _interrupt),
    ])
    def test_failed_write_leaves_no_file(self, capsys, tiny_dir, monkeypatch, failing):
        """A write that fails leaves no file and the command prints its
        table; one that is interrupted leaves no file either, and the
        interrupt reaches the caller."""
        argv = [*self.GROWTH, *tiny_args(tiny_dir)]
        expected = invoke(capsys, *argv)
        assert expected[0] == 0 and expected[2] == ""
        (tiny_dir / COLUMN_FILE).unlink()
        with monkeypatch.context() as patch:
            patch.setattr(*failing)
            if failing[2] is _interrupt:
                with pytest.raises(KeyboardInterrupt):
                    run([str(a) for a in argv])
                capsys.readouterr()
            else:
                assert invoke(capsys, *argv) == expected
        assert self.listing(tiny_dir) == self.DATASET
        assert invoke(capsys, *argv) == expected
        assert self.listing(tiny_dir) == sorted([*self.DATASET, COLUMN_FILE])

    @pytest.mark.parametrize("empty", [False, True])
    def test_cutoff_rule_is_the_same_on_both_paths(self, capsys, tmp_path, monkeypatch, empty):
        if empty:
            data = write_dataset_csvs(tmp_path / "empty", ["a"], [], [])
            written = ["--cutoff", "2020-02-01"]
            wrong = []
            message = "empty dataset requires an explicit cutoff"
        else:
            write_tiny(data := tmp_path / "tiny")
            written = ["--cutoff", "2020-04-01"]
            wrong = ["--cutoff", "2020-02-01"]
            message = "is after the cutoff 2020-02-01T00:00:00"
        snapshot = ("snapshot", "--at", "2020-01-15", "--dataset", data)
        assert invoke(capsys, *snapshot, *written)[0] == 0
        with monkeypatch.context() as patch:
            patch.setattr(ingest, "load_dataset_dir", _no_parse)
            warm = invoke(capsys, *snapshot, *wrong)
        (data / COLUMN_FILE).unlink()
        assert invoke(capsys, *snapshot, *wrong) == warm
        assert warm[0] == 1 and message in warm[2] and warm[2].count("\n") == 1
