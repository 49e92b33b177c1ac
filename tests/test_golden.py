"""CLI outputs compared byte for byte with recorded ones.

``tests/data/golden/cli.json`` holds, for every command below on TINY and
on a small generated fixture, in CSV and JSON, the exit code and the
SHA-256 of stdout and of stderr. Each command runs at ``--jobs 1`` and
``--jobs 4`` against the same record, each time both cold, with no column
file beside the CSVs, and warm, reading the column file that the same
command wrote. After a deliberate change of output, record the file again
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from depnet import ingest
from depnet.cli import build_parser, run
from depnet.fixtures import GeneratorConfig, generate, write_dataset, write_tiny
from depnet.ingest import COLUMN_FILE

GOLDEN = Path(__file__).parent / "data" / "golden" / "cli.json"
GENERATED_CFG = GeneratorConfig(n_packages=400, months=12, seed=5, mean_deps=2.5)

# fixture -> (dataset options, fields the command templates use). "first",
# "second" and "last" are months of the range, "at" an instant, "start" and
# "end" an update window, and "excluded" the one name in the exclusion file.
FIXTURES = {
    "tiny": (["--cutoff", "2020-04-01"],
             {"first": "2020-01", "second": "2020-02", "last": "2020-04", "at": "2020-04-01",
              "start": "2020-01-01", "end": "2020-04-01", "excluded": "b"}),
    "generated": ([],
                  {"first": "2015-01", "second": "2015-02", "last": "2015-12",
                   "at": "2015-10-01", "start": "2015-03-01", "end": "2015-09-01",
                   "excluded": "pkg000000"}),
}
EXCLUDE_FILE = "exclude.txt"

COMMANDS = {
    "validate": ["validate"],
    "validate-kinds": ["validate", "--kinds", "runtime,dev"],
    "validate-exclude": ["validate", "--exclude-file", "{exclude}"],
    "snapshot": ["snapshot", "--at", "{at}"],
    "series-growth": ["series", "growth", "--from", "{first}", "--to", "{last}"],
    "series-growth-fit": ["series", "growth", "--fit", "linear", "--from", "{first}",
                          "--to", "{last}"],
    "series-growth-fit-exponential": ["series", "growth", "--fit", "exponential", "--log-r2",
                                      "--from", "{second}", "--to", "{last}"],
    "series-ratio": ["series", "ratio", "--from", "{first}", "--to", "{last}"],
    "series-updates": ["series", "updates", "--from", "{first}", "--to", "{last}"],
    "series-updates-first": ["series", "updates", "--include-first", "--from", "{first}",
                             "--to", "{last}"],
    "series-transitive-ratio": ["series", "transitive-ratio", "--from", "{first}",
                                "--to", "{last}"],
    "series-changeability": ["series", "index", "--index", "changeability", "--from",
                             "{first}", "--to", "{last}"],
    "series-reusability": ["series", "index", "--index", "reusability", "--from",
                           "{first}", "--to", "{last}"],
    "series-impact-5": ["series", "index", "--index", "impact", "--from", "{first}",
                        "--to", "{last}"],
    "series-impact-50": ["series", "index", "--index", "impact", "--p", "50", "--from",
                         "{first}", "--to", "{last}"],
    "series-inverted": ["series", "growth", "--from", "{last}", "--to", "{first}"],
    "distribution-updates": ["distribution", "updates", "--at", "{at}"],
    "distribution-depth": ["distribution", "depth", "--at", "{at}"],
    "distribution-deps": ["distribution", "deps", "--at", "{at}"],
    "survival": ["survival"],
    "survival-split": ["survival", "--split-required"],
    "survival-km": ["survival", "--km", "--split-required"],
    "survival-logrank": ["survival", "--logrank"],
    "inequality-dependents": ["inequality", "dependents", "--at", "{at}"],
    "inequality-dependents-lorenz": ["inequality", "dependents", "--lorenz", "--at", "{at}"],
    "inequality-updates": ["inequality", "updates", "--window", "{start}", "{end}"],
    "inequality-updates-lorenz": ["inequality", "updates", "--lorenz", "--window", "{start}",
                                  "{end}"],
    "index-changeability": ["index", "changeability", "--at", "{at}"],
    "index-reusability": ["index", "reusability", "--at", "{at}"],
    "index-impact-5": ["index", "impact", "--at", "{at}"],
    "index-impact-50": ["index", "impact", "--p", "50", "--at", "{at}"],
}

CASES = [
    f"{fixture}/{command}/{fmt}"
    for fixture in FIXTURES for command in COMMANDS for fmt in ("csv", "json")
]


def write_fixtures(root: Path) -> dict[str, Path]:
    write_tiny(root / "tiny")
    write_dataset(generate(GENERATED_CFG), root / "generated", config=GENERATED_CFG)
    for name, (_, fields) in FIXTURES.items():
        (root / name / EXCLUDE_FILE).write_text(fields["excluded"] + "\n", encoding="utf-8")
    return {name: root / name for name in FIXTURES}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(dirs: dict[str, Path], case: str, jobs: int) -> dict:
    """Exit code and stdout and stderr digests of one case at ``--jobs jobs``."""
    fixture, command, fmt = case.split("/")
    options, fields = FIXTURES[fixture]
    fields = {**fields, "exclude": str(dirs[fixture] / EXCLUDE_FILE)}
    argv = [arg.format(**fields) for arg in COMMANDS[command]]
    argv += ["--dataset", str(dirs[fixture]), *options, "--format", fmt, "--jobs", str(jobs)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"exit": code, "stdout_sha256": _sha256(out.getvalue()),
            "stderr_sha256": _sha256(err.getvalue())}


@pytest.fixture(scope="module")
def fixture_dirs(tmp_path_factory):
    return write_fixtures(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def uncovered_commands(parser: argparse.ArgumentParser, commands) -> list[str]:
    """Subcommands of ``parser``, and choices of their positional arguments,
    that no argv in ``commands`` starts with. ``fixture`` writes files, not
    a table, and is exempt."""
    covered = {tuple(argv[:2]) for argv in commands} | {(argv[0],) for argv in commands}
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    missing = []
    for name, sub in subparsers.choices.items():
        if name == "fixture":
            continue
        choices = [c for a in sub._actions if not a.option_strings and a.choices for c in a.choices]
        keys = [(name, choice) for choice in choices] or [(name,)]
        missing += [" ".join(key) for key in keys if key not in covered]
    return missing


def test_every_subcommand_and_choice_has_a_golden_case():
    assert uncovered_commands(build_parser(), COMMANDS.values()) == []


def test_coverage_guard_names_what_is_missing():
    commands = [argv for argv in COMMANDS.values() if argv[:2] != ["series", "ratio"]]
    commands = [argv for argv in commands if argv[0] != "snapshot"]
    assert uncovered_commands(build_parser(), commands) == ["snapshot", "series ratio"]


def _no_parse(*args, **kwargs):
    raise AssertionError("a warm command parsed the CSVs")


def check_case(dirs: dict[str, Path], golden: dict, case: str, jobs: int) -> None:
    """The case's outcome is the recorded one, and the dataset directory
    holds its own files and the one column file afterwards."""
    assert outcome(dirs, case, jobs) == golden[case]
    assert sorted(os.listdir(dirs[case.split("/")[0]])) == sorted(
        ["packages.csv", "releases.csv", "dependencies.csv", "manifest.json",
         EXCLUDE_FILE, COLUMN_FILE]
    )


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(fixture_dirs, golden, case, jobs):
    """Cold: no column file before the case, so the command parses."""
    (fixture_dirs[case.split("/")[0]] / COLUMN_FILE).unlink(missing_ok=True)
    check_case(fixture_dirs, golden, case, jobs)


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden_warm(fixture_dirs, golden, case, jobs, monkeypatch):
    """Warm: the case runs once to write the column file, then again on it;
    every command but validate, which needs the raw rows, skips the parse."""
    outcome(fixture_dirs, case, jobs)
    if not case.split("/")[1].startswith("validate"):
        monkeypatch.setattr(ingest, "load_dataset_dir", _no_parse)
    check_case(fixture_dirs, golden, case, jobs)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        dirs = write_fixtures(Path(tmp))
        record = {case: outcome(dirs, case, 1) for case in CASES}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stderr.write(f"recorded {len(record)} cases in {GOLDEN}\n")
