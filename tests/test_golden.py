"""CLI outputs compared byte for byte with recorded ones.

``tests/data/golden/cli.json`` holds, for every command below on TINY and
on a small generated fixture, in CSV and JSON, the exit code and the
SHA-256 of stdout. Each command runs at ``--jobs 1`` and ``--jobs 4``
against the same record. After a deliberate change of output, record the
files again with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from depnet.cli import run
from depnet.fixtures import GeneratorConfig, generate, write_dataset, write_tiny

GOLDEN = Path(__file__).parent / "data" / "golden" / "cli.json"
GENERATED_CFG = GeneratorConfig(n_packages=400, months=12, seed=5, mean_deps=2.5)

# fixture -> (dataset options, --from, --to, an instant, an update window)
FIXTURES = {
    "tiny": (["--cutoff", "2020-04-01"], "2020-01", "2020-04", "2020-04-01",
             ["2020-01-01", "2020-04-01"]),
    "generated": ([], "2015-01", "2015-12", "2015-10-01", ["2015-03-01", "2015-09-01"]),
}

COMMANDS = {
    "validate": ["validate"],
    "validate-kinds": ["validate", "--kinds", "runtime,dev"],
    "snapshot": ["snapshot", "--at", "{at}"],
    "series-growth": ["series", "growth", "--from", "{first}", "--to", "{last}"],
    "series-growth-fit": ["series", "growth", "--fit", "linear", "--from", "{first}",
                          "--to", "{last}"],
    "series-ratio": ["series", "ratio", "--from", "{first}", "--to", "{last}"],
    "series-updates": ["series", "updates", "--from", "{first}", "--to", "{last}"],
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
    return {name: root / name for name in FIXTURES}


def outcome(dirs: dict[str, Path], case: str, jobs: int) -> dict:
    """Exit code and stdout digest of one case at ``--jobs jobs``."""
    fixture, command, fmt = case.split("/")
    options, first, last, at, (start, end) = FIXTURES[fixture]
    fields = {"first": first, "last": last, "at": at, "start": start, "end": end}
    argv = [arg.format(**fields) for arg in COMMANDS[command]]
    argv += ["--dataset", str(dirs[fixture]), *options, "--format", fmt, "--jobs", str(jobs)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def fixture_dirs(tmp_path_factory):
    return write_fixtures(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(fixture_dirs, golden, case, jobs):
    assert outcome(fixture_dirs, case, jobs) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        dirs = write_fixtures(Path(tmp))
        record = {case: outcome(dirs, case, 1) for case in CASES}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stderr.write(f"recorded {len(record)} cases in {GOLDEN}\n")
