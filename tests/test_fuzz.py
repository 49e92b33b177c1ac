"""Seeded damage to a dataset's files, against the failure contract.

* A command on malformed CSVs or a malformed ``manifest.json`` exits 0, 1
  or 2. A failure writes exactly one stderr line, starting ``depnet: ``,
  and no traceback; a fault in a data row names its file and line.
* A damaged or truncated column file never changes what a command
  writes: the command parses the CSVs instead. Some of the damage lands
  in the data of one member, the index and span-table members included.

Each trial damages one file of a small generated dataset and runs one
command through ``cli.run`` in process. A plain run tries a bounded
number of damages; ten times as many more, from other seeds, are marked
``perf`` and run only when the run selects that marker (``-m perf``).
"""

from __future__ import annotations

import io
import random
import re
import struct
import zipfile

import pytest

from depnet import cli
from depnet.fixtures import GeneratorConfig, generate, write_dataset
from depnet.ingest import COLUMN_FILE

from conftest import skip_unless_perf_selected

CSV_FILES = ("packages.csv", "releases.csv", "dependencies.csv")
COMMANDS = (
    ("validate",),
    ("snapshot", "--at", "2016-06"),
    ("series", "growth", "--from", "2015-06", "--to", "2016-06"),
    ("survival",),
    ("distribution", "deps", "--at", "2016-06"),
    ("inequality", "dependents", "--at", "2016-06"),
)
# Faults of a whole file, which name no line.
FILE_FAULTS = ("missing header row", "missing column(s)", "is after the cutoff",
               "requires an explicit cutoff")
ROW_FAULT = re.compile(r"\.csv, line \d+: |\.csv: .* \(lines \d+ and \d+\)$")


@pytest.fixture(scope="module")
def clean(tmp_path_factory) -> dict[str, bytes]:
    """The files of a generated 80-package dataset over 24 months."""
    directory = tmp_path_factory.mktemp("clean")
    write_dataset(generate(GeneratorConfig(n_packages=80, months=24, seed=3)), directory)
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def _run(capsys, directory, command) -> tuple[int, str, str]:
    code = cli.run([*command, "--dataset", str(directory)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _mutated(rng: random.Random, data: bytes) -> tuple[str, bytes]:
    """One seeded mutation of ``data`` and its name."""
    at = rng.randrange(len(data) + 1)
    kind = rng.choice(("quote", "comma", "newline", "carriage return", "nul", "bom",
                       "delete", "duplicate line", "truncate", "quoted line break"))
    if kind == "delete":
        end = min(len(data), at + rng.randint(1, 40))
        return kind, data[:at] + data[end:]
    if kind == "duplicate line":
        lines = data.splitlines(keepends=True)
        k = rng.randrange(len(lines))
        return kind, b"".join(lines[: k + 1] + lines[k:])
    if kind == "quoted line break":
        # A field of one line made a quoted value that ends in a newline.
        lines = data.split(b"\n")
        k = rng.randrange(len(lines))
        fields = lines[k].split(b",")
        j = rng.randrange(len(fields))
        fields[j] = b'"' + fields[j] + b'\n"'
        lines[k] = b",".join(fields)
        return kind, b"\n".join(lines)
    if kind == "truncate":
        return kind, data[:at]
    if kind == "bom":
        at = 0 if rng.random() < 0.5 else at
    inserted = {"quote": b'"', "comma": b",", "newline": b"\n", "carriage return": b"\r",
                "nul": b"\0", "bom": "\ufeff".encode()}[kind]
    return kind, data[:at] + inserted * rng.randint(1, 3) + data[at:]


def _seeds(request, seeds: range) -> range:
    """``seeds``; a test marked ``perf`` runs only when the run selects
    that marker."""
    skip_unless_perf_selected(request, "more trials: run with -m perf")
    return seeds


def _more(seeds: range) -> object:
    """Ten times as many seeds as ``seeds``, following them, as a
    parameter marked ``perf``."""
    more = range(seeds.stop, seeds.stop + 10 * len(seeds))
    return pytest.param(more, marks=pytest.mark.perf, id="more")


CSV_SEEDS = range(200)
COLUMN_SEEDS = range(60)


def _check_csv_damage(capsys, tmp_path, clean, seed) -> str:
    """Damage one file of ``clean`` with ``seed``, run one command, check
    the contract and return how the command ended."""
    rng = random.Random(seed)
    for name, data in clean.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / COLUMN_FILE).unlink(missing_ok=True)
    name = rng.choice((*CSV_FILES, "manifest.json"))
    kind, data = _mutated(rng, clean[name])
    (tmp_path / name).write_bytes(data)
    command = rng.choice(COMMANDS)
    trial = f"seed {seed}: {kind} in {name}, {' '.join(command)}"
    try:
        code, _, err = _run(capsys, tmp_path, command)
    except Exception as exc:  # a traceback from the command line
        pytest.fail(f"{trial}: raised {exc!r}")
    assert code in (0, 1, 2), trial
    assert "Traceback" not in err, trial
    if code == 0:
        return "ok"
    assert err.startswith("depnet: ") and err.count("\n") == 1 and err.endswith("\n"), (
        f"{trial}: {err!r}"
    )
    if any(f in err for f in CSV_FILES) and not any(f in err for f in FILE_FAULTS):
        assert ROW_FAULT.search(err), f"{trial}: {err!r}"
    return "failed"


def _member_data(data: bytes) -> list[tuple[str, int, int]]:
    """The name, and the first and the past-the-end byte of the data, of
    each member of the column file ``data``: past the 30-byte local
    header, whose last 4 bytes hold the lengths of the name and of the
    extra field that follow it."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        infos = archive.infolist()
    members = []
    for info in infos:
        name_length, extra_length = struct.unpack_from("<HH", data, info.header_offset + 26)
        start = info.header_offset + 30 + name_length + extra_length
        members.append((info.filename, start, start + info.file_size))
    return members


def _check_column_damage(capsys, tmp_path, warm, expected, seed) -> str | None:
    """Damage the warm column file ``warm`` with ``seed``, check that one
    command gives its clean result and return the name of the member
    whose data alone was damaged, if any."""
    rng = random.Random(seed)
    roll, member = rng.random(), None
    if roll < 0.25:
        data = warm[: rng.randrange(len(warm))]
    else:
        data = bytearray(warm)
        lo, hi = 0, len(data)
        if roll >= 0.6:
            member, lo, hi = rng.choice(_member_data(warm))
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(lo, hi)] = rng.randrange(256)
        data = bytes(data)
    (tmp_path / COLUMN_FILE).write_bytes(data)
    command = rng.choice(COMMANDS)
    try:
        got = _run(capsys, tmp_path, command)
    except Exception as exc:
        pytest.fail(f"seed {seed}, {' '.join(command)}: raised {exc!r}")
    assert got == expected[command], f"seed {seed}, {' '.join(command)}"
    return member


@pytest.mark.parametrize("seeds", [CSV_SEEDS, _more(CSV_SEEDS)], ids=["bounded", "more"])
def test_damaged_csvs_fail_with_one_line(capsys, tmp_path, clean, request, seeds):
    ends = [_check_csv_damage(capsys, tmp_path, clean, seed) for seed in _seeds(request, seeds)]
    # Most damage is caught; some (a duplicated manifest line, a comma in
    # a constraint) leaves a dataset that still reads.
    assert 0 < ends.count("ok") < ends.count("failed")


@pytest.mark.parametrize("seeds", [COLUMN_SEEDS, _more(COLUMN_SEEDS)], ids=["bounded", "more"])
def test_damaged_column_file_gives_the_clean_output(capsys, tmp_path, clean, request, seeds):
    for name, data in clean.items():
        (tmp_path / name).write_bytes(data)
    expected = {command: _run(capsys, tmp_path, command) for command in COMMANDS}
    assert all(code == 0 for code, _, _ in expected.values())
    warm = (tmp_path / COLUMN_FILE).read_bytes()
    damaged = {_check_column_damage(capsys, tmp_path, warm, expected, seed)
               for seed in _seeds(request, seeds)}
    assert any(name and name.startswith("index_") for name in damaged)
    assert any(name and name.startswith("spans_") for name in damaged)
