"""Property tests: a Dataset written by ``write_dataset`` loads back equal,
and ``load_filtered`` gives equal Datasets from the CSVs and from the
column file.

Every string column draws on commas, quotes, newlines, carriage returns,
padding and non-ASCII text. Examples are derandomized so that the suite
stays deterministic.
"""

from __future__ import annotations

import tempfile
from datetime import datetime
from unittest import mock
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from depnet import ingest  # noqa: E402
from depnet.fixtures import write_dataset  # noqa: E402
from depnet.ingest import (  # noqa: E402
    COLUMN_FILE,
    Dataset,
    DependencyRecord,
    PackageRecord,
    ReleaseRecord,
    load_dataset_dir,
    load_filtered,
)

_CHARS = st.one_of(
    st.sampled_from([",", '"', "\n", "\r", " ", "\t", "é", "中", "😀"]),
    st.characters(exclude_categories=("Cs",)),
)


def _text(min_size: int) -> st.SearchStrategy[str]:
    return st.text(_CHARS, min_size=min_size, max_size=6)


_TIMES = st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2019, 12, 31))


@st.composite
def datasets(draw) -> Dataset:
    ecosystem = draw(_text(1))
    names = draw(st.lists(_text(1), min_size=1, max_size=5, unique=True))
    releases = [
        ReleaseRecord(name, version, draw(_TIMES))
        for name in names
        for version in draw(st.lists(_text(1), max_size=3, unique=True))
    ]
    releases = draw(st.permutations(releases))
    dependencies = []
    if releases:
        rows = st.tuples(
            st.sampled_from(releases),
            st.one_of(st.sampled_from(names), _text(1)),
            _text(0),
            _text(0),
        )
        for rel, target, constraint, kind in draw(st.lists(rows, max_size=6)):
            dependencies.append(DependencyRecord(rel.package, rel.version, target, constraint, kind))
    return Dataset(
        packages={PackageRecord(name, ecosystem) for name in names},
        releases=releases,
        dependencies=dependencies,
        cutoff=datetime(2020, 1, 1),
        ecosystem=ecosystem,
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(datasets())
def test_write_then_load_is_identity(d):
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(d, Path(tmp) / "d")
        assert load_dataset_dir(Path(tmp) / "d") == d


def _columns(d: Dataset) -> dict:
    """The package table and the records of ``d``, its filter report,
    cutoff and ecosystem; not the lazy index, which each load path may
    fill differently."""
    return {
        "names": d.names,
        "package_ids": d.package_ids,
        "releases": list(d.releases),
        "dependencies": list(d.dependencies),
        "filter_report": d.filter_report,
        "cutoff": d.cutoff,
        "ecosystem": d.ecosystem,
    }


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(datasets(), st.booleans(), st.booleans(), st.sampled_from([None, "2020-06-01"]))
def test_cold_and_warm_loads_are_equal(d, filter_kinds, exclude, cutoff):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "d"
        write_dataset(d, directory)
        options = {}
        if filter_kinds:
            options["kinds"] = sorted({dep.kind for dep in d.dependencies}) or ["runtime"]
        if exclude:
            options["excluded"] = d.names[:1]
        if cutoff:
            options["cutoff"] = datetime.fromisoformat(cutoff)
        cold = load_filtered(directory, **options)
        assert (directory / COLUMN_FILE).is_file()
        with mock.patch.object(ingest, "load_dataset_dir", side_effect=AssertionError):
            warm = load_filtered(directory, **options)
        assert _columns(warm) == _columns(cold)
        # Filtered targets are coded into the package table, cold and warm.
        assert cold.dependency_target.table is cold.names
        assert warm.dependency_target.table is warm.names
