"""Property test: a Dataset written by ``write_dataset`` loads back equal.

Every string column draws on commas, quotes, newlines, carriage returns,
padding and non-ASCII text. Examples are derandomized so that the suite
stays deterministic.
"""

from __future__ import annotations

import tempfile
from datetime import datetime
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from depnet.fixtures import write_dataset  # noqa: E402
from depnet.ingest import (  # noqa: E402
    Dataset,
    DependencyRecord,
    PackageRecord,
    ReleaseRecord,
    load_dataset_dir,
)

_CHARS = st.one_of(
    st.sampled_from([",", '"', "\n", "\r", " ", "\t", "é", "中", "😀"]),
    st.characters(exclude_categories=("Cs",)),
)


def _text(min_size: int) -> st.SearchStrategy[str]:
    return st.text(_CHARS, min_size=min_size, max_size=6)


# The parser lowercases kinds, so a valid Dataset holds lowercase ones.
_KINDS = _text(0).filter(lambda k: k == k.lower())
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
            _KINDS,
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
