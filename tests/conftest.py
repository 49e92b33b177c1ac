from __future__ import annotations

import random
from datetime import datetime

import pytest

from depnet.ingest import Dataset, ReleaseRecord, load_dataset_dir
from depnet.snapshot import IntView, SnapshotGraph
from depnet.fixtures import tiny_dataset, write_dataset


@pytest.fixture(scope="session")
def tiny():
    return tiny_dataset()


def make_graph(nodes, edges, at=datetime(2020, 1, 1)) -> SnapshotGraph:
    """Build a SnapshotGraph directly from a node list and edge pairs."""
    names = list(dict.fromkeys(nodes))
    releases = [ReleaseRecord(package=n, version="1.0.0", timestamp=at) for n in names]
    ids = {n: i for i, n in enumerate(names)}
    adj: list[list[int]] = [[] for _ in names]
    for src, dst in edges:
        if src != dst:
            adj[ids[src]].append(ids[dst])
    view = IntView(names, ids, [tuple(dict.fromkeys(row)) for row in adj])
    return SnapshotGraph(at=at, releases=releases, latest_ids=range(len(names)), view=view)


def random_graph(rng: random.Random, max_nodes: int = 50, density: float = 0.3):
    """Random directed graph (possibly cyclic) as (nodes, edges)."""
    n = rng.randint(1, max_nodes)
    nodes = [f"n{i:02d}" for i in range(n)]
    edges = []
    p = rng.uniform(0.0, density)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                edges.append((nodes[i], nodes[j]))
    return nodes, edges


def constructed_and_reloaded(d: Dataset, directory) -> tuple[Dataset, Dataset]:
    """``d`` as constructed, and ``d`` after ``write_dataset`` and
    ``load_dataset_dir``, so that an oracle covers the parse path too."""
    write_dataset(d, directory)
    return d, load_dataset_dir(directory)


def write_dataset_csvs(directory, packages, releases, dependencies):
    """Write raw CSV rows (lists of strings) into a dataset directory."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "packages.csv").write_text(
        "\n".join(["name"] + list(packages)) + "\n", encoding="utf-8"
    )
    (directory / "releases.csv").write_text(
        "\n".join(["package,version,timestamp"] + list(releases)) + "\n",
        encoding="utf-8",
    )
    (directory / "dependencies.csv").write_text(
        "\n".join(
            ["source_package,source_version,target_package,constraint,kind"]
            + list(dependencies)
        )
        + "\n",
        encoding="utf-8",
    )
    return directory
