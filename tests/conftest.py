from __future__ import annotations

import random
from datetime import datetime, timedelta

import numpy as np
import pytest

from depnet.ingest import (
    Coded,
    Dataset,
    DependencyRecord,
    PackageRecord,
    RecordView,
    ReleaseRecord,
    load_dataset_dir,
)
from depnet.snapshot import SnapshotGraph
from depnet.fixtures import GeneratorConfig, tiny_dataset, write_dataset
from depnet.stats import SurvivalSample


# Perf fixture: 100k packages over 60 months, ~471k dependency rows.
PERF_CFG = GeneratorConfig(
    n_packages=100_000,
    months=60,
    seed=20170401,
    attachment_bias=1.0,
    mean_deps=2.5,
    update_rate=0.03,
)


@pytest.fixture(scope="session")
def tiny():
    return tiny_dataset()


def skip_unless_perf_selected(request, reason: str) -> None:
    """Skip a test marked ``perf`` unless the run selects that marker
    (``-m perf``)."""
    if request.node.get_closest_marker("perf") and "perf" not in request.config.getoption(
        "markexpr"
    ):
        pytest.skip(reason)


def csr_arrays(adj) -> tuple[np.ndarray, np.ndarray]:
    """The CSR ``offsets`` and ``targets`` of integer adjacency rows."""
    offsets = np.zeros(len(adj) + 1, np.int64)
    np.cumsum([len(row) for row in adj], out=offsets[1:])
    return offsets, np.array([w for row in adj for w in row], np.int32)


def make_graph(nodes, edges, at=datetime(2020, 1, 1)) -> SnapshotGraph:
    """Build a SnapshotGraph directly from a node list and edge pairs."""
    names = list(dict.fromkeys(nodes))
    releases = RecordView(len(names), ReleaseRecord, lambda ids: (
        [names[i] for i in ids], ["1.0.0"] * len(ids), [at] * len(ids)
    ))
    ids = {n: i for i, n in enumerate(names)}
    adj: list[list[int]] = [[] for _ in names]
    for src, dst in edges:
        if src != dst:
            adj[ids[src]].append(ids[dst])
    offsets, targets = csr_arrays([list(dict.fromkeys(row)) for row in adj])
    return SnapshotGraph(
        at=at, releases=releases, latest_ids=range(len(names)),
        names=Coded(np.arange(len(names)), names), offsets=offsets, targets=targets,
    )


def survival_sample(observations, label: str = "") -> SurvivalSample:
    """A SurvivalSample of (duration, censored) pairs."""
    durations = [duration for duration, _ in observations]
    return SurvivalSample(durations, [censored for _, censored in observations], label)


def observations(sample: SurvivalSample) -> list[tuple[float, bool]]:
    """The (duration, censored) pairs of ``sample``, in order."""
    return list(zip(sample.durations.tolist(), sample.censored.tolist()))


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


def edge_case_dataset(rng: random.Random) -> Dataset:
    """A random dataset of up to seven packages over three months with the
    cases a snapshot rule can get wrong: releases of one package at one
    instant, some with versions that tie in version order; versions whose
    order disagrees with time; self-dependencies; repeated dependency rows,
    not always next to each other; targets first released later; listed
    packages without releases; targets without a package row; and, now and
    then, no package at all."""
    names = [f"p{i}" for i in range(rng.randint(0, 7))]
    instants = [datetime(2020, 2, 1), datetime(2020, 3, 1)]
    instants += [datetime(2020, 1, 1) + timedelta(hours=36 * k) for k in range(56)]
    releases = []
    for name in names:
        if rng.random() < 0.2:
            continue  # listed, never released
        own = rng.sample(instants, rng.randint(1, 3))
        for version in rng.sample(["0.9", "1.0", "1.00", "1.1", "2.0", "10.0"], rng.randint(1, 5)):
            releases.append(ReleaseRecord(name, version, rng.choice(own)))
    deps = []
    for rel in releases:
        for _ in range(rng.randint(0, 4)):
            target = rel.package if rng.random() < 0.15 else rng.choice(names + ["ghost"])
            for _ in range(rng.choice((1, 1, 2))):
                deps.append(DependencyRecord(rel.package, rel.version, target, "*", "runtime"))
    rng.shuffle(releases)
    rng.shuffle(deps)
    return Dataset(
        packages={PackageRecord(n, "default") for n in names},
        releases=releases,
        dependencies=deps,
        cutoff=datetime(2020, 4, 1),
    )


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
