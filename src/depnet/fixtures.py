"""Deterministic synthetic datasets for tests and benchmarks.

The generator (algorithm "depnet-fixture-v1") is a fixed, documented
procedure so that fixture content never drifts between releases:

* randomness comes from a single ``random.Random(seed)`` Mersenne Twister
  stream, consumed in a fixed order and only through ``random()`` (the one
  method with a cross-version stability guarantee); Poisson draws use
  Knuth's product method, integer draws scale ``random()``;
* package i of n first appears in month floor(i * months / n), giving
  roughly linear growth;
* each release (first or update) declares Poisson(mean_deps) dependency
  targets drawn with replacement among already-created packages, weighted
  by (in-degree + 1) ** attachment_bias, then deduplicated; self-draws are
  discarded; the in-degree counts every dependency row ever drawn;
* per month, every package created in an earlier month receives
  Poisson(update_rate) updates at distinct second offsets inside the
  month, keeping each package's release timestamps strictly increasing.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta
from importlib import resources
from pathlib import Path
from typing import Optional

from .ingest import Dataset, parse_dataset, write_csv
from .timeutil import add_months, month_start

GENERATOR_NAME = "depnet-fixture-v1"
_EPOCH_MONTH = (2015, 1)

# Hand-built five-package fixture with a known dependency history,
# shipped as CSV data files; cutoff 2020-04-01.
TINY_CUTOFF = datetime(2020, 4, 1)


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    n_packages: int
    months: int
    seed: int = 0
    attachment_bias: float = 1.0
    mean_deps: float = 2.0
    update_rate: float = 0.05

    def validate(self) -> None:
        if self.n_packages <= 0:
            raise ValueError("n_packages must be positive")
        if self.months <= 0:
            raise ValueError("months must be positive")
        if self.attachment_bias < 0:
            raise ValueError("attachment_bias must be non-negative")
        if self.mean_deps < 0:
            raise ValueError("mean_deps must be non-negative")
        if self.update_rate < 0:
            raise ValueError("update_rate must be non-negative")


def _poisson(rng: random.Random, lam: float) -> int:
    # Knuth's product method; exact and stable for the small rates used here.
    if lam <= 0.0:
        return 0
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


class _Fenwick:
    """Fenwick tree over node weights supporting O(log n) weighted draws."""

    def __init__(self, capacity: int):
        self.n = capacity
        self.tree = [0.0] * (capacity + 1)
        self.total = 0.0
        self.high_bit = 1 << (capacity.bit_length() - 1) if capacity else 0

    def add(self, i: int, delta: float) -> None:
        self.total += delta
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def sample(self, r: float) -> int:
        """Index with the smallest prefix sum exceeding r, r in [0, total)."""
        pos = 0
        bit = self.high_bit
        while bit:
            nxt = pos + bit
            if nxt <= self.n and self.tree[nxt] <= r:
                r -= self.tree[nxt]
                pos = nxt
            bit >>= 1
        return min(pos, self.n - 1)


def _distinct_offsets(rng: random.Random, span: int, count: int) -> list[int]:
    """``count`` distinct second offsets in [0, span), ascending."""
    count = min(count, span)
    seen: set[int] = set()
    while len(seen) < count:
        seen.add(int(rng.random() * span))
    return sorted(seen)


def generate(cfg: GeneratorConfig) -> Dataset:
    """Produce a synthetic Dataset; bit-reproducible for a fixed config."""
    cfg.validate()
    rng = random.Random(cfg.seed)
    n = cfg.n_packages
    bias = cfg.attachment_bias

    names = [f"pkg{i:06d}" for i in range(n)]
    first_month_of = [i * cfg.months // n for i in range(n)]
    created = 0

    weights = _Fenwick(n)
    in_degree = [0] * n

    def bump_in_degree(target: int) -> None:
        d = in_degree[target]
        in_degree[target] = d + 1
        weights.add(target, (d + 2) ** bias - (d + 1) ** bias)

    def draw_targets(source: int) -> list[int]:
        k = _poisson(rng, cfg.mean_deps)
        if k == 0 or weights.total <= 0.0:
            return []
        chosen: list[int] = []
        seen: set[int] = set()
        for _ in range(k):
            target = weights.sample(rng.random() * weights.total)
            if target == source or target in seen:
                continue
            seen.add(target)
            chosen.append(target)
        return chosen

    # The dataset's columns (see Dataset): package id i is names[i].
    release_package: list[int] = []
    release_version: list[str] = []
    release_time: list[datetime] = []
    dependency_source: list[int] = []
    dependency_target: list[str] = []
    release_count = [0] * n

    def emit_release(pkg: int, ts: datetime, targets: list[int]) -> None:
        rid = len(release_package)
        release_count[pkg] += 1
        release_package.append(pkg)
        release_version.append(f"1.0.{release_count[pkg] - 1}")
        release_time.append(ts)
        for target in targets:
            dependency_source.append(rid)
            dependency_target.append(names[target])
            bump_in_degree(target)

    for month in range(cfg.months):
        start = month_start(add_months(_EPOCH_MONTH, month))
        end = month_start(add_months(_EPOCH_MONTH, month + 1))
        span = int((end - start).total_seconds())

        # New packages this month, in id order. Targets are drawn before
        # the package enters the weight tree, so only older packages with
        # lower ids are reachable.
        existing_before_month = created
        while created < n and first_month_of[created] == month:
            pkg = created
            ts = start + timedelta(seconds=int(rng.random() * span))
            targets = draw_targets(pkg)
            emit_release(pkg, ts, targets)
            weights.add(pkg, 1.0)
            created += 1

        # Updates for packages created in earlier months, in id order.
        # Distinct ascending offsets keep per-package timestamps strictly
        # increasing without ever crossing the month boundary.
        for pkg in range(existing_before_month):
            n_updates = _poisson(rng, cfg.update_rate)
            if n_updates == 0:
                continue
            for offset in _distinct_offsets(rng, span, n_updates):
                emit_release(pkg, start + timedelta(seconds=offset), draw_targets(pkg))

    cutoff = month_start(add_months(_EPOCH_MONTH, cfg.months))
    n_deps = len(dependency_source)
    return Dataset._from_columns(
        names,
        {name: pid for pid, name in enumerate(names)},
        (release_package, release_version, release_time),
        (dependency_source, dependency_target, ["*"] * n_deps, ["runtime"] * n_deps),
        cutoff,
        "synthetic",
    )


def write_dataset(d: Dataset, directory, config: Optional[GeneratorConfig] = None) -> None:
    """Write the three CSV files plus a manifest with row counts and a
    content hash; re-parsing yields an equal Dataset."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def write(name: str, header: str, rows) -> None:
        with open(directory / name, "w", newline="", encoding="utf-8") as handle:
            write_csv(handle, header.split(","), rows)

    names, package, version = d.names, d.release_package, d.release_version
    write("packages.csv", "name", ([name] for name in sorted(names)))
    write(
        "releases.csv",
        "package,version,timestamp",
        (
            (names[pid], ver, ts.isoformat())
            for pid, ver, ts in zip(package, version, d.release_time)
        ),
    )
    write(
        "dependencies.csv",
        "source_package,source_version,target_package,constraint,kind",
        (
            (names[package[rid]], version[rid], target, constraint, kind)
            for rid, target, constraint, kind in zip(
                d.dependency_source, d.dependency_target,
                d.dependency_constraint, d.dependency_kind,
            )
        ),
    )
    _write_manifest(d, directory, config)


def _write_manifest(d: Dataset, directory: Path, config: Optional[GeneratorConfig]) -> None:
    """``manifest.json`` for the three CSV files already in ``directory``:
    row counts, cutoff, ecosystem, generator settings and a content hash."""
    digest = hashlib.sha256()
    for name in ("packages.csv", "releases.csv", "dependencies.csv"):
        digest.update((directory / name).read_bytes())
    manifest = {
        "generator": GENERATOR_NAME,
        "rows": {
            "packages": len(d.packages),
            "releases": len(d.releases),
            "dependencies": len(d.dependencies),
        },
        "cutoff": d.cutoff.isoformat(),
        "ecosystem": d.ecosystem,
        "seed": config.seed if config else None,
        "config": asdict(config) if config else None,
        "sha256": digest.hexdigest(),
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def tiny_dataset() -> Dataset:
    """The in-repo five-package hand fixture (cutoff 2020-04-01)."""
    root = resources.files("depnet").joinpath("data/tiny")
    with resources.as_file(root) as path:
        return parse_dataset(
            path / "packages.csv",
            path / "releases.csv",
            path / "dependencies.csv",
            TINY_CUTOFF,
            ecosystem="tiny",
        )


def write_tiny(directory) -> None:
    """Copy the TINY fixture files into a directory, with a manifest that
    carries TINY's cutoff."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    root = resources.files("depnet").joinpath("data/tiny")
    for name in ("packages.csv", "releases.csv", "dependencies.csv"):
        (directory / name).write_bytes(root.joinpath(name).read_bytes())
    _write_manifest(tiny_dataset(), directory, None)
