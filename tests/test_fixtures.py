from __future__ import annotations

import json
from dataclasses import replace

import pytest

from depnet.fixtures import (
    GeneratorConfig,
    generate,
    tiny_dataset,
    write_dataset,
    write_tiny,
)
from depnet.ingest import load_dataset_dir, validate_dataset
from depnet.snapshot import build_snapshot, monthly_snapshots
from depnet.stats import normalized_gini
from depnet.timeutil import month_of


SMOKE_CFG = GeneratorConfig(
    n_packages=400, months=18, seed=42, attachment_bias=1.0, mean_deps=2.0, update_rate=0.1
)


class TestGenerate:
    def test_deterministic(self):
        first = generate(SMOKE_CFG)
        second = generate(SMOKE_CFG)
        assert first == second
        assert first.releases == second.releases
        assert first.dependencies == second.dependencies

    def test_different_seeds_differ(self):
        a = generate(SMOKE_CFG)
        b = generate(replace(SMOKE_CFG, seed=43))
        assert a.releases != b.releases

    def test_mean_deps_zero_edgeless(self):
        cfg = GeneratorConfig(n_packages=50, months=6, seed=1, mean_deps=0.0)
        d = generate(cfg)
        assert d.dependencies == []
        for g in monthly_snapshots(d, (2015, 1), month_of(d.cutoff)):
            assert g.n_edges == 0

    def test_generated_dataset_is_valid(self):
        d = generate(SMOKE_CFG)
        report = validate_dataset(d)
        assert report.duplicate_releases == []
        assert report.ordering_flags == []
        # Ingest invariants hold without repair.
        names = d.package_names
        releases = {(r.package, r.version) for r in d.releases}
        for dep in d.dependencies:
            assert (dep.source_package, dep.source_version) in releases
            assert dep.target_package in names
        assert max(r.timestamp for r in d.releases) <= d.cutoff

    def test_packages_appear_over_months(self):
        d = generate(SMOKE_CFG)
        series = monthly_snapshots(d, (2015, 2), month_of(d.cutoff))
        counts = [g.n_nodes for g in series]
        assert counts == sorted(counts)
        assert counts[0] < counts[-1] == SMOKE_CFG.n_packages

    def test_preferential_attachment_skews_in_degrees(self):
        cfg = GeneratorConfig(
            n_packages=2000, months=24, seed=7, attachment_bias=1.0, mean_deps=3.0,
            update_rate=0.05,
        )
        d = generate(cfg)
        g = build_snapshot(d, d.cutoff)
        in_counts: dict[str, int] = {}
        for p in g.latest:
            for q in g.out_neighbors(p):
                in_counts[q] = in_counts.get(q, 0) + 1
        degrees = [in_counts.get(p, 0) for p in g.latest]
        assert normalized_gini(degrees) > 0.5

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            generate(GeneratorConfig(n_packages=0, months=5))
        with pytest.raises(ValueError):
            generate(GeneratorConfig(n_packages=5, months=0))
        with pytest.raises(ValueError):
            generate(GeneratorConfig(n_packages=5, months=5, mean_deps=-1))


class TestWriteDataset:
    def test_round_trip(self, tmp_path):
        d = generate(SMOKE_CFG)
        write_dataset(d, tmp_path / "gen", config=SMOKE_CFG)
        again = load_dataset_dir(tmp_path / "gen", cutoff=d.cutoff, ecosystem="synthetic")
        assert again == d

    def test_tiny_round_trip(self, tmp_path, tiny):
        write_dataset(tiny, tmp_path / "tiny2")
        again = load_dataset_dir(tmp_path / "tiny2", cutoff=tiny.cutoff, ecosystem="tiny")
        assert again == tiny

    def test_empty_dataset_headers_only(self, tmp_path):
        from depnet.ingest import Dataset
        from datetime import datetime

        empty = Dataset(packages=set(), releases=[], dependencies=[], cutoff=datetime(2020, 1, 1))
        write_dataset(empty, tmp_path / "empty")
        assert (tmp_path / "empty" / "packages.csv").read_text() == "name\n"
        assert (
            tmp_path / "empty" / "releases.csv"
        ).read_text() == "package,version,timestamp\n"

    def test_manifest_counts_and_hash_stable(self, tmp_path):
        d = generate(SMOKE_CFG)
        write_dataset(d, tmp_path / "one", config=SMOKE_CFG)
        write_dataset(d, tmp_path / "two", config=SMOKE_CFG)
        m1 = json.loads((tmp_path / "one" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "two" / "manifest.json").read_text())
        assert m1 == m2
        assert m1["rows"] == {
            "packages": len(d.packages),
            "releases": len(d.releases),
            "dependencies": len(d.dependencies),
        }
        assert m1["seed"] == SMOKE_CFG.seed
        assert m1["config"]["n_packages"] == SMOKE_CFG.n_packages
        assert len(m1["sha256"]) == 64


class TestTiny:
    def test_loader(self):
        d = tiny_dataset()
        assert len(d.packages) == 5
        assert d.ecosystem == "tiny"

    def test_write_tiny(self, tmp_path):
        write_tiny(tmp_path / "t")
        d = load_dataset_dir(tmp_path / "t", cutoff=tiny_dataset().cutoff)
        assert len(d.releases) == 7
