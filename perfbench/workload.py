"""The program side of the benchmark: one workload in a fresh process.

``run.py`` starts this script once per workload so that the timed work
owns its process and its peak resident set. It imports depnet from the
``src`` directory of the checkout it sits in, runs the calls a workload
names, and writes the timings and the outputs that ``run.py`` checks as
JSON to ``--out``. Usage::

    python3 perfbench/workload.py generate --seed N --dataset DIR --out FILE
    python3 perfbench/workload.py scan  --dataset DIR --seconds S [--trace] --out FILE
    python3 perfbench/workload.py depth --dataset DIR --seconds S [--trace] --out FILE
    python3 perfbench/workload.py cli-layers --dataset DIR --out FILE

With ``--trace`` a workload also replays its calls one public function
at a time, timing each call from here (nothing inside depnet changes),
and records data-shape counters at the same points.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from datetime import datetime
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent

# The roadmap's PERF_CFG fixture without its generator seed.
FIXTURE = {"n_packages": 100_000, "months": 60, "mean_deps": 2.5, "update_rate": 0.03}
PERF_CFG_SEED = 20170401
# Generator seeds in use: PERF_CFG_SEED + (--seed mod FIXTURE_VARIANTS).
# Ten datasets keep a change from being tuned to one, and cap the 9 s
# generation at ten per checkout, which the evaluation's time budget needs.
FIXTURE_VARIANTS = 10
# SHA-256 of packages.csv, releases.csv and dependencies.csv, in that
# order, as depnet's generator wrote them for each generator seed. A run
# fails if the generator no longer writes exactly these datasets, so that
# a change to the generator cannot quietly change the work measured.
FIXTURE_SHA256 = {
    20170401: "0796eb4857cbf617168ec0aeb11a2dba626df354aa79e88cedbfd73c38f0afda",
    20170402: "3e5e8376df8337420512cd5862340c908f9cc68abda17451990750028c59fe37",
    20170403: "b19e5a7be70dc2c6a3a5aca30af51200d8d17852a273b12da6295fdf42e223e4",
    20170404: "e5c8459288798d28915dc26ef80bdf3c5ea2598a98a86729e060bccecf787922",
    20170405: "8b82fb73508d732432c9c83230988c4f2c7a397b006748b6386f812052909cd5",
    20170406: "2496985f24fc262498f9d81b47036568514776e12be96392168ba39e0ca1b064",
    20170407: "71aa59fc4c75d58c2f78a976595e34b971b95b01073d9a11bcb3c1e31b7797b6",
    20170408: "a7da8c679c50466b4c10ca437782e38c2860bfd2d3c551ceeb024d9515429327",
    20170409: "20bd6f4e8f614bca25f8d0ab8a992fd4ce89cc72fbbdb89e36bd1f63a3db6c67",
    20170410: "a65fc1264df3eb2655018e36104a810f50da075f759d28d3126a84947d30ec91",
}
# The generator's true cutoff. Loading a generated dataset without it
# yields the newest release timestamp instead, which makes every instant
# in the cutoff month an error, so every load passes it explicitly.
CUTOFF = datetime(2020, 1, 1)
SCAN_MONTHS = ((2019, 12), (2020, 1))
P_PERCENT = 5.0
WINDOW_DAYS = 30
# An early instant at which the giant strongly connected component
# already exists; per-package BFS is super-linear in the graph size.
DEPTH_AT = datetime(2015, 10, 1)
GROWTH_MONTHS = ((2019, 1), (2019, 12))
INEQUALITY_AT = datetime(2020, 1, 1)


def _import_depnet():
    sys.path.insert(0, str(ROOT / "src"))
    import depnet

    if Path(depnet.__file__).resolve().parent != ROOT / "src" / "depnet":
        raise ImportError(f"depnet imported from {depnet.__file__}, not from {ROOT / 'src'}")
    return depnet


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _direct(_name: str, fn, *args, **kwargs):
    """Stand-in for ``Spans.timed`` with tracing off."""
    return fn(*args, **kwargs)


class Spans:
    """Wall time summed per layer name, kept in memory until the run ends."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def timed(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self.calls[name] = self.calls.get(name, 0) + 1
        return result


def _setup(dn, dataset: str) -> tuple:
    """load_dataset_dir + filter_dependencies + Dataset.index(), timed apart."""
    t0 = time.perf_counter()
    raw = dn.load_dataset_dir(dataset, cutoff=CUTOFF)
    t1 = time.perf_counter()
    d = dn.filter_dependencies(raw)
    t2 = time.perf_counter()
    d.index()
    t3 = time.perf_counter()
    rows = len(raw.packages) + len(raw.releases) + len(raw.dependencies)
    return d, {"parse_s": t1 - t0, "filter_s": t2 - t1, "index_s": t3 - t2, "rows": rows}


def _rounds(fn, seconds: float) -> tuple[list[float], object]:
    """Repeat ``fn`` until ``seconds`` have been spent; at least once."""
    times: list[float] = []
    result = None
    while not times or sum(times) < seconds:
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return times, result


def _adjacency(g) -> dict[str, tuple[str, ...]]:
    return {p: g.out_neighbors(p) for p in g.nodes}


def fixture_seed(workload: str, seed: int) -> int:
    """Generator seed of a run's fixture.

    ``depth`` always runs on PERF_CFG itself: at 15k nodes the giant SCC is
    still forming, and the BFS work it causes swings by a fifth from one
    generator seed to the next, which would swamp any change in the code.
    """
    if workload == "depth":
        return PERF_CFG_SEED
    return PERF_CFG_SEED + seed % FIXTURE_VARIANTS


def generate(seed: int, dataset: str) -> dict:
    dn = _import_depnet()
    cfg = dn.GeneratorConfig(seed=seed, **FIXTURE)
    t0 = time.perf_counter()
    d = dn.generate(cfg)
    t1 = time.perf_counter()
    dn.write_dataset(d, dataset, config=cfg)
    t2 = time.perf_counter()
    return {"generate_s": t1 - t0, "write_s": t2 - t1}


def scan(dataset: str, seconds: float, trace: bool) -> dict:
    dn = _import_depnet()
    from depnet.timeutil import month_start

    first, last = SCAN_MONTHS
    d, setup = _setup(dn, dataset)
    round_s, result = _rounds(
        lambda: dn.ecosystem_scan(d, first, last, P_PERCENT, WINDOW_DAYS, jobs=1), seconds
    )
    out = {
        "setup": setup,
        "round_s": round_s,
        "operations": len(round_s) * len(result),
        "peak_rss_mb": _peak_rss_mb(),
        "months": [list(m.month) for m in result],
        "metrics": [
            [m.n_packages, m.n_dependencies, m.n_transitive, m.changeability,
             m.reusability, m.p_impact]
            for m in result
        ],
    }
    # Per-package dependents counts of every scanned month, outside the
    # timing, for the checks on n_transitive and p_impact.
    out["dependent_counts"] = [
        dn.transitive_dependent_counts(dn.build_snapshot(d, month_start(m.month))) for m in result
    ]
    if trace:
        out["trace"] = _trace_scan(dn, d, result)
    return out


def _trace_scan(dn, d, result) -> dict:
    """Replay each month through the public calls ecosystem_scan makes."""
    from depnet.timeutil import iter_months, month_start

    spans = Spans()
    replayed = []
    start = time.perf_counter()
    for month in iter_months(*SCAN_MONTHS):
        t = month_start(month)
        g = spans.timed("snapshot.build", dn.build_snapshot, d, t)
        counts = spans.timed("graphops.dependents_closure", dn.transitive_dependent_counts, g)
        p_impact = spans.timed(
            "indices.p_impact", dn.p_impact_index, g, P_PERCENT, dependent_counts=counts
        ).value
        window = spans.timed("indices.changeability", dn.indices.update_counts_in_window, d, t, WINDOW_DAYS)
        changeability = spans.timed("indices.changeability", dn.h_index, window.values())
        reusability = spans.timed("indices.reusability", dn.reusability_index, g).value
        replayed.append(
            dn.MonthlyMetrics(
                month=month,
                n_packages=g.n_nodes,
                n_dependencies=g.n_edges,
                n_transitive=sum(counts.values()),
                changeability=changeability,
                reusability=reusability,
                p_impact=p_impact,
            )
        )
    traced_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = dn.ecosystem_scan(d, *SCAN_MONTHS, P_PERCENT, WINDOW_DAYS, jobs=2)
    parallel_s = time.perf_counter() - start
    return {
        "spans": spans.seconds,
        "calls": spans.calls,
        "traced_s": traced_s,
        "replay_equal": replayed == result,
        "parallel_s": parallel_s,
        "parallel_equal": parallel == result,
        "worker_peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        "nodes": g.n_nodes,
        "edges": g.n_edges,
        "transitive_pairs": sum(counts.values()),
        "top_level": len(dn.top_level_packages(g)),
        "largest_scc": reference.largest_scc(_adjacency(g)),
    }


def _depth_round(dn, d, timed=_direct) -> dict:
    """The library calls behind ``distribution depth`` and ``distribution deps``."""
    g = timed("snapshot.build", dn.build_snapshot, d, DEPTH_AT)
    hist = timed("graphops.depth", dn.depth_distribution, g)
    g = timed("snapshot.build", dn.build_snapshot, d, DEPTH_AT)
    forward = timed("graphops.dependencies_closure", dn.transitive_dependency_counts, g)
    reverse = timed("graphops.dependents_closure", dn.transitive_dependent_counts, g)
    rows = [
        [p, g.out_degree(p), forward[p], g.in_degree(p), reverse[p],
         timed("graphops.depth", dn.dependency_depth, g, p)]
        for p in sorted(g.latest)
    ]
    return {"histogram": sorted(hist.items()), "rows": rows, "graph": g}


def depth(dataset: str, seconds: float, trace: bool) -> dict:
    dn = _import_depnet()
    d, setup = _setup(dn, dataset)
    round_s, result = _rounds(lambda: _depth_round(dn, d), seconds)
    out = {
        "setup": setup,
        "round_s": round_s,
        "operations": len(round_s) * 2,
        "peak_rss_mb": _peak_rss_mb(),
        "histogram": result["histogram"],
        "rows": result["rows"],
    }
    if trace:
        spans = Spans()
        start = time.perf_counter()
        _depth_round(dn, d, spans.timed)
        traced_s = time.perf_counter() - start
        g = result["graph"]
        out["trace"] = {
            "spans": spans.seconds,
            "calls": spans.calls,
            "traced_s": traced_s,
            "nodes": g.n_nodes,
            "edges": g.n_edges,
            "transitive_pairs": sum(row[2] for row in result["rows"]),
            "top_level": len(dn.top_level_packages(g)),
            "largest_scc": reference.largest_scc(_adjacency(g)),
        }
    return out


def cli_layers(dataset: str) -> dict:
    """The library calls behind the cli workload's commands, one at a time."""
    dn = _import_depnet()
    from depnet.timeutil import iter_months, month_start

    d, setup = _setup(dn, dataset)
    spans = Spans()
    growth = []
    for month in iter_months(*GROWTH_MONTHS):
        g = spans.timed("snapshot.build", dn.build_snapshot, d, month_start(month))
        growth.append([month[0], month[1], g.n_nodes, g.n_edges])
    required, other = spans.timed("evolution.survival", dn.survival_dataset, d, split_by_required=True)
    for sample in (required, other):
        spans.timed("stats.kaplan_meier", dn.kaplan_meier, sample)
    g = spans.timed("snapshot.build", dn.build_snapshot, d, INEQUALITY_AT)
    in_counts = [g.in_degree(p) for p in g.nodes]
    values = [c for c in in_counts if c > 0]
    spans.timed("stats.gini", dn.gini, values)
    spans.timed("stats.gini", dn.normalized_gini, values)
    spans.timed("stats.gini", dn.lorenz_points, values, inverted=True)
    return {"setup": setup, "spans": spans.seconds, "calls": spans.calls, "growth": growth}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("generate", "scan", "depth", "cli-layers"))
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "generate":
        out = generate(args.seed, args.dataset)
    elif args.workload == "scan":
        out = scan(args.dataset, args.seconds, args.trace)
    elif args.workload == "depth":
        out = depth(args.dataset, args.seconds, args.trace)
    else:
        out = cli_layers(args.dataset)
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
