"""Benchmark for depnet on the 100k-package fixture: scan, cli and depth.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 0 --seconds 5 --trace 0

Each run takes the 100k-package fixture that depnet's own generator makes
for ``--seed`` (one of ten variants of the roadmap's PERF_CFG; ``--seed 0``
and the ``depth`` workload use PERF_CFG itself), runs one workload on a
fresh copy of it in fresh processes, checks every output against the
reference computations in ``reference.py``, and prints one JSON object
as the last line of stdout::

    {"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
ones listed in ``LAYERS``. Exit status: 0 when every check passes, 1 when
a check fails or a step cannot run, 2 when the checkout has no depnet
sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from datetime import datetime
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "depnet"
WORK = ROOT / ".perfbench"
FIXTURES = WORK / "fixtures"
RUN = WORK / "run"

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import workload as wl  # noqa: E402

WORKLOADS = ("scan", "cli", "depth")
DATASET_FILES = ("packages.csv", "releases.csv", "dependencies.csv")
# Packages whose closure counts and depths are checked by plain BFS.
SAMPLES = 6
# Child processes are killed after this long, which leaves the checks
# time to finish within the 180 s a run may take.
DEADLINE_S = 150.0
TOLERANCE = 1e-9


def _month(m) -> str:
    return f"{m[0]:04d}-{m[1]:02d}"


CLI_COMMANDS = {
    "series_growth": ["series", "growth", "--from", _month(wl.GROWTH_MONTHS[0]),
                      "--to", _month(wl.GROWTH_MONTHS[1])],
    "survival": ["survival", "--km", "--split-required"],
    "inequality": ["inequality", "dependents", "--at", wl.INEQUALITY_AT.strftime("%Y-%m")],
}

LAYERS = {
    "ingest.parse_s": "s",
    "ingest.filter_s": "s",
    "ingest.index_s": "s",
    "ingest.rows_per_s": "rows/s",
    "snapshot.build_s": "s",
    "snapshot.builds": "count",
    "snapshot.nodes": "count",
    "snapshot.edges": "count",
    "graphops.dependents_closure_s": "s",
    "graphops.dependencies_closure_s": "s",
    "graphops.depth_s": "s",
    "graphops.transitive_pairs": "count",
    "graphops.largest_scc": "count",
    "graphops.top_level": "count",
    "indices.p_impact_s": "s",
    "indices.reusability_s": "s",
    "indices.changeability_s": "s",
    "evolution.scan_month_s": "s/month",
    "evolution.parallel_speedup": "ratio",
    "evolution.worker_peak_rss_mb": "MiB",
    "evolution.survival_s": "s",
    "stats.kaplan_meier_s": "s",
    "stats.gini_s": "s",
    "cli.startup_s": "s",
    "cli.validate_s": "s",
    "cli.series_growth_s": "s",
    "cli.survival_s": "s",
    "cli.inequality_s": "s",
    "cli.output_bytes": "bytes",
    "fixtures.generate_s": "s",
    "fixtures.write_s": "s",
    "trace.overhead_s": "s",
}


class Checks:
    """Outcomes of the output checks; each one counts as an operation."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.count += 1
        if not ok:
            self.failures.append(f"{name} {detail}".rstrip())


class Runner:
    """Starts the run's child processes, each bounded by the run's deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S
        env = dict(os.environ)
        env.pop("DEPNET_JOBS", None)
        # One string-hash seed for every child, so set iteration orders and
        # with them the program's work are the same on every run.
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.env = env

    def run(self, argv: list[str], stdout: Path) -> tuple[float, int, float]:
        """(wall seconds, exit code, peak RSS in MiB) of one child process."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return 0.0, -1, 0.0
        with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = stdout.with_suffix(".err").read_text(errors="replace")[-2000:]
            sys.stderr.write(f"perfbench: {' '.join(argv[1:4])} exited {proc.returncode}\n{tail}")
        return elapsed, proc.returncode, usage.ru_maxrss / 1024.0

    def workload(self, name: str, *args: str) -> tuple[int, dict]:
        """Run ``workload.py`` and return its exit code and its JSON output."""
        out = RUN / f"{name}.json"
        _, code, _ = self.run(
            [sys.executable, str(HERE / "workload.py"), name, *args, "--out", str(out)],
            RUN / f"{name}.log",
        )
        return code, (json.loads(out.read_text()) if code == 0 else {})

    def depnet(self, name: str, args: list[str], dataset: Path) -> tuple[float, int, float]:
        argv = [sys.executable, "-m", "depnet.cli", *args]
        if args != ["--version"]:
            argv += ["--dataset", str(dataset), "--cutoff", wl.CUTOFF.date().isoformat()]
        return self.run(argv, RUN / f"{name}.out")


# ---------------------------------------------------------------------------
# Fixture


def _pristine(directory: Path, seed: int) -> bool:
    """True if ``directory`` holds exactly the generator's files for seed,
    with the content recorded in ``workload.FIXTURE_SHA256``."""
    try:
        if sorted(os.listdir(directory)) != sorted(DATASET_FILES + ("manifest.json",)):
            return False
        manifest = json.loads((directory / "manifest.json").read_text())
        digest = hashlib.sha256()
        for name in DATASET_FILES:
            digest.update((directory / name).read_bytes())
        return digest.hexdigest() == manifest.get("sha256") == wl.FIXTURE_SHA256[seed]
    except (OSError, ValueError):
        return False


def prepare_fixture(runner: Runner, seed: int, fresh: bool) -> tuple[Path, dict]:
    """Copy the seed's fixture into a fresh run directory, generating it if
    no pristine copy is kept (or ``fresh`` asks for generation times).
    Fixtures are kept one per generator seed, so at most ten."""
    FIXTURES.mkdir(parents=True, exist_ok=True)
    kept = FIXTURES / f"seed-{seed}"
    times: dict = {}
    if fresh or not _pristine(kept, seed):
        tmp = FIXTURES / f"tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        code, times = runner.workload("generate", "--seed", str(seed), "--dataset", str(tmp))
        if code != 0 or not _pristine(tmp, seed):
            shutil.rmtree(tmp, ignore_errors=True)
            raise RuntimeError(f"fixture generation for seed {seed} failed" if code != 0 else
                               f"the generated fixture for seed {seed} is not the recorded one")
        shutil.rmtree(kept, ignore_errors=True)
        tmp.rename(kept)
    dataset = RUN / "dataset"
    shutil.copytree(kept, dataset)
    return dataset, times


# ---------------------------------------------------------------------------
# Workloads


def run_library(runner: Runner, name: str, dataset: Path, seconds: int, trace: bool) -> dict:
    args = ["--dataset", str(dataset), "--seconds", str(seconds)] + (["--trace"] if trace else [])
    code, out = runner.workload(name, *args)
    if code != 0:
        return {"failed_operations": 1}
    out["wall_s"] = statistics.median(out["round_s"])
    out["setup_s"] = sum(out["setup"][k] for k in ("parse_s", "filter_s", "index_s"))
    out["failed_operations"] = 0
    return out


def run_cli(runner: Runner, dataset: Path, seconds: int, trace: bool) -> dict:
    """``validate`` as set-up, then rounds of the timed commands."""
    out: dict = {"failed_operations": 0, "operations": 0, "exit_codes": {}}
    peaks = []

    def command(name: str, args: list[str]) -> float:
        elapsed, code, peak = runner.depnet(name, args, dataset)
        out["operations"] += 1
        out["exit_codes"][name] = code
        if code != 0:
            out["failed_operations"] += 1
        peaks.append(peak)
        return elapsed

    setup = command("validate", ["validate"])
    rounds = []
    per_command: dict[str, list[float]] = {name: [] for name in CLI_COMMANDS}
    while not rounds or sum(rounds) < seconds:
        total = 0.0
        for name, args in CLI_COMMANDS.items():
            elapsed = command(name, args)
            per_command[name].append(elapsed)
            total += elapsed
        rounds.append(total)
    out.update(wall_s=statistics.median(rounds), setup_s=setup,
               peak_rss_mb=max(peaks), per_command=per_command)
    if trace:
        startup, code, _ = runner.depnet("version", ["--version"], dataset)
        code_layers, layers = runner.workload("cli-layers", "--dataset", str(dataset))
        out["trace"] = {"startup_s": startup, "layers": layers,
                        "output_bytes": sum((RUN / f"{n}.out").stat().st_size for n in CLI_COMMANDS)}
        out["operations"] += 2
        out["failed_operations"] += (code != 0) + (code_layers != 0)
    return out


# ---------------------------------------------------------------------------
# Checks against the reference


def _sample(rng: random.Random, population, k: int) -> list[str]:
    ordered = sorted(population)
    return rng.sample(ordered, min(k, len(ordered)))


def check_scan(out: dict, rows: reference.Rows, rng: random.Random, checks: Checks) -> None:
    months = [tuple(m) for m in out["months"]]
    checks.expect("scan months", months == list(_months(*wl.SCAN_MONTHS)), str(months))
    instants = [datetime(y, m, 1) for y, m in months]
    graphs = reference.graphs_at(rows, instants)
    for month, t, values, counts in zip(months, instants, out["metrics"], out["dependent_counts"]):
        g = graphs[t]
        n_packages, n_dependencies, n_transitive, changeability, reusability, p_impact = values
        label = _month(month)
        checks.expect(f"{label} packages", n_packages == len(g), f"{n_packages} != {len(g)}")
        edges = reference.n_edges(g)
        checks.expect(f"{label} dependencies", n_dependencies == edges, f"{n_dependencies} != {edges}")
        want = reference.h_index(reference.update_counts(rows, t, wl.WINDOW_DAYS).values())
        checks.expect(f"{label} changeability", changeability == want, f"{changeability} != {want}")
        want = reference.h_index(reference.in_degrees(g).values())
        checks.expect(f"{label} reusability", reusability == want, f"{reusability} != {want}")

        checks.expect(f"{label} dependent counts cover the graph", set(counts) == set(g))
        total = sum(counts.values())
        checks.expect(f"{label} dependent counts sum to n_transitive", total == n_transitive,
                      f"{total} != {n_transitive}")
        threshold = wl.P_PERCENT / 100.0 * len(g)
        want = sum(1 for c in counts.values() if c >= threshold)
        checks.expect(f"{label} p_impact from dependent counts", p_impact == want,
                      f"{p_impact} != {want}")
        rev = reference.reverse(g)
        picks = _sample(rng, g, SAMPLES) + [max(sorted(counts), key=counts.get)]
        for p in picks:
            want = len(reference.bfs_reach(rev, p))
            checks.expect(f"{label} dependents of {p}", counts.get(p) == want,
                          f"{counts.get(p)} != {want}")
    if "trace" in out:
        checks.expect("replayed months equal the scan", out["trace"]["replay_equal"])
        checks.expect("jobs=2 equals jobs=1", out["trace"]["parallel_equal"])


def check_depth(out: dict, rows: reference.Rows, rng: random.Random, checks: Checks) -> None:
    g = reference.graphs_at(rows, [wl.DEPTH_AT])[wl.DEPTH_AT]
    rev = reference.reverse(g)
    table = {row[0]: row[1:] for row in out["rows"]}
    checks.expect("deps rows cover the graph", set(table) == set(g))
    if set(table) != set(g):
        return
    bad = [p for p in g if table[p][0] != len(g[p]) or table[p][2] != len(rev[p])]
    checks.expect("direct dependencies and dependents", not bad, f"wrong for {bad[:5]}")
    hist = {depth: count for depth, count in out["histogram"]}
    top = reference.top_level(g)
    checks.expect("histogram total is the top-level count", sum(hist.values()) == len(top),
                  f"{sum(hist.values())} != {len(top)}")
    by_rows = Counter(table[p][4] for p in top)
    checks.expect("histogram matches per-package depths", by_rows == Counter(hist))
    forward = sum(row[1] for row in table.values())
    backward = sum(row[3] for row in table.values())
    checks.expect("closure totals agree", forward == backward, f"{forward} != {backward}")
    deepest = max(sorted(table), key=lambda p: table[p][4])
    for p in _sample(rng, g, SAMPLES) + _sample(rng, top, SAMPLES) + [deepest]:
        n_direct, n_transitive, _, n_rev_transitive, depth = table[p]
        want = (len(reference.bfs_reach(g, p)), len(reference.bfs_reach(rev, p)),
                reference.bfs_eccentricity(g, p))
        got = (n_transitive, n_rev_transitive, depth)
        checks.expect(f"closures and depth of {p}", got == want, f"{got} != {want}")


def _read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def check_cli(out: dict, rows: reference.Rows, checks: Checks) -> None:
    for name, code in out["exit_codes"].items():
        checks.expect(f"{name} exit code", code == 0, str(code))
    codes = out["exit_codes"]

    if codes.get("validate") == 0:
        found = dict(_read_csv(RUN / "validate.out"))
        checks.expect("validate packages", found.get("packages") == str(len(rows.packages)))
        checks.expect("validate releases", found.get("releases") == str(len(rows.releases)))

    if codes.get("series_growth") == 0:
        months = list(_months(*wl.GROWTH_MONTHS))
        instants = [datetime(y, m, 1) for y, m in months]
        sizes = reference.sizes_at(rows, instants)
        want = [[_month(m), *map(str, sizes[t])] for m, t in zip(months, instants)]
        checks.expect("growth rows", _read_csv(RUN / "series_growth.out") == want)
        if "trace" in out and out["trace"]["layers"]:
            replayed = [[_month(r[:2]), str(r[2]), str(r[3])] for r in out["trace"]["layers"]["growth"]]
            checks.expect("replayed growth rows", replayed == want)

    if codes.get("survival") == 0:
        flags = reference.required_at_release(rows)
        required, other = reference.survival_samples(rows, wl.CUTOFF, flags)
        curves: dict[str, list[tuple[float, float]]] = {}
        for label, time_, survival in _read_csv(RUN / "survival.out"):
            curves.setdefault(label, []).append((float(time_), float(survival)))
        checks.expect("survival labels", sorted(curves) == ["not_required", "required"],
                      str(sorted(curves)))
        for label, sample in (("required", required), ("not_required", other)):
            want = reference.kaplan_meier(sample)
            got = curves.get(label, [])
            ok = len(got) == len(want) and all(
                _close(a, c) and _close(b, d) for (a, b), (c, d) in zip(got, want)
            )
            checks.expect(f"kaplan-meier {label}", ok, f"{len(got)} vs {len(want)} steps")

    if codes.get("inequality") == 0:
        graph = reference.graphs_at(rows, [wl.INEQUALITY_AT])[wl.INEQUALITY_AT]
        values = list(reference.in_degrees(graph).values())
        found = dict(_read_csv(RUN / "inequality.out"))
        want = reference.gini(values)
        n = len(values)
        checks.expect("inequality n", found.get("n") == str(n), f"{found.get('n')} != {n}")
        checks.expect("gini", _close(float(found.get("gini", "nan")), want))
        checks.expect("normalized gini",
                      _close(float(found.get("normalized_gini", "nan")), want / (1 - 1 / n)))


def _months(first, last):
    y, m = first
    while (y, m) <= last:
        yield (y, m)
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(out: dict) -> dict:
    return {
        "wall_s": {"value": out["wall_s"], "unit": "s"},
        "setup_s": {"value": out["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MiB"},
    }


def per_layer(name: str, out: dict, fixture: dict) -> dict:
    """Every layer metric; 0 where this workload does not run the layer."""
    values = {metric: 0.0 for metric in LAYERS}
    values["fixtures.generate_s"] = fixture.get("generate_s", 0.0)
    values["fixtures.write_s"] = fixture.get("write_s", 0.0)
    trace = out.get("trace") or {}
    if name == "cli":
        layers = trace.get("layers") or {}
        setup = layers.get("setup")
        spans = layers.get("spans", {})
        calls = layers.get("calls", {})
        values["cli.startup_s"] = trace.get("startup_s", 0.0)
        values["cli.validate_s"] = out["setup_s"]
        for command, times in out["per_command"].items():
            values[f"cli.{command}_s"] = statistics.median(times)
        values["cli.output_bytes"] = trace.get("output_bytes", 0)
    else:
        setup = out.get("setup")
        spans = trace.get("spans", {})
        calls = trace.get("calls", {})
        if "traced_s" in trace:
            values["trace.overhead_s"] = trace["traced_s"] - out["wall_s"]
        for key in ("nodes", "edges"):
            values[f"snapshot.{key}"] = trace.get(key, 0)
        for key in ("transitive_pairs", "largest_scc", "top_level"):
            values[f"graphops.{key}"] = trace.get(key, 0)
    if name == "scan" and trace:
        n_months = len(out["months"])
        values["evolution.scan_month_s"] = out["wall_s"] / n_months
        values["evolution.parallel_speedup"] = out["wall_s"] / trace["parallel_s"]
        values["evolution.worker_peak_rss_mb"] = trace["worker_peak_rss_mb"]
    if setup:
        for step in ("parse_s", "filter_s", "index_s"):
            values[f"ingest.{step}"] = setup[step]
        values["ingest.rows_per_s"] = setup["rows"] / setup["parse_s"]
    for span, seconds in spans.items():
        values[f"{span}_s"] = seconds
    values["snapshot.builds"] = calls.get("snapshot.build", 0)
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in LAYERS.items()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="depnet benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if not (SRC / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no depnet sources at {SRC}\n")
        return 2
    faults = reference.self_test()
    if faults:
        sys.stderr.write("perfbench: reference self-test failed:\n  " + "\n  ".join(faults) + "\n")
        return 1

    runner = Runner()
    shutil.rmtree(RUN, ignore_errors=True)
    RUN.mkdir(parents=True)
    phases = [time.perf_counter()]
    try:
        seed = wl.fixture_seed(args.workload, args.seed)
        dataset, fixture = prepare_fixture(runner, seed, fresh=trace)
        phases.append(time.perf_counter())
        if args.workload == "cli":
            out = run_cli(runner, dataset, args.seconds, trace)
        else:
            out = run_library(runner, args.workload, dataset, args.seconds, trace)
        if out["failed_operations"] and "wall_s" not in out:
            raise RuntimeError(f"the {args.workload} workload did not run to its end")
        phases.append(time.perf_counter())

        checks = Checks()
        rows = reference.Rows(dataset)
        rng = random.Random(args.seed)
        if args.workload == "scan":
            check_scan(out, rows, rng, checks)
        elif args.workload == "depth":
            check_depth(out, rows, rng, checks)
        else:
            check_cli(out, rows, checks)
    except RuntimeError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(RUN, ignore_errors=True)

    phases.append(time.perf_counter())
    sys.stderr.write(
        "perfbench: fixture %.1f s, workload %.1f s, checks %.1f s\n"
        % tuple(b - a for a, b in zip(phases, phases[1:]))
    )
    for failure in checks.failures:
        sys.stderr.write(f"perfbench: check failed: {failure}\n")
    metrics = per_layer(args.workload, out, fixture) if trace else end_to_end(out)
    result = {
        "correct": not checks.failures,
        "attempted": out["operations"] + checks.count,
        "failed": out["failed_operations"] + len(checks.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
