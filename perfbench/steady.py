"""Steadiness of the benchmark: each workload N times, one seed a run.

    python3 perfbench/steady.py [--workload scan cli depth] [--runs 10] [--first-seed 1]

For each workload (default: every workload in BENCHMARK.json), runs
``run.py`` with seeds first-seed .. first-seed+N-1 (tracing off), prints
every run's end-to-end metrics with their units, and then, for each
metric, the median, the quartiles (``statistics.quantiles(values, n=4)``),
the spread (third minus first quartile over the median) against the
metric's bound in BENCHMARK.json, and every sample; then the share of
failed operations and the wall time of the whole runs. ``--runs 1`` is
the one command that runs every workload once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def steady(spec: dict, workload: str, seeds: range) -> None:
    """Run one workload once per seed and print its samples."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    samples: dict[str, list[float]] = {}
    shares = []
    durations = []
    for seed in seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [*spec["command"], "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        durations.append(time.perf_counter() - start)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise RuntimeError(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
        phases = [line for line in proc.stderr.splitlines() if "fixture" in line]
        print(f"{workload} seed {seed}: {durations[-1]:.1f} s  "
              + "  ".join(f"{n}={m['value']:.4g} {m['unit']}" for n, m in result["metrics"].items())
              + (f"  ({phases[-1].split(': ', 1)[1]})" if phases else ""),
              flush=True)

    if len(seeds) > 1:
        print(f"\n{workload}: {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"run_seconds {spec['run_seconds']}")
        for name, values in samples.items():
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "  ok" if spread < bound / 3 else "  within bound" if spread <= bound
                else "  OVER BOUND")
            print(f"  {name}: median {median:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
                  f"spread {spread:.3f} (bound {bound}){verdict}")
            print("    samples: " + ", ".join(f"{v:.4g}" for v in values))
        print(f"  failed share: {sorted(set(shares))}")
        print(f"  run durations (s): median {statistics.median(durations):.1f}, "
              f"max {max(durations):.1f}, total {sum(durations):.0f}\n")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="run each workload N times and summarise")
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    seeds = range(args.first_seed, args.first_seed + args.runs)
    try:
        for workload in args.workload:
            steady(spec, workload, seeds)
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
