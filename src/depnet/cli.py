"""Command-line front end.

Subcommands bind the library operations into reproducible runs: data rows
go to stdout (or --out), diagnostics to stderr, and identical invocations
on identical inputs produce byte-identical output. Exit codes: 0 success,
1 data error, 2 usage error.

Each subcommand computes one table and returns it; ``run`` writes it
through ``_emit``, the one output path, which formats CSV or JSON, names
the file under ``--out DIR`` and writes the ``--manifest`` record.
``fixture`` writes dataset files instead and returns no table.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from . import __version__
from .evolution import (
    TimeSeries,
    dependency_ratio_series,
    depth_distribution,
    growth_series,
    index_series,
    survival_dataset,
    transitive_ratio_series,
    update_counts_series,
    update_distribution,
    update_inequality,
)
from .fixtures import GeneratorConfig, generate, write_dataset, write_tiny
from .graphops import (
    dependency_depths,
    transitive_dependency_counts,
    transitive_dependent_counts,
)
from .indices import changeability_index, p_impact_index, reusability_index
from .ingest import (
    DEFAULT_INCLUDED_KINDS,
    DatasetError,
    filter_dependencies,
    load_dataset_dir,
    load_exclusions,
    validate_dataset,
    write_csv,
)
from .snapshot import build_snapshot
from .stats import (
    fit_exponential,
    fit_linear,
    gini,
    kaplan_meier,
    log_rank,
    lorenz_points,
    normalized_gini,
)
from .timeutil import format_month, month_of, parse_instant, parse_month

_DATASET_FILES = ("packages.csv", "releases.csv", "dependencies.csv")


def _add_dataset_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, help="directory with packages.csv, releases.csv, dependencies.csv")
    parser.add_argument(
        "--cutoff",
        help="observation cutoff (YYYY-MM-DD or YYYY-MM); default: the cutoff in the "
        "dataset's manifest.json, else the last release timestamp",
    )
    parser.add_argument("--ecosystem", help="ecosystem identifier; default: the one in manifest.json, else the directory name")
    parser.add_argument(
        "--kinds",
        help="comma-separated dependency kinds to keep (default: %s)" % ",".join(sorted(DEFAULT_INCLUDED_KINDS)),
    )
    parser.add_argument("--exclude-file", help="file with one package name per line to drop entirely")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--manifest", action="store_true", help="emit a JSON provenance record alongside the output")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for monthly computations (default: 1)",
    )


def _load_raw_and_filtered(args):
    """The dataset as parsed, and as filtered by --kinds and --exclude-file."""
    cutoff = parse_instant(args.cutoff) if args.cutoff else None
    dataset = load_dataset_dir(args.dataset, cutoff=cutoff, ecosystem=args.ecosystem)
    kinds = (
        {k.strip().lower() for k in args.kinds.split(",") if k.strip()}
        if args.kinds
        else DEFAULT_INCLUDED_KINDS
    )
    excluded = load_exclusions(args.exclude_file) if args.exclude_file else ()
    return dataset, filter_dependencies(dataset, kinds, excluded)


def _load(args):
    return _load_raw_and_filtered(args)[1]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(args, header: list[str], rows: list[tuple], metric: str = "output",
          ecosystem: str = "") -> None:
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    else:
        buf = io.StringIO()
        write_csv(buf, header, ([_fmt(v) for v in row] for row in rows))
        text = buf.getvalue()
    out = args.out
    if out and Path(out).is_dir():
        # Directory target: one file per metric and ecosystem.
        name = f"{metric}__{ecosystem or 'dataset'}.{args.format}"
        out = Path(out) / name
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.manifest:
        _write_manifest(args, out)


def _write_manifest(args, target) -> None:
    digest = hashlib.sha256()
    for name in _DATASET_FILES:
        path = Path(args.dataset) / name
        if path.exists():
            digest.update(path.read_bytes())
    record = {
        "tool": {"name": "depnet", "version": __version__},
        "arguments": args.raw_argv,
        "dataset": {"path": str(args.dataset), "sha256": digest.hexdigest()},
    }
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if target:
        Path(str(target) + ".manifest.json").write_text(text, encoding="utf-8")
    else:
        sys.stderr.write(text)


# ---------------------------------------------------------------------------
# Subcommands


# What a subcommand returns for run() to emit: ecosystem, metric, header, rows.
Table = tuple[str, str, list[str], list[tuple]]


def _month_rows(series: TimeSeries, value=lambda v: v) -> list[tuple]:
    """One ``(month, value)`` row per point of a monthly series."""
    return [(format_month(m), value(v)) for m, v in series.points]


def _index_table(ecosystem: str, name: str, parameter, month_rows) -> Table:
    """One ``(month, index_name, parameter, value)`` row per ``(month, value)``
    row; an index without a parameter leaves that column blank."""
    parameter = _fmt(parameter) if parameter is not None else ""
    rows = [(month, name, parameter, value) for month, value in month_rows]
    return ecosystem, f"index_{name}", ["month", "index_name", "parameter", "value"], rows


def _cmd_validate(args) -> Table:
    dataset, filtered = _load_raw_and_filtered(args)
    report = validate_dataset(dataset, burst_factor=args.burst_factor)
    fr = filtered.filter_report

    rows = [
        ("packages", str(len(filtered.packages))),
        ("releases", str(len(filtered.releases))),
        ("dependencies", str(len(filtered.dependencies))),
        ("deps_dropped_by_kind", str(fr.kind_dropped)),
        ("deps_dropped_excluded", str(fr.excluded_deps_dropped)),
        ("releases_dropped_excluded", str(fr.excluded_releases_dropped)),
        ("deps_dropped_unresolved", str(fr.unresolved_deps_dropped)),
        ("unresolved_fraction", repr(fr.unresolved_fraction)),
        ("deps_dropped_duplicate", str(fr.duplicate_deps_dropped)),
        ("duplicate_releases", str(len(report.duplicate_releases))),
        ("ordering_flags", str(len(report.ordering_flags))),
        ("burst_warnings", str(len(report.burst_warnings))),
    ]
    for pkg, version in report.duplicate_releases:
        rows.append(("duplicate_release", f"{pkg} {version}"))
    for pkg in report.ordering_flags:
        rows.append(("ordering_flag", pkg))
    for warn in report.burst_warnings:
        rows.append(
            (
                "burst_warning",
                f"{format_month(warn.month)} count={warn.count} median={warn.trailing_median:g}",
            )
        )
    return dataset.ecosystem, "validate", ["check", "value"], rows


def _cmd_snapshot(args) -> Table:
    d = _load(args)
    g = build_snapshot(d, parse_instant(args.at))
    row = (g.at.isoformat(), g.n_nodes, g.n_edges, g.dropped_deps)
    return d.ecosystem, "snapshot", ["at", "packages", "dependencies", "dropped_deps"], [row]


def _cmd_series(args) -> Table:
    d = _load(args)
    first = parse_month(getattr(args, "from"))
    last = parse_month(args.to)
    if args.what == "growth":
        packages, deps = growth_series(d, first, last, jobs=args.jobs)
        if args.fit:
            rows = []
            header = ["series", "model", "a", "b", "r2"]
            if args.log_r2:
                header.append("r2_log")
            for series in (packages, deps):
                try:
                    if args.fit == "linear":
                        fit = fit_linear(series)
                    else:
                        fit = fit_exponential(series, include_log_r2=args.log_r2)
                except ValueError as exc:
                    sys.stderr.write(f"depnet: skipping {series.name}: {exc}\n")
                    continue
                row = (series.name, fit.model, fit.params[0], fit.params[1], fit.r_squared)
                if args.log_r2:
                    row += (fit.r_squared_log if fit.r_squared_log is not None else "",)
                rows.append(row)
            if not rows:
                raise ValueError(f"no series could be fitted with the {args.fit} model")
            return d.ecosystem, f"growth_fit_{args.fit}", header, rows
        rows = [
            (format_month(m), int(p), int(e))
            for (m, p), (_, e) in zip(packages.points, deps.points)
        ]
        return d.ecosystem, "growth", ["month", "packages", "dependencies"], rows
    if args.what == "ratio":
        series = dependency_ratio_series(d, first, last, jobs=args.jobs)
        return d.ecosystem, "dependency_ratio", ["month", "value"], _month_rows(series)
    if args.what == "updates":
        series = update_counts_series(d, first, last, include_first=args.include_first)
        return d.ecosystem, "updates", ["month", "value"], _month_rows(series, int)
    if args.what == "transitive-ratio":
        series = transitive_ratio_series(d, first, last, jobs=args.jobs)
        return d.ecosystem, "transitive_ratio", ["month", "value"], _month_rows(series)
    name = _index_name(args.index)
    parameter = _index_parameter(name, args)
    series = index_series(d, first, last, name, parameter, jobs=args.jobs)
    return _index_table(d.ecosystem, name, parameter, _month_rows(series, int))


def _index_name(raw: str) -> str:
    return {"impact": "p_impact"}.get(raw, raw)


def _index_parameter(name: str, args):
    if name == "changeability":
        return float(args.window_days)
    if name == "p_impact":
        return float(args.p)
    return None


def _cmd_distribution(args) -> Table:
    d = _load(args)
    at = parse_instant(args.at)
    metric = f"distribution_{args.what}"
    if args.what == "deps":
        g = build_snapshot(d, at)
        forward = transitive_dependency_counts(g)
        reverse = transitive_dependent_counts(g)
        depths = dependency_depths(g)
        rows = [
            (pkg, g.out_degree(pkg), forward[pkg], g.in_degree(pkg), reverse[pkg], depths[pkg])
            for pkg in sorted(g.nodes)
        ]
        header = ["package", "n_direct", "n_transitive", "n_rev_direct", "n_rev_transitive", "depth"]
        return d.ecosystem, metric, header, rows
    if args.what == "updates":
        bins = update_distribution(d, at)
        counts = [("0", bins.never), ("1-4", bins.low), ("5+", bins.high)]
    else:  # depth
        hist = depth_distribution(build_snapshot(d, at))
        counts = [(str(depth), count) for depth, count in sorted(hist.items())]
    total = sum(count for _, count in counts) or 1
    rows = [(label, count, count / total) for label, count in counts]
    return d.ecosystem, metric, ["bin", "count", "proportion"], rows


def _cmd_survival(args) -> Table:
    d = _load(args)
    split = args.split_required or args.logrank
    samples = survival_dataset(d, split_by_required=split)
    if not split:
        samples = (samples,)
    if args.logrank:
        required, not_required = samples
        result = log_rank(required, not_required, alpha=args.alpha)
        row = (result.statistic, result.significant, result.alpha, result.critical_value)
        header = ["statistic", "significant", "alpha", "critical_value"]
        return d.ecosystem, "survival_logrank", header, [row]
    if args.km:
        rows = []
        for sample in samples:
            curve = kaplan_meier(sample)
            rows.extend((sample.label, float(t), s) for t, s in curve.steps)
        return d.ecosystem, "survival_km", ["label", "time", "survival"], rows
    rows = [
        (s.label, len(s), s.n_events, s.n_censored)
        for s in samples
    ]
    return d.ecosystem, "survival", ["label", "observations", "events", "censored"], rows


def _cmd_inequality(args) -> Table:
    d = _load(args)
    if args.what == "updates":
        if not args.window:
            raise ValueError("inequality updates requires --window START END")
        start = parse_instant(args.window[0])
        end = parse_instant(args.window[1])
        result = update_inequality(d, start, end)
        values = list(result.counts.values())
        curve = result.lorenz
        gini_value = result.gini
        norm_value = result.normalized_gini
    else:  # dependents
        if not args.at:
            raise ValueError("inequality dependents requires --at DATE")
        g = build_snapshot(d, parse_instant(args.at))
        values = list(g.in_degree_counts().values())
        if not values:
            raise ValueError("no required packages in the snapshot")
        curve = lorenz_points(values, inverted=True)
        gini_value = gini(values)
        norm_value = normalized_gini(values) if len(values) >= 2 else 0.0
    name = f"inequality_{args.what}"
    if args.lorenz:
        return d.ecosystem, f"{name}_lorenz", ["cum_pop", "cum_val"], curve.points
    rows = [
        ("n", len(values)),
        ("gini", gini_value),
        ("normalized_gini", norm_value),
    ]
    return d.ecosystem, name, ["metric", "value"], rows


def _cmd_index(args) -> Table:
    d = _load(args)
    at = parse_instant(args.at)
    name = _index_name(args.name)
    if name == "changeability":
        report = changeability_index(d, at, window_days=args.window_days)
    elif name == "reusability":
        report = reusability_index(build_snapshot(d, at))
    else:
        report = p_impact_index(build_snapshot(d, at), args.p)
    row = (format_month(month_of(report.at)), report.value)
    return _index_table(d.ecosystem, report.index_name, report.parameter, [row])


def _cmd_fixture(args) -> None:
    out_dir = Path(args.out_dir)
    if args.action == "tiny":
        write_tiny(out_dir)
    else:
        cfg = GeneratorConfig(
            n_packages=args.n_packages,
            months=args.months,
            seed=args.seed,
            attachment_bias=args.attachment_bias,
            mean_deps=args.mean_deps,
            update_rate=args.update_rate,
        )
        write_dataset(generate(cfg), out_dir, config=cfg)
    sys.stderr.write(f"dataset written to {out_dir}\n")


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depnet",
        description="Temporal package dependency network analytics.",
    )
    parser.add_argument("--version", action="version", version=f"depnet {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("validate", help="check a dataset for anomalies and show filter counts")
    _add_dataset_options(p)
    p.add_argument("--burst-factor", type=float, default=10.0, help="release-burst threshold (default 10x trailing median)")
    _add_output_options(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("snapshot", help="summarize the dependency network at an instant")
    _add_dataset_options(p)
    p.add_argument("--at", required=True, help="snapshot instant (YYYY-MM-DD or YYYY-MM)")
    _add_output_options(p)
    p.set_defaults(func=_cmd_snapshot)

    p = sub.add_parser("series", help="monthly metric series")
    p.add_argument("what", choices=("growth", "ratio", "updates", "transitive-ratio", "index"))
    _add_dataset_options(p)
    p.add_argument("--from", required=True, help="first month (YYYY-MM)")
    p.add_argument("--to", required=True, help="last month (YYYY-MM)")
    p.add_argument("--include-first", action="store_true", help="count first releases as updates")
    p.add_argument("--fit", choices=("linear", "exponential"), help="fit a growth model instead of emitting the series (growth only)")
    p.add_argument("--log-r2", action="store_true", help="with --fit exponential, also report log-space R^2")
    p.add_argument("--index", choices=("changeability", "reusability", "impact"), default="changeability")
    p.add_argument("--p", type=float, default=5.0, help="impact threshold percent")
    p.add_argument("--window-days", type=int, default=30, help="changeability window length")
    _add_output_options(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("distribution", help="cross-sectional distributions at an instant")
    p.add_argument("what", choices=("updates", "depth", "deps"))
    _add_dataset_options(p)
    p.add_argument("--at", required=True)
    _add_output_options(p)
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser("survival", help="release update survival analysis")
    _add_dataset_options(p)
    p.add_argument("--split-required", action="store_true", help="split by required status at release time")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--km", action="store_true", help="emit Kaplan-Meier curves")
    group.add_argument("--logrank", action="store_true", help="log-rank test between required and not-required")
    p.add_argument("--alpha", type=float, choices=(0.05, 0.01), default=0.01)
    _add_output_options(p)
    p.set_defaults(func=_cmd_survival)

    p = sub.add_parser("inequality", help="Lorenz/Gini inequality summaries")
    p.add_argument("what", choices=("updates", "dependents"))
    _add_dataset_options(p)
    p.add_argument("--window", nargs=2, metavar=("START", "END"), help="update window [START, END)")
    p.add_argument("--at", help="snapshot instant for dependents")
    p.add_argument("--lorenz", action="store_true", help="emit the Lorenz curve instead of the summary")
    _add_output_options(p)
    p.set_defaults(func=_cmd_inequality)

    p = sub.add_parser("index", help="one ecosystem index at an instant")
    p.add_argument("name", choices=("changeability", "reusability", "impact"))
    _add_dataset_options(p)
    p.add_argument("--at", required=True)
    p.add_argument("--p", type=float, default=5.0, help="impact threshold percent")
    p.add_argument("--window-days", type=int, default=30)
    _add_output_options(p)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("fixture", help="write synthetic or hand-built datasets")
    p.add_argument("action", choices=("generate", "tiny"))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-packages", type=int, default=1000)
    p.add_argument("--months", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attachment-bias", type=float, default=1.0)
    p.add_argument("--mean-deps", type=float, default=2.0)
    p.add_argument("--update-rate", type=float, default=0.05)
    p.set_defaults(func=_cmd_fixture)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    problem = _bad_value(args)
    if problem:
        sys.stderr.write(f"depnet: {problem}\n")
        return 2
    args.raw_argv = list(argv)
    try:
        table = args.func(args)
        if table is not None:
            ecosystem, metric, header, rows = table
            _emit(args, header, rows, metric=metric, ecosystem=ecosystem)
    except DatasetError as exc:
        sys.stderr.write(f"depnet: {exc}\n")
        return 1
    except BrokenPipeError:
        # The reader went away (e.g. `| head -1`). Point stdout at devnull so
        # the interpreter's final flush cannot raise a second time.
        _discard_stdout()
        sys.stderr.write("depnet: output closed before it was fully written\n")
        return 1
    except BrokenProcessPool as exc:
        sys.stderr.write(f"depnet: a worker process died: {exc}\n")
        return 1
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"depnet: {exc}\n")
        return 1
    return 0


def _bad_value(args) -> str:
    """Why a numeric option is out of range, or "" when none is."""
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        return f"--jobs must be at least 1, not {jobs}"
    burst = getattr(args, "burst_factor", 1.0)
    if not (math.isfinite(burst) and burst > 0):
        return f"--burst-factor must be a positive finite number, not {burst}"
    return ""


def _discard_stdout() -> None:
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
