"""Command-line front end.

Subcommands bind the library operations into reproducible runs: data rows
go to stdout (or --out), diagnostics to stderr, and identical invocations
on identical inputs produce byte-identical output. Exit codes: 0 success,
1 data error, 2 usage error.

Each subcommand computes one table and returns it as equal-length
columns; ``run`` writes it through ``_emit``, the one output path, which
formats CSV or JSON, names the file under ``--out DIR`` and writes the
``--manifest`` record. ``fixture`` writes dataset files instead and
returns no table. A subcommand imports the analysis modules it runs when
it runs, so that a command does not compile the modules of the others.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable, Sequence
from contextlib import nullcontext
from dataclasses import fields
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .ingest import (
    DEFAULT_INCLUDED_KINDS,
    _BLOCK_ROWS,
    _dataset_digest,
    load_exclusions,
    load_filtered,
    parse_filtered,
    write_csv,
)
from .timeutil import format_month, month_of, parse_instant, parse_month

if TYPE_CHECKING:
    from .evolution import TimeSeries
    from .fixtures import GeneratorConfig


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
        help=(
            "worker processes over the months of series transitive-ratio and of "
            "series index --index reusability or impact (default: 1)"
        ),
    )


def _dataset_arguments(args) -> tuple:
    """The arguments of ``load_filtered`` and ``parse_filtered`` that the
    dataset options give; a blank item of --kinds names no kind."""
    cutoff = parse_instant(args.cutoff) if args.cutoff else None
    kinds = [k for k in args.kinds.split(",") if k.strip()] if args.kinds else DEFAULT_INCLUDED_KINDS
    excluded = load_exclusions(args.exclude_file) if args.exclude_file else ()
    return args.dataset, cutoff, args.ecosystem, kinds, excluded


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# _fmt of the exact types that table columns hold, looked up by type; _fmt
# itself formats any other value, a subclass included.
_FORMATTERS = {
    str: str, int: int.__repr__, float: float.__repr__, bool: ("false", "true").__getitem__,
}


def _formatted(values: Sequence) -> list[str]:
    """``_fmt`` of each value, through one formatter when every value has
    the same type in ``_FORMATTERS``."""
    types = set(map(type, values))
    formatter = _FORMATTERS.get(types.pop(), _fmt) if len(types) == 1 else _fmt
    return list(map(formatter, values))


def _emit(args, header: list[str], columns: list, metric: str = "output",
          ecosystem: str = "") -> None:
    # Numpy values as the Python numbers that _fmt and json format.
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    out = args.out
    if out and Path(out).is_dir():
        # Directory target: one file per metric and ecosystem.
        name = f"{metric}__{ecosystem or 'dataset'}.{args.format}"
        out = Path(out) / name
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as handle:
        if args.format == "json":
            _write_json(handle, header, columns)
        else:
            # A block of rows at a time, each column of a block formatted at once.
            write_csv(handle, header, chain.from_iterable(
                zip(*(_formatted(column[start:start + _BLOCK_ROWS]) for column in columns))
                for start in range(0, len(columns[0]), _BLOCK_ROWS)))
    if args.manifest:
        _write_manifest(args, out)


# The types whose values ``json`` writes as one token each, compared
# exactly: a column of these alone is encoded in one call.
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_values(column: list) -> list[str]:
    """Each value of ``column`` as ``json.dumps(..., indent=2,
    sort_keys=True, default=str)`` writes it for a field of a row, two
    levels deep. A column of ``_JSON_SCALARS`` is one encoding of the list
    with a newline between items, which no encoded scalar holds; any other
    value is encoded alone, its lines indented by those two levels."""
    if not column:
        return []
    if set(map(type, column)) <= _JSON_SCALARS:
        return json.dumps(column, separators=("\n", ": "))[1:-1].split("\n")
    return [json.dumps(value, indent=2, sort_keys=True, default=str).replace("\n", "\n    ")
            for value in column]


def _write_json(handle, header: list[str], columns: list) -> None:
    """Write the table as ``json.dumps(rows, indent=2, sort_keys=True,
    default=str) + "\\n"`` writes the list of its rows, each a dict from
    ``header`` to the row's values, ``_BLOCK_ROWS`` rows at a time: a
    block's values are encoded a column at a time and put into one row
    template, its fields in name order. A repeated name takes its last
    column, as a dict does."""
    fields = sorted(dict(zip(header, range(len(header)))).items())
    rows = len(columns[0]) if fields else 0
    if not rows:
        handle.write("[]\n")
        return
    names = (json.dumps(name).replace("%", "%%") for name, _ in fields)
    template = "  {\n" + ",\n".join(f"    {name}: %s" for name in names) + "\n  }"
    handle.write("[\n")
    for start in range(0, rows, _BLOCK_ROWS):
        values = [_json_values(columns[k][start:start + _BLOCK_ROWS]) for _, k in fields]
        handle.write((",\n" if start else "") + ",\n".join(map(template.__mod__, zip(*values))))
    handle.write("\n]\n")


def _write_manifest(args, target) -> None:
    digest, _ = _dataset_digest(Path(args.dataset))
    record = {
        "tool": {"name": "depnet", "version": __version__},
        "arguments": args.raw_argv,
        "dataset": {"path": str(args.dataset), "sha256": digest},
    }
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if target:
        Path(str(target) + ".manifest.json").write_text(text, encoding="utf-8")
    else:
        sys.stderr.write(text)


# ---------------------------------------------------------------------------
# Subcommands


# What a subcommand returns for run() to emit: ecosystem, metric, header and
# one column per header name, all of one length.
Table = tuple[str, str, list[str], list[Sequence]]


def _table(ecosystem: str, metric: str, header: list[str], rows: Iterable[tuple]) -> Table:
    """A table built a row at a time, as columns; with no rows, one empty
    column per header name."""
    return ecosystem, metric, header, list(zip(*rows)) or [() for _ in header]


def _month_rows(series: TimeSeries, value=lambda v: v) -> list[tuple]:
    """One ``(month, value)`` row per point of a monthly series."""
    return [(format_month(m), value(v)) for m, v in series.points]


def _index_table(ecosystem: str, name: str, parameter, month_rows) -> Table:
    """One ``(month, index_name, parameter, value)`` row per ``(month, value)``
    row; an index without a parameter leaves that column blank."""
    parameter = _fmt(parameter) if parameter is not None else ""
    rows = [(month, name, parameter, value) for month, value in month_rows]
    return _table(ecosystem, f"index_{name}", ["month", "index_name", "parameter", "value"], rows)


def _cmd_validate(args) -> Table:
    report, filtered = parse_filtered(*_dataset_arguments(args), burst_factor=args.burst_factor)
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
    return _table(filtered.ecosystem, "validate", ["check", "value"], rows)


def _cmd_snapshot(args) -> Table:
    from .snapshot import build_snapshot

    d = load_filtered(*_dataset_arguments(args))
    g = build_snapshot(d, parse_instant(args.at))
    row = (g.at.isoformat(), g.n_nodes, g.n_edges, g.dropped_deps)
    return _table(d.ecosystem, "snapshot", ["at", "packages", "dependencies", "dropped_deps"], [row])


def _cmd_series(args) -> Table:
    from .evolution import (
        dependency_ratio_series, growth_series, index_series, transitive_ratio_series,
        update_counts_series,
    )

    d = load_filtered(*_dataset_arguments(args))
    first = parse_month(getattr(args, "from"))
    last = parse_month(args.to)
    if args.what == "growth":
        packages, deps = growth_series(d, first, last)
        if args.fit:
            from .stats import fit_exponential, fit_linear

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
            return _table(d.ecosystem, f"growth_fit_{args.fit}", header, rows)
        rows = [
            (format_month(m), int(p), int(e))
            for (m, p), (_, e) in zip(packages.points, deps.points)
        ]
        return _table(d.ecosystem, "growth", ["month", "packages", "dependencies"], rows)
    if args.what == "ratio":
        series = dependency_ratio_series(d, first, last)
        return _table(d.ecosystem, "dependency_ratio", ["month", "value"], _month_rows(series))
    if args.what == "updates":
        series = update_counts_series(d, first, last, include_first=args.include_first)
        return _table(d.ecosystem, "updates", ["month", "value"], _month_rows(series, int))
    if args.what == "transitive-ratio":
        series = transitive_ratio_series(d, first, last, jobs=args.jobs)
        return _table(d.ecosystem, "transitive_ratio", ["month", "value"], _month_rows(series))
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
    from .evolution import depth_distribution, update_distribution
    from .snapshot import build_snapshot, in_degrees

    d = load_filtered(*_dataset_arguments(args))
    at = parse_instant(args.at)
    metric = f"distribution_{args.what}"
    if args.what == "deps":
        from .graphops import _closures, _edge_list, dependency_depths

        g = build_snapshot(d, at)
        # Each count column in node id order, then every column in name order.
        offsets, targets = g.edge_arrays()
        forward, reverse = _closures(*_edge_list(g), (False, True))
        depths = np.fromiter(dependency_depths(g).values(), np.int64)
        columns = [np.diff(offsets), forward, in_degrees(offsets, targets), reverse, depths]
        names = g.names
        order = sorted(range(len(names)), key=names.__getitem__)
        header = ["package", "n_direct", "n_transitive", "n_rev_direct", "n_rev_transitive", "depth"]
        return d.ecosystem, metric, header, [[names[i] for i in order], *(c[order] for c in columns)]
    if args.what == "updates":
        bins = update_distribution(d, at)
        counts = [("0", bins.never), ("1-4", bins.low), ("5+", bins.high)]
    else:  # depth
        hist = depth_distribution(build_snapshot(d, at))
        counts = [(str(depth), count) for depth, count in sorted(hist.items())]
    total = sum(count for _, count in counts) or 1
    rows = [(label, count, count / total) for label, count in counts]
    return _table(d.ecosystem, metric, ["bin", "count", "proportion"], rows)


def _cmd_survival(args) -> Table:
    from .evolution import survival_dataset
    from .stats import _product_limit, log_rank

    d = load_filtered(*_dataset_arguments(args))
    split = args.split_required or args.logrank
    samples = survival_dataset(d, split_by_required=split)
    if not split:
        samples = (samples,)
    if args.logrank:
        required, not_required = samples
        result = log_rank(required, not_required, alpha=args.alpha)
        row = (result.statistic, result.significant, result.alpha, result.critical_value)
        header = ["statistic", "significant", "alpha", "critical_value"]
        return _table(d.ecosystem, "survival_logrank", header, [row])
    if args.km:
        # A split may leave one sample empty, which has no curve; the
        # estimate still rejects the input when every sample is empty.
        samples = [s for s in samples if len(s)] or samples
        curves = [_product_limit(sample) for sample in samples]
        labels = list(chain.from_iterable(
            repeat(sample.label, len(times)) for sample, (times, _) in zip(samples, curves)
        ))
        times, survival = (np.concatenate(column) for column in zip(*curves))
        return d.ecosystem, "survival_km", ["label", "time", "survival"], [labels, times, survival]
    rows = [
        (s.label, len(s), s.n_events, s.n_censored)
        for s in samples
    ]
    return _table(d.ecosystem, "survival", ["label", "observations", "events", "censored"], rows)


def _cmd_inequality(args) -> Table:
    from .evolution import _inequality, update_inequality
    from .snapshot import build_snapshot

    d = load_filtered(*_dataset_arguments(args))
    if args.what == "updates":
        if not args.window:
            raise ValueError("inequality updates requires --window START END")
        result = update_inequality(d, parse_instant(args.window[0]), parse_instant(args.window[1]))
    else:  # dependents
        if not args.at:
            raise ValueError("inequality dependents requires --at DATE")
        counts = build_snapshot(d, parse_instant(args.at)).in_degree_counts()
        if not counts:
            raise ValueError("no required packages in the snapshot")
        result = _inequality(counts)
    name = f"inequality_{args.what}"
    if args.lorenz:
        return _table(d.ecosystem, f"{name}_lorenz", ["cum_pop", "cum_val"], result.lorenz.points)
    rows = [
        ("n", len(result.counts)),
        ("gini", result.gini),
        ("normalized_gini", result.normalized_gini),
    ]
    return _table(d.ecosystem, name, ["metric", "value"], rows)


def _cmd_index(args) -> Table:
    from .indices import changeability_index, p_impact_index, reusability_index
    from .snapshot import build_snapshot

    d = load_filtered(*_dataset_arguments(args))
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
    from .fixtures import generate, write_dataset, write_tiny

    out_dir = Path(args.out_dir)
    if args.action == "tiny":
        write_tiny(out_dir)
    else:
        cfg = _generator_config(args)
        write_dataset(generate(cfg), out_dir, config=cfg)
    sys.stderr.write(f"dataset written to {out_dir}\n")


def _generator_config(args) -> GeneratorConfig:
    """The settings of ``fixture generate``, whose options bear their names."""
    from .fixtures import GeneratorConfig

    names = [field.name for field in fields(GeneratorConfig)]
    return GeneratorConfig(**{name: getattr(args, name) for name in names})


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
            ecosystem, metric, header, columns = table
            _emit(args, header, columns, metric=metric, ecosystem=ecosystem)
    except BrokenPipeError:
        # The reader went away (e.g. `| head -1`). Point stdout at devnull so
        # the interpreter's final flush cannot raise a second time.
        _discard_stdout()
        sys.stderr.write("depnet: output closed before it was fully written\n")
        return 1
    except RuntimeError as exc:
        # A dead worker: only a command that fans out loads the pool's
        # module, and only its pool raises BrokenProcessPool.
        pool = sys.modules.get("concurrent.futures.process")
        if pool is None or not isinstance(exc, pool.BrokenProcessPool):
            raise
        sys.stderr.write(f"depnet: a worker process died: {exc}\n")
        return 1
    except (ValueError, KeyError, OSError) as exc:  # DatasetError is a ValueError
        # One line, also when the message quotes a value or a path that
        # holds a line break.
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        sys.stderr.write(f"depnet: {message}\n")
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
    if args.command == "fixture" and args.action == "generate":
        try:
            _generator_config(args).validate()
        except ValueError as exc:
            return str(exc)
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
