"""depnet: temporal package dependency network analytics.

Reconstructs the dependency network of a packaging ecosystem from release
metadata and computes its evolution metrics: growth and update dynamics,
release survival, inequality curves, transitive-dependency structure, and
the changeability / reusability / impact indices.

The data model and the loaders (``depnet.ingest``) are imported with the
package, as every entry point needs them. The names below and the other
submodules are imported on first access (PEP 562), so that a command
compiles only the modules it runs.
"""

import importlib

from . import ingest

__version__ = "0.1.0"

# Each submodule and the names that the package exports from it.
_EXPORTS = {
    "ingest": (
        "Dataset",
        "DatasetError",
        "DependencyRecord",
        "FilterReport",
        "PackageRecord",
        "ReleaseRecord",
        "ValidationReport",
        "DEFAULT_INCLUDED_KINDS",
        "filter_dependencies",
        "load_dataset_dir",
        "load_exclusions",
        "parse_dataset",
        "validate_dataset",
        "version_sort_key",
    ),
    "snapshot": (
        "SnapshotGraph",
        "SnapshotSeries",
        "build_snapshot",
        "latest_releases_at",
        "monthly_snapshots",
    ),
    "graphops": (
        "Classification",
        "RoleFlags",
        "WccResult",
        "classify",
        "connected_packages",
        "dependency_depth",
        "dependency_depths",
        "direct_dependencies",
        "indirect_dependencies",
        "top_level_packages",
        "transitive_dependencies",
        "transitive_dependency_counts",
        "transitive_dependent_counts",
        "transitive_dependents",
        "weakly_connected_components",
    ),
    "stats": (
        "LogRankResult",
        "LorenzCurve",
        "RegressionFit",
        "SurvivalCurve",
        "SurvivalSample",
        "fit_exponential",
        "fit_linear",
        "gini",
        "kaplan_meier",
        "log_rank",
        "lorenz_points",
        "normalized_gini",
    ),
    "indices": (
        "IndexReport",
        "changeability_index",
        "h_index",
        "p_impact_index",
        "reusability_index",
    ),
    "evolution": (
        "AgeHistogram",
        "MonthlyMetrics",
        "TimeSeries",
        "UpdateBins",
        "UpdateInequality",
        "active_packages",
        "dependency_ratio_series",
        "depth_distribution",
        "ecosystem_scan",
        "growth_series",
        "index_series",
        "survival_dataset",
        "transitive_ratio_series",
        "update_counts_series",
        "update_distribution",
        "update_inequality",
        "updates_by_age",
    ),
    "fixtures": (
        "GeneratorConfig",
        "generate",
        "tiny_dataset",
        "write_dataset",
        "write_tiny",
    ),
}
_SUBMODULES = frozenset({*_EXPORTS, "timeutil", "cli"})
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
