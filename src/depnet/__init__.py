"""depnet: temporal package dependency network analytics.

Reconstructs the dependency network of a packaging ecosystem from release
metadata and computes its evolution metrics: growth and update dynamics,
release survival, inequality curves, transitive-dependency structure, and
the changeability / reusability / impact indices.
"""

__version__ = "0.1.0"

from .ingest import (
    Dataset,
    DatasetError,
    DependencyRecord,
    FilterReport,
    PackageRecord,
    ReleaseRecord,
    ValidationReport,
    DEFAULT_INCLUDED_KINDS,
    filter_dependencies,
    load_dataset_dir,
    load_exclusions,
    parse_dataset,
    validate_dataset,
    version_sort_key,
)
from .snapshot import (
    SnapshotGraph,
    SnapshotSeries,
    build_snapshot,
    latest_releases_at,
    monthly_snapshots,
)
from .graphops import (
    Classification,
    RoleFlags,
    WccResult,
    classify,
    connected_packages,
    dependency_depth,
    dependency_depths,
    direct_dependencies,
    indirect_dependencies,
    top_level_packages,
    transitive_dependencies,
    transitive_dependency_counts,
    transitive_dependent_counts,
    transitive_dependents,
    weakly_connected_components,
)
from .stats import (
    LogRankResult,
    LorenzCurve,
    RegressionFit,
    SurvivalCurve,
    SurvivalSample,
    fit_exponential,
    fit_linear,
    gini,
    kaplan_meier,
    log_rank,
    lorenz_points,
    normalized_gini,
)
from .indices import (
    IndexReport,
    changeability_index,
    h_index,
    p_impact_index,
    reusability_index,
)
from .evolution import (
    AgeHistogram,
    MonthlyMetrics,
    TimeSeries,
    UpdateBins,
    UpdateInequality,
    active_packages,
    dependency_ratio_series,
    depth_distribution,
    ecosystem_scan,
    growth_series,
    index_series,
    survival_dataset,
    transitive_ratio_series,
    update_counts_series,
    update_distribution,
    update_inequality,
    updates_by_age,
)
from .fixtures import (
    GeneratorConfig,
    generate,
    tiny_dataset,
    write_dataset,
    write_tiny,
)
