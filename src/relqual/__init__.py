"""Release-quality modeling toolkit.

Linear-Gaussian Bayesian-network structure learning with bootstrap arc
confidence, a structure-recovery simulation harness, regression forests
with out-of-bag importance, and the usage-normalized software quality
pipeline (exceptions per user, issues per download).
"""

__version__ = "0.1.0"

from .dag import Dag, VariableSet, add_edge_checked, enumerate_dags, topological_order
from .data import Dataset, DiscreteDataset, load_numeric_csv
from .discretize import DiscretizationSpec, bic_discrete, discretize
from .forest import ForestConfig, ablate_predictor, fit_forest, \
    permutation_importance, tune_forest
from .gaussian import GaussianBn, bic_g, edge_inference, fit, implied_moments, simulate
from .ingest import CachedHttp, FetchSpec, HttpCache, build_daily_series, \
    fetch_downloads, fetch_issues, load_usage_csv
from .loess import loess
from .metrics import StructureDiff, classify, diff
from .ols import fit_ols, fit_power_law
from .quality import DailySeries, UsageRecord, aggregate_release, aggregate_usage, \
    correct_new_users, direction_of_trend, log_transform, quality_metric, \
    screen_significance, timeline
from .search import ArcConfidence, AveragedNetwork, HcConfig, averaged_network, \
    bootstrap_average, exact_map_edge_probabilities, hill_climb, map_dag, \
    restrict_gs, restrict_mmpc
from .simstudy import MethodSpec, SimStudyConfig, default_truth, run_simstudy
