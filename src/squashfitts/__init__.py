"""squashfitts: information-theoretic difficulty and effort metrics for
squash shot retrieval, plus classic aimed-movement model fitting.

Core quantities per trial: ball speed v = distance/time, difficulty
ID = log2(v * D) in bits (D = distance the retrieving player covers), and
information rate IR = ID / MT in bits/s. The package bundles a reference
dataset, reproduces the aggregates and trend line published with it
(cross-checked with explicit tolerances), and emits figures as SVG/CSV.
"""

from .core import (DerivedTrial, ShotKind, TrialRecord, ball_speed,
                   derive_trial, index_of_difficulty, information_rate)
from .dataset import (Dataset, ValidationReport, bundled_dataset, parse_csv,
                      write_csv)
from .errors import (DegenerateDesignError, DomainError, SquashFittsError,
                     UndefinedCorrelationError, UsageError)
from .pipeline import (AnalysisOptions, FigureSeries, ReportDocument,
                       build_cross_checks, figure_series, render_report_json,
                       run_analysis, summarize_report)
from .plot import emit_series_csv, emit_svg
from .stats import (GroupKey, GroupStats, LinearFit, WelfordFit, fit_model,
                    group_stats, mean, ols_simple, ols_two_predictor,
                    pearson_r, population_sd)
from .variants import (ModelKind, PointingTrial, id_fitts_original,
                       id_mackenzie, model_design_row, predict_mt_steering,
                       predict_mt_welford)

__version__ = "0.1.0"

__all__ = [
    "AnalysisOptions", "Dataset", "DegenerateDesignError", "DerivedTrial",
    "DomainError", "FigureSeries", "GroupKey", "GroupStats", "LinearFit",
    "ModelKind", "PointingTrial", "ReportDocument", "ShotKind",
    "SquashFittsError", "TrialRecord", "UndefinedCorrelationError",
    "UsageError", "ValidationReport", "WelfordFit", "ball_speed",
    "build_cross_checks", "bundled_dataset", "derive_trial", "emit_series_csv",
    "emit_svg", "figure_series", "fit_model", "group_stats",
    "id_fitts_original", "id_mackenzie", "index_of_difficulty",
    "information_rate", "mean", "model_design_row", "ols_simple",
    "ols_two_predictor", "parse_csv", "pearson_r", "population_sd",
    "predict_mt_steering", "predict_mt_welford", "render_report_json",
    "run_analysis", "summarize_report", "write_csv",
]
