"""squashfitts: information-theoretic difficulty and effort metrics for
squash shot retrieval, plus classic aimed-movement model fitting.

Core quantities per trial: ball speed v = distance/time, difficulty
ID = log2(v * D) in bits (D = distance the retrieving player covers), and
information rate IR = ID / MT in bits/s. The package bundles a reference
dataset, reproduces the aggregates and trend line published with it
(cross-checked with explicit tolerances), and emits figures as SVG/CSV.
A public name imports its module on first use (PEP 562), not before.
"""

#: Home module of every public name.
_HOME = {name: module for module, names in {
    "core": ("DerivedTrial", "ModelKind", "ShotKind", "TrialRecord", "ball_speed",
             "derive_trial", "index_of_difficulty", "information_rate"),
    "dataset": ("Dataset", "ValidationReport", "bundled_dataset", "parse_csv", "write_csv"),
    "errors": ("DegenerateDesignError", "DomainError", "SquashFittsError",
               "UndefinedCorrelationError", "UsageError"),
    "pipeline": ("ReportDocument", "build_cross_checks", "figure_series",
                 "render_report_json", "run_analysis", "summarize_report"),
    "plot": ("FigureSeries", "emit_series_csv", "emit_svg"),
    "stats": ("AnalysisOptions", "GroupKey", "GroupStats", "LinearFit", "WelfordFit",
              "group_stats", "mean", "ols_simple", "ols_two_predictor", "pearson_r",
              "population_sd"),
    "variants": ("PointingTrial", "fit_model", "id_fitts_original", "id_mackenzie",
                 "model_design_row", "predict_mt_steering", "predict_mt_welford"),
}.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
