"""Command-line interface.

Subcommands: validate, derive, stats, fit, figures, report.
Exit status contract: 0 success, 1 data/fit failure, 2 usage or
environment failure. All subcommands are deterministic and idempotent.

The input is either a CSV path or the sentinel "bundled" for the packaged
reference dataset. --slowdown treats the file's t_s column as observed
slow-motion durations and divides them by the given factor before any
analysis (movement times are untouched; they are measured in real time).
"""
import argparse
import os
import sys
from dataclasses import dataclass, replace

from .core import ShotKind, derive_trial, real_time_from_slowmo
from .dataset import (Dataset, ValidationReport, bundled_dataset, parse_csv,
                      write_csv)
from .errors import SquashFittsError, UsageError
from .pipeline import (AnalysisOptions, FIGURES, figure_series,
                       render_report_json, run_analysis, summarize_report)
from .plot import PlotStyle, emit_series_csv, emit_svg
from .stats import WelfordFit, fit_model, group_stats
from .variants import ModelKind, PointingTrial

POINTING_COLUMNS = ("amplitude", "width", "mt_s")


@dataclass(frozen=True)
class CliConfig:
    command: str
    input: str
    output: str
    exclude_shots: frozenset
    model: ModelKind | None = None
    slowdown: float | None = None
    tolerance: float | None = None

    def __post_init__(self):
        if len(self.exclude_shots) >= len(ShotKind):
            raise UsageError("--exclude-shot cannot exclude all four shots")
        if self.slowdown is not None and not self.slowdown > 0:
            raise UsageError("--slowdown must be strictly positive")
        if self.tolerance is not None and not self.tolerance > 0:
            raise UsageError("--tolerance must be strictly positive")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squashfitts",
        description="Difficulty and effort metrics for squash shot retrieval, "
                    "with movement-time model fitting and figure emission.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output_default="-"):
        p.add_argument("--input", default="bundled",
                       help="CSV path, or 'bundled' for the reference dataset")
        p.add_argument("--output", default=output_default,
                       help="output path ('-' = stdout)" if output_default == "-"
                       else "output directory")
        p.add_argument("--slowdown", type=float, default=None, metavar="FACTOR",
                       help="treat t_s as slow-motion observations; divide by FACTOR")

    def filters(p):
        p.add_argument("--exclude-shot", action="append", default=[],
                       metavar="KIND",
                       help="exclude a shot kind from the overall fit (repeatable)")

    common(sub.add_parser("validate", help="validate a dataset; exit 0 iff clean"))
    common(sub.add_parser("derive", help="emit the dataset with derived columns"))
    common(sub.add_parser("stats", help="grouped mean/SD summaries"))

    p_fit = sub.add_parser("fit", help="fit a movement-time model")
    common(p_fit)
    filters(p_fit)
    p_fit.add_argument("--model", required=True,
                       help="one of: " + ", ".join(k.value for k in ModelKind))

    p_fig = sub.add_parser("figures", help="write the five figures (SVG + CSV)")
    common(p_fig, output_default=".")
    filters(p_fig)

    p_rep = sub.add_parser("report", help="full JSON report with cross-checks")
    common(p_rep)
    filters(p_rep)
    p_rep.add_argument("--tolerance", type=float, default=None,
                       help="base tolerance for published-value cross-checks")
    return parser


def _config_from_args(args) -> CliConfig:
    shots = frozenset(ShotKind.parse(s) for s in getattr(args, "exclude_shot", []))
    model = ModelKind.parse(args.model) if getattr(args, "model", None) else None
    if model is not None and model is not ModelKind.SQUASH_ID \
            and args.input == "bundled":
        raise UsageError(f"model '{model}' fits pointing-task data; provide "
                         f"--input CSV with columns {','.join(POINTING_COLUMNS)}")
    return CliConfig(command=args.command, input=args.input, output=args.output,
                     exclude_shots=shots, model=model,
                     slowdown=getattr(args, "slowdown", None),
                     tolerance=getattr(args, "tolerance", None))


def _read_input(config: CliConfig):
    """Load and validate the input dataset. Returns (dataset, report)."""
    if config.input == "bundled":
        dataset = bundled_dataset()
        report = ValidationReport()
    else:
        with open(config.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        dataset, report = parse_csv(text, metadata={"source": config.input})
    if config.slowdown is not None:
        trials = tuple(
            replace(t, ball_time_s=real_time_from_slowmo(t.ball_time_s,
                                                         config.slowdown))
            for t in dataset.trials)
        metadata = dict(dataset.metadata)
        metadata["slowdown_factor"] = repr(config.slowdown)
        dataset = Dataset(trials=trials, metadata=metadata)
    return dataset, report


def _write_output(config: CliConfig, text: str):
    if config.output == "-":
        sys.stdout.write(text)
    else:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _options(config: CliConfig) -> AnalysisOptions:
    kwargs = {"exclude_shots": config.exclude_shots}
    if config.tolerance is not None:
        kwargs["stats_tolerance"] = config.tolerance
    return AnalysisOptions(**kwargs)


def cmd_validate(config: CliConfig) -> int:
    dataset, report = _read_input(config)
    print(f"{config.input}: {len(dataset)} valid trial(s)", file=sys.stderr)
    print(report.format_text(), file=sys.stderr)
    return 0 if report.ok else 1


def cmd_derive(config: CliConfig) -> int:
    dataset, report = _read_input(config)
    if not report.ok:
        print(report.format_text(), file=sys.stderr)
        return 1
    _write_output(config, write_csv(dataset, include_derived=True))
    return 0


def cmd_stats(config: CliConfig) -> int:
    dataset, report = _read_input(config)
    if not report.ok:
        print(report.format_text(), file=sys.stderr)
        return 1
    derived = [derive_trial(t) for t in dataset.trials]
    lines = ["# person x shot groups"]
    for level in ("person_shot", "shot"):
        for g in group_stats(derived, level):
            lines.append(f"{str(g.key):18s} n={g.n:<3d} "
                         f"mean_id={g.mean_id:.2f} sd_id={g.sd_id:.2f} "
                         f"mean_mt={g.mean_mt:.2f} sd_mt={g.sd_mt:.2f} "
                         f"mean_ir={g.mean_ir:.2f}")
        if level == "person_shot":
            lines.append("# shot groups")
    _write_output(config, "\n".join(lines) + "\n")
    return 0


def _parse_pointing_csv(text: str):
    """Parse a pointing-task CSV (amplitude,width,mt_s). Returns
    (trials, errors) where errors are (row, message) tuples."""
    import csv as _csv
    import io as _io
    rows = list(_csv.reader(_io.StringIO(text)))
    rows = [r for r in rows if any(c.strip() for c in r)]
    errors = []
    if not rows:
        return [], [(0, "no header: input is empty")]
    header = tuple(c.strip() for c in rows[0])
    if header != POINTING_COLUMNS:
        return [], [(1, f"expected header {','.join(POINTING_COLUMNS)}, "
                        f"got {','.join(header)}")]
    trials = []
    for idx, cells in enumerate(rows[1:], start=2):
        if len(cells) != len(POINTING_COLUMNS):
            errors.append((idx, f"expected {len(POINTING_COLUMNS)} cells, "
                                f"got {len(cells)}"))
            continue
        try:
            trials.append(PointingTrial(amplitude=float(cells[0]),
                                        width=float(cells[1]),
                                        movement_time_s=float(cells[2])))
        except (ValueError, SquashFittsError) as exc:
            errors.append((idx, str(exc)))
    return trials, errors


def cmd_fit(config: CliConfig) -> int:
    if config.model is ModelKind.SQUASH_ID:
        dataset, report = _read_input(config)
        if not report.ok:
            print(report.format_text(), file=sys.stderr)
            return 1
        derived = [derive_trial(t) for t in dataset.trials
                   if t.shot not in config.exclude_shots]
        fit = fit_model(ModelKind.SQUASH_ID, derived)
        subset = _options(config).overall_subset
    else:
        with open(config.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        trials, errors = _parse_pointing_csv(text)
        if errors:
            for row, msg in errors:
                print(f"error: row {row}: {msg}", file=sys.stderr)
            return 1
        fit = fit_model(config.model, trials)
        subset = "all"
    lines = [f"model: {config.model} (subset: {subset})"]
    if isinstance(fit, WelfordFit):
        for name in ("a", "b1", "b2", "r_squared", "n"):
            lines.append(f"{name}: {getattr(fit, name)!r}")
    else:
        for name in ("slope", "intercept", "pearson_r", "r_squared", "n"):
            lines.append(f"{name}: {getattr(fit, name)!r}")
    _write_output(config, "\n".join(lines) + "\n")
    return 0


def cmd_figures(config: CliConfig) -> int:
    dataset, report = _read_input(config)
    if not report.ok:
        print(report.format_text(), file=sys.stderr)
        return 1
    doc = run_analysis(dataset, _options(config))
    os.makedirs(config.output, exist_ok=True)
    style = PlotStyle()
    written = []
    for figure in sorted(FIGURES):
        series = figure_series(doc, figure)
        for ext, text in ((".svg", emit_svg(series, style)),
                          (".csv", emit_series_csv(series))):
            path = os.path.join(config.output, series.label + ext)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(path)
    print("\n".join(written))
    return 0


def cmd_report(config: CliConfig) -> int:
    dataset, report = _read_input(config)
    if not report.ok:
        print(report.format_text(), file=sys.stderr)
        return 1
    doc = run_analysis(dataset, _options(config))
    _write_output(config, render_report_json(doc))
    summary_stream = sys.stderr if config.output == "-" else sys.stdout
    summary_stream.write(summarize_report(doc))
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "derive": cmd_derive,
    "stats": cmd_stats,
    "fit": cmd_fit,
    "figures": cmd_figures,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems itself
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
    except SquashFittsError as exc:  # bad flag values are usage problems
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[config.command](config)
    except SquashFittsError as exc:  # data or fit failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # unreadable input, unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
