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
import math
import os
import sys

from .core import ShotKind, derive_trial
from .dataset import (BUNDLED_METADATA, POINTING_COLUMNS, bundled_text,
                      parse_csv, parse_pointing_csv, write_csv)
from .errors import SquashFittsError, UsageError
from .pipeline import (AnalysisOptions, FIGURES, figure_series, fit_overall,
                       render_report_json, require_fittable, run_analysis,
                       summarize_report)
from .plot import emit_series_csv, emit_svg
from .published import STATS_TOLERANCE
from .stats import WelfordFit, aggregate, fit_model
from .variants import ModelKind


def _flag(parse):
    """argparse type calling parse; its ValueError is a usage error (exit 2)."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _positive(text: str, finite: bool = False) -> float:
    value = float(text)
    if not value > 0 or (finite and value == math.inf):
        raise ValueError(f"expected a {'finite ' if finite else ''}number > 0, "
                         f"got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squashfitts",
        description="Difficulty and effort metrics for squash shot retrieval, "
                    "with movement-time model fitting and figure emission.")
    # values of the flags that only some subcommands take
    parser.set_defaults(exclude_shot=[], tolerance=STATS_TOLERANCE, model=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output_default="-"):
        p.add_argument("--input", default="bundled",
                       help="CSV path, or 'bundled' for the reference dataset")
        p.add_argument("--output", default=output_default,
                       help="output path ('-' = stdout)" if output_default == "-"
                       else "output directory")
        p.add_argument("--slowdown", type=_flag(lambda text: _positive(text, finite=True)),
                       default=None, metavar="FACTOR",
                       help="treat t_s as slow-motion observations; divide by FACTOR")

    def filters(p):
        p.add_argument("--exclude-shot", type=_flag(ShotKind.parse),
                       action="append", default=[], metavar="KIND",
                       help="exclude a shot kind from the overall fit (repeatable)")

    common(sub.add_parser("validate", help="validate a dataset; exit 0 iff clean"))
    common(sub.add_parser("derive", help="emit the dataset with derived columns"))
    common(sub.add_parser("stats", help="grouped mean/SD summaries"))

    p_fit = sub.add_parser("fit", help="fit a movement-time model")
    common(p_fit)
    filters(p_fit)
    p_fit.add_argument("--model", type=_flag(ModelKind.parse), required=True,
                       help="one of: " + ", ".join(k.value for k in ModelKind))

    p_fig = sub.add_parser("figures", help="write the five figures (SVG + CSV)")
    common(p_fig, output_default=".")
    filters(p_fig)

    p_rep = sub.add_parser("report", help="full JSON report with cross-checks")
    common(p_rep)
    filters(p_rep)
    p_rep.add_argument("--tolerance", type=_flag(_positive), default=STATS_TOLERANCE,
                       help="base tolerance for published-value cross-checks")
    return parser


def _read_text(path: str) -> str:
    """Text of a UTF-8 file; one that does not decode is unreadable (OSError)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc})") from None


def _read_input(args):
    """Parse and validate the input dataset, ball times divided by the
    --slowdown factor. Returns (dataset, report)."""
    if args.input == "bundled":
        text, metadata = bundled_text(), dict(BUNDLED_METADATA)
    else:
        text, metadata = _read_text(args.input), {"source": args.input}
    if args.slowdown is not None:
        metadata["slowdown_factor"] = repr(args.slowdown)
    return parse_csv(text, metadata, args.slowdown or 1.0)


def _write_output(args, text: str):
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_validate(args, options: AnalysisOptions) -> int:
    dataset, report = _read_input(args)
    if report.ok:  # rows that all parse must also be analysable as a set
        try:
            require_fittable((t.shot, derive_trial(t).id_bits) for t in dataset.trials)
        except SquashFittsError as exc:
            report.errors.append((0, "shot", str(exc)))
    print(f"{args.input}: {len(dataset)} valid trial(s)", file=sys.stderr)
    print(report.format_text(), file=sys.stderr)
    return 0 if report.ok else 1


def cmd_derive(args, options: AnalysisOptions) -> int:
    dataset, report = _read_input(args)
    if not report.ok:
        print(report.format_text(), file=sys.stderr)
        return 1
    _write_output(args, write_csv(dataset, include_derived=True))
    return 0


def _group_line(g) -> str:
    return (f"{str(g.key):18s} n={g.n:<3d} "
            f"mean_id={g.mean_id:.2f} sd_id={g.sd_id:.2f} "
            f"mean_mt={g.mean_mt:.2f} sd_mt={g.sd_mt:.2f} "
            f"mean_ir={g.mean_ir:.2f}")


def cmd_stats(args, options: AnalysisOptions) -> int:
    dataset, report = _read_input(args)
    if not report.ok:
        print(report.format_text(), file=sys.stderr)
        return 1
    if not dataset.trials:
        raise UsageError("group_stats of empty trial sequence")
    groups = aggregate(derive_trial(t) for t in dataset.trials)
    lines = ["# person x shot groups", *map(_group_line, groups.per_person_shot),
             "# shot groups", *map(_group_line, groups.per_shot)]
    _write_output(args, "\n".join(lines) + "\n")
    return 0


def cmd_fit(args, options: AnalysisOptions) -> int:
    if args.model is ModelKind.SQUASH_ID:
        dataset, report = _read_input(args)
        if not report.ok:
            print(report.format_text(), file=sys.stderr)
            return 1
        if not dataset.trials:
            raise UsageError(f"cannot fit model {args.model} to an empty dataset")
        groups = aggregate(derive_trial(t) for t in dataset.trials)
        fit = fit_overall(groups.columns, options)
        subset = options.overall_subset
    else:
        trials, report = parse_pointing_csv(_read_text(args.input))
        if not report.ok:
            for row, _, msg in report.errors:
                print(f"error: row {row}: {msg}", file=sys.stderr)
            return 1
        fit = fit_model(args.model, trials)
        subset = "all"
    names = (("a", "b1", "b2") if isinstance(fit, WelfordFit)
             else ("slope", "intercept", "pearson_r")) + ("r_squared", "n")
    lines = [f"model: {args.model} (subset: {subset})"]
    lines += [f"{name}: {getattr(fit, name)!r}" for name in names]
    _write_output(args, "\n".join(lines) + "\n")
    return 0


def cmd_figures(args, options: AnalysisOptions) -> int:
    dataset, report = _read_input(args)
    if not report.ok:
        print(report.format_text(), file=sys.stderr)
        return 1
    doc = run_analysis(dataset, options)
    os.makedirs(args.output, exist_ok=True)
    written = []
    for figure in sorted(FIGURES):
        series = figure_series(doc, figure)
        for ext, text in ((".svg", emit_svg(series)),
                          (".csv", emit_series_csv(series))):
            path = os.path.join(args.output, series.label + ext)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(path)
    print("\n".join(written))
    return 0


def cmd_report(args, options: AnalysisOptions) -> int:
    dataset, report = _read_input(args)
    if not report.ok:
        print(report.format_text(), file=sys.stderr)
        return 1
    doc = run_analysis(dataset, options)
    _write_output(args, render_report_json(doc))
    summary_stream = sys.stderr if args.output == "-" else sys.stdout
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
    try:  # flag values that are wrong only in combination
        options = AnalysisOptions(exclude_shots=frozenset(args.exclude_shot),
                                  stats_tolerance=args.tolerance)
        if args.model not in (None, ModelKind.SQUASH_ID) and args.input == "bundled":
            raise UsageError(f"model '{args.model}' fits pointing-task data; provide "
                             f"--input CSV with columns {','.join(POINTING_COLUMNS)}")
    except SquashFittsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args, options)
    except SquashFittsError as exc:  # data or fit failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # unreadable input, unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
