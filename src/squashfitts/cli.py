"""Command-line interface.

Subcommands: validate, derive, stats, fit, figures, report.
Exit status contract: 0 success, 1 data/fit failure, 2 usage or
environment failure. All subcommands are deterministic and idempotent.

The input is either a CSV path or the sentinel "bundled" for the packaged
reference dataset. --slowdown treats the file's t_s column as observed
slow-motion durations and divides them by the given factor before any
analysis (movement times are untouched; they are measured in real time).

Each command imports only the modules it runs: none of stats, pipeline,
published, plot, variants and json for validate and derive; report alone
loads pipeline, published and json, figures plot, a pointing-task fit variants.
Each command computes what it prints: report runs run_analysis and stats
runs aggregate, while figures and fit --model squash file each derived
trial under its shot in one pass and fit only the lines they draw or print.
validate checks the rule of analysis on the shot columns of its first block
of trials, and on those of all its trials only where that block breaks it.
Paths the CLI writes itself spell non-UTF-8 bytes as \\x escapes; errno
lines raised by open() keep Python's own text.
"""
import argparse
import gc
import os
import sys

from .core import _CHUNK_ROWS, ModelKind, ShotKind, _derived, _shot_columns, require_fittable
from .dataset import BUNDLED_METADATA, _measurement, bundled_text, parse_csv, write_csv
from .errors import SquashFittsError, UsageError


def _flag(parse):
    """argparse type calling parse; its ValueError is a usage error (exit 2)."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _positive(text: str) -> float:
    """A flag value, held to the rule of a measurement cell: a finite number > 0."""
    try:
        return _measurement(text)
    except ValueError:
        raise ValueError(f"expected a finite number > 0, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):  # raises the OSError argparse drops
        (file or sys.stderr).write(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="squashfitts",
        description="Difficulty and effort metrics for squash shot retrieval, "
                    "with movement-time model fitting and figure emission.")
    # values of the flags that only some subcommands take
    parser.set_defaults(exclude_shot=[], tolerance=None, model=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, run, help, output_default="-", output_help="output path ('-' = stdout)"):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--input", default="bundled",
                       help="CSV path, or 'bundled' for the reference dataset")
        p.add_argument("--output", default=output_default, help=output_help)
        p.add_argument("--slowdown", type=_flag(_positive),
                       default=None, metavar="FACTOR",
                       help="treat t_s as slow-motion observations; divide by FACTOR")
        return p

    def filters(p):
        p.add_argument("--exclude-shot", type=_flag(ShotKind.parse),
                       action="append", default=[], metavar="KIND",
                       help="exclude a shot kind from the overall fit (repeatable)")
        return p

    common("validate", cmd_validate, "validate a dataset; exit 0 iff clean",
           output_help="unused: validate reports on stderr and writes no file")
    common("derive", cmd_derive, "emit the dataset with derived columns")
    common("stats", cmd_stats, "grouped mean/SD summaries")
    filters(common("fit", cmd_fit, "fit a movement-time model")).add_argument(
        "--model", type=_flag(ModelKind.parse), required=True,
        help="one of: " + ", ".join(k.value for k in ModelKind))
    filters(common("figures", cmd_figures, "write the five figures (SVG + CSV)",
                   output_default=".", output_help="output directory"))
    filters(common("report", cmd_report, "full JSON report with cross-checks")).add_argument(
        "--tolerance", type=_flag(_positive),
        help="base tolerance for published-value cross-checks")
    return parser


def _path_text(path: str) -> str:
    """path as the CLI writes it: UTF-8, any other byte as a \\x escape."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def _read_text(path: str) -> str:
    """Text of a UTF-8 file; one that does not decode is unreadable (OSError)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{_path_text(path)}: not UTF-8 text ({exc})") from None


def _read_input(args):
    """(dataset, report) of the input, ball times divided by the --slowdown
    factor; rows that parse without errors but hold no trial are a UsageError."""
    if args.input == "bundled":
        text, metadata = bundled_text(), dict(BUNDLED_METADATA)
    else:
        text, metadata = _read_text(args.input), {"source": _path_text(args.input)}
    if args.slowdown is not None:
        metadata["slowdown_factor"] = repr(args.slowdown)
    dataset, report = parse_csv(text, metadata, args.slowdown or 1.0)
    if report.ok and not dataset.trials:
        raise UsageError(f"{_path_text(args.input)}: no trials")
    return dataset, report


class _Rejected(Exception):
    """Input rejected for its row errors; main prints the text as is (exit 1)."""


def _load(args):
    """The input dataset; rows with errors reject the input (exit 1)."""
    dataset, report = _read_input(args)
    if not report.ok:
        raise _Rejected(report.format_text())
    return dataset


def _write(path: str, chunks):
    """Write chunks, an iterable of strings, to the file at path, or to
    stdout for '-', flushed: a write that fails ends the command here."""
    if path == "-":
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def cmd_validate(args, options) -> int:
    dataset, report = _read_input(args)
    if report.ok:  # rows that all parse must also be analysable as a set
        try:  # more trials only help: a first block that meets the rule proves the file
            require_fittable(_shot_columns(dataset.trials[:_CHUNK_ROWS]))
        except SquashFittsError:  # a failure is told with the whole file's counts
            try:
                require_fittable(_shot_columns(dataset.trials))
            except SquashFittsError as exc:
                report.error(0, "shot", str(exc))
    print(f"{_path_text(args.input)}: {len(dataset)} valid trial(s)", file=sys.stderr)
    print(report.format_text(), file=sys.stderr)
    return 0 if report.ok else 1


def cmd_derive(args, options) -> int:
    _write(args.output, (write_csv(_load(args), include_derived=True),))
    return 0


def _group_line(g) -> str:
    return (f"{str(g.key):18s} n={g.n:<3d} "
            f"mean_id={g.mean_id:.2f} sd_id={g.sd_id:.2f} "
            f"mean_mt={g.mean_mt:.2f} sd_mt={g.sd_mt:.2f} "
            f"mean_ir={g.mean_ir:.2f}")


def cmd_stats(args, options) -> int:
    from .stats import aggregate
    groups = aggregate(_derived(_load(args).trials))
    lines = ["# person x shot groups", *map(_group_line, groups.per_person_shot),
             "# shot groups", *map(_group_line, groups.per_shot)]
    _write(args.output, ("\n".join(lines) + "\n",))
    return 0


def cmd_fit(args, options) -> int:
    if args.model is ModelKind.SQUASH_ID:
        from .stats import fit_overall
        fit = fit_overall(_shot_columns(_load(args).trials), options)
        subset = options.overall_subset
    else:
        from .variants import fit_model, parse_pointing_csv
        trials, report = parse_pointing_csv(_read_text(args.input))
        if not report.ok:
            raise _Rejected("\n".join(f"error: row {row}: {msg}"
                                       for row, _, msg in report.errors))
        fit = fit_model(args.model, trials)
        subset = "all"
    lines = [f"model: {args.model} (subset: {subset})"]
    lines += [f"{name}: {value!r}" for name, value in zip(fit._fields, fit)]
    _write(args.output, ("\n".join(lines) + "\n",))
    return 0


def cmd_figures(args, options) -> int:
    from .plot import _figure_set, _series_csv_chunks, _svg_chunks
    from .stats import fit_columns, fit_overall
    columns = _shot_columns(_load(args).trials)
    # run_analysis's check, then the lines the figures draw, in its order
    require_fittable(columns)
    overall = fit_overall(columns, options)
    shot_fits = {kind: fit_columns(*columns[kind]) for kind in ShotKind}
    os.makedirs(args.output, exist_ok=True)
    written = []
    for series in _figure_set(columns, options, overall, shot_fits):
        for ext, chunks in ((".svg", _svg_chunks(series)),  # both checked before a write
                            (".csv", _series_csv_chunks(series))):
            path = os.path.join(args.output, series.label + ext)
            _write(path, chunks)
            written.append(_path_text(path))
    print("\n".join(written))
    return 0


def cmd_report(args, options) -> int:
    from .pipeline import _report_chunks, run_analysis, summarize_report
    doc = run_analysis(_load(args), options)
    _write(args.output, _report_chunks(doc))
    summary_stream = sys.stderr if args.output == "-" else sys.stdout
    summary_stream.write(summarize_report(doc))
    return 0


def _error(text) -> None:
    """Print text to stderr; a stderr that cannot be written is ignored, so
    the exit code stays the contract's."""
    try:
        print(text, file=sys.stderr)
    except OSError:
        pass


def main(argv=None) -> int:
    failure = 2  # a SquashFittsError before the command runs is a usage error
    try:
        args = _build_parser().parse_args(argv)
        options = None  # the settings of the commands that analyse the data
        if args.command in ("figures", "report") or args.model is ModelKind.SQUASH_ID:
            from .stats import STATS_TOLERANCE, AnalysisOptions
            options = AnalysisOptions(frozenset(args.exclude_shot),  # --tolerance is > 0
                                      args.tolerance or STATS_TOLERANCE)
        if args.model not in (None, ModelKind.SQUASH_ID):
            if args.input == "bundled":
                from .variants import POINTING_COLUMNS
                raise UsageError(f"model '{args.model}' fits pointing-task data; provide "
                                 f"--input CSV with columns {','.join(POINTING_COLUMNS)}")
            if args.slowdown is not None or args.exclude_shot:
                raise UsageError(f"model '{args.model}' fits pointing-task data, which has "
                                 "no ball times or shots; --slowdown and --exclude-shot "
                                 "apply to model squash only")
        failure = 1  # the flags are valid: from here on, a data or fit failure
        return args.run(args, options)
    except SystemExit as exc:  # argparse has written its usage message or help
        return int(exc.code or 0)
    except _Rejected as exc:  # row errors, as parsed
        _error(exc)
        return 1
    except SquashFittsError as exc:
        _error(f"error: {exc}")
        return failure
    except OSError as exc:  # unreadable input, unwritable output (help included)
        _error(f"error: {exc}")
        return 2


def console_main():
    """The process entry of the squashfitts command and python -m squashfitts:
    main() without the cyclic GC (a run's records are acyclic and live until
    exit), stdout flushed inside the exit contract (a failed flush after a
    command that succeeded is exit 2 with one error line), and os._exit,
    skipping interpreter teardown. A stream the process started without is
    unwritable output, as a full one."""
    gc.disable()
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:  # no fd 1 or 2 at start-up
            setattr(sys, name, open(os.devnull))  # read-only: a write is an OSError
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code == 0:  # a command that failed has printed its one error line
            _error(f"error: {exc}")
            code = 2
    try:
        sys.stderr.flush()
    finally:  # an unwritable stderr leaves the code as it is
        os._exit(code)


if __name__ == "__main__":
    console_main()
