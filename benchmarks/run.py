"""Benchmark of the squashfitts CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload deep_10k --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35

One client drives the real CLI (``python -m squashfitts``) as a subprocess,
closed loop, one command at a time: report, figures, validate, report, ...
until --seconds have passed and every command ran at least once. Inputs are
generated from --seed into benchmarks/out/ (the bundled workload uses the
packaged data) and the program only ever sees those files. Every command's
output is checked; a wrong exit code or a wrong output counts as a failed
op.

With --trace 0 the last stdout line reports the end-to-end metrics: the
median time of each command and of ``import squashfitts`` in a fresh
interpreter (paid by every call), each scaled to a reference machine speed
(see Calibrated), the largest child peak RSS and the share of ops that
passed their checks. Lines before it give each metric's quartiles, sample
count and highest well-supported percentile, scaled and unscaled, and the
machine's metadata; benchmarks/out/ keeps the same as JSON.

With --trace 1 the same commands run in-process through ``cli.main`` with
probes on the public functions of each module (see spans.py), and the last
line reports per-layer self times and counts instead, plus the tracing
overhead against untraced CLI report calls made in the same run.

The exit status is 1 when any check failed, 2 when the program is missing.
"""
import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import gen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Why each workload is in the benchmark; mirrored in BENCHMARK.json.
WORKLOADS = {
    "bundled_cli": "36 bundled rows: start-up, import and the bundled "
                   "cross-checks (repeated bundled re-parses) dominate",
    "deep_10k": "10k clean rows in 40 cells: per-row parse, derive, sort, "
                "fits, JSON and SVG dominate; few groups",
    "wide_dirty_10k": "10k rows in 5k cells with 10% warnings, validate on "
                      "a 10% malformed copy: per-group and error paths",
}

#: (name, unit) of the end-to-end metrics, reported with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("report_s", "s"),
    ("figures_s", "s"),
    ("validate_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
)

#: (name, unit) of the per-layer metrics, reported with --trace 1. A ".s"
#: metric is the self time of the span of the same name, except
#: pipeline.json_encode.s (render_report_json minus report_document_dict)
#: and cli.self.s (the CLI's own code around the probed calls).
PER_LAYER = (
    ("dataset.parse_csv.s", "s"),
    ("dataset.parse_csv.rows", "count"),
    ("dataset.parse_csv.errors", "count"),
    ("dataset.parse_csv.warnings", "count"),
    ("dataset.format_text.s", "s"),
    ("dataset.bundled_dataset.s", "s"),
    ("dataset.bundled_dataset.calls", "count"),
    ("published.published_rows.calls", "count"),
    ("core.derive_trial.s", "s"),
    ("core.derive_trial.calls", "count"),
    ("stats.group_stats.s", "s"),
    ("stats.group_stats.groups", "count"),
    ("stats.ols_simple.s", "s"),
    ("stats.ols_simple.calls", "count"),
    ("pipeline.run_analysis.s", "s"),
    ("pipeline.build_cross_checks.s", "s"),
    ("pipeline.build_cross_checks.calls", "count"),
    ("pipeline.report_document_dict.s", "s"),
    ("pipeline.json_encode.s", "s"),
    ("pipeline.report.bytes", "bytes"),
    ("pipeline.summarize_report.s", "s"),
    ("pipeline.figure_series.s", "s"),
    ("plot.emit_svg.s", "s"),
    ("plot.emit_series_csv.s", "s"),
    ("plot.figures.bytes", "bytes"),
    ("cli.self.s", "s"),
    ("trace.report_inprocess_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Cross-check verdicts the bundled report is known to carry.
KNOWN_VERDICTS = {
    "table_derivation_strict": False,
    "table_derivation_excluding_errata": True,
    "group_stats": True,
    "trend_line_matching_subsets": ["exclude_drive/recomputed",
                                    "exclude_drive/as_published"],
    "slope_signs": True,
    "throughput_ordering": True,
}

FIGURE_FILES = tuple(sorted(
    label + ext
    for label in ("fig4_overall", "fig5_drives", "fig6_boasts", "fig7_lobs",
                  "fig8_drops")
    for ext in (".svg", ".csv")))

SETUP_SAMPLES = 21

#: Seconds the calibration kernel takes at the reference machine speed.
CAL_REF_S = 0.04

_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


@dataclass
class Op:
    """One CLI command and the check of its outcome."""

    name: str
    args: list[str]
    out: str | None  # output file or directory, removed before each call
    check: Callable[[int, str], str | None]  # (exit, stderr) -> failure


@dataclass
class Results:
    samples: dict[str, list[float]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, name: str, wall: float, scaled: float | None = None):
        """Keep one timing; when scaled is given it is the sample and the
        wall time is kept apart as wall_<name>."""
        if scaled is not None:
            self.samples.setdefault("wall_" + name, []).append(wall)
        self.samples.setdefault(name, []).append(wall if scaled is None else scaled)

    def record(self, name: str, wall: float, failure: str | None,
               scaled: float | None = None):
        """Count one op and keep its timing."""
        self.add(name, wall, scaled)
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{name}: {failure}")


# --- checks ---------------------------------------------------------------


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_check(path: str, want_sha: str, verdicts: dict | None):
    """The report must be byte-identical to the in-process rendering and,
    on the bundled data, carry the known cross-check verdicts."""
    def check(code: int, stderr: str) -> str | None:
        if code != 0:
            return f"exit {code}: {stderr[-200:]!r}"
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return f"no report: {exc}"
        if _sha256(data) != want_sha:
            return "report differs from in-process render_report_json"
        if verdicts is not None:
            got = json.loads(data)["cross_checks"].get("summary")
            if got != verdicts:
                return f"cross-check verdicts {got}"
        return None
    return check


def figures_check(out_dir: str):
    """The five figures' SVG and CSV files must have the same bytes on
    every call."""
    first = []

    def check(code: int, stderr: str) -> str | None:
        if code != 0:
            return f"exit {code}: {stderr[-200:]!r}"
        names = tuple(sorted(os.listdir(out_dir))) if os.path.isdir(out_dir) else ()
        if names != FIGURE_FILES:
            return f"figure files {names}"
        digest = hashlib.sha256()
        for name in names:
            with open(os.path.join(out_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
        if not first:
            first.append(digest.hexdigest())
        if digest.hexdigest() != first[0]:
            return "figure bytes differ from the first call"
        return None
    return check


def validate_check(input_arg: str, code: int, valid: int, errors: int,
                   warnings: int):
    """validate must exit with the expected code and report exactly the
    generator's counts of valid rows, errors and warnings."""
    want = (f"{input_arg}: {valid} valid trial(s)\n"
            f"{errors} error(s), {warnings} warning(s)\n")

    def check(got_code: int, stderr: str) -> str | None:
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        if not stderr.startswith(want):
            return f"validate printed {stderr[:160]!r}, expected {want!r}"
        return None
    return check


# --- inputs ---------------------------------------------------------------


def _write(path: str, rows) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(gen.to_csv(rows))
    return os.path.relpath(path, ROOT)


def reference_report_sha(input_arg: str) -> str:
    """sha256 of the in-process render_report_json, loading the input the
    way the CLI does."""
    import squashfitts as sf
    if input_arg == "bundled":
        dataset = sf.bundled_dataset()
    else:
        with open(os.path.join(ROOT, input_arg), encoding="utf-8") as fh:
            dataset, report = sf.parse_csv(fh.read(), metadata={"source": input_arg})
        if not report.ok:
            raise RuntimeError(f"generated input {input_arg} does not parse")
    text = sf.render_report_json(sf.run_analysis(dataset, sf.AnalysisOptions()))
    return _sha256(text.encode("utf-8"))


def prepare(workload: str, seed: int, work: str) -> list[Op]:
    """Generate the workload's inputs into work and return its ops."""
    verdicts = None
    if workload == "bundled_cli":
        report_in = validate_in = "bundled"
        expect = (0, 36, 0, 0)
        verdicts = KNOWN_VERDICTS
    elif workload == "deep_10k":
        rows = [r for r, _ in gen.clean_rows(seed, persons=10, trials=250)]
        report_in = validate_in = _write(os.path.join(work, "deep.csv"), rows)
        expect = (0, len(rows), 0, 0)
    elif workload == "wide_dirty_10k":
        rows = gen.clean_rows(seed, persons=1250, trials=2, warning_share=0.1)
        report_in = _write(os.path.join(work, "wide.csv"), [r for r, _ in rows])
        dirty, errors, warnings = gen.dirty_copy(seed, rows, error_share=0.1)
        validate_in = _write(os.path.join(work, "dirty.csv"), dirty)
        expect = (1, len(rows) - errors, errors, warnings)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    report_out = os.path.relpath(os.path.join(work, "report.json"), ROOT)
    figures_out = os.path.relpath(os.path.join(work, "figures"), ROOT)
    return [
        Op("report", ["report", "--input", report_in, "--output", report_out],
           report_out, report_check(report_out, reference_report_sha(report_in),
                                    verdicts)),
        Op("figures", ["figures", "--input", report_in, "--output", figures_out],
           figures_out, figures_check(figures_out)),
        Op("validate", ["validate", "--input", validate_in], None,
           validate_check(validate_in, *expect)),
    ]


# --- running the program --------------------------------------------------


def _clear(path: str | None):
    if path is None:
        return
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


class Launcher:
    """The small process (launch.py) that spawns and times every child."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launch.py")], cwd=ROOT, env=_ENV,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        return False

    def run(self, argv: list[str], work: str) -> tuple[float, int, float, str]:
        """Run argv to completion; returns (wall s, exit code, peak RSS MB,
        stderr)."""
        err_path = os.path.join(work, "stderr.txt")
        self.proc.stdin.write("\t".join([err_path, *argv]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 3:
            raise RuntimeError("launcher stopped")
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return float(reply[0]), int(reply[1]), int(reply[2]) / 1024.0, stderr


def calibrate() -> float:
    """Seconds taken by a fixed kernel of the kinds of work the CLI does
    (CSV parsing, float conversion, dicts, sorting, indented JSON). It does
    not use the program, so a change to the program cannot move it."""
    gc.disable()  # a collection would also walk the benchmark's own objects
    try:
        start = time.perf_counter()
        lines = [f"{i},Drive,{i % 7},{i * 0.37!r},{i / 7.0!r}" for i in range(6000)]
        records = [{"p": int(c[0]), "s": c[1].lower(), "a": float(c[3]),
                    "b": float(c[4])}
                   for c in csv.reader(io.StringIO("\n".join(lines)))]
        records.sort(key=lambda r: (r["p"] % 13, r["a"]))
        json.dumps(records, indent=2)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Calibrated:
    """Runs children through a launcher between two calibrations, and
    scales each wall time to the reference machine speed: wall * CAL_REF_S
    / (mean of the two calibration times). The host's speed drifts by a
    third for tens of seconds at a time; scaling by a kernel timed next to
    each call takes much of that drift out of the comparison between runs.
    A calibration made less than a second before a call is reused."""

    def __init__(self, launcher: Launcher):
        self.launcher = launcher
        self._last = (0.0, 0.0)  # (when it ended, seconds it took)

    def _calibrate(self) -> float:
        took = calibrate()
        self._last = (time.perf_counter(), took)
        return took

    def run(self, argv: list[str], work: str):
        """Returns (wall s, scaled s, exit code, peak RSS MB, stderr)."""
        ended, before = self._last
        if time.perf_counter() - ended > 1.0:
            before = self._calibrate()
        wall, code, rss, stderr = self.launcher.run(argv, work)
        scaled = wall * 2 * CAL_REF_S / (before + self._calibrate())
        return wall, scaled, code, rss, stderr


def run_cli_op(runner: Calibrated, op: Op, work: str, results: Results):
    _clear(op.out)
    wall, scaled, code, rss, stderr = runner.run(
        [sys.executable, "-m", "squashfitts", *op.args], work)
    results.peak_rss_mb = max(results.peak_rss_mb, rss)
    results.record(op.name, wall, op.check(code, stderr), scaled)


def measure_setup(runner: Calibrated, work: str, results: Results):
    """Warm the bytecode cache, then time fresh `import squashfitts`."""
    runner.launcher.run([sys.executable, "-m", "squashfitts", "validate"], work)
    for _ in range(SETUP_SAMPLES):
        wall, scaled, code, _, stderr = runner.run(
            [sys.executable, "-c", "import squashfitts"], work)
        if code != 0:
            raise RuntimeError(f"import squashfitts failed: {stderr}")
        results.add("setup", wall, scaled)


def measure(runner: Calibrated, ops: list[Op], seconds: float, work: str,
            results: Results):
    """Closed loop over ops until seconds passed and each op ran once."""
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            run_cli_op(runner, op, work, results)
            if time.perf_counter() >= deadline and all(
                    o.name in results.samples for o in ops):
                return


def run_inprocess(args: list[str]) -> tuple[int, str]:
    from squashfitts import cli
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, err.getvalue()


def traced_cycles(ops: list[Op], seconds: float, results: Results,
                  tracer: spans.Tracer) -> list[dict[str, float]]:
    """Run every op in-process under the probes, cycle after cycle, until
    seconds passed; returns each cycle's per-layer metrics. derive_trial is
    timed by replaying it on the datasets run_analysis received."""
    from squashfitts.core import derive_trial
    import squashfitts.cli  # noqa: F401  (the probes patch its references)
    cycles = []
    deadline = time.perf_counter() + seconds
    with spans.Probes(tracer):
        while not cycles or time.perf_counter() < deadline:
            first_span, counts_before = len(tracer.spans), dict(tracer.counts)
            for op in ops:
                _clear(op.out)
                tracer.analysed.clear()
                with tracer.span("cli." + op.name) as root:
                    code, stderr = run_inprocess(op.args)
                results.record("inprocess_" + op.name, root.end - root.start,
                               op.check(code, stderr))
                for dataset in tracer.analysed:
                    with tracer.span("core.derive_trial"):
                        for trial in dataset.trials:
                            derive_trial(trial)
                    tracer.count("core.derive_trial.calls", len(dataset.trials))
                tracer.analysed.clear()
            cycle_spans = tracer.spans[first_span:]
            own = tracer.self_times(cycle_spans)
            metrics = {name: tracer.counts.get(name, 0) - counts_before.get(name, 0)
                       for name, unit in PER_LAYER if unit in ("count", "bytes")}
            for name, unit in PER_LAYER:
                if unit == "s" and not name.startswith(("cli.", "trace.")):
                    span = ("pipeline.render_report_json"
                            if name == "pipeline.json_encode.s" else name[:-2])
                    metrics[name] = own.get(span, 0.0)
            metrics["cli.self.s"] = sum(v for k, v in own.items()
                                        if k.startswith("cli."))
            cycles.append(metrics)
    return cycles


# --- reporting ------------------------------------------------------------


def describe(values: list[float]) -> dict:
    """Median, quartiles, sample count and the highest of p99/p95/p90/p75
    with at least ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    q1, _, q3 = statistics.quantiles(s, n=4) if n > 1 else (s[0], s[0], s[0])
    out = {"median": statistics.median(s), "q1": q1, "q3": q3, "n": n}
    for p in (99, 95, 90, 75):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            out[f"p{p}"] = s[rank - 1]
            break
    return out


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def _line(name: str, unit: str, stats: dict) -> str:
    tail = next((f"{k}={v:.6g}" for k, v in stats.items() if k.startswith("p")),
                "no percentile has 10 samples beyond it")
    return (f"{name:<14} {unit:<5} median={stats['median']:.6g} "
            f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} n={stats['n']} {tail}")


def run_workload(runner: Calibrated, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Runs one workload and returns its result object (the JSON line)."""
    work = os.path.join(OUT, "work-" + workload)
    _clear(work)
    os.makedirs(work)
    results = Results()
    try:
        ops = prepare(workload, seed, work)
        measure_setup(runner, work, results)
        if trace:
            tracer = spans.Tracer()
            report_op = [op for op in ops if op.name == "report"]
            measure(runner, report_op, seconds / 2, work, results)
            cycles = traced_cycles(ops, seconds / 2, results, tracer)
        else:
            measure(runner, ops, seconds, work, results)
    finally:
        _clear(work)

    stats = {name: describe(v) for name, v in results.samples.items()}
    if trace:
        metrics = {name: cycles[0][name] if unit in ("count", "bytes")
                   else statistics.median([c[name] for c in cycles])
                   for name, unit in PER_LAYER if name in cycles[0]}
        for name, unit in PER_LAYER:
            if unit in ("count", "bytes") and len({c[name] for c in cycles}) > 1:
                results.failures.append(f"count {name} differs between cycles")
        inprocess = stats["inprocess_report"]["median"]
        metrics["trace.report_inprocess_s"] = inprocess
        metrics["trace.overhead_ratio"] = inprocess / (
            stats["wall_report"]["median"] - stats["wall_setup"]["median"])
        units = dict(PER_LAYER)
    else:
        metrics = {"setup_s": stats["setup"]["median"],
                   "report_s": stats["report"]["median"],
                   "figures_s": stats["figures"]["median"],
                   "validate_s": stats["validate"]["median"],
                   "peak_rss_mb": results.peak_rss_mb,
                   "ok_share": 1.0 - len(results.failures) / results.attempted}
        units = dict(END_TO_END)

    print(f"# workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
          + " ".join(f"{k}={v}" for k, v in machine().items()))
    for name, unit in units.items():
        key = "setup" if name == "setup_s" else name[:-2]
        if trace or key not in stats:
            value = metrics[name]
            print(f"{name:<34} {unit:<5} "
                  + (f"{value:.6g}" if isinstance(value, float) else str(value)))
            continue
        print(_line(name, unit, stats[key]))
        print(_line("  unscaled", unit, stats["wall_" + key]))
    for failure in results.failures[:10]:
        print(f"# FAILED {failure}")
    result = {
        "correct": not results.failures,
        "attempted": results.attempted,
        "failed": len(results.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"machine": machine(), "seed": seed, "seconds": seconds,
                   "stats": stats, "failures": results.failures,
                   "result": result}, fh, indent=2)
    if trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.dump(), "counts": tracer.counts}, fh)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "squashfitts", "__init__.py")):
        print(f"error: no squashfitts sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    with Launcher() as launcher:
        runner = Calibrated(launcher)
        results = {name: run_workload(runner, name, args.seed, args.seconds,
                                      bool(args.trace))
                   for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
