"""In-memory span tracer and the probes that attach it to squashfitts.

Spans are recorded from the benchmark's files only: a probe replaces a
public function, wherever a squashfitts module holds a reference to it,
with a wrapper that opens a span around the call and counts its work. No
file under src/ is changed, and removing the probes restores the original
functions. Per-row functions (derive_trial) are not probed; the benchmark
replays them instead, because a span per row would cost more than the row.
"""
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.analysed: list = []  # datasets passed to run_analysis, for replay
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    @staticmethod
    def self_times(spans: list[Span]) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part of it its child spans cover."""
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        out: dict[str, float] = {}
        for s in spans:
            own = (s.end - s.start) - child_time.get(s.id, 0.0)
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def dump(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"id": s.id, "name": s.name, "start": s.start - t0,
                 "end": s.end - t0, "parent": s.parent} for s in self.spans]


def _parse_counts(tracer, result, args):
    dataset, report = result
    tracer.count("dataset.parse_csv.rows", len(dataset))
    tracer.count("dataset.parse_csv.errors", len(report.errors))
    tracer.count("dataset.parse_csv.warnings", len(report.warnings))


def _bytes_counter(name):
    def counter(tracer, result, args):
        tracer.count(name, len(result.encode("utf-8")))
    return counter


def _groups_counter(tracer, result, args):
    tracer.count("stats.group_stats.groups", len(result))


def _analysed_dataset(tracer, result, args):
    tracer.analysed.append(args[0])


#: span name -> (module, attribute path, extra counter or None). Every
#: probed call also counts "<span name>.calls".
PROBES = {
    "dataset.parse_csv": ("dataset", "parse_csv", _parse_counts),
    "dataset.bundled_dataset": ("dataset", "bundled_dataset", None),
    "dataset.format_text": ("dataset", "ValidationReport.format_text", None),
    "published.published_rows": ("published", "published_rows", None),
    "stats.group_stats": ("stats", "group_stats", _groups_counter),
    "stats.ols_simple": ("stats", "ols_simple", None),
    "pipeline.run_analysis": ("pipeline", "run_analysis", _analysed_dataset),
    "pipeline.build_cross_checks": ("pipeline", "build_cross_checks", None),
    "pipeline.report_document_dict": ("pipeline", "report_document_dict", None),
    "pipeline.render_report_json": ("pipeline", "render_report_json",
                                    _bytes_counter("pipeline.report.bytes")),
    "pipeline.summarize_report": ("pipeline", "summarize_report", None),
    "pipeline.figure_series": ("pipeline", "figure_series", None),
    "plot.emit_svg": ("plot", "emit_svg", _bytes_counter("plot.figures.bytes")),
    "plot.emit_series_csv": ("plot", "emit_series_csv",
                             _bytes_counter("plot.figures.bytes")),
}


def _probe(tracer, name, fn, counter):
    def probe(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        tracer.count(name + ".calls")
        if counter is not None:
            counter(tracer, result, args)
        return result
    return probe


class Probes:
    """Installs the PROBES on the loaded squashfitts modules for the
    duration of a with-block, recording into tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        for name, (module, path, counter) in PROBES.items():
            owner = importlib.import_module("squashfitts." + module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            fn = getattr(owner, attr)
            probe = _probe(self.tracer, name, fn, counter)
            if classes:
                self._patch(owner, attr, fn, probe)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "squashfitts" or mod_name.startswith("squashfitts."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, fn, probe)

    def _patch(self, owner, attr, original, probe):
        setattr(owner, attr, probe)
        self._undo.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False
