"""End-to-end analysis: derive, group, fit, cross-check, render.

The pipeline is a pure function of (dataset, options). Trials are put in
canonical order (person, shot, trial), and every sum is a correctly
rounded math.fsum, so every reported number is invariant under
permutation of the input rows.

Cross-checks compare the run against the values published with the
bundled reference dataset and are only attached when the analyzed trials
are exactly the bundled ones. Two comparison bases are used throughout:

    recomputed    full-precision derivations from the raw measurements
    as_published  the printed derived values of the source table

The published trend line (MT = 0.456 * ID - 1.3) is treated as a
cross-check target, not ground truth: the prose describing which rows it
was fitted over is self-contradictory, so the report fits every
single-shot-excluded subset and flags which, if any, reproduces the
printed coefficients. (On the bundled data: excluding drives does,
on both bases.)
"""
import json
import math
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring
from typing import NamedTuple

from .core import DerivedTrial, ShotKind, _derived, require_fittable
from .dataset import BUNDLED_TRIALS, DERIVED_COLUMNS, REQUIRED_COLUMNS, Dataset, _chunks
from .errors import UsageError
from .published import (DERIVATION_TOLERANCE, PUBLISHED_GROUP_STATS,
                        PUBLISHED_TREND_INTERCEPT, PUBLISHED_TREND_SLOPE,
                        REFERENCE_THROUGHPUT_MEAN_BPS,
                        REFERENCE_THROUGHPUT_SD_BPS, _bundled_table)
from .stats import AnalysisOptions, LinearFit, aggregate, fit_columns, fit_overall

SCHEMA_VERSION = "1.0"

#: Published qualitative slope signs of the per-shot MT-vs-ID lines.
EXPECTED_SLOPE_SIGNS = {
    ShotKind.DRIVE: -1,
    ShotKind.DROP: -1,
    ShotKind.LOB: +1,
    ShotKind.BOAST: -1,
}

#: The subsets of the trend-line cross-check: all shots, then each single-shot exclusion.
_SUBSETS = (AnalysisOptions(), *(AnalysisOptions({kind}) for kind in ShotKind))


class ReportDocument(NamedTuple("ReportDocument", [
        ("options", AnalysisOptions), ("dataset_metadata", dict), ("derived_table", tuple),
        ("per_person_shot_stats", tuple), ("per_shot_stats", tuple), ("columns", dict),
        ("overall_fit", LinearFit), ("subset_fits", dict), ("per_shot_fits", dict)])):
    """Everything one analysis run produced; columns maps ShotKind to
    aggregate's (ids, mts) lists; callers must not mutate. No __slots__:
    the instance __dict__ holds the cached_property."""

    @cached_property
    def cross_checks(self) -> dict:
        """build_cross_checks of this run, computed once and shared by the
        JSON report and the summary (so callers must not mutate it)."""
        return build_cross_checks(self)


def run_analysis(dataset: Dataset, options: AnalysisOptions | None = None,
                 ) -> ReportDocument:
    """Derive every trial, aggregate both grouping levels, and fit the
    overall, single-shot-excluded and per-shot movement-time lines.

    One :func:`aggregate` pass groups the derived trials; every statistic
    and fit is then computed from its columns, so each result is
    bit-identical to the same formula applied to the trials in any order.
    A dataset that breaks :func:`require_fittable` raises from it.
    """
    options = options or AnalysisOptions()
    groups = aggregate(_derived(dataset.trials))
    require_fittable(groups.columns)
    subset_fits = {s.overall_subset: fit_overall(groups.columns, s) for s in _SUBSETS[1:]}
    return ReportDocument(
        options=options,
        dataset_metadata=dict(dataset.metadata),
        derived_table=groups.table,
        per_person_shot_stats=groups.per_person_shot,
        per_shot_stats=groups.per_shot,
        columns=groups.columns,
        overall_fit=(subset_fits.get(options.overall_subset)
                     or fit_overall(groups.columns, options)),
        subset_fits=subset_fits,
        per_shot_fits={kind: fit_columns(*groups.columns[kind]) for kind in ShotKind},
    )


def figure_series(report: ReportDocument, figure: int):
    """The plot.FigureSeries of one of the five standard figures: 4 =
    overall scatter plus the overall fit, its points sorted, as `figures` builds
    it; 5-8 = one shot each (drives, boasts, lobs, drops) with that shot's fit."""
    from .plot import FIGURES, FigureSeries, _figure_set  # here: the report draws no figure
    if type(figure) is not int or figure not in FIGURES:  # not a bool, not 4.0
        raise UsageError(f"unknown figure {figure!r} (valid: 4, 5, 6, 7, 8)")
    label, shot = FIGURES[figure]
    if shot is None:
        return _figure_set(report.columns, report.options, report.overall_fit,
                           report.per_shot_fits)[0]
    return FigureSeries(label, tuple(zip(*report.columns[shot])), report.per_shot_fits[shot])


# --- cross-checks against the published reference values ----------------


def _fit_dict(fit: LinearFit) -> dict:
    sign = "-" if fit.intercept < 0 else "+"
    return {"slope": fit.slope, "intercept": fit.intercept,
            "pearson_r": fit.pearson_r, "r_squared": fit.r_squared, "n": fit.n,
            "equation": f"mt_s = {fit.slope:.3f} * id_bits "
                        f"{sign} {abs(fit.intercept):.3f}"}


def build_cross_checks(report: ReportDocument) -> dict:
    """Pass/fail comparison of this run against the published values.

    Only meaningful for the bundled reference dataset; for anything else
    returns {"applicable": False}.
    """
    # a table of another size is ruled out without reading the bundled one
    table = _bundled_table() if len(report.derived_table) == BUNDLED_TRIALS else []
    derived = {t.base: t for t in report.derived_table} if table else {}
    if not table or derived.keys() != {record for record, _ in table}:
        return {"applicable": False,
                "reason": "cross-check targets correspond to the bundled "
                          "reference dataset only"}
    tol_stats = report.options.stats_tolerance

    # 1. per-row derivations vs the printed table; the run's trials carrying
    # the printed values are the as-published basis of checks 2 and 3
    mismatches = []
    printed_trials = []
    for record, row in table:
        trial = derived[record]
        printed_trials.append(DerivedTrial(
            base=trial.base, ball_speed_mps=row.v_mps.value,
            id_bits=row.id_bits.value, info_rate_bps=row.ir_bps.value))
        for column, computed, printed in (
                ("v_mps", trial.ball_speed_mps, row.v_mps),
                ("id_bits", trial.id_bits, row.id_bits),
                ("ir_bps", trial.info_rate_bps, row.ir_bps)):
            diff = abs(round(computed, 2) - printed.value)
            if diff > DERIVATION_TOLERANCE + 1e-9:
                mismatches.append({
                    "person": row.person_id, "shot": row.shot.value,
                    "trial": row.trial_index, "column": column,
                    "recomputed": computed, "published": printed.value,
                    "diff": diff,
                    "published_row_self_consistent": row.self_consistent,
                })
    checked = len(table) * len(DERIVED_COLUMNS)
    derivation = {
        "tolerance": DERIVATION_TOLERANCE,
        "values_checked": checked,
        "values_matched": checked - len(mismatches),
        "mismatches": mismatches,
        "pass_strict": not mismatches,
        # a mismatch is a published erratum when the printed row already
        # contradicts its own printed speed and distance
        "pass_excluding_published_errata": all(
            not m["published_row_self_consistent"] for m in mismatches),
    }

    as_published = aggregate(printed_trials)

    # 2. grouped mean/SD of difficulty vs the published summaries
    bases = [(basis, {g.key: g for g in groups})
             for basis, groups in (
                 ("as_published", as_published.per_person_shot + as_published.per_shot),
                 ("recomputed", report.per_person_shot_stats + report.per_shot_stats))]
    stat_entries = []
    for key, (pub_mean, pub_sd) in PUBLISHED_GROUP_STATS.items():
        person, shot = key
        scope = f"person {person} / {shot.value}" if person else f"all / {shot.value}"
        entry = {"scope": scope,
                 "published_mean": pub_mean.text, "published_sd": pub_sd.text}
        for basis, groups in bases:
            m, s = groups[key].mean_id, groups[key].sd_id
            entry[basis] = {
                "mean": m, "sd": s,
                "mean_match": pub_mean.matches(m, tol_stats),
                "sd_match": pub_sd.matches(s, tol_stats),
                "mean_match_plain": pub_mean.matches_plain(m, tol_stats),
                "sd_match_plain": pub_sd.matches_plain(s, tol_stats),
            }
        entry["pass"] = all(entry[b]["mean_match"] and entry[b]["sd_match"] for b, _ in bases)
        stat_entries.append(entry)
    group_check = {
        "tolerance_rule": "abs(computed - published) <= base_tol + half of the "
                          "published rounding step",
        "base_tolerance": tol_stats,
        "groups_checked": len(stat_entries),
        "groups_passed": sum(1 for e in stat_entries if e["pass"]),
        "entries": stat_entries,
        "pass": all(e["pass"] for e in stat_entries),
    }

    # 3. published trend line vs candidate fit subsets
    published_line = {"slope": PUBLISHED_TREND_SLOPE.text,
                      "intercept": PUBLISHED_TREND_INTERCEPT.text}
    # the recomputed basis reuses the lines the run holds
    held = {report.options.overall_subset: report.overall_fit, **report.subset_fits}
    fits = {f"{s.overall_subset}/{basis}": lines.get(s.overall_subset) or fit_overall(columns, s)
            for s in _SUBSETS for basis, columns, lines in (
                ("recomputed", report.columns, held), ("as_published", as_published.columns, {}))}
    candidates = {
        name: dict(_fit_dict(fit), match=(
            PUBLISHED_TREND_SLOPE.matches(fit.slope, tol_stats)
            and PUBLISHED_TREND_INTERCEPT.matches(fit.intercept, tol_stats)))
        for name, fit in fits.items()}
    matching = [name for name, c in candidates.items() if c["match"]]
    trend = {
        "published": published_line,
        "note": "documented, not asserted: the published description of the "
                "fitted subset is self-contradictory, so every candidate is "
                "reported and matches are flagged",
        "candidates": candidates,
        "matching_subsets": matching,
    }

    # 4. per-shot slope signs vs the published qualitative claims
    signs = {}
    for kind in ShotKind:
        slope, want = report.per_shot_fits[kind].slope, EXPECTED_SLOPE_SIGNS[kind]
        signs[kind.value] = {"slope": slope,
                             "expected_sign": "+" if want > 0 else "-",
                             "match": slope * want > 0}
    slope_block = {"per_shot": signs,
                   "pass": all(s["match"] for s in signs.values())}

    # 5. throughput ordering: drives and drops above lobs and boasts
    mean_ir = {g.key.shot: g.mean_ir for g in report.per_shot_stats}
    ordering = all(mean_ir[hi] > mean_ir[lo]
                   for hi in (ShotKind.DRIVE, ShotKind.DROP)
                   for lo in (ShotKind.LOB, ShotKind.BOAST))
    throughput = {"mean_ir_by_shot": {k.value: v for k, v in mean_ir.items()},
                  "claim": "mean information rate of drives and of drops each "
                           "exceed those of lobs and of boasts",
                  "pass": ordering}

    return {
        "applicable": True,
        "derivation_vs_published": derivation,
        "published_group_stats": group_check,
        "published_trend_line": trend,
        "per_shot_slope_signs": slope_block,
        "throughput_ordering": throughput,
        "summary": {
            "table_derivation_strict": derivation["pass_strict"],
            "table_derivation_excluding_errata":
                derivation["pass_excluding_published_errata"],
            "group_stats": group_check["pass"],
            "trend_line_matching_subsets": matching,
            "slope_signs": slope_block["pass"],
            "throughput_ordering": throughput["pass"],
        },
    }


# --- rendering -----------------------------------------------------------


def _head_dict(report: ReportDocument) -> dict:
    """Top-level blocks of the report that precede the per-row arrays."""
    return {
        "schema_version": SCHEMA_VERSION,
        "generator": "squashfitts",
        "options": {
            "overall_subset": report.options.overall_subset,
            "exclude_shots": sorted(s.value for s in report.options.exclude_shots),
            "subset_scan": True,  # single-shot-excluded fits are always made
            "stats_tolerance": report.options.stats_tolerance,
            "derivation_tolerance": DERIVATION_TOLERANCE,
        },
        "dataset": {
            "n_trials": len(report.derived_table),
            "metadata": dict(sorted(report.dataset_metadata.items())),
        },
    }


def _tail_dict(report: ReportDocument) -> dict:
    """Top-level blocks of the report that follow the per-row arrays."""
    return {
        "fits": {
            "overall": dict(_fit_dict(report.overall_fit),
                            subset=report.options.overall_subset),
            "single_shot_excluded": {name: _fit_dict(fit)
                                     for name, fit in report.subset_fits.items()},
            "per_shot": {kind.value: _fit_dict(report.per_shot_fits[kind])
                         for kind in ShotKind},
        },
        "reference_throughput": {
            "mean_bps": REFERENCE_THROUGHPUT_MEAN_BPS,
            "sd_bps": REFERENCE_THROUGHPUT_SD_BPS,
            "note": "classic reciprocal-tapping benchmark, shown for context",
        },
        "cross_checks": report.cross_checks,
    }


def report_document_dict(report: ReportDocument) -> dict:
    """ReportDocument as a JSON-ready dict with stable key order, full
    precision plus 2-decimal display values, and the cross-check block:
    the parsed :func:`render_report_json`."""
    return json.loads(render_report_json(report))


def _row_template(keys, display, depth: int) -> str:
    """json.dumps(indent=2) of a row of keys plus its "display" dict of the
    display keys, indented to depth spaces, with a bare %s slot per value."""
    row = dict.fromkeys(keys, "%s")
    row["display"] = dict.fromkeys(display, "%s")
    text = json.dumps(row, indent=2).replace('"%s"', "%s")
    return " " * depth + text.replace("\n", "\n" + " " * depth)


# The trial and group rows of report_document_dict at their depth: a trial
# row holds the CSV schema that derive writes.
_TRIAL_ROW = _row_template(REQUIRED_COLUMNS + DERIVED_COLUMNS, DERIVED_COLUMNS, 4)
_GROUP_STATS = ("mean_id", "sd_id", "mean_mt", "sd_mt", "mean_ir")
_GROUP_ROW = _row_template(("group", "person_id", "shot", "n", *_GROUP_STATS),
                           _GROUP_STATS, 6)

#: Kind -> its JSON string, so no row reads Enum's Python-level .value.
_SHOT_JSON = {kind: encode_basestring(kind.value) for kind in ShotKind}
#: Kind -> the %-template of the JSON label, str(GroupKey(person, kind)), of an int person.
_LABEL = {kind: encode_basestring(f"person %d / {kind.value}") for kind in ShotKind}

#: The "%.2f" kernel of _display spells repr(round(x, 2)) below 2**46 (about
#: 7.0e13), not always above; it takes display values strictly inside this bound.
_DISPLAY_BOUND = 1e13


def _spelled(col, types: set):
    """A column, whose values have these types, as %s values: the column
    itself where %s spells every value as json.dumps does (all ints, or all
    floats with a finite sum), else json.dumps of each value (NaN, +-inf,
    None, a bool, a float subclass)."""
    if types == {int} or types == {float} and math.isfinite(sum(col)):
        return col
    return map(json.dumps, col)


def _display(col, types: set):
    """json.dumps(round(x, 2)) of each value of a column whose values have
    these types, as %s values. Floats, all finite and strictly inside
    +-_DISPLAY_BOUND, are "%.2f" less one trailing "0" ("1.50" -> "1.5",
    "-0.00" -> "-0.0"): round and "%.2f" share one correctly rounded dtoa,
    and below 2**46 the shortest repr of the rounded value is that string.
    One % formats the column, each value followed by "\n", so "0\n" is
    exactly a value's trailing "0"."""
    if (types == {float} and math.isfinite(sum(col))
            and -_DISPLAY_BOUND < min(col) and max(col) < _DISPLAY_BOUND):
        text = ("%.2f\n" * len(col)) % tuple(col)
        return text.replace("0\n", "\n").split("\n")[:-1]
    return map(json.dumps, map(round, col, repeat(2)))


def _json_columns(columns, shown: int) -> list:
    """The columns as %s values (_spelled), then the display values
    (_display) of the last shown of them; each column's types are read once."""
    types = [{*map(type, col)} for col in columns]
    cut = len(columns) - shown
    return [*map(_spelled, columns, types), *map(_display, columns[cut:], types[cut:])]


def _trial_rows(block: list):
    """The derived_trials rows of a block of DerivedTrials, a column at a time."""
    bases, *derived = zip(*block)
    persons, shots, trials, *measured = zip(*bases)
    return map(_TRIAL_ROW.__mod__, zip(
        _spelled(persons, {*map(type, persons)}), map(_SHOT_JSON.__getitem__, shots),
        *_json_columns((trials, *measured, *derived), len(derived))))


def _group_rows(block: list):
    """The group_stats rows of a block of GroupStats, a column at a time. Where
    every person is an int and every shot a ShotKind, the labels are one %
    map over those two columns; elsewhere (a per-shot row's person is None)
    each is str(key)."""
    keys, ns, *stats = zip(*block)
    persons, shots = zip(*keys)
    person_types = {*map(type, persons)}
    if person_types == {int} and {*map(type, shots)} == {ShotKind}:
        labels = map(str.__mod__, map(_LABEL.__getitem__, shots), persons)
    else:
        labels = map(encode_basestring, map(str, keys))
    return map(_GROUP_ROW.__mod__, zip(
        labels, _spelled(persons, person_types), map(_SHOT_JSON.get, shots, repeat("null")),
        *_json_columns((ns, *stats), len(stats))))


def _array(items, render, indent: str):
    """The chunks of a JSON array of the rendered items, closed at indent."""
    if not items:
        return ("[]",)
    return chain(("[\n",), _chunks(items, render, ",\n"), ("\n" + indent + "]",))


def _report_chunks(report: ReportDocument):
    """The text of :func:`render_report_json` as an iterator of strings.
    Everything that can raise (the cross-checks, the json module's blocks)
    runs in this call; the iterator only formats the per-row arrays."""
    head = json.dumps(_head_dict(report), indent=2, ensure_ascii=False)
    tail = json.dumps(_tail_dict(report), indent=2, ensure_ascii=False)
    return chain(
        (head[:-2], ',\n  "derived_trials": '),  # head without its closing "\n}"
        _array(report.derived_table, _trial_rows, "  "),
        (',\n  "group_stats": {\n    "person_shot": ',),
        _array(report.per_person_shot_stats, _group_rows, "    "),
        (',\n    "shot": ',),
        _array(report.per_shot_stats, _group_rows, "    "),
        ("\n  },", tail[1:], "\n"))  # tail without its opening "{"


def render_report_json(report: ReportDocument) -> str:
    """Deterministic JSON rendering (byte-identical for identical runs).

    The output is exactly what json.dumps(indent=2, ensure_ascii=False)
    + "\n" writes for the report's dict form. The small blocks go through
    the json module; the per-row arrays, which hold almost all the bytes,
    fill the %s slots of row templates the json module laid out once at
    import, because indent= forces its pure-Python encoder on every row.
    They are filled a block of _CHUNK_ROWS rows at a time, from the block's
    columns, with no Python call per row: a column goes in as it is where
    %s spells it as json.dumps does, a 2-decimal display column of finite
    floats inside +-_DISPLAY_BOUND as "%.2f" less one trailing "0", and a
    block's group labels from one % map (see _json_columns).
    """
    return "".join(_report_chunks(report))


def summarize_report(report: ReportDocument) -> str:
    """Short human-readable summary with one line per cross-check."""
    lines = []
    n = len(report.derived_table)
    persons = {g.key.person_id for g in report.per_person_shot_stats}
    lines.append(f"analyzed {n} trials from {len(persons)} person(s)")
    f = report.overall_fit
    lines.append(f"overall fit ({report.options.overall_subset}): "
                 f"MT = {f.slope:.3f}*ID + {f.intercept:.3f}  "
                 f"(r={f.pearson_r:.3f}, r^2={f.r_squared:.3f}, n={f.n})")
    for kind in ShotKind:
        pf = report.per_shot_fits[kind]
        lines.append(f"  {kind.value:5s}: slope {pf.slope:+.3f}  "
                     f"(r={pf.pearson_r:+.3f}, n={pf.n})")
    checks = report.cross_checks
    if not checks.get("applicable"):
        lines.append("cross-checks: not applicable (non-bundled dataset)")
        return "\n".join(lines) + "\n"
    d = checks["derivation_vs_published"]
    status = "PASS" if d["pass_strict"] else (
        "PASS excluding published errata" if d["pass_excluding_published_errata"]
        else "FAIL")
    lines.append(f"cross-check derivations vs published table: "
                 f"{d['values_matched']}/{d['values_checked']} within "
                 f"{d['tolerance']:g} -> {status}")
    for m in d["mismatches"]:
        lines.append(f"    erratum: person {m['person']} {m['shot']} trial "
                     f"{m['trial']} {m['column']}: recomputed {m['recomputed']:.2f} "
                     f"vs published {m['published']:g} (published row "
                     f"self-consistent: {m['published_row_self_consistent']})")
    g = checks["published_group_stats"]
    lines.append(f"cross-check published group stats: {g['groups_passed']}/"
                 f"{g['groups_checked']} -> {'PASS' if g['pass'] else 'FAIL'}")
    t = checks["published_trend_line"]
    matched = ", ".join(t["matching_subsets"]) or "none"
    lines.append(f"cross-check published trend line (MT = "
                 f"{t['published']['slope']}*ID + ({t['published']['intercept']})): "
                 f"reproduced by: {matched}")
    s = checks["per_shot_slope_signs"]
    lines.append(f"cross-check per-shot slope signs: "
                 f"{'PASS' if s['pass'] else 'FAIL'}")
    tp = checks["throughput_ordering"]
    lines.append(f"cross-check throughput ordering: "
                 f"{'PASS' if tp['pass'] else 'FAIL'}")
    return "\n".join(lines) + "\n"
