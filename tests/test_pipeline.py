from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from json.encoder import encode_basestring

import pytest

from squashfitts import (AnalysisOptions, Dataset, DomainError, ShotKind,
                         TrialRecord, UsageError, build_cross_checks,
                         bundled_dataset, derive_trial, figure_series, mean,
                         ols_simple, parse_csv, population_sd,
                         render_report_json, run_analysis, write_csv)
from squashfitts import cli, core, pipeline, plot, stats
from squashfitts import dataset as dataset_module
from squashfitts.cli import main
from squashfitts.published import PUBLISHED_GROUP_STATS, published_rows
from squashfitts.stats import GroupKey, GroupStats, aggregate, fit_columns

import oracles


class TestRunAnalysis:
    def test_shot_level_drive_stats_match_published(self, report):
        drive = next(g for g in report.per_shot_stats
                     if g.key.shot is ShotKind.DRIVE)
        assert drive.mean_id == pytest.approx(6.7, abs=0.01)
        assert drive.sd_id == pytest.approx(0.16, abs=0.01)

    def test_per_shot_slope_signs(self, report):
        fits = report.per_shot_fits
        assert fits[ShotKind.DRIVE].slope < 0
        assert fits[ShotKind.DROP].slope < 0
        assert fits[ShotKind.BOAST].slope < 0
        assert fits[ShotKind.LOB].slope > 0

    def test_overall_fit_is_plain_ols_of_derived_pairs(self, report):
        pts = [(t.id_bits, t.movement_time_s) for t in report.derived_table]
        assert report.overall_fit == ols_simple(pts)

    def test_subset_fit_keys(self, report):
        assert sorted(report.subset_fits) == [
            "exclude_boast", "exclude_drive", "exclude_drop", "exclude_lob"]

    def test_single_person_dataset(self, bundled):
        solo = Dataset(trials=tuple(t for t in bundled.trials
                                    if t.person_id == 1))
        doc = run_analysis(solo)
        assert len(doc.per_person_shot_stats) == 4
        assert all(g.n == 3 for g in doc.per_person_shot_stats)

    def test_missing_shot_errors_naming_the_group(self, bundled):
        no_lobs = Dataset(trials=tuple(t for t in bundled.trials
                                       if t.shot is not ShotKind.LOB))
        with pytest.raises(UsageError) as exc:
            run_analysis(no_lobs)
        assert "Lob" in str(exc.value)

    def test_empty_dataset_is_usage_error(self):
        with pytest.raises(UsageError):
            run_analysis(Dataset(trials=()))

    def test_constant_difficulty_within_a_shot_names_the_fit(self, bundled):
        from squashfitts import DegenerateDesignError
        # keep three shots as-is, flatten every lob to identical measurements
        trials = []
        for t in bundled.trials:
            if t.shot is ShotKind.LOB:
                trials.append(type(t)(t.person_id, t.shot, t.trial_index,
                                      600.0, 0.3, 350.0, t.movement_time_s))
            else:
                trials.append(t)
        with pytest.raises(DegenerateDesignError) as exc:
            run_analysis(Dataset(trials=tuple(trials)))
        assert "Lob" in str(exc.value)

    def test_exclude_filter_changes_overall_fit_only(self, bundled, report):
        doc = run_analysis(bundled, AnalysisOptions(
            exclude_shots=frozenset({ShotKind.DRIVE})))
        assert doc.options.overall_subset == "exclude_drive"
        expected = oracles.FROZEN_EXCL_DRIVE_RECOMP
        assert doc.overall_fit.slope == pytest.approx(expected[0], abs=1e-9)
        assert doc.overall_fit.intercept == pytest.approx(expected[1], abs=1e-9)
        assert doc.per_shot_stats == report.per_shot_stats
        assert doc.per_shot_fits == report.per_shot_fits

    def test_cannot_exclude_everything(self):
        with pytest.raises(UsageError):
            AnalysisOptions(exclude_shots=frozenset(ShotKind))

    def test_tolerances_must_be_positive(self):
        for tolerance in (0.0, math.inf):  # inf would pass every cross-check
            with pytest.raises(UsageError):
                AnalysisOptions(stats_tolerance=tolerance)

    @pytest.mark.parametrize("name,value", [
        ("exclude_shots", "drive"), ("exclude_shots", None), ("exclude_shots", 5),
        ("stats_tolerance", "0.1"), ("stats_tolerance", None),
        ("stats_tolerance", True)])
    def test_option_of_the_wrong_type_is_a_usage_error_naming_it(self, name,
                                                                  value):
        with pytest.raises(UsageError) as exc:
            AnalysisOptions(**{name: value})
        assert str(exc.value).startswith(name)
        assert repr(value) in str(exc.value)

    #: The two numeric settings, which core._require_setting checks alike.
    SETTINGS = {"stats_tolerance": lambda v: AnalysisOptions(stats_tolerance=v),
                "slowdown_factor": lambda v: parse_csv("", slowdown_factor=v)}

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    @pytest.mark.parametrize("value", [10 ** 400, True, "1", None, math.nan,
                                       math.inf, 0, -1])
    def test_setting_that_is_no_finite_number_above_zero_is_refused(self, name,
                                                                     value):
        with pytest.raises(UsageError) as exc:
            self.SETTINGS[name](value)
        assert str(exc.value) == f"{name} must be a finite number > 0, got {value!r}"

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    @pytest.mark.parametrize("value", [10, 0.5, 1e-300, sys.float_info.max])
    def test_setting_that_is_a_finite_number_above_zero_is_accepted(self, name,
                                                                     value):
        self.SETTINGS[name](value)


class TestFigureSeries:
    def test_overall_figure_has_all_points(self, report):
        s = figure_series(report, 4)
        assert s.label == "fig4_overall"
        assert len(s.points) == 36
        assert s.fit == report.overall_fit

    def test_lobs_figure_slope_positive(self, report):
        s = figure_series(report, 7)
        assert s.label == "fig7_lobs"
        assert len(s.points) == 9
        assert s.fit.slope > 0

    def test_drives_figure_id_range(self, report):
        s = figure_series(report, 5)
        assert s.label == "fig5_drives"
        assert len(s.points) == 9
        assert all(6.4 <= x <= 7.1 for x, _ in s.points)

    def test_figure_shot_binding(self, report):
        # 5 = drives, 6 = boasts, 7 = lobs, 8 = drops
        for fig, shot in ((5, ShotKind.DRIVE), (6, ShotKind.BOAST),
                          (7, ShotKind.LOB), (8, ShotKind.DROP)):
            s = figure_series(report, fig)
            assert s.fit == report.per_shot_fits[shot]

    def test_point_counts_partition_the_dataset(self, report):
        assert sum(len(figure_series(report, f).points)
                   for f in (5, 6, 7, 8)) == len(figure_series(report, 4).points)

    def test_excluded_shots_leave_figure_four(self, bundled):
        doc = run_analysis(bundled, AnalysisOptions(
            exclude_shots=frozenset({ShotKind.DRIVE})))
        s = figure_series(doc, 4)
        assert len(s.points) == 27
        assert s.fit == doc.overall_fit

    @pytest.mark.parametrize("figure", [0, 9, "4", True, [4], 4.0, None])
    def test_unknown_figure(self, report, figure):
        with pytest.raises(UsageError, match=r"^unknown figure .* \(valid: 4, 5, 6, 7, 8\)$"):
            figure_series(report, figure)

    @pytest.mark.parametrize("excluded", [(), ("Drive",), ("Lob", "Boast")])
    def test_overall_points_are_the_kept_shots_points_sorted(self, bundled, excluded):
        doc = run_analysis(bundled, AnalysisOptions(frozenset(excluded)))
        joined = [p for kind in ShotKind if kind not in doc.options.exclude_shots
                  for p in zip(*doc.columns[kind])]
        assert figure_series(doc, 4).points == tuple(sorted(joined))

    def test_shot_figures_are_built_without_the_figure_set(self, report, monkeypatch):
        def refuse(*args):
            raise AssertionError("a shot figure built the five series")
        monkeypatch.setattr(plot, "_figure_set", refuse)
        for figure, (label, shot) in plot.FIGURES.items():
            if shot is not None:
                s = figure_series(report, figure)
                assert (s.label, s.fit) == (label, report.per_shot_fits[shot])
                assert s.points == tuple(zip(*report.columns[shot]))
        with pytest.raises(AssertionError, match="five series"):
            figure_series(report, 4)


class TestCrossChecks:
    def test_derivation_block(self, report):
        block = build_cross_checks(report)["derivation_vs_published"]
        assert block["values_checked"] == 108
        assert block["values_matched"] == 106
        assert block["pass_strict"] is False
        assert block["pass_excluding_published_errata"] is True
        keys = {(m["person"], m["shot"], m["trial"]) for m in block["mismatches"]}
        assert keys == {(1, "Drive", 3)}
        assert all(not m["published_row_self_consistent"]
                   for m in block["mismatches"])

    def test_group_stats_block(self, report):
        block = build_cross_checks(report)["published_group_stats"]
        assert block["groups_checked"] == 16
        assert block["groups_passed"] == 16
        assert block["pass"] is True

    def test_trend_line_reuses_the_single_shot_excluded_fits(self, report,
                                                              monkeypatch):
        fits = []
        counting = lambda pts: fits.append(pts) or ols_simple(pts)
        monkeypatch.setattr(stats, "ols_simple", counting)
        monkeypatch.setattr(pipeline, "ols_simple", counting, raising=False)
        candidates = build_cross_checks(report)["published_trend_line"]["candidates"]
        assert fits == []  # both bases fit the columns of an aggregate
        assert list(candidates) == [f"{name}/{basis}" for name in (
            "all", "exclude_drive", "exclude_drop", "exclude_lob", "exclude_boast")
            for basis in ("recomputed", "as_published")]
        for name, fit in report.subset_fits.items():
            candidate = dict(candidates[f"{name}/recomputed"])
            candidate.pop("match")
            assert candidate == pipeline._fit_dict(fit)
            assert fit == ols_simple([(t.id_bits, t.movement_time_s)
                                      for t in report.derived_table
                                      if f"exclude_{t.shot.value.lower()}" != name])
        mts = {t.base.key: t.movement_time_s for t in report.derived_table}
        printed = [(f"exclude_{row.shot.value.lower()}", row.id_bits.value,
                    mts[(row.person_id, row.shot, row.trial_index)])
                   for row in published_rows()]
        for name in ("all", *report.subset_fits):
            candidate = dict(candidates[f"{name}/as_published"])
            candidate.pop("match")
            assert candidate == pipeline._fit_dict(ols_simple(
                [(i, m) for subset, i, m in printed if subset != name]))

    def test_trend_line_block_flags_exclude_drive(self, report):
        block = build_cross_checks(report)["published_trend_line"]
        assert sorted(block["matching_subsets"]) == [
            "exclude_drive/as_published", "exclude_drive/recomputed"]
        cand = block["candidates"]["exclude_drive/as_published"]
        assert cand["slope"] == pytest.approx(
            oracles.FROZEN_EXCL_DRIVE_PUB[0], abs=1e-9)
        assert cand["intercept"] == pytest.approx(
            oracles.FROZEN_EXCL_DRIVE_PUB[1], abs=1e-9)
        assert block["candidates"]["all/recomputed"]["match"] is False

    def test_not_applicable_for_other_data(self, bundled, monkeypatch):
        changed = bundled.trials[0]._replace(movement_time_s=1.5)
        same_size = Dataset(trials=(changed,) + bundled.trials[1:])
        assert build_cross_checks(run_analysis(same_size))["applicable"] is False
        # a table of another size is ruled out without loading the bundled one
        monkeypatch.setattr(pipeline, "_bundled_table", None)
        subset = Dataset(trials=bundled.trials[:12])
        assert build_cross_checks(run_analysis(subset))["applicable"] is False

    def test_bundled_csv_is_read_from_its_cache(self, bundled, tmp_path, monkeypatch,
                                                capsys):
        build_cross_checks(run_analysis(bundled))  # fills bundled_text's cache
        monkeypatch.setattr("importlib.resources.files", None)
        assert main(["report", "--input", "bundled",
                     "--output", str(tmp_path / "r.json")]) == 0
        assert "reproduced by: exclude_drive" in capsys.readouterr().out
        monkeypatch.undo()
        first = bundled_dataset()
        first.metadata["source"] = "changed"
        assert bundled_dataset().metadata["source"] != "changed"


class TestRenderReport:
    def test_json_is_valid_and_versioned(self, report):
        doc = json.loads(render_report_json(report))
        assert doc["schema_version"] == "1.0"
        assert doc["dataset"]["n_trials"] == 36
        assert len(doc["derived_trials"]) == 36
        assert len(doc["group_stats"]["person_shot"]) == 12
        assert len(doc["group_stats"]["shot"]) == 4
        assert set(doc["fits"]["per_shot"]) == {"Drive", "Drop", "Lob", "Boast"}

    def test_display_rounding_mirrors_published_presentation(self, report):
        doc = json.loads(render_report_json(report))
        row = doc["derived_trials"][0]
        assert row["display"] == {"v_mps": 29.75, "id_bits": 6.8, "ir_bps": 5.57}
        assert row["v_mps"] == pytest.approx(29.746192893401016, abs=1e-12)

    def test_cross_check_block_embedded_with_flags(self, report):
        doc = json.loads(render_report_json(report))
        checks = doc["cross_checks"]
        assert checks["applicable"] is True
        assert checks["summary"]["group_stats"] is True
        assert checks["summary"]["table_derivation_strict"] is False
        assert checks["summary"]["table_derivation_excluding_errata"] is True

    def test_rendering_is_deterministic(self, report):
        assert render_report_json(report) == render_report_json(report)

    def test_json_round_trip_preserves_numbers(self, report):
        text = render_report_json(report)
        doc = json.loads(text)
        again = json.loads(json.dumps(doc, indent=2, ensure_ascii=False))
        assert doc == again
        assert doc["fits"]["overall"]["slope"] == report.overall_fit.slope

    def test_reference_throughput_block(self, report):
        doc = json.loads(render_report_json(report))
        assert doc["reference_throughput"] == {
            "mean_bps": 10.1, "sd_bps": 1.33,
            "note": "classic reciprocal-tapping benchmark, shown for context"}
        assert doc["options"]["subset_scan"] is True
        assert doc["options"]["derivation_tolerance"] == 0.02

    @pytest.mark.parametrize("case", [
        "bundled", "bundled_exclude_drive", "many_persons",
        "escaped_metadata", "non_finite_rates", "empty_groups", "block_edges",
        "hand_built"])
    def test_matches_json_module_byte_for_byte(self, bundled, case):
        doc = _RENDER_CASES[case](bundled)
        want = json.dumps(oracles.report_document_dict(doc), indent=2,
                          ensure_ascii=False) + "\n"
        assert render_report_json(doc) == want
        assert json.dumps(pipeline.report_document_dict(doc), indent=2,
                          ensure_ascii=False) + "\n" == want
        if case in ("non_finite_rates", "block_edges", "hand_built"):
            assert all(s in want for s in ("NaN", " Infinity", "-Infinity"))
        if case == "block_edges":  # rows in three blocks, spelled by both paths
            assert all(s in want for s in ("-0.0,", "5e-324,", "1e+308,"))
            assert len(doc.derived_table) > 2 * 256 and len(doc.per_person_shot_stats) > 256
        if case == "hand_built":  # rounded, not the kernel's "%.2f"
            assert all(s in want for s in ("50000000000000.0,", "-50000000000000.0",
                                           "100000000000000.0", "true", "false"))

    def test_non_finite_and_overflowing_rows_match_json_module(self, report):
        """Every float slot of one trial row and of one group row set in
        turn to NaN and +-inf, and rows of finite values whose sum
        overflows: the rows take json.dumps per value, and the bytes stay the
        json module's."""
        rng = random.Random(41)
        t = rng.choice(report.derived_table)
        g = rng.choice(report.per_person_shot_stats)

        def with_trial(trial, **raw):
            fields = {**trial.base._asdict(), **raw}  # TrialRecord would reject the value
            return trial._replace(base=tuple.__new__(TrialRecord, fields.values()))

        raw_fields = ("ball_distance_cm", "ball_time_s", "player_distance_cm",
                      "movement_time_s")
        derived_fields = ("ball_speed_mps", "id_bits", "info_rate_bps")
        group_fields = ("mean_id", "sd_id", "mean_mt", "sd_mt", "mean_ir")
        cases = []
        for value in (math.nan, math.inf, -math.inf):
            cases += [(with_trial(t, **{name: value}), g) for name in raw_fields]
            cases += [(t._replace(**{name: value}), g) for name in derived_fields]
            cases += [(t, g._replace(**{name: value})) for name in group_fields]
        cases.append((with_trial(t, ball_distance_cm=1e308,
                                 player_distance_cm=1e308),
                      g._replace(mean_mt=1e308, sd_mt=1e308)))
        for trial, group in cases:
            doc = report._replace(
                derived_table=tuple(trial if x is t else x for x in report.derived_table),
                per_person_shot_stats=tuple(group if x is g else x
                                            for x in report.per_person_shot_stats))
            want = json.dumps(oracles.report_document_dict(doc), indent=2,
                              ensure_ascii=False) + "\n"
            assert render_report_json(doc) == want

    @pytest.mark.parametrize("name,options", [
        ("default", {}),
        ("exclude_drive", {"exclude_shots": frozenset({"Drive"})}),
        ("exclude_lob_boast", {"exclude_shots": frozenset({"Lob", "Boast"})}),
        ("tolerance_0.05", {"stats_tolerance": 0.05})])
    def test_bundled_report_bytes_equal_the_frozen_bytes(self, bundled, name,
                                                         options):
        text = render_report_json(run_analysis(bundled, AnalysisOptions(**options)))
        assert (hashlib.sha256(text.encode()).hexdigest()
                == oracles.FROZEN_BUNDLED_REPORT_SHA256[name])


class _Float(float):
    """A float subclass: round gives a plain float of it, json.dumps its float repr."""


def _display_columns() -> list:
    """Columns for the display kernel: uniform values of either sign in every
    decade from 1e-6 to 1e14, values on both sides of 1e13 and of 2**46, ties,
    zeros and subnormals, and columns of ints, bools and a float subclass."""
    rng = random.Random(29)

    def uniform(lo, hi):
        return [rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi) for _ in range(256)]

    columns = [uniform(10.0 ** e, 10.0 ** (e + 1)) for e in range(-6, 14)]
    for edge in (1e13, 2.0 ** 46):
        columns += [uniform(0.9 * edge, edge), uniform(edge, 1.1 * edge),
                    uniform(0.9 * edge, 1.1 * edge)]
        columns += [[sign * x] for sign in (1.0, -1.0) for x in (
            math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))]
    columns += [
        [-0.0, 0.0, -0.001, 0.125, 2.675, 1.005, 0.005, 0.015, -0.125, -2.675, -1.005,
         5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 9.995, 99.995, -0.005],
        list(range(-500, 500, 7)), [10**20, -10**20, 0],
        [True, False, True], [_Float(x) for x in (0.125, -2.675, 1.5, 1e14)]]
    return columns


def _kernel(col) -> list:
    """The display kernel's text for a column, as the row templates write it."""
    return ["%s" % value for value in pipeline._display(col, {*map(type, col)})]


class TestRowKernels:
    """The display values and group labels of the row arrays, column by column."""

    @pytest.mark.parametrize("bound", [None, 1e15], ids=["committed", "1e15"])
    def test_display_kernel_is_repr_of_round_only_inside_1e13(self, monkeypatch, bound):
        """repr(round(x, 2)) of every value with the committed bound (1e13);
        "%.2f" less a trailing "0" spells it below 2**46 only, so a bound of
        1e15 writes wrong values."""
        committed = bound is None
        if not committed:
            monkeypatch.setattr(pipeline, "_DISPLAY_BOUND", bound)
        bound = pipeline._DISPLAY_BOUND
        rounded = []
        monkeypatch.setattr(pipeline, "round", lambda x, n: rounded.append(x) or round(x, n),
                            raising=False)
        columns = _display_columns()
        wrong, kernel = [], []
        for col in columns:
            rounded.clear()
            wrong += [(x, got) for x, got in zip(col, _kernel(col)) if got != repr(round(x, 2))]
            kernel.append(not rounded)
        assert (wrong == []) == committed, wrong[:5]
        # the floats strictly inside the bound take the kernel, the others round
        assert kernel == [type(col[0]) is float and max(map(abs, col)) < bound
                          for col in columns]
        assert kernel.count(True) > 20

    def test_group_labels_are_str_of_the_key(self, monkeypatch):
        """A block whose persons are all ints (large ones too) and whose shots
        are all ShotKinds takes its labels from one % map, without
        GroupKey.__str__; any other block, with a bool or a None person or
        no shot, writes str(key). Both spell json.dumps(str(key))."""
        shots = list(ShotKind)
        blocks = [[GroupKey(p, s) for p in (1, 7, 10**30, -3) for s in shots],
                  [GroupKey(p, s) for p in (True, 2, False) for s in shots],
                  [GroupKey(None, s) for s in shots], [GroupKey(4, None)]]
        for keys in blocks:
            labels = [encode_basestring(str(k)) for k in keys]
            if keys is blocks[0]:
                monkeypatch.setattr(GroupKey, "__str__", None)
            rows = list(pipeline._group_rows(
                [GroupStats(k, 2, 1.0, 0.5, 1.25, 0.125, 0.75) for k in keys]))
            monkeypatch.undo()
            assert [row.split("\n")[1] for row in rows] == [
                f'        "group": {label},' for label in labels]
            parsed = [json.loads(row) for row in rows]
            assert [(d["group"], d["person_id"], type(d["person_id"])) for d in parsed] == [
                (str(k), k.person_id, type(k.person_id)) for k in keys]


def _ragged(seed: int, persons: int = 60) -> Dataset:
    """persons x 4 shots with 1-5 trials per cell (many cells with one),
    scattered trial numbers, in shuffled order."""
    rng = random.Random(seed)
    trials = [
        TrialRecord(person, kind, trial, rng.uniform(300.0, 900.0),
                    rng.uniform(0.05, 0.5), rng.uniform(100.0, 600.0),
                    rng.uniform(0.3, 2.0))
        for person in range(1, persons + 1) for kind in ShotKind
        for trial in rng.sample(range(1, 40), rng.choice((1, 1, 2, 3, 5)))]
    rng.shuffle(trials)
    return Dataset(trials=tuple(trials), metadata={"source": f"ragged {seed}"})


def _shuffled_ragged_csv(path) -> str:
    """Write _ragged(5) to path with write_csv, its rows shuffled once
    more, and return the path as a --input argument."""
    header, *rows = write_csv(_ragged(5)).splitlines()
    random.Random(23).shuffle(rows)
    path.write_text("\n".join([header, *rows]) + "\n")
    return str(path)


class TestCellAggregation:
    """run_analysis aggregates per (person, shot) cell; every number must
    equal, bit for bit, the per-point reference in oracles."""

    @pytest.mark.parametrize("options", [
        {}, {"exclude_shots": frozenset({"Drive"})}],
        ids=["default", "exclude_drive"])
    @pytest.mark.parametrize("data", ["bundled", "ragged"])
    def test_bit_exact_against_per_point_reference(self, bundled, data, options):
        dataset = bundled if data == "bundled" else _ragged(5)
        doc = run_analysis(dataset, AnalysisOptions(**options))
        ref = oracles.reference_analysis(dataset, doc.options.exclude_shots)
        assert doc.derived_table == ref["derived_table"]
        for got, want in ((doc.per_person_shot_stats, ref["person_shot"]),
                          (doc.per_shot_stats, ref["shot"])):
            assert [((g.key.person_id, g.key.shot),
                     (g.n, g.mean_id, g.sd_id, g.mean_mt, g.sd_mt, g.mean_ir))
                    for g in got] == want
        assert doc.overall_fit == ref["overall_fit"]
        assert doc.subset_fits == ref["subset_fits"]
        assert doc.per_shot_fits == ref["per_shot_fits"]

    @pytest.mark.parametrize("name,options", [
        ("default", {}), ("exclude_drive", {"exclude_shots": frozenset({"Drive"})})])
    def test_report_bytes_equal_the_per_point_implementation(self, name, options):
        text = render_report_json(run_analysis(_ragged(5), AnalysisOptions(**options)))
        assert (hashlib.sha256(text.encode()).hexdigest()
                == oracles.FROZEN_RAGGED_REPORT_SHA256[name])

    def test_ragged_data_has_single_trial_cells(self):
        sizes = [g.n for g in run_analysis(_ragged(5)).per_person_shot_stats]
        assert len(sizes) == 240 and sizes.count(1) > 50

    def test_row_permutation_keeps_report_bytes(self):
        dataset = _ragged(5)
        baseline = render_report_json(run_analysis(dataset))
        rng = random.Random(17)
        for _ in range(3):
            shuffled = list(dataset.trials)
            rng.shuffle(shuffled)
            permuted = Dataset(trials=tuple(shuffled), metadata=dataset.metadata)
            assert render_report_json(run_analysis(permuted)) == baseline

    def test_underivable_trial_raises_as_derive_trial_does(self, bundled):
        bad = TrialRecord(2, ShotKind.LOB, 7, 1e308, 1e-308, 374.0, 1.22)
        with pytest.raises(DomainError) as want:
            derive_trial(bad)
        later_bad = bad._replace(person_id=1)
        dataset = Dataset(trials=bundled.trials[:5] + (bad, later_bad)
                          + bundled.trials[5:])
        with pytest.raises(DomainError) as got:
            run_analysis(dataset)
        assert str(got.value) == str(want.value)
        assert "person=2, shot=Lob, trial=7" in str(got.value)
        assert got.value.field == want.value.field == "ball_speed_mps"



_CLI_CASES = {
    "stats": ["stats"],
    "fit": ["fit", "--model", "squash"],
    "fit_exclude_drive": ["fit", "--model", "squash", "--exclude-shot", "drive"],
    "fit_exclude_lob_boast": ["fit", "--model", "squash", "--exclude-shot", "lob",
                              "--exclude-shot", "boast"],
}


class TestSharedAggregation:
    """report, stats and group_stats group trials through the one
    aggregate pass, and figures and fit --model squash file them by shot
    without it; the output stays as it was."""

    @pytest.mark.parametrize("case", list(_CLI_CASES))
    @pytest.mark.parametrize("data", ["bundled", "ragged"])
    def test_cli_stdout_equals_the_frozen_bytes(self, tmp_path, capsys, data, case):
        source = "bundled"
        if data == "ragged":
            source = str(tmp_path / "ragged.csv")
            (tmp_path / "ragged.csv").write_text(write_csv(_ragged(5)))
        assert main(_CLI_CASES[case] + ["--input", source]) == 0
        out = capsys.readouterr().out
        assert (hashlib.sha256(out.encode()).hexdigest()
                == oracles.FROZEN_CLI_STDOUT_SHA256[(data, case)])

    @pytest.mark.parametrize("case", [c for c in _CLI_CASES if c.startswith("fit")])
    def test_fit_stdout_on_shuffled_ragged_csv(self, tmp_path, capsys, case):
        source = _shuffled_ragged_csv(tmp_path / "ragged.csv")
        assert main(_CLI_CASES[case] + ["--input", source]) == 0
        out = capsys.readouterr().out
        assert (hashlib.sha256(out.encode()).hexdigest()
                == oracles.FROZEN_CLI_STDOUT_SHA256[("ragged", case)])

    def test_recomputed_group_check_equals_the_recomputed_ids(self, report):
        ids = {}
        for t in report.derived_table:
            for key in ((t.person_id, t.shot), (None, t.shot)):
                ids.setdefault(key, []).append(t.id_bits)
        entries = build_cross_checks(report)["published_group_stats"]["entries"]
        assert len(entries) == len(PUBLISHED_GROUP_STATS) == 16
        for entry, key in zip(entries, PUBLISHED_GROUP_STATS):
            assert entry["recomputed"]["mean"] == mean(ids[key])
            assert entry["recomputed"]["sd"] == population_sd(ids[key])

    @pytest.mark.parametrize("consumer", ["report", "stats", "group_stats"])
    def test_each_consumer_aggregates_once(self, tmp_path, capsys, monkeypatch,
                                           bundled, consumer):
        calls = []

        def counting(trials):
            calls.append(list(trials))
            return aggregate(calls[-1])

        for module in (stats, pipeline):
            monkeypatch.setattr(module, "aggregate", counting)
        if consumer == "group_stats":
            stats.group_stats([derive_trial(t) for t in bundled.trials], "shot")
        else:
            argv = {"report": ["report"], "stats": ["stats"]}[consumer]
            assert main(argv + ["--input", "bundled"]) == 0
        assert len(calls[0]) == 36
        assert set(calls[0]) == {derive_trial(t) for t in bundled.trials}
        if consumer != "report":
            assert len(calls) == 1
            return
        # the cross-checks' as-published basis: the run's trials carrying
        # the printed v, ID and IR
        assert len(calls) == 2
        printed = {(r.person_id, r.shot, r.trial_index):
                   (r.v_mps.value, r.id_bits.value, r.ir_bps.value)
                   for r in published_rows()}
        assert len(calls[1]) == len(printed) == 36
        assert {t.base for t in calls[1]} == set(bundled.trials)
        for t in calls[1]:
            assert (t.ball_speed_mps, t.id_bits, t.info_rate_bps) == printed[t.base.key]

    def test_bundled_report_parses_the_table_once(self, tmp_path, capsys, monkeypatch):
        """For the input only: the cross-checks read the printed table's
        trials and values from its own cells."""
        texts = []

        def counting(text, *args, **kwargs):
            texts.append(text)
            return parse_csv(text, *args, **kwargs)

        for module in (dataset_module, cli):
            monkeypatch.setattr(module, "parse_csv", counting)
        output = tmp_path / "report.json"
        assert main(["report", "--input", "bundled", "--output", str(output)]) == 0
        assert len(texts) == 1

    @pytest.mark.parametrize("exclude", [[], ["--exclude-shot", "drive"]])
    def test_bundled_report_fits_each_line_once(self, tmp_path, capsys, monkeypatch,
                                                exclude):
        """The run fits 9 lines, or 8 where its overall line is a single-shot
        exclusion; the cross-checks fit 5 as-published lines, and all/recomputed
        where the run's overall line is not that one: 14 either way."""
        fits = []

        def counting(xs, ys):
            fits.append(len(xs))
            return fit_columns(xs, ys)

        for module in (stats, pipeline):
            monkeypatch.setattr(module, "fit_columns", counting)
        output = tmp_path / "report.json"
        assert main(["report", "--input", "bundled", "--output", str(output)] + exclude) == 0
        assert len(fits) == 14

    @pytest.mark.parametrize("consumer", ["figures", "fit"])
    def test_figure_and_fit_commands_derive_once_and_never_aggregate(
            self, tmp_path, capsys, monkeypatch, bundled, consumer):
        """Every record passes through the derive kernel once, and its clean
        block is derived a column at a time, without derive_trial."""
        aggregated, derived, by_row = [], [], []
        kernel = core._derived

        def counting_aggregate(trials):
            aggregated.append(trials)
            return aggregate(trials)

        def counting_kernel(records):
            records = list(records)
            derived.extend(records)
            return kernel(records)

        for module in (stats, pipeline):
            monkeypatch.setattr(module, "aggregate", counting_aggregate)
        for module in (core, pipeline, cli):
            monkeypatch.setattr(module, "_derived", counting_kernel)
        monkeypatch.setattr(core, "derive_trial", lambda record: by_row.append(record))
        argv = {"fit": ["fit", "--model", "squash"],
                "figures": ["figures", "--output", str(tmp_path)]}[consumer]
        assert main(argv + ["--input", "bundled"]) == 0
        assert aggregated == [] and by_row == []
        assert len(derived) == 36
        assert set(derived) == set(bundled.trials)

def _synthetic(seed: int, persons: int, trials: int) -> Dataset:
    rng = random.Random(seed)
    return Dataset(trials=tuple(
        TrialRecord(person, kind, trial, rng.uniform(300.0, 900.0),
                    rng.uniform(0.05, 0.5), rng.uniform(100.0, 600.0),
                    rng.uniform(0.3, 2.0))
        for person in range(1, persons + 1) for kind in ShotKind
        for trial in range(1, trials + 1)))


def _non_finite_rates(bundled):
    """IR overflows to +inf (a drive) and to -inf (a drop with v*D < 1);
    one more trial is hand-set to a NaN IR."""
    trials = list(_synthetic(7, persons=2, trials=3).trials)
    trials[0] = trials[0]._replace(movement_time_s=5e-324)
    drop = trials.index(next(t for t in trials if t.shot is ShotKind.DROP))
    trials[drop] = trials[drop]._replace(ball_distance_cm=50.0, ball_time_s=1.0,
                           player_distance_cm=100.0, movement_time_s=5e-324)
    doc = run_analysis(Dataset(trials=tuple(trials)))
    last = doc.derived_table[-1]._replace(info_rate_bps=float("nan"))
    return doc._replace(derived_table=doc.derived_table[:-1] + (last,))


def _block_edges(bundled):
    """560 trials and 280 person-shot groups, rendered in blocks of 256 rows:
    NaN, +-inf, -0.0 and 5e-324 in every float column, on both sides of a
    block edge, and a pair of 1e308 in one column and block, whose sum
    overflows."""
    doc = run_analysis(_synthetic(5, persons=70, trials=2))
    values = (math.nan, math.inf, -math.inf, -0.0, 5e-324)
    rows = (0, 255, 256, 300, 511, 512, 559)

    def edited(items, fields, replace):
        items = list(items)
        for k, name in enumerate(fields):
            for j, value in enumerate(values):
                i = rows[(k + j) % len(rows)] % len(items)
                items[i] = replace(items[i], name, value)
        for i in (100, 101):  # finite values whose sum overflows
            items[i] = replace(items[i], fields[-1], 1e308)
        return tuple(items)

    def trial(t, name, value):
        if name in t._fields:
            return t._replace(**{name: value})
        fields = {**t.base._asdict(), name: value}  # TrialRecord would reject the value
        return t._replace(base=tuple.__new__(TrialRecord, fields.values()))

    group_fields = ("mean_id", "sd_id", "mean_mt", "sd_mt", "mean_ir")
    return doc._replace(
        derived_table=edited(doc.derived_table, (
            "ball_distance_cm", "ball_time_s", "player_distance_cm", "movement_time_s",
            "ball_speed_mps", "id_bits", "info_rate_bps"), trial),
        per_person_shot_stats=edited(doc.per_person_shot_stats, group_fields,
                                     lambda g, name, value: g._replace(**{name: value})),
        per_shot_stats=tuple(g._replace(mean_ir=v) for g, v in zip(
            doc.per_shot_stats, (math.nan, -0.0, 5e-324, 1.5))))


def _hand_built(bundled):
    """Rows whose display values are +-5e13 and 1e14 (outside the "%.2f"
    kernel's bound), with int and bool fields, NaN and +-inf, in the blocks of
    rows of plain floats."""
    doc = run_analysis(_synthetic(9, persons=2, trials=3))

    def base(t, **raw):  # TrialRecord would reject the values
        return t._replace(base=tuple.__new__(TrialRecord, {**t.base._asdict(), **raw}.values()))

    trials = list(doc.derived_table)
    trials[0] = trials[0]._replace(ball_speed_mps=5e13, id_bits=-5e13, info_rate_bps=1e14)
    trials[1] = trials[1]._replace(ball_speed_mps=7, id_bits=True, info_rate_bps=math.nan)
    trials[2] = base(trials[2], person_id=True, trial_index=False, ball_time_s=2,
                     movement_time_s=True)._replace(info_rate_bps=math.inf)
    trials[3] = trials[3]._replace(id_bits=-math.inf, ball_speed_mps=False)
    groups = list(doc.per_person_shot_stats)
    groups[0] = groups[0]._replace(mean_id=5e13, sd_id=-5e13, mean_ir=1e14)
    groups[1] = groups[1]._replace(n=True, mean_mt=3, sd_mt=False, mean_ir=math.nan)
    groups[2] = groups[2]._replace(key=GroupKey(True, ShotKind.LOB), mean_id=-math.inf,
                                   sd_id=math.inf)
    shot = list(doc.per_shot_stats)
    shot[0] = shot[0]._replace(n=False, mean_id=-5e13, sd_mt=1e14)
    return doc._replace(derived_table=tuple(trials), per_person_shot_stats=tuple(groups),
                        per_shot_stats=tuple(shot))


_RENDER_CASES = {
    "bundled": run_analysis,
    "bundled_exclude_drive": lambda b: run_analysis(
        b, AnalysisOptions(exclude_shots=frozenset({"drive"}))),
    "many_persons": lambda b: run_analysis(_synthetic(11, persons=60, trials=2)),
    "escaped_metadata": lambda b: run_analysis(Dataset(
        trials=b.trials, metadata={"source": 'café "π" \\ x.csv',
                                   "note\u2028": "tab\tline\nend\x00"})),
    "non_finite_rates": _non_finite_rates,
    "empty_groups": lambda b: run_analysis(_synthetic(3, persons=1, trials=3))._replace(
        per_person_shot_stats=(), per_shot_stats=()),
    "block_edges": _block_edges,
    "hand_built": _hand_built,
}
