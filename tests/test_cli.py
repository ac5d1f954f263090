from __future__ import annotations

import ast
import contextlib
import csv
import gc
import hashlib
import importlib
import inspect
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

from squashfitts import (Dataset, PointingTrial, ShotKind, TrialRecord, UsageError,
                         bundled_dataset, cli, core, derive_trial, fit_model, model_design_row,
                         ols_simple, pipeline, plot, stats, write_csv)
from squashfitts.cli import main
from squashfitts.dataset import REQUIRED_COLUMNS, bundled_text, parse_csv
from squashfitts.variants import parse_pointing_csv

import oracles
from test_dataset import _fuzzed

VALID_HEADER = ",".join(REQUIRED_COLUMNS)

GOOD_ROW = "1,Drive,1,586,0.197,374,1.22"
BAD_TIME_ROW = "1,Drive,2,587,0,386,1.21"

#: The commands that must succeed on data that validate accepts.
ANALYSIS_COMMANDS = [["derive"], ["stats"], ["fit", "--model", "squash"],
                     ["report"], ["figures"]]

POINTING_MODELS = ["fitts", "mackenzie", "welford", "steering"]


@pytest.fixture
def good_csv(tmp_path):
    p = tmp_path / "good.csv"
    p.write_text(VALID_HEADER + "\n" + GOOD_ROW + "\n" +
                 "1,Drop,1,615,0.395,355,1.06\n")
    return p


def _shot_major(path, one_boast_id=False):
    """Write 600 trials, 150 of each shot in shot order, to path: the first
    block of 256 holds drives and drops only. With one_boast_id every boast
    has the same measurements, so the same ID."""
    rows = [VALID_HEADER]
    for i in range(600):
        shot = list(ShotKind)[i // 150]
        db, t, dp = ((586, 0.19, 374) if one_boast_id and shot is ShotKind.BOAST
                     else (586 + i % 37, 0.19 + i % 11 / 100, 374 + i % 23))
        rows.append(f"{i % 150 // 50 + 1},{shot},{i % 50 + 1},{db},{t:.2f},{dp},"
                    f"{1.2 + i % 7 / 10:.1f}")
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def bad_csv(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(VALID_HEADER + "\n" + GOOD_ROW + "\n" + BAD_TIME_ROW + "\n")
    return p


class TestValidate:
    def test_bundled_is_clean(self, capsys):
        assert main(["validate", "--input", "bundled"]) == 0
        err = capsys.readouterr().err
        assert "0 error(s)" in err

    def test_non_positive_time_exits_one_with_coordinates(self, bad_csv, capsys):
        assert main(["validate", "--input", str(bad_csv)]) == 1
        err = capsys.readouterr().err
        assert "row 3" in err and "t_s" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["validate", "--input", str(tmp_path / "nope.csv")]) == 2

    def test_output_is_unused(self, tmp_path, capsys):
        """validate reports on stderr; its --output names no file it writes."""
        dest = tmp_path / "F"
        assert main(["validate", "--input", "bundled", "--output", str(dest)]) == 0
        assert not dest.exists()
        assert capsys.readouterr().out == ""
        assert main(["validate", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal
        assert "--output OUTPUT unused: validate reports on stderr" in help_text

    def test_infinite_speed_fails_validate_and_report(self, tmp_path, capsys):
        p = tmp_path / "inf_speed.csv"
        p.write_text(VALID_HEADER + "\n" + GOOD_ROW + "\n"
                     "1,Drive,2,1e308,1e-308,374,1.22\n")
        assert main(["validate", "--input", str(p)]) == 1
        assert "row 3, column 'v_mps'" in capsys.readouterr().err
        assert main(["report", "--input", str(p)]) == 1

    def test_byte_order_mark_header_is_clean(self, tmp_path, capsys):
        p = tmp_path / "bom.csv"
        p.write_text("\ufeff" + bundled_text(), encoding="utf-8")
        assert main(["validate", "--input", str(p)]) == 0
        err = capsys.readouterr().err
        assert "36 valid trial(s)" in err and "0 error(s)" in err

    def test_a_first_block_that_breaks_the_rule_is_not_the_verdict(self, tmp_path, capsys):
        """The first 256 trials hold no lob and no boast; the whole file
        meets the rule, so validate and report both exit 0."""
        p = _shot_major(tmp_path / "shot_major.csv")
        assert main(["validate", "--input", str(p)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"{p}: 600 valid trial(s)", "0 error(s), 0 warning(s)"]
        assert main(["report", "--input", str(p), "--output", str(tmp_path / "r.json")]) == 0

    def test_a_break_after_the_first_block_is_every_commands_one_error(
            self, tmp_path, capsys):
        p = _shot_major(tmp_path / "one_boast_id.csv", one_boast_id=True)
        idb = derive_trial(TrialRecord(1, ShotKind.BOAST, 1, 586, 0.19, 374, 1.2)).id_bits
        message = (f"all 150 trials of shot Boast have ID {idb!r}; "
                   "every shot needs 2 trials with distinct IDs to fit its line")
        assert main(["validate", "--input", str(p)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"{p}: 600 valid trial(s)", "1 error(s), 0 warning(s)",
            f"  error: row 0, column 'shot': {message}"]
        for command in ("report", "figures"):
            out = tmp_path / command
            assert main([command, "--input", str(p), "--output", str(out)]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n"), command
            assert not out.exists()

    def test_clean_files_are_derived_without_derive_trial(self, tmp_path, capsys,
                                                         monkeypatch):
        """The rule's columns come from the derive kernel, a block of
        columns at a time, on a first block that passes and on a file read
        whole."""
        by_row = []
        monkeypatch.setattr(core, "derive_trial", lambda record: by_row.append(record))
        for source in ("bundled", str(_shot_major(tmp_path / "shot_major.csv"))):
            assert main(["validate", "--input", source]) == 0
        assert by_row == []


class TestDerive:
    def test_bundled_derivation_to_stdout(self, capsys):
        assert main(["derive", "--input", "bundled"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 37
        assert lines[0].endswith("v_mps,id_bits,ir_bps")
        assert lines[1].split(",")[-2] == "6.797671"

    def test_slowdown_rescales_ball_times(self, tmp_path, capsys):
        observed = tmp_path / "slowmo.csv"
        observed.write_text(VALID_HEADER + "\n1,Drive,1,586,1.97,374,1.22\n")
        assert main(["derive", "--input", str(observed), "--slowdown", "10"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[4]) == pytest.approx(0.197)

    def test_errors_propagate_as_exit_one(self, bad_csv, capsys):
        assert main(["derive", "--input", str(bad_csv)]) == 1

    def test_header_only_dataset_exits_one(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text(VALID_HEADER + "\n")
        assert main(["derive", "--input", str(p)]) == 1

    def test_output_to_file(self, tmp_path, capsys):
        dest = tmp_path / "derived.csv"
        assert main(["derive", "--input", "bundled",
                     "--output", str(dest)]) == 0
        assert len(dest.read_text().splitlines()) == 37


class TestStats:
    def test_two_decimal_display_both_levels(self, capsys):
        assert main(["stats", "--input", "bundled"]) == 0
        out = capsys.readouterr().out
        assert "# person x shot groups" in out
        assert "# shot groups" in out
        assert "person 1 / Drive" in out
        assert "mean_id=6.70" in out  # shot-level drives, 2-decimal display
        data_lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(data_lines) == 16

    def test_stats_work_without_all_four_shots(self, good_csv, capsys):
        assert main(["stats", "--input", str(good_csv)]) == 0
        out = capsys.readouterr().out
        assert "person 1 / Drive" in out and "person 1 / Drop" in out


class TestFit:
    def test_squash_fit_prints_full_precision(self, derived36, capsys):
        assert main(["fit", "--model", "squash", "--input", "bundled"]) == 0
        out = capsys.readouterr().out
        expected = ols_simple([(t.id_bits, t.movement_time_s)
                               for t in derived36])
        assert f"slope: {expected.slope!r}" in out
        assert f"intercept: {expected.intercept!r}" in out

    def test_exclude_shot_subset(self, capsys):
        assert main(["fit", "--model", "squash", "--input", "bundled",
                     "--exclude-shot", "drive"]) == 0
        out = capsys.readouterr().out
        assert "subset: exclude_drive" in out

    def test_unknown_model_exits_two_listing_names(self, capsys):
        assert main(["fit", "--model", "nosuch", "--input", "bundled"]) == 2
        err = capsys.readouterr().err
        for name in ("squash", "fitts", "mackenzie", "welford", "steering"):
            assert name in err

    def test_pointing_model_requires_pointing_csv(self, capsys):
        assert main(["fit", "--model", "welford", "--input", "bundled"]) == 2
        assert "amplitude,width,mt_s" in capsys.readouterr().err

    def test_welford_fit_on_planted_pointing_data(self, tmp_path, capsys):
        rows = ["amplitude,width,mt_s"]
        for i in range(12):
            amp = 2.0 + i
            wid = 0.5 + (i % 4) * 0.25
            mt = 0.3 + 0.1 * math.log2(amp) + 0.2 * math.log2(1 / wid)
            rows.append(f"{amp},{wid},{mt!r}")
        p = tmp_path / "pointing.csv"
        p.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--model", "welford", "--input", str(p)]) == 0
        out = capsys.readouterr().out
        a = float(out.splitlines()[1].split(":")[1])
        b1 = float(out.splitlines()[2].split(":")[1])
        b2 = float(out.splitlines()[3].split(":")[1])
        assert (a, b1, b2) == pytest.approx((0.3, 0.1, 0.2), abs=1e-9)

    def test_degenerate_fit_exits_one(self, tmp_path, capsys):
        p = tmp_path / "flat.csv"
        p.write_text("amplitude,width,mt_s\n2,1,0.5\n2,1,0.6\n2,1,0.7\n")
        assert main(["fit", "--model", "fitts", "--input", str(p)]) == 1

    @pytest.mark.parametrize("row,cells", [("2,1", 2), ("2,1,0.5,9", 4)])
    def test_pointing_row_with_wrong_cell_count(self, tmp_path, capsys,
                                                row, cells):
        p = tmp_path / "pointing.csv"
        p.write_text(f"amplitude,width,mt_s\n2,1,0.5\n{row}\n4,1,0.7\n")
        assert main(["fit", "--model", "fitts", "--input", str(p)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: row 3: expected 3 cells, got {cells}\n"

    def test_filters_that_exclude_every_trial_exit_one(self, tmp_path, capsys):
        p = tmp_path / "drives.csv"
        p.write_text(VALID_HEADER + "\n" + GOOD_ROW + "\n1,Drive,2,587,0.204,386,1.21\n")
        assert main(["fit", "--model", "squash", "--exclude-shot", "drive",
                     "--input", str(p)]) == 1
        assert capsys.readouterr().err == (
            "error: overall fit (exclude_drive): a line needs >= 2 points, got 0\n")

    def test_overall_fit_on_equal_ids_exits_one(self, tmp_path, capsys):
        p = tmp_path / "equal_ids.csv"
        p.write_text(VALID_HEADER + "\n" + GOOD_ROW + "\n1,Drive,2,586,0.197,374,1.21\n")
        assert main(["fit", "--model", "squash", "--input", str(p)]) == 1
        assert re.fullmatch(r"error: overall fit \(all\): all 2 predictor values equal "
                            r"\S+; no line is determined\n", capsys.readouterr().err)

    @pytest.mark.parametrize("model,rows,error", [
        ("squash", [VALID_HEADER] + [f"1,Drive,{i},501,0.197,374,{mt}"
                                     for i, mt in ((1, 1.22), (2, 1.31), (3, 1.40))],
         r"overall fit \(all\): all 3 predictor values equal \S+; no line is determined"),
        ("welford", ["amplitude,width,mt_s", "11,1,0.5", "11,2,0.42", "11,4,0.33"],
         r"predictor x1 is constant \(collinear with the intercept column\)"),
    ], ids=["squash", "welford"])
    def test_constant_predictor_exits_one(self, tmp_path, capsys, model, rows, error):
        x = (derive_trial(TrialRecord(1, "Drive", 1, 501, 0.197, 374, 1.22)).id_bits
             if model == "squash" else model_design_row(model, PointingTrial(11, 1, 0.5))[0])
        assert math.fsum([x] * 3) / 3 != x  # the mean misses the value by an ulp
        p = tmp_path / "constant.csv"
        p.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--model", model, "--input", str(p)]) == 1
        assert re.fullmatch(f"error: {error}\n", capsys.readouterr().err)

    def test_overall_fit_on_one_trial_exits_one_naming_the_fit(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text(VALID_HEADER + "\n" + GOOD_ROW + "\n")
        assert main(["fit", "--model", "squash", "--input", str(p)]) == 1
        assert capsys.readouterr().err == (
            "error: overall fit (all): a line needs >= 2 points, got 1\n")

    def test_squash_fit_works_without_all_four_shots(self, good_csv, capsys):
        # the file holds one drive and one drop; fit must not demand lobs
        assert main(["fit", "--model", "squash",
                     "--input", str(good_csv)]) == 0
        assert "slope:" in capsys.readouterr().out


class TestFigures:
    EXPECTED = [f"fig{n}_{name}" for n, name in
                ((4, "overall"), (5, "drives"), (6, "boasts"),
                 (7, "lobs"), (8, "drops"))]

    def test_writes_ten_files_with_documented_names(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        assert main(["figures", "--input", "bundled",
                     "--output", str(out_dir)]) == 0
        written = sorted(p.name for p in out_dir.iterdir())
        expected = sorted([n + ext for n in self.EXPECTED
                           for ext in (".svg", ".csv")])
        assert written == expected

    def test_lobs_fit_slope_positive_in_series_file(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        main(["figures", "--input", "bundled", "--output", str(out_dir)])
        comment = [l for l in (out_dir / "fig7_lobs.csv").read_text().splitlines()
                   if l.startswith("# fit")][0]
        slope = float(comment.split("mt_s = ")[1].split(" *")[0])
        assert slope > 0

    @pytest.mark.parametrize("edit", ["equal_id_drives", "one_drive"])
    def test_unfittable_shot_is_the_reports_one_error_line(self, tmp_path, capsys, edit):
        trials = bundled_dataset().trials
        drives = [t for t in trials if t.shot is ShotKind.DRIVE]
        rule = "every shot needs 2 trials with distinct IDs to fit its line"
        if edit == "equal_id_drives":  # drives keep their own movement times
            first = drives[0]
            trials = [t._replace(ball_distance_cm=first.ball_distance_cm,
                                 ball_time_s=first.ball_time_s,
                                 player_distance_cm=first.player_distance_cm)
                      if t.shot is ShotKind.DRIVE else t for t in trials]
            message = (f"all {len(drives)} trials of shot Drive have ID "
                       f"{derive_trial(first).id_bits!r}; {rule}")
        else:
            trials = [t for t in trials if t.shot is not ShotKind.DRIVE or t is drives[-1]]
            message = f"shot Drive has 1 trial(s); {rule}"
        p = tmp_path / "drives.csv"
        p.write_text(write_csv(Dataset(trials=tuple(trials))))
        for command in ("report", "figures"):
            out = tmp_path / command
            assert main([command, "--input", str(p), "--output", str(out)]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n"), command
            assert not out.exists()

    def test_the_rule_checks_the_id_columns_the_fits_read(self, tmp_path, capsys,
                                                         monkeypatch):
        """figures and report give require_fittable the per-shot ID lists
        that their per-shot fits read, and that their overall fit reads
        joined in shot order."""
        checked, fitted, id_columns = [], [], {}
        check, fit = core.require_fittable, stats.fit_columns
        for module in (cli, pipeline):
            monkeypatch.setattr(module, "require_fittable",
                                lambda columns: checked.append(columns) or check(columns))
        for module in (stats, pipeline):
            monkeypatch.setattr(module, "fit_columns",
                                lambda xs, ys: fitted.append(xs) or fit(xs, ys))
        for command in ("figures", "report"):
            checked.clear()
            fitted.clear()
            out = tmp_path / command
            assert main([command, "--input", "bundled", "--output", str(out)]) == 0
            [columns] = checked
            ids = [columns[kind][0] for kind in ShotKind]
            assert [len(column) for column in ids] == [9] * 4
            assert all(any(xs is column for xs in fitted) for column in ids)
            assert sum(ids, []) in fitted  # the overall line
            id_columns[command] = {kind: sorted(ids) for kind, (ids, _) in columns.items()}
        assert id_columns["figures"] == id_columns["report"]

    def test_idempotent_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["figures", "--input", "bundled", "--output", str(a)])
        main(["figures", "--input", "bundled", "--output", str(b)])
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestReport:
    def test_report_to_file_with_summary(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        assert main(["report", "--input", "bundled",
                     "--output", str(dest)]) == 0
        doc = json.loads(dest.read_text())
        assert doc["schema_version"] == "1.0"
        out = capsys.readouterr().out
        assert "cross-check" in out
        assert "PASS" in out

    def test_report_to_stdout_summary_to_stderr(self, capsys):
        assert main(["report", "--input", "bundled"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["dataset"]["n_trials"] == 36
        assert "cross-check" in captured.err

    def test_exclude_all_shots_exits_two(self, capsys):
        args = ["report", "--input", "bundled"]
        for s in ("drive", "drop", "lob", "boast"):
            args += ["--exclude-shot", s]
        assert main(args) == 2

    def test_non_positive_tolerance_exits_two(self, capsys):
        assert main(["report", "--input", "bundled",
                     "--tolerance", "0"]) == 2

    def test_cross_checks_built_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        build = pipeline.build_cross_checks
        monkeypatch.setattr(pipeline, "build_cross_checks",
                            lambda doc: calls.append(doc) or build(doc))
        assert main(["report", "--input", "bundled",
                     "--output", str(tmp_path / "report.json")]) == 0
        assert "cross-check" in capsys.readouterr().out
        assert len(calls) == 1

    def test_byte_order_mark_changes_only_the_source(self, tmp_path, capsys):
        reports = []
        for name, prefix in (("plain.csv", ""), ("bom.csv", "\ufeff")):
            source = tmp_path / name
            source.write_text(prefix + bundled_text(), encoding="utf-8")
            out = tmp_path / (name + ".json")
            assert main(["report", "--input", str(source),
                         "--output", str(out)]) == 0
            doc = json.loads(out.read_text(encoding="utf-8"))
            assert doc["dataset"]["metadata"].pop("source") == str(source)
            reports.append(doc)
        assert reports[0] == reports[1]
        assert reports[1]["cross_checks"]["applicable"] is True

    def test_idempotent(self, capsys):
        assert main(["report", "--input", "bundled"]) == 0
        first = capsys.readouterr().out
        assert main(["report", "--input", "bundled"]) == 0
        assert capsys.readouterr().out == first


class TestArgumentErrors:
    def test_no_subcommand_exits_two(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_shot_kind_exits_two(self, capsys):
        assert main(["report", "--input", "bundled",
                     "--exclude-shot", "smash"]) == 2

    @pytest.mark.parametrize("args", [
        ["derive", "--slowdown", "0"], ["derive", "--slowdown", "-1"],
        ["derive", "--slowdown", "nan"], ["derive", "--slowdown", "inf"],
        ["report", "--tolerance", "0"], ["report", "--tolerance", "-1"],
        ["report", "--tolerance", "nan"],
        ["report", "--slowdown", "1_0"], ["derive", "--slowdown", "\u0661\u0660"],
        ["derive", "--slowdown", "\uff18"], ["report", "--tolerance", "1_0"],
        ["report", "--tolerance", "inf"],
        ["figures", "--exclude-shot", "smash"],
        ["fit", "--model", "squash"] + [a for s in ("drive", "drop", "lob", "boast")
                                        for a in ("--exclude-shot", s)],
        ["fit", "--model", "nosuch"],
        ["fit", "--model", "fitts"],
    ], ids=["slowdown_zero", "slowdown_negative", "slowdown_nan", "slowdown_inf",
            "tolerance_zero", "tolerance_negative", "tolerance_nan",
            "slowdown_digit_separator", "slowdown_arabic_indic_digits",
            "slowdown_fullwidth_digit", "tolerance_digit_separator", "tolerance_inf",
            "unknown_shot", "all_shots_excluded", "unknown_model",
            "pointing_model_on_bundled"])
    def test_bad_flag_values_exit_two_before_any_work(self, args, capsys,
                                                       monkeypatch):
        def no_input(*_):
            raise AssertionError("input read despite a bad flag")
        monkeypatch.setattr("squashfitts.cli._read_input", no_input)
        monkeypatch.setattr("squashfitts.cli._read_text", no_input)
        assert main(args + ["--input", "bundled"]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        if "nosuch" in args:
            for name in ("squash", "fitts", "mackenzie", "welford", "steering"):
                assert name in err


NON_UTF8_COMMANDS = [["validate"], ["derive"], ["stats"], ["fit", "--model", "fitts"],
                     ["figures"], ["report"]]


class TestHostileInput:
    @pytest.mark.parametrize("command", NON_UTF8_COMMANDS,
                             ids=[c[0] for c in NON_UTF8_COMMANDS])
    def test_non_utf8_input_exits_two(self, tmp_path, capsys, command):
        p = tmp_path / "latin1.csv"
        p.write_bytes(VALID_HEADER.encode() + b"\n1,Caf\xe9,1,586,0.197,374,1.22\n")
        assert main(command + ["--input", str(p),
                               "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: not UTF-8 text (")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("movement_times", [("1e300",), ("5e-308", "5e-308")],
                             ids=["huge", "tiny_pair"])
    @pytest.mark.parametrize("command", ["validate", "report", "stats", "figures"])
    def test_movement_time_that_would_overflow_is_a_row_error(
            self, tmp_path, capsys, command, movement_times):
        rows = [f"{person},{shot},1,586,0.197,374,1.2{person}"
                for person in (1, 2) for shot in ("Drive", "Drop", "Lob", "Boast")]
        for i, mt in enumerate(movement_times):  # the drive rows, rows 2 and 6
            rows[4 * i] = rows[4 * i].rsplit(",", 1)[0] + "," + mt
        p = tmp_path / "trials.csv"
        p.write_text("\n".join([VALID_HEADER] + rows) + "\n")
        assert main([command, "--input", str(p),
                     "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "row 2, column 'mt_s': expected a value within" in err
        assert ("row 6, column 'mt_s'" in err) == (len(movement_times) == 2)

    @pytest.mark.parametrize("model", ["fitts", "welford"])
    @pytest.mark.parametrize("cell,message", [
        ("1e300", "expected a value within [1e-100, 1e+100], got 1e+300"),
        ("1" * 200_000, f"field larger than field limit ({csv.field_size_limit()})"),
    ], ids=["huge_mt", "oversized_cell"])
    def test_pointing_row_errors_exit_one(self, tmp_path, capsys, model,
                                          cell, message):
        p = tmp_path / "pointing.csv"
        p.write_text(f"amplitude,width,mt_s\n2,1,0.5\n4,0.5,{cell}\n8,1,0.9\n")
        assert main(["fit", "--model", model, "--input", str(p)]) == 1
        assert capsys.readouterr().err == f"error: row 3: {message}\n"


    def test_commands_agree_on_exit_codes_under_slowdown(self, tmp_path, capsys):
        # 1e-300 s / 1e10 leaves a ball speed that overflows
        p = tmp_path / "trials.csv"
        p.write_text(VALID_HEADER + "\n1,Drive,1,586,1e-300,374,1.22\n"
                     "1,Lob,1,616,0.4,300,1.5\n")
        for command in ("validate", "derive", "report"):
            assert main([command, "--input", str(p), "--slowdown", "1e10",
                         "--output", str(tmp_path / "out")]) == 1
            assert "row 2, column 'v_mps'" in capsys.readouterr().err

    def test_slow_motion_times_get_no_speed_warning(self, tmp_path, capsys):
        p = tmp_path / "slowmo.csv"
        p.write_text(VALID_HEADER + "\n1,Drive,1,586,19.7,374,1.22\n"
                     "1,Lob,1,616,39.5,300,1.5\n"  # and 2 trials of every shot:
                     "1,Drive,2,587,20.4,386,1.21\n1,Drop,1,615,39.5,355,1.06\n"
                     "1,Drop,2,614,37.75,352,1.09\n1,Lob,2,665,36.25,402,1.63\n"
                     "1,Boast,1,971,79.2,491,1.013\n1,Boast,2,980,73.2,360,1.208\n")
        assert main(["validate", "--input", str(p), "--slowdown", "10"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().err

    @pytest.mark.parametrize("widths", [("5e-324",) * 4, ("5e-324", "5e-324", "0.5", "0.25")],
                             ids=["all_tiny", "two_tiny"])
    @pytest.mark.parametrize("model", ["fitts", "mackenzie", "welford", "steering"])
    def test_infinite_pointing_design_value_exits_one(self, tmp_path, capsys,
                                                      model, widths):
        p = tmp_path / "pointing.csv"
        p.write_text("amplitude,width,mt_s\n" + "".join(
            f"{i + 1},{w},{0.5 + 0.1 * i}\n" for i, w in enumerate(widths)))
        assert main(["fit", "--model", model, "--input", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: model {model} design value [")
        assert "is not finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("model", ["fitts", "mackenzie", "welford", "steering"])
    def test_huge_pointing_design_value_exits_one(self, tmp_path, capsys, model):
        # steering's A/W = 5e307 is finite, but its squared deviation overflows
        p = tmp_path / "pointing.csv"
        p.write_text("amplitude,width,mt_s\n1e308,2,0.5\n1e308,4,0.6\n1e308,8,0.9\n")
        assert main(["fit", "--model", model, "--input", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if model == "steering":
            assert err == ("error: model steering design value [5e+307] exceeds "
                           "1e+100 in magnitude for amplitude=1e+308, width=2.0\n")


class TestLoadGate:
    """derive, stats, fit --model squash, report and figures share one
    load path: row errors print as validate formats them, and a file
    without trials is one error line, for validate too."""

    @pytest.mark.parametrize("command", [["validate"]] + ANALYSIS_COMMANDS,
                             ids=["validate"] + [c[0] for c in ANALYSIS_COMMANDS])
    def test_header_only_file_has_no_trials(self, tmp_path, capsys, command):
        p = tmp_path / "empty.csv"
        p.write_text(VALID_HEADER + "\n")
        assert main(command + ["--input", str(p),
                               "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", f"error: {p}: no trials\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ANALYSIS_COMMANDS,
                             ids=[c[0] for c in ANALYSIS_COMMANDS])
    def test_row_errors_print_as_formatted(self, bad_csv, tmp_path, capsys,
                                           command):
        expected = parse_csv(bad_csv.read_text())[1].format_text() + "\n"
        assert main(command + ["--input", str(bad_csv),
                               "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", expected)
        assert not (tmp_path / "out").exists()


class TestPointingFitInput:
    @pytest.mark.parametrize("flag", [["--slowdown", "10"], ["--exclude-shot", "drive"]],
                             ids=["slowdown", "exclude_shot"])
    @pytest.mark.parametrize("model", POINTING_MODELS)
    def test_squash_only_flags_exit_two_before_reading(self, tmp_path, capsys,
                                                        monkeypatch, model, flag):
        p = tmp_path / "pointing.csv"  # without the last row's A = 0
        p.write_text(POINTING_TEXT.rsplit("0,1,0.3\n", 1)[0])
        assert main(["fit", "--model", model, "--input", str(p)]) == 0
        capsys.readouterr()

        def no_input(*_):
            raise AssertionError("input read despite a bad flag")
        monkeypatch.setattr("squashfitts.cli._read_text", no_input)
        assert main(["fit", "--model", model, "--input", str(p)] + flag) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: model '{model}' ")
        assert "--slowdown" in err and "--exclude-shot" in err

    @pytest.mark.parametrize("model,rows", [
        (model, rows) for model in POINTING_MODELS
        for rows in range(3 if model == "welford" else 2)])
    def test_too_few_rows_name_the_model(self, tmp_path, capsys, model, rows):
        need = 3 if model == "welford" else 2
        message = f"model {model} needs >= {need} trials, got {rows}"
        lines = POINTING_TEXT.splitlines()[:rows + 1]
        p = tmp_path / "pointing.csv"
        p.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--model", model, "--input", str(p)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        trials = [PointingTrial(amplitude=2.0 ** i, width=1.0, movement_time_s=0.5 + i)
                  for i in range(rows)]
        with pytest.raises(UsageError) as exc:
            fit_model(model, trials)
        assert str(exc.value) == message


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "squashfitts", "validate", "--input", "bundled"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "0 error(s)" in proc.stderr


def _module_run(argv, stdout=subprocess.PIPE, unbuffered=False, **kwargs):
    """python -m squashfitts argv, stdout to the given file descriptor. Unless
    unbuffered, PYTHONUNBUFFERED is unset as in a normal shell: stdout is
    block-buffered and its last block is written only when the process flushes it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    package_root = str(pathlib.Path(cli.__file__).parents[1])  # found from any cwd
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "squashfitts", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120, **kwargs)


def test_console_script_and_module_call_one_entry():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    module, name = re.search(r'^squashfitts = "([\w.]+):(\w+)"$',
                             pyproject.read_text(), re.M).groups()
    entry_module = importlib.import_module("squashfitts.__main__")
    tree = ast.parse(inspect.getsource(entry_module))
    assert [node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)] == [name]
    assert getattr(importlib.import_module(module), name) is getattr(entry_module, name)


def test_entry_runs_main_without_gc_and_without_teardown():
    code = ("import atexit, gc, squashfitts.cli as cli\n"
            "atexit.register(print, 'teardown')\n"
            "cli.main = lambda: print('gc enabled:', gc.isenabled()) or 1\n"
            "cli.console_main()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"gc enabled: False\n", b"")


def test_main_leaves_the_gc_enabled(capsys):
    assert main(["stats"]) == 0
    assert gc.isenabled()


@pytest.mark.parametrize("argv,code", [
    (["report", "--input", "bundled", "--output", "report.json"], 0),
    (["--help"], 0),
    (["validate", "--input", "drives_lobs.csv"], 1),
    (["report", "--input", "bundled", "--slowdown", "1_0"], 2)])
def test_module_entry_gives_what_main_gives(tmp_path, capsys, monkeypatch, argv,
                                            code):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    (tmp_path / "drives_lobs.csv").write_text(
        VALID_HEADER + "\n" + GOOD_ROW + "\n1,Drive,2,587,0.204,386,1.21\n"
        "1,Lob,1,686,0.3125,380,1.89\n1,Lob,2,665,0.3625,402,1.63\n")
    written = tmp_path / "report.json"
    proc = _module_run(argv, cwd=tmp_path)
    child_report = written.read_bytes() if "--output" in argv else None
    assert main(argv) == proc.returncode == code
    out, err = capsys.readouterr()
    assert (proc.stdout, proc.stderr) == (out.encode(), err.encode())
    if child_report is not None:
        for report in (child_report, written.read_bytes()):
            assert (hashlib.sha256(report).hexdigest()
                    == oracles.FROZEN_BUNDLED_REPORT_SHA256["default"])
    if argv == ["--help"]:
        assert out.startswith("usage: squashfitts") and all(
            name in out for name in ("validate", "derive", "stats", "fit", "figures"))


def test_report_of_a_non_utf8_path_is_utf8_json(tmp_path):
    """A path whose bytes are not UTF-8 is named in the report with \\x
    escapes: the file and stdout get the same bytes, valid UTF-8 JSON."""
    try:
        name = os.fsdecode(b"bad\xff.csv")
        (tmp_path / name).write_text(bundled_text(), encoding="utf-8")
    except (OSError, UnicodeError):
        pytest.skip("the filesystem refuses a non-UTF-8 file name")
    to_file = _module_run(["report", "--input", name, "--output", "r.json"], cwd=tmp_path)
    to_stdout = _module_run(["report", "--input", name], cwd=tmp_path)
    assert (to_file.returncode, to_stdout.returncode) == (0, 0)
    written = (tmp_path / "r.json").read_bytes()
    assert to_stdout.stdout == written
    doc = json.loads(written.decode("utf-8"))
    assert doc["dataset"]["metadata"]["source"] == "bad\\xff.csv"


def test_figures_to_a_non_utf8_directory_lists_it_on_strict_stdout(tmp_path, monkeypatch):
    """figures lists the files it wrote with the report's \\x spelling, so a
    strict UTF-8 stdout takes the list: exit 0, not a traceback."""
    try:
        out = os.fsdecode(b"out\xff")
        (tmp_path / out).mkdir()
    except (OSError, UnicodeError):
        pytest.skip("the filesystem refuses a non-UTF-8 file name")
    monkeypatch.setenv("PYTHONIOENCODING", "utf-8")  # errors="strict" on stdout
    proc = _module_run(["figures", "--input", "bundled", "--output", out], cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    listed = proc.stdout.decode("utf-8").splitlines()
    assert len(listed) == 10 and os.path.join("out\\xff", "fig4_overall.svg") in listed
    assert len(os.listdir(tmp_path / out)) == 10


@pytest.mark.parametrize("content, code, line", [
    (bundled_text().encode(), 0, "in\\xff.csv: 36 valid trial(s)\n"),
    (VALID_HEADER.encode() + b"\n", 1, "error: in\\xff.csv: no trials\n"),
    (VALID_HEADER.encode() + b"\n1,Caf\xe9,1,586,0.197,374,1.22\n", 2,
     "error: in\\xff.csv: not UTF-8 text ("),
], ids=["valid", "no_trials", "not_utf8"])
def test_validate_spells_a_non_utf8_path_as_the_report_does(tmp_path, content, code, line):
    try:
        name = os.fsdecode(b"in\xff.csv")
        (tmp_path / name).write_bytes(content)
    except (OSError, UnicodeError):
        pytest.skip("the filesystem refuses a non-UTF-8 file name")
    proc = _module_run(["validate", "--input", name], cwd=tmp_path)
    err = proc.stderr.decode("utf-8")
    assert proc.returncode == code
    assert err.startswith(line) and "\\udcff" not in err


@contextlib.contextmanager
def _unwritable(sink):
    """A file descriptor whose writes fail: /dev/full (ENOSPC), or the write
    end of a pipe whose read end is closed (EPIPE)."""
    if sink == "/dev/full":
        if not os.path.exists(sink):
            pytest.skip("no /dev/full on this system")
        with open(sink, "wb") as fh:
            yield fh.fileno()
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            yield write_end
        finally:
            os.close(write_end)


@pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
@pytest.mark.parametrize("argv", [
    ["stats"], ["fit", "--model", "squash"],  # output that fits stdout's buffer,
    ["report", "--input", "bundled", "--output", "report.json"],  # flushed at exit
    ["report", "--input", "bundled"]])  # a write that fails while the command runs
def test_unwritable_stdout_exits_two_with_one_error_line(tmp_path, argv, sink):
    with _unwritable(sink) as fd:
        proc = _module_run(argv, stdout=fd, cwd=tmp_path)
    assert proc.returncode == 2
    assert re.fullmatch(rb"error: \[Errno \d+\] [^\n]+\n", proc.stderr), proc.stderr


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 between fork and exec")
def test_entry_runs_without_stdout():
    """A process started with fd 1 closed has sys.stdout None; validate
    writes only to stderr and still exits 0."""
    proc = _module_run(["validate"], stdout=None, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (
        0, b"bundled: 36 valid trial(s)\n0 error(s), 0 warning(s)\n")


#: Exit codes of each subcommand on the bundled data when the process starts
#: with fd 1 closed and with fd 2 closed: a command that cannot write its
#: output (stdout, or validate's stderr) exits 2.
MISSING_STREAM_CODES = {
    ("validate",): (0, 2), ("derive",): (2, 0), ("stats",): (2, 0),
    ("fit", "--model", "squash"): (2, 0), ("figures", "--output", "figs"): (2, 0),
    ("report",): (2, 2)}


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 or 2 between fork and exec")
@pytest.mark.parametrize("fd", [1, 2], ids=["fd1_closed", "fd2_closed"])
@pytest.mark.parametrize("argv,codes", MISSING_STREAM_CODES.items(),
                         ids=[argv[0] for argv in MISSING_STREAM_CODES])
def test_missing_standard_stream_keeps_the_exit_contract(tmp_path, argv, codes, fd):
    proc = _module_run([*argv, "--input", "bundled"], cwd=tmp_path,
                       preexec_fn=lambda: os.close(fd))
    assert proc.returncode == codes[fd - 1]  # 0, 1 or 2, never a traceback's 1
    assert b"Traceback" not in (proc.stderr if fd == 1 else proc.stdout)
    if fd == 1 and proc.returncode == 2:
        assert proc.stderr == b"error: not writable\n"


HELP_ARGVS = [["--help"], ["report", "--help"]]


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 between fork and exec")
@pytest.mark.parametrize("sink,unbuffered", [
    ("fd1_closed", False), ("/dev/full", False), ("/dev/full", True)],
    ids=["fd1_closed", "dev_full_buffered", "dev_full_unbuffered"])
@pytest.mark.parametrize("argv", HELP_ARGVS, ids=["help", "report_help"])
def test_unwritable_help_exits_two_with_one_error_line(tmp_path, argv, sink, unbuffered):
    """argparse drops the OSError of a failed help write; main's parser
    does not, so help that cannot be written exits 2 as other output does."""
    if sink == "fd1_closed":
        proc = _module_run(argv, cwd=tmp_path, preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (2, b"error: not writable\n")
    else:
        with _unwritable(sink) as fd:
            proc = _module_run(argv, stdout=fd, unbuffered=unbuffered, cwd=tmp_path)
        assert proc.returncode == 2
        assert re.fullmatch(rb"error: \[Errno \d+\] [^\n]+\n", proc.stderr), proc.stderr


@pytest.mark.parametrize("argv", HELP_ARGVS, ids=["help", "report_help"])
def test_help_to_read_only_stdout_returns_two(monkeypatch, capsys, argv):
    with open(os.devnull) as read_only:
        monkeypatch.setattr(sys, "stdout", read_only)
        assert main(argv) == 2
    assert capsys.readouterr().err == "error: not writable\n"


def test_help_that_can_be_written_exits_zero(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    with open(os.devnull, "wb") as null:
        proc = _module_run(["--help"], stdout=null, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    with open(tmp_path / "help.txt", "wb") as fh:
        proc = _module_run(["--help"], stdout=fh, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (tmp_path / "help.txt").read_text() == cli._build_parser().format_help()


def test_unwritable_stderr_keeps_the_exit_code(monkeypatch, bad_csv, capsys):
    """main's own stderr writes cannot raise: the code is the contract's."""
    with open(os.devnull) as read_only:
        monkeypatch.setattr(sys, "stderr", read_only)
        assert main(["validate"]) == 2  # its output cannot be written
        assert main(["derive", "--input", str(bad_csv)]) == 1
        assert main(["stats", "--input", str(bad_csv) + ".missing"]) == 2
        assert main(["fit", "--model", "fitts", "--input", "bundled"]) == 2


#: Values of --slowdown and --tolerance for the argv fuzz below: those in
#: the number grammar of the CSV cells and finite and > 0, and the rest.
ACCEPTED_NUMBERS = (" 10 ", "+1e1", ".5", "1e-300")
@pytest.fixture(scope="module")
def doc_10k():
    """run_analysis of 10k seeded trials: 10 persons x 4 shots x 250 trials."""
    rng = random.Random(21)
    trials = [TrialRecord(person, shot, trial, rng.uniform(400, 800), rng.uniform(0.15, 0.5),
                          rng.uniform(250, 450), rng.uniform(0.8, 2.0))
              for person in range(1, 11) for shot in ShotKind for trial in range(1, 251)]
    return pipeline.run_analysis(Dataset(trials))


def _traced_write(path, make_chunks) -> int:
    """Bytes by which cli._write(path, make_chunks()) raises the traced peak."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._write(str(path), make_chunks())
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestStreamedWrites:
    """report and figures write their files chunk by chunk, after every check."""

    def test_report_write_holds_no_whole_report(self, tmp_path, doc_10k):
        path = tmp_path / "report.json"
        rise = _traced_write(path, lambda: pipeline._report_chunks(doc_10k))
        assert path.stat().st_size > 3_000_000 and rise < 2 ** 20
        assert path.read_text(encoding="utf-8") == pipeline.render_report_json(doc_10k)

    def test_svg_write_holds_no_whole_figure(self, tmp_path, doc_10k):
        path = tmp_path / "fig4_overall.svg"
        series = pipeline.figure_series(doc_10k, 4)
        rise = _traced_write(path, lambda: plot._svg_chunks(series))
        assert path.stat().st_size > 500_000 and rise < 2 ** 20
        assert path.read_text(encoding="utf-8") == plot.emit_svg(series)

    def test_report_to_stdout_equals_report_file(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        assert main(["report", "--input", "bundled", "--output", str(dest)]) == 0
        capsys.readouterr()
        assert main(["report", "--input", "bundled"]) == 0
        assert capsys.readouterr().out == dest.read_text(encoding="utf-8")

    @pytest.mark.parametrize("output", ["report.json", "-"])
    def test_failed_report_check_leaves_the_target_alone(self, tmp_path, capsys,
                                                          monkeypatch, output):
        def refuse(report):
            raise UsageError("tail refused")
        monkeypatch.setattr(pipeline, "_tail_dict", refuse)
        dest = tmp_path / "report.json"
        dest.write_bytes(b"old report")
        output = output if output == "-" else str(dest)
        assert main(["report", "--input", "bundled", "--output", output]) == 1
        assert dest.read_bytes() == b"old report"
        assert capsys.readouterr() == ("", "error: tail refused\n")

    @pytest.mark.parametrize("check", ["_label", "_fit_comment"])  # the SVG's, the CSV's
    def test_failed_figure_check_leaves_both_files_alone(self, tmp_path, capsys,
                                                         monkeypatch, check):
        def refuse(series):
            raise UsageError("figure refused")
        monkeypatch.setattr(plot, check, refuse)
        out_dir = tmp_path / "figs"
        out_dir.mkdir()
        for ext in (".svg", ".csv"):
            (out_dir / ("fig4_overall" + ext)).write_bytes(b"old figure")
        assert main(["figures", "--input", "bundled", "--output", str(out_dir)]) == 1
        assert sorted(p.name for p in out_dir.iterdir()) == ["fig4_overall.csv",
                                                             "fig4_overall.svg"]
        for ext in (".svg", ".csv"):
            assert (out_dir / ("fig4_overall" + ext)).read_bytes() == b"old figure"
        assert capsys.readouterr() == ("", "error: figure refused\n")


REFUSED_NUMBERS = ("1_0", "\u0661", "\uff18", "0", "-1", "nan", "inf", "-inf",
                   "1e400", "0x10", "")

#: A pointing-task CSV for the fuzz below.
POINTING_TEXT = ("amplitude,width,mt_s\n2,1,0.5\n4,1,0.62\n8,1,0.71\n"
                 "4,0.5,0.69\n8,0.5,0.8\n16,2,0.74\n0,1,0.3\n")


class TestFuzzedCliContract:
    """Seeded hostile-input fuzz of the CLI contract: the bundled and a
    pointing CSV after 1-6 cell or row edits (whole shots deleted among
    them), under a random --slowdown."""

    def _run(self, capsys, argv) -> int:
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, (argv, err)
        if code == 1:
            assert "error:" in err, argv
            for name in ("ols_simple", "ols_two_predictor", "write_csv", "group_stats"):
                assert name not in err, (argv, err)
        return code

    def test_validate_exit_zero_means_every_analysis_runs(self, tmp_path, capsys):
        rng = random.Random(0x5C0A5)
        trial_lines = bundled_text().splitlines()
        pointing_lines = POINTING_TEXT.splitlines()
        path = str(tmp_path / "fuzzed.csv")
        accepted = 0
        for _ in range(100):
            lines = list(trial_lines)
            deletions = rng.randint(0, 2)
            for _ in range(deletions):  # a whole shot, or one trial
                if rng.random() < 0.3:
                    shot = rng.choice(("Drive", "Drop", "Lob", "Boast"))
                    lines = [line for line in lines if f",{shot}," not in line]
                elif len(lines) > 1:
                    del lines[rng.randrange(1, len(lines))]
            if deletions and rng.random() < 0.5:
                text = "\n".join(lines) + "\n"
            else:  # 1-4 cell or row edits
                text = _fuzzed(rng, lines)
            parse_csv(text, slowdown_factor=rng.choice((1.0, 10.0)))
            parse_pointing_csv(text)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            slowdown = rng.choice(([], [], ["--slowdown", "10"],
                                   ["--slowdown", "1e-300"], ["--slowdown", "0.5"]))
            args = ["--input", path] + slowdown
            valid = self._run(capsys, ["validate"] + args) == 0
            accepted += valid
            for command in ANALYSIS_COMMANDS:
                out = str(tmp_path / command[0])  # a file, or figures' directory
                code = self._run(capsys, command + args + ["--output", out])
                assert code == 0 or not valid, (command, slowdown, text)
        for _ in range(40):
            text = _fuzzed(rng, pointing_lines)
            parse_csv(text)
            parse_pointing_csv(text)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            for model in POINTING_MODELS:
                self._run(capsys, ["fit", "--model", model, "--input", path])
        assert 20 < accepted < 80
        # the smallest inputs: a trial file without trials, 0-2 pointing rows
        for text in [VALID_HEADER + "\n"] + ["\n".join(pointing_lines[:rows + 1]) + "\n"
                                           for rows in range(3)]:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            for command in [["validate"]] + ANALYSIS_COMMANDS + [
                    ["fit", "--model", model] for model in POINTING_MODELS]:
                out = str(tmp_path / command[0])
                self._run(capsys, command + ["--input", path, "--output", out])

    def test_fuzzed_argv_exits_by_contract(self, tmp_path, capsys, monkeypatch):
        """Flags of the six subcommands repeated, reordered, dropped or left
        without their value, on bundled input; a refused number exits 2."""
        monkeypatch.chdir(tmp_path)  # figures writes into its --output
        numbers = ACCEPTED_NUMBERS * 3 + REFUSED_NUMBERS  # about half refused
        values = {"--slowdown": numbers, "--tolerance": numbers,
                  "--output": ("-", "out"),
                  "--exclude-shot": ("drive", "Lob", "boast", "smash"),
                  "--model": ("squash", "squash", "fitts", "nosuch")}
        flags = {"validate": [], "derive": [], "stats": [],
                 "fit": ["--model", "--exclude-shot"],
                 "figures": ["--exclude-shot"],
                 "report": ["--exclude-shot", "--tolerance"]}
        rng = random.Random(0xA26F)
        codes = set()
        for _ in range(200):
            command = rng.choice(sorted(flags))
            pairs = [[flag, rng.choice(values[flag])]
                     for flag in ["--slowdown", "--output"] + flags[command]
                     for _ in range(rng.choice((0, 1, 1, 2)))]
            rng.shuffle(pairs)
            if pairs and rng.random() < 0.15:
                del rng.choice(pairs)[1:]  # a flag without its value
            argv = [command, "--input", "bundled"] + [a for pair in pairs for a in pair]
            code = self._run(capsys, argv)
            codes.add(code)
            if any(len(pair) == 1 or pair[1] in REFUSED_NUMBERS for pair in pairs):
                assert code == 2, argv
        assert {0, 2} <= codes  # runs that succeed and runs that are refused
