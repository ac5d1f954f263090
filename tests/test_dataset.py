from __future__ import annotations

import copy
import csv
import itertools
import math
import pickle
import random

import pytest

from squashfitts import (Dataset, DomainError, ShotKind, TrialRecord,
                         UsageError, derive_trial, index_of_difficulty,
                         parse_csv, write_csv)
from squashfitts import dataset as dataset_module
from squashfitts.core import _court_warnings, speed_and_product
from squashfitts.dataset import (BUNDLED_TRIALS, DERIVED_COLUMNS,
                                 MOVEMENT_TIME_RANGE_S, REQUIRED_COLUMNS,
                                 bundled_text)
from squashfitts.published import (DERIVATION_TOLERANCE, PublishedRow, PublishedValue,
                                   published_rows)
from squashfitts.variants import parse_pointing_csv

import oracles

VALID_HEADER = ",".join(REQUIRED_COLUMNS)


class TestBundledDataset:
    def test_shape(self, bundled):
        assert len(bundled) == BUNDLED_TRIALS == 36
        assert {t.person_id for t in bundled.trials} == {1, 2, 3}
        per_person_shot = {}
        for t in bundled.trials:
            per_person_shot.setdefault((t.person_id, t.shot), []).append(t)
        assert len(per_person_shot) == 12
        assert all(len(v) == 3 for v in per_person_shot.values())

    def test_final_row_verbatim(self, bundled):
        last = bundled.trials[-1]
        assert last.key == (3, ShotKind.BOAST, 3)
        assert last.ball_distance_cm == 969
        assert last.ball_time_s == 1.08
        assert last.player_distance_cm == 490
        assert last.movement_time_s == 1.44

    def test_printed_precision_preserved(self, bundled):
        # mixed printed precision survives transcription (e.g. mt 1.013)
        boast1 = next(t for t in bundled.trials
                      if t.key == (1, ShotKind.BOAST, 1))
        assert boast1.movement_time_s == 1.013

    def test_matches_oracle_transcription(self, bundled):
        by_key = {t.key: t for t in bundled.trials}
        assert len(by_key) == len(oracles.TABLE_RAW)
        for row in oracles.TABLE_RAW:
            person, shot, trial, db, t_s, _, dp, _, mt, _ = row
            rec = by_key[(person, ShotKind.parse(shot), trial)]
            assert rec.ball_distance_cm == float(db)
            assert rec.ball_time_s == float(t_s)
            assert rec.player_distance_cm == float(dp)
            assert rec.movement_time_s == float(mt)

    def test_parses_cleanly_with_metadata(self, bundled):
        assert bundled.metadata["slowdown_factor"] == "10"
        dataset, report = parse_csv(bundled_text())
        assert report.ok
        assert report.warnings == []
        assert dataset.trials == bundled.trials

    def test_printed_rows_follow_the_bundled_trials(self, bundled):
        rows = published_rows()
        assert [(r.person_id, r.shot, r.trial_index) for r in rows] == [
            t.key for t in bundled.trials]

    def test_printed_rows_match_the_parsed_trials(self, bundled):
        """Each printed row, rebuilt from the parsed trial of its line and
        the printed cells of that line."""
        records = list(csv.reader(bundled_text().splitlines()))
        col = {name: i for i, name in enumerate(records[0])}
        want = []
        for trial, cells in zip(bundled.trials, records[1:], strict=True):
            v, idb, ir = (PublishedValue.of(cells[col[name]]) for name in DERIVED_COLUMNS)
            implied_id = math.log2(v.value * (trial.player_distance_cm / 100.0))
            consistent = abs(implied_id - idb.value) <= idb.half_step + DERIVATION_TOLERANCE
            want.append(PublishedRow(*trial.key, v, idb, ir, consistent))
        assert published_rows() == want
        assert [r.self_consistent for r in want].count(False) == 1


class TestParseCsv:
    def test_empty_input(self):
        dataset, report = parse_csv("")
        assert not report.ok
        assert report.errors[0][1] == "header"
        assert "no header" in report.errors[0][2]

    @pytest.mark.parametrize("text", ["", "person,shot\n", VALID_HEADER + "\n"],
                             ids=["empty", "bad_header", "header_only"])
    def test_metadata_is_kept_without_trials(self, text):
        notes = {"source": "x"}
        dataset, _ = parse_csv(text, notes)
        assert (dataset.trials, dataset.metadata) == ((), notes)
        assert dataset.metadata is not notes

    def test_missing_required_column(self):
        text = "person,shot,trial,db_cm,t_s,dp_cm\n1,Drive,1,586,0.197,374\n"
        _, report = parse_csv(text)
        assert any(col == "mt_s" and "missing" in msg
                   for _, col, msg in report.errors)

    def test_renamed_column_reports_both_sides(self):
        text = ("person,shot,trial,db_cm,time_s,dp_cm,mt_s\n"
                "1,Drive,1,586,0.197,374,1.22\n")
        _, report = parse_csv(text)
        cols = {col for _, col, _ in report.errors}
        assert "t_s" in cols and "time_s" in cols

    def test_columns_out_of_order(self):
        header = "shot,person,trial,db_cm,t_s,dp_cm,mt_s"
        dataset, report = parse_csv(header + "\nDrive,1,1,586,0.197,374,1.22\n")
        assert dataset.trials == () and report.errors == [
            (1, "header", f"columns out of order: expected {VALID_HEADER} first, got {header}")]

    def test_zero_ball_time_is_row_error_with_coordinates(self):
        text = (VALID_HEADER + "\n"
                "1,Drive,1,586,0.197,374,1.22\n"
                "1,Drive,2,587,0,386,1.21\n")
        dataset, report = parse_csv(text)
        assert [(r, c) for r, c, _ in report.errors] == [(3, "t_s")]
        assert len(dataset) == 1  # the good row still parses

    def test_non_numeric_cell(self):
        text = VALID_HEADER + "\n1,Drive,1,fast,0.197,374,1.22\n"
        _, report = parse_csv(text)
        assert [(r, c) for r, c, _ in report.errors] == [(2, "db_cm")]

    @pytest.mark.parametrize("cell", ["1_0", "5_00", "\uff18", "\u0661"])
    def test_digit_separators_and_non_ascii_digits_are_row_errors(self, cell):
        # int and float accept "1_0", a full-width 8 and an Arabic-Indic 1
        rows = [f"{cell},Drive,1,586,0.197,374,1.22",
                f"1,Drive,{cell},586,0.197,374,1.22",
                f"1,Drive,2,{cell},0.197,374,1.22",
                "1,Drive,3,586,0.197,374,1.22"]
        dataset, report = parse_csv(VALID_HEADER + "\n" + "\n".join(rows) + "\n")
        assert report.errors == [(2, "person", f"expected an integer, got {cell!r}"),
                                 (3, "trial", f"expected an integer, got {cell!r}"),
                                 (4, "db_cm", f"expected a number, got {cell!r}")]
        assert [t.trial_index for t in dataset.trials] == [3]
        trials, report = parse_pointing_csv(
            f"{POINTING_HEADER}\n{cell},1,0.5\n2,1,0.5\n")
        assert report.errors == [(2, "amplitude", f"expected a number, got {cell!r}")]
        assert [t.amplitude for t in trials] == [2.0]

    def test_ascii_sign_fraction_and_exponent_still_parse(self):
        text = VALID_HEADER + "\n +1 ,Drive,0002,5.86E2,.197,+374.,1.22e0\n"
        dataset, report = parse_csv(text)
        assert report.ok
        assert dataset.trials == (TrialRecord(1, ShotKind.DRIVE, 2, 586.0, 0.197,
                                              374.0, 1.22),)

    def test_unknown_shot_label(self):
        text = VALID_HEADER + "\n1,Smash,1,586,0.197,374,1.22\n"
        _, report = parse_csv(text)
        assert [(r, c) for r, c, _ in report.errors] == [(2, "shot")]

    def test_duplicate_trial_key(self):
        text = (VALID_HEADER + "\n"
                "1,Drive,1,586,0.197,374,1.22\n"
                "1,drive,1,580,0.198,454,1.23\n")
        dataset, report = parse_csv(text)
        assert len(dataset) == 1
        assert [(r, c) for r, c, _ in report.errors] == [(3, "trial")]
        assert "duplicate" in report.errors[0][2]

    def test_shot_labels_case_insensitive(self):
        text = VALID_HEADER + "\n1,dRiVe,1,586,0.197,374,1.22\n"
        dataset, report = parse_csv(text)
        assert report.ok
        assert dataset.trials[0].shot is ShotKind.DRIVE

    def test_derived_columns_ignored_on_input(self):
        base = VALID_HEADER + "\n1,Drive,1,586,0.197,374,1.22\n"
        with_derived = (",".join(REQUIRED_COLUMNS + DERIVED_COLUMNS) + "\n"
                        "1,Drive,1,586,0.197,374,1.22,999,999,999\n")
        plain, _ = parse_csv(base)
        decorated, report = parse_csv(with_derived)
        assert report.ok
        assert decorated.trials == plain.trials

    def test_implausible_rows_warn_but_parse(self):
        text = VALID_HEADER + "\n1,Drive,1,586,0.197,800,1.22\n"
        dataset, report = parse_csv(text)
        assert report.ok
        assert len(dataset) == 1
        assert len(report.warnings) == 1
        assert report.warnings[0][0] == 2

    def test_crlf_line_endings(self):
        text = VALID_HEADER.replace("\n", "") + "\r\n1,Drive,1,586,0.197,374,1.22\r\n"
        dataset, report = parse_csv(text)
        assert report.ok
        assert len(dataset) == 1

    def test_quoted_cells(self):
        text = (",".join(f'"{c}"' for c in REQUIRED_COLUMNS) + "\n"
                '"1","Drive","1","586","0.197","374","1.22"\n')
        dataset, report = parse_csv(text)
        assert report.ok
        assert dataset.trials[0].ball_time_s == 0.197

    def test_parsing_is_total_on_junk(self):
        rng = random.Random(99)
        alphabet = "abc,123.-\n\"';\t xyz"
        for _ in range(200):
            junk = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
            dataset, report = parse_csv(junk)  # must never raise
            assert report.ok or report.errors

    @pytest.mark.parametrize("db_cm,t_s,dp_cm,column", [
        ("5e-324", "1e308", "374", "v_mps"),   # speed underflows to 0
        ("1e308", "1e-308", "374", "v_mps"),   # speed overflows to inf
        ("1e-300", "1", "1e-300", "id_bits"),  # v*D underflows to 0
        ("1e308", "1", "1e308", "id_bits"),    # v*D overflows to inf
    ])
    def test_underivable_speed_or_difficulty_is_row_error(
            self, db_cm, t_s, dp_cm, column):
        text = (VALID_HEADER + f"\n1,Drive,1,{db_cm},{t_s},{dp_cm},1.22\n"
                "1,Drive,2,586,0.197,374,1.22\n")
        dataset, report = parse_csv(text)
        assert [(row, col) for row, col, _ in report.errors] == [(2, column)]
        assert [t.trial_index for t in dataset.trials] == [2]
        derive_trial(dataset.trials[0])
        if column == "id_bits":  # the row and the library state one rule
            v = (float(db_cm) / 100.0) / float(t_s)
            with pytest.raises(DomainError) as exc:
                index_of_difficulty(v, float(dp_cm) / 100.0)
            assert report.errors[0][2] == str(exc.value)
            assert exc.value.field == column

    def test_byte_order_mark_is_skipped(self):
        plain_ds, plain = parse_csv(bundled_text())
        bom_ds, bom = parse_csv("\ufeff" + bundled_text())
        assert bom.ok and len(bom_ds) == BUNDLED_TRIALS
        assert (bom_ds.trials, bom.errors, bom.warnings) == (
            plain_ds.trials, plain.errors, plain.warnings)

    def test_only_one_byte_order_mark_is_skipped(self):
        _, report = parse_csv("\ufeff\ufeff" + bundled_text())
        assert report.errors[:1] == [(1, "person", "missing required column")]

    def test_oversized_cell_is_row_error(self):
        limit = csv.field_size_limit()
        text = (VALID_HEADER + "\n1,Drive,1,586,0.197,374," + "1" * 200_000
                + "\n1,Drive,2,586,0.197,374,1.22\n")
        dataset, report = parse_csv(text)
        assert report.errors == [
            (2, "row", f"field larger than field limit ({limit})")]
        assert [t.trial_index for t in dataset.trials] == [2]
        assert csv.field_size_limit() == limit

    @pytest.mark.parametrize("mt_s", ["1e300", "1.01e100", "9e-101", "5e-308"])
    def test_movement_time_out_of_range_is_row_error(self, mt_s):
        text = (VALID_HEADER + f"\n1,Drive,1,586,0.197,374,{mt_s}\n"
                "1,Drive,2,586,0.197,374,1.22\n")
        dataset, report = parse_csv(text)
        assert report.errors == [
            (2, "mt_s", "expected a value within [1e-100, 1e+100], "
                        f"got {float(mt_s)!r}")]
        assert [t.trial_index for t in dataset.trials] == [2]

    def test_movement_time_range_ends_are_accepted(self):
        lo, hi = MOVEMENT_TIME_RANGE_S
        text = (VALID_HEADER + f"\n1,Drive,1,586,0.197,374,{lo!r}\n"
                f"1,Drive,2,586,0.197,374,{hi!r}\n")
        assert parse_csv(text)[1].errors == []

    def test_refused_row_lists_each_refused_cell_once_in_column_order(self):
        report = parse_csv(VALID_HEADER + "\nx,Serve,0,inf,-1,1_0,1e300\n")[1]
        assert report.errors == [
            (2, "person", "expected an integer, got 'x'"),
            (2, "shot", "unknown shot label 'Serve' (expected one of: "
                        "Drive, Drop, Lob, Boast)"),
            (2, "trial", "expected a positive integer, got 0"),
            (2, "db_cm", "expected a finite number, got 'inf'"),
            (2, "t_s", "measurements must be > 0, got -1.0"),
            (2, "dp_cm", "expected a number, got '1_0'"),
            (2, "mt_s", "expected a value within [1e-100, 1e+100], got 1e+300"),
        ]

    def test_divided_ball_time_that_overflows_is_its_cells_error(self):
        text = VALID_HEADER + "\n1,Drive,1,586,1e10,374,1.22\n"
        report = parse_csv(text, slowdown_factor=1e-300)[1]
        assert report.errors == [(2, "t_s", "t_s / 1e-300 must be finite and > 0, got inf")]

    def test_slowdown_divides_ball_times_before_the_checks(self):
        # t_s read off 10x slow motion: 2.97 and 1.56 m/s in real time
        text = (VALID_HEADER + "\n1,Drive,1,586,19.7,374,1.22\n"
                "1,Lob,1,616,39.5,300,1.5\n")
        assert len(parse_csv(text)[1].warnings) == 3
        dataset, report = parse_csv(text, slowdown_factor=10.0)
        assert report.ok and report.warnings == []
        assert [t.ball_time_s for t in dataset.trials] == [19.7 / 10, 39.5 / 10]

    @pytest.mark.parametrize("t_s,factor,column", [
        ("1e-300", 1e10, "v_mps"),  # the speed overflows
        ("1e-300", 1e300, "t_s"),   # the ball time underflows to 0
        ("1e300", 1e-10, "t_s"),    # the ball time overflows
    ])
    def test_slowdown_that_leaves_no_finite_speed_is_row_error(
            self, t_s, factor, column):
        text = (VALID_HEADER + f"\n1,Drive,1,586,{t_s},374,1.22\n"
                "1,Drive,2,586,1.97,374,1.22\n")
        dataset, report = parse_csv(text, slowdown_factor=factor)
        assert [(row, col) for row, col, _ in report.errors] == [(2, column)]
        assert [t.trial_index for t in dataset.trials] == [2]

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.inf, math.nan, 0, -1,
                                        10 ** 400, "2", None, True])
    def test_slowdown_factor_must_be_finite_and_positive(self, factor):
        with pytest.raises(UsageError, match="slowdown_factor must be a finite number > 0"):
            parse_csv(VALID_HEADER + "\n", slowdown_factor=factor)

    @pytest.mark.parametrize("factor", [10, 10.0])
    def test_slowdown_factor_may_be_int_or_float(self, factor):
        dataset, report = parse_csv(bundled_text(), slowdown_factor=factor)
        assert report.ok and len(dataset) == BUNDLED_TRIALS
        assert [t.ball_time_s for t in dataset.trials] == [
            t.ball_time_s / 10 for t in parse_csv(bundled_text())[0].trials]

POINTING_HEADER = "amplitude,width,mt_s"


class TestParsePointingCsv:
    def test_rows_become_pointing_trials(self):
        trials, report = parse_pointing_csv(
            "\ufeff" + POINTING_HEADER + "\n2,1,0.5\n\n0,0.5,0.25\n")
        assert report.ok and not report.warnings
        assert [(t.amplitude, t.width, t.movement_time_s) for t in trials] == [
            (2.0, 1.0, 0.5), (0.0, 0.5, 0.25)]  # amplitude 0 is a valid trial

    @pytest.mark.parametrize("text,error", [
        ("", (0, "header", "no header: input is empty")),
        ("a,w,mt_s\n2,1,0.5\n",
         (1, "header", "expected header amplitude,width,mt_s, got a,w,mt_s")),
        ("1" * 200_000 + "\n2,1,0.5\n",
         (1, "header", f"field larger than field limit ({csv.field_size_limit()})")),
    ])
    def test_header_errors(self, text, error):
        trials, report = parse_pointing_csv(text)
        assert trials == [] and report.errors == [error]

    def test_row_errors_keep_coordinates(self):
        limit = csv.field_size_limit()
        text = "\n".join([POINTING_HEADER, "2,1", "2,x,0.5", "-1,1,0.5",
                          "2,0,0.5", "2,1,nan", "2,1,1e300",
                          "2,1," + "1" * 200_000, "x,1,inf", "4,1,0.7"]) + "\n"
        trials, report = parse_pointing_csv(text)
        assert report.errors == [
            (2, "row", "expected 3 cells, got 2"),
            (3, "width", "expected a number, got 'x'"),
            (4, "amplitude", "amplitude must be a finite number >= 0, got -1.0"),
            (5, "width", "width must be a finite number > 0, got 0.0"),
            (6, "mt_s", "expected a finite number, got 'nan'"),
            (7, "mt_s", "expected a value within [1e-100, 1e+100], "
                        "got 1e+300"),
            (8, "row", f"field larger than field limit ({limit})"),
            (9, "amplitude", "expected a number, got 'x'"),  # each refused cell
            (9, "mt_s", "expected a finite number, got 'inf'"),
        ]
        assert [t.amplitude for t in trials] == [4.0]
        assert csv.field_size_limit() == limit


_BIG_CELL = "1" * 200_000  # over the csv module's field size limit: a csv.Error
_SQUASH_ROW = "1,Drive,{},586,0.197,374,1.22"
_MISSING_ALL = [(1, col, "missing required column") for col in REQUIRED_COLUMNS]
_NO_POINTING_HEADER = [(1, "header", "expected header amplitude,width,mt_s, got ")]
_EMPTY = [(0, "header", "no header: input is empty")]


def _field_error(row):
    return (row, "header" if row == 1 else "row",
            f"field larger than field limit ({csv.field_size_limit()})")


#: name -> (squash text, its trials and errors, pointing text, its trials and errors).
#: The header is read lazily: only a blank first record makes the reader look
#: further, and the records it reads then are never data.
_HEADER_CASES = {
    "empty": ("", 0, _EMPTY, "", 0, _EMPTY),
    "blank_lines": ("\n \n\t\n", 0, _EMPTY, "\n \n\t\n", 0, _EMPTY),
    "blank_cells": (" , \n,\n", 0, _EMPTY, " , \n,\n", 0, _EMPTY),
    "blank_then_data": (
        f"\n{VALID_HEADER}\n{_SQUASH_ROW.format(1)}\n", 0, _MISSING_ALL,
        f"\n{POINTING_HEADER}\n2,1,0.5\n", 0, _NO_POINTING_HEADER),
    "error_first": (
        f"{_BIG_CELL}\n{VALID_HEADER}\n{_SQUASH_ROW.format(1)}\n", 0, [_field_error(1)],
        f"{_BIG_CELL}\n{POINTING_HEADER}\n2,1,0.5\n", 0, [_field_error(1)]),
    "blanks_then_error": (
        f"\n\n{_BIG_CELL}\n{_SQUASH_ROW.format(1)}\n", 0, _MISSING_ALL,
        f"\n\n{_BIG_CELL}\n2,1,0.5\n", 0, _NO_POINTING_HEADER),
    "error_mid": (
        "\n".join([VALID_HEADER, _SQUASH_ROW.format(1), _BIG_CELL, _SQUASH_ROW.format(2),
                   "", _SQUASH_ROW.format("x"), "1,Drive,3"]) + "\n",
        2, [_field_error(3), (6, "trial", "expected an integer, got 'x'"),
            (7, "row", "expected 7 cells, got 3")],
        "\n".join([POINTING_HEADER, "2,1,0.5", _BIG_CELL, "4,1,0.62", "", "x,1,0.5",
                   "2,1"]) + "\n",
        2, [_field_error(3), (6, "amplitude", "expected a number, got 'x'"),
            (7, "row", "expected 3 cells, got 2")]),
    "bom_trailing_blanks": (
        f"\ufeff{VALID_HEADER}\n{_SQUASH_ROW.format(1)}\n\n \n", 1, [],
        f"\ufeff{POINTING_HEADER}\n2,1,0.5\n\n \n", 1, []),
    "bom_only_blanks": ("\ufeff\n\n", 0, _EMPTY, "\ufeff\n\n", 0, _EMPTY),
}


class TestLazyHeader:
    @pytest.mark.parametrize("name", _HEADER_CASES)
    def test_squash_errors(self, name):
        text, n, errors, *_ = _HEADER_CASES[name]
        dataset, report = parse_csv(text)
        assert (len(dataset), report.errors) == (n, errors)

    @pytest.mark.parametrize("name", _HEADER_CASES)
    def test_pointing_errors(self, name):
        *_, text, n, errors = _HEADER_CASES[name]
        trials, report = parse_pointing_csv(text)
        assert (len(trials), report.errors) == (n, errors)

    def test_records_after_a_header_are_left_unread(self):
        text = f"{VALID_HEADER}\n{_SQUASH_ROW.format(1)}\n{_BIG_CELL}\n"
        header, records = dataset_module._split_header(text, [])
        assert header == list(REQUIRED_COLUMNS)
        assert next(records) == _SQUASH_ROW.format(1).split(",")
        assert isinstance(next(records), csv.Error)  # yielded in its record's place
        assert next(records, None) is None


class TestWriteCsv:
    def test_header_and_column_order(self, bundled):
        out = write_csv(bundled)
        assert out.splitlines()[0] == VALID_HEADER
        out_d = write_csv(bundled, include_derived=True)
        assert out_d.splitlines()[0] == ",".join(REQUIRED_COLUMNS + DERIVED_COLUMNS)

    def test_round_trip_is_bit_exact(self, bundled):
        parsed, report = parse_csv(write_csv(bundled))
        assert report.ok
        assert parsed.trials == bundled.trials

    def test_round_trip_with_derived_columns(self, bundled):
        parsed, report = parse_csv(write_csv(bundled, include_derived=True))
        assert report.ok
        assert parsed.trials == bundled.trials

    def test_round_trip_awkward_floats(self):
        rec = TrialRecord(7, ShotKind.LOB, 2, 586.123456789, 0.3775,
                          402.0000001, 1.013)
        ds = Dataset(trials=(rec,))
        parsed, report = parse_csv(write_csv(ds))
        assert report.ok
        assert parsed.trials == ds.trials

    def test_round_trip_of_random_values_stays_inside_the_number_grammar(self):
        # within 2**-61..2**61 every speed, v*D and movement time is in range
        rng = random.Random(5)

        def value():
            if rng.random() < 0.2:
                return float(rng.randint(1, 10 ** 6))  # written without ".0"
            return math.ldexp(rng.random() + 0.5, rng.randint(-60, 60))

        trials = tuple(TrialRecord(rng.randint(1, 10 ** 30), rng.choice(list(ShotKind)),
                                   i, value(), value(), value(), value())
                       for i in range(1, 400))
        text = write_csv(Dataset(trials=trials))
        body = text.split("\n", 1)[1]
        assert body.isascii() and "_" not in body
        parsed, report = parse_csv(text)
        assert report.ok
        assert parsed.trials == trials
        field_types = [int, ShotKind, int] + [float] * 4
        assert all([type(value) for value in t] == field_types for t in parsed.trials)

    def test_derived_written_at_six_decimals(self, bundled):
        line = write_csv(bundled, include_derived=True).splitlines()[1]
        v, idb, ir = line.split(",")[-3:]
        assert v == "29.746193"
        assert idb == "6.797671"
        assert ir == "5.571862"

    def test_derived_full_precision_not_display_rounding(self, bundled):
        first = derive_trial(bundled.trials[0])
        assert f"{first.ball_speed_mps:.6f}" == "29.746193"  # not 29.75

    def test_empty_dataset_is_usage_error(self):
        with pytest.raises(UsageError):
            write_csv(Dataset(trials=()))


class TestDatasetInvariants:
    def test_duplicate_keys_rejected_at_construction(self):
        rec = TrialRecord(1, ShotKind.DRIVE, 1, 586, 0.197, 374, 1.22)
        with pytest.raises(UsageError):
            Dataset(trials=(rec, rec))

    def test_duplicate_key_is_spelled_as_parse_csv_spells_it(self, bundled):
        with pytest.raises(UsageError) as exc:
            Dataset(bundled.trials + bundled.trials[:1])
        assert str(exc.value) == "duplicate trial key (1, 'Drive', 1)"
        first = bundled_text().splitlines()[1]
        _, report = parse_csv(f"{bundled_text()}{first}\n")
        assert report.errors == [(BUNDLED_TRIALS + 2, "trial",
                                  "duplicate trial key (1, 'Drive', 1) first seen at row 2")]

    def test_metadata_is_copied_at_construction(self, bundled):
        notes = {"source": "a"}
        dataset = Dataset(bundled.trials, notes)
        notes["source"] = "b"
        assert dataset.metadata == {"source": "a"}
        for again in (copy.deepcopy(dataset), pickle.loads(pickle.dumps(dataset))):
            assert type(again) is Dataset and again == dataset
            assert again.metadata is not dataset.metadata


#: Cell values for the fuzz below: extremes, non-numbers, digit separators,
#: non-ASCII digits, characters that the csv module treats specially,
#: padded, signed and float spellings of integers, and the separators
#: \x1c-\x1f, which str.strip() removes but int() and float() reject.
FUZZ_CELLS = ["1e308", "-1e308", "5e-324", "1e-320", "2.5e-308", "nan", "-inf",
              "inf", "0", "-0", "+7", ".5", "1.", "1e", "9" * 400, "1_0", "5_00",
              "\uff18", "3\u0661\u0660", "\x00", '"', '""', "\ufeff", "", " ",
              "drive", " LOB ", "Smash", "1e100", "1e-100", "1e101", "999999",
              " 7 ", "\t3", "+5", "01", "1.0", "1e3",
              "5\x1c", "5\x1d", "5\x1e", "5\x1f"]


def _fuzzed(rng: random.Random, lines: list[str]) -> str:
    """The CSV lines after 1-4 random cell or row edits."""
    lines = list(lines)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(1, len(lines))
        cells = lines[i].split(",")
        edit = rng.randrange(6)
        if edit <= 1:
            cells[rng.randrange(len(cells))] = rng.choice(FUZZ_CELLS)
        elif edit == 2:  # a duplicate key
            cells[:3] = lines[rng.randrange(1, len(lines))].split(",")[:3]
        elif edit == 3:  # a character the csv module treats specially
            at = rng.randrange(len(lines[i]) + 1)
            char = rng.choice('"\x00\ufeff\r')
            cells = (lines[i][:at] + char + lines[i][at:]).split(",")
        elif edit == 4:  # a truncated row
            cells = lines[i][:rng.randrange(len(lines[i]))].split(",")
        else:  # a repeated row
            lines.insert(i, lines[i])
        lines[i] = ",".join(cells)
    text = "\n".join(lines) + "\n"
    if rng.random() < 0.1:
        text = "\ufeff" + text
    if rng.random() < 0.1:
        text = text[:rng.randrange(len(text))]
    return text


class TestTrustedParsePath:
    """parse_csv builds its records without TrialRecord's and Dataset's
    checks; it must accept exactly what those checks accept."""

    def test_fuzzed_bundled_csv_gives_what_the_public_constructors_give(self):
        rng = random.Random(8)
        lines = bundled_text().splitlines()
        records = warnings = 0
        for _ in range(1000):
            dataset, report = parse_csv(_fuzzed(rng, lines),
                                        slowdown_factor=rng.choice((1.0, 10.0)))
            for t in dataset.trials:
                fields = t._asdict()
                again = TrialRecord(**fields)
                assert again == t
                assert [type(v) for v in fields.values()] == [
                    type(getattr(again, name)) for name in fields]
                derive_trial(t)
            assert Dataset(trials=dataset.trials).trials == dataset.trials
            by_row = [[w for _, w in group] for _, group
                      in itertools.groupby(report.warnings, key=lambda w: w[0])]
            screened = (_court_warnings(t.player_distance_cm, *speed_and_product(t))
                        for t in dataset.trials)
            assert by_row == [w for w in screened if w]
            records += len(dataset)
            warnings += len(report.warnings)
        assert records > 25_000 and warnings > 2_500

    def test_each_row_is_checked_once(self, monkeypatch):
        counts = {"checked_new": 0, "speed_and_product": 0}
        checked_new = TrialRecord.__new__
        speed_and_product = dataset_module.speed_and_product

        def counted_new(cls, *fields):
            counts["checked_new"] += 1
            return checked_new(cls, *fields)

        def counted_speed_and_product(record):
            counts["speed_and_product"] += 1
            return speed_and_product(record)

        monkeypatch.setattr(TrialRecord, "__new__", staticmethod(counted_new))
        monkeypatch.setattr(dataset_module, "speed_and_product",
                            counted_speed_and_product)
        TrialRecord(1, ShotKind.DRIVE, 1, 586, 0.197, 374, 1.22)
        assert counts == {"checked_new": 1, "speed_and_product": 0}
        counts["checked_new"] = 0
        text = bundled_text() + ("1,Drive,9,586,x,374,1.22,,,\n"  # a cell error
                                 "1,Drive,1,586,0.197,374,1.22,,,\n"  # a duplicate key
                                 "1,Drive,8,1e308,1e-308,374,1.22,,,\n")  # underivable
        dataset, report = parse_csv(text)
        assert len(dataset) == BUNDLED_TRIALS and len(report.errors) == 3
        assert counts == {"checked_new": 0, "speed_and_product": BUNDLED_TRIALS + 1}

    def test_whole_row_conversion_gives_what_the_cell_rules_give(self, monkeypatch):
        rng = random.Random(14)
        lines = bundled_text().splitlines()
        runs = [(_fuzzed(rng, lines), factor)
                for _ in range(400) for factor in (1, 10, 1e-300, 1e300)]

        def outcome(text, factor):
            dataset, report = parse_csv(text, slowdown_factor=factor)
            return repr(dataset), report.errors, report.warnings  # repr: types too

        monkeypatch.setattr(dataset_module, "_block_trials", lambda *block: None)
        expected = [outcome(*run) for run in runs]
        monkeypatch.setattr(dataset_module, "_clean_row", lambda *row: None)
        assert [outcome(*run) for run in runs] == expected

    @pytest.mark.parametrize("cell", ["5\x1c", "5\x1d", "5\x1e", "5\x1f", "\uff15"])
    def test_cells_the_whole_row_conversion_refuses_are_read_cell_by_cell(self, cell):
        row = f"1,Drive,{cell},586,0.197,374,1.22"
        cells = row.split(",")
        assert dataset_module._clean_row(cells, "".join(cells), 1.0) is None
        dataset, report = parse_csv(f"{VALID_HEADER}\n1,Drive,1,586,0.197,374,1.22\n{row}\n")
        if cell.isascii():  # str.strip() removes it: a valid trial number 5
            assert report.ok and [t.trial_index for t in dataset.trials] == [1, 5]
        else:
            assert report.errors == [(3, "trial", f"expected an integer, got {cell!r}")]

    def test_clean_rows_take_the_whole_row_path(self, monkeypatch):
        calls = []
        parse_number = dataset_module._cell_number
        monkeypatch.setattr(dataset_module, "_cell_number",
                            lambda *args: calls.append(args) or parse_number(*args))
        dataset, report = parse_csv(bundled_text())
        assert report.ok and len(dataset) == BUNDLED_TRIALS and calls == []
        parse_csv(VALID_HEADER + "\n1,Drive,1,586,x,374,1.22\n")
        assert len(calls) == 6  # a refused row is read cell by cell


def _many_rows(n: int) -> list[str]:
    """The header and n valid data lines: the bundled measurements again
    and again under distinct keys, with the bundled derived columns."""
    bundled = bundled_text().splitlines()[1:]
    shots = [kind.value for kind in ShotKind]
    return [bundled_text().splitlines()[0]] + [
        ",".join([str(i // 12 + 1), shots[i % 4], str(i // 4 % 3 + 1),
                  *bundled[i % BUNDLED_TRIALS].split(",")[3:]])
        for i in range(n)]


#: Rows exactly at a bound of the plausibility screen, whose bounds are
#: inclusive: the cells set, by column index, and the row's warnings.
SCREEN_BOUNDARIES = {
    "product_and_speed_1": ({3: "100", 4: "1", 5: "100"},  # v and v*D exactly 1.0
                            ["v*D = 1.0000 <= 1 gives non-positive difficulty (0.0000 bits)"]),
    "speed_100": ({3: "10000", 4: "1"}, []),  # v exactly 100.0 m/s
    "distance_at_reach": ({5: "640.6442070291434"}, []),  # dp / 100 == MAX_PLAYER_REACH_M
}


def _with_cells(line: str, cells: dict[int, str]) -> str:
    """The CSV line with the cells at the given column indexes replaced."""
    row = line.split(",")
    for column, cell in cells.items():
        row[column] = cell
    return ",".join(row)


def _row_defect(rng: random.Random, lines: list[str], i: int) -> str:
    """Data line i of lines with one defect, or made a warning row or an
    underivable row."""
    cells = lines[i].split(",")
    edit = rng.randrange(11)
    if edit <= 1:  # a bad number, \x1c padding, a full-width digit, 1_0 ...
        cells[rng.choice((0, 2, 3, 4, 5, 6))] = rng.choice(FUZZ_CELLS)
    elif edit == 2:
        cells.pop()
    elif edit == 3:  # blank
        cells = [rng.choice(("", " "))] * rng.choice((1, len(cells)))
    elif edit == 4:  # a csv.Error: a carriage return in an unquoted cell
        cells[rng.randrange(len(cells))] += "\r1"
    elif edit == 5:  # the key of an earlier row, often of an earlier block
        cells[:3] = lines[rng.randrange(1, i)].split(",")[:3]
    elif edit == 6:  # beyond the court's reach
        cells[5] = "700"
    elif edit == 7:  # too fast
        cells[4] = "0.001"
    elif edit == 8:  # a movement time at or beyond MOVEMENT_TIME_RANGE_S
        cells[6] = rng.choice(("1e-100", "9e-101", "1.1e100"))
    elif edit == 9:  # at a bound of the plausibility screen
        return _with_cells(lines[i], rng.choice(list(SCREEN_BOUNDARIES.values()))[0])
    else:  # v overflows, v*D overflows, v*D underflows
        cells[3:6] = rng.choice((("1e308", "1e-308", cells[5]), ("1e308", "0.01", cells[5]),
                                 ("1e-300", "1", "1e-30")))
    return ",".join(cells)


class TestBlockPath:
    """parse_csv converts a block of rows a column at a time and reads a
    refused block row by row, and a refused row cell by cell; all three
    give the same trials, errors and warnings, in the same order."""

    @staticmethod
    def _outcomes(texts, factors):
        return [(repr(dataset), report.errors, report.warnings)
                for text in texts for factor in factors
                for dataset, report in [parse_csv(text, slowdown_factor=factor)]]

    def test_blocks_rows_and_cells_give_the_same_outcome(self, monkeypatch):
        rng = random.Random(25)
        block = dataset_module._CHUNK_ROWS
        texts = []
        for _ in range(30):
            lines = _many_rows(rng.randint(600, 1000))
            ends = [k * block + offset for k in range(1, len(lines) // block + 1)
                    for offset in (0, 1)]  # the last row of a block, the first of the next
            spots = [255, 256, 257, *ends, *rng.sample(range(2, len(lines)), 3)]
            for i in rng.sample(spots, rng.randint(1, 4)):
                if i < len(lines):
                    lines[i] = _row_defect(rng, lines, i)
            texts.append("\n".join(lines) + "\n")
        factors = (1, 10, 1e-300, 1e300)
        blocks = self._outcomes(texts, factors)
        monkeypatch.setattr(dataset_module, "_block_trials", lambda *block: None)
        assert self._outcomes(texts, factors) == blocks
        monkeypatch.setattr(dataset_module, "_clean_row", lambda *row: None)
        assert self._outcomes(texts, factors) == blocks
        errors = sum(len(e) for _, e, _ in blocks)
        warnings = sum(len(w) for _, _, w in blocks)
        assert errors > 100 and warnings > 1000

    @pytest.mark.parametrize("case", list(SCREEN_BOUNDARIES))
    @pytest.mark.parametrize("bad_row", [None, 100], ids=["block", "rows"])
    def test_a_row_at_a_screen_bound_warns_alike_on_both_paths(self, case, bad_row):
        """Row 12 of a 300-line file, in a clean block or in a block that a
        bad cell at row 100 sends row by row."""
        cells, want = SCREEN_BOUNDARIES[case]
        lines = _many_rows(299)
        lines[11] = _with_cells(lines[11], cells)
        errors = []
        if bad_row:
            lines[bad_row - 1] = _with_cells(lines[bad_row - 1], {4: "x"})
            errors = [(bad_row, "t_s", "expected a number, got 'x'")]
        dataset, report = parse_csv("\n".join(lines) + "\n")
        assert report.errors == errors
        assert report.warnings == [(12, warning) for warning in want]

    def test_a_byte_order_mark_keeps_clean_blocks_untested(self, monkeypatch):
        """The mark is skipped before the whole-text hint is taken, so no
        block of a clean file with a mark has its cells joined and tested."""
        calls = []
        plain = dataset_module._plain
        monkeypatch.setattr(dataset_module, "_plain",
                            lambda text: calls.append(text) or plain(text))
        dataset, report = parse_csv("\ufeff" + "\n".join(_many_rows(600)) + "\n")
        assert report.ok and len(dataset) == 600 and calls == []

    def test_only_a_refused_block_is_read_row_by_row(self, monkeypatch):
        calls = []
        clean_row = dataset_module._clean_row
        monkeypatch.setattr(dataset_module, "_clean_row",
                            lambda cells, *rest: calls.append(cells) or clean_row(cells, *rest))
        lines = _many_rows(600)
        dataset, report = parse_csv("\n".join(lines) + "\n")
        assert report.ok and len(dataset) == 600 and calls == []
        cells = lines[299].split(",")  # row 300, in the block of rows 258-513
        cells[4] = "x"
        lines[299] = ",".join(cells)
        dataset, report = parse_csv("\n".join(lines) + "\n")
        assert report.errors == [(300, "t_s", "expected a number, got 'x'")]
        assert len(dataset) == 599
        assert calls == [line.split(",") for line in lines[257:513]]
