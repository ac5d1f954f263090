from __future__ import annotations

import math
import random

import pytest

from squashfitts import (DegenerateDesignError, DomainError, ModelKind, ShotKind, TrialRecord,
                         UsageError, ball_speed, derive_trial, figure_series, fit_model,
                         index_of_difficulty, information_rate, parse_csv)
from squashfitts import core, stats
from squashfitts.core import MAX_PLAYER_REACH_M, require_fittable
from squashfitts.dataset import REQUIRED_COLUMNS

import oracles


class TestShotKind:
    def test_exactly_four_members_in_presentation_order(self):
        assert [k.value for k in ShotKind] == ["Drive", "Drop", "Lob", "Boast"]

    @pytest.mark.parametrize("label,expected", [
        ("Drive", ShotKind.DRIVE), ("drive", ShotKind.DRIVE),
        ("DROP", ShotKind.DROP), ("  lob ", ShotKind.LOB),
        ("Boast", ShotKind.BOAST),
    ])
    def test_parse_case_insensitive(self, label, expected):
        assert ShotKind.parse(label) is expected

    @pytest.mark.parametrize("label", ["smash", "", "driv", "42"])
    def test_parse_rejects_unknown(self, label):
        with pytest.raises(DomainError):
            ShotKind.parse(label)

    @pytest.mark.parametrize("kind", list(ShotKind))
    def test_parse_every_spelling(self, kind):
        label = kind.value
        for spelling in (label, label.lower(), label.upper(), label.swapcase(),
                         f" {label.lower()}\t", f"\n{label.upper()} ", kind):
            assert ShotKind.parse(spelling) is kind

    @pytest.mark.parametrize("label,shown", [
        (" Smash ", "' Smash '"), ("", "''"), ("drives", "'drives'"),
        (42, "42"), (None, "None")])
    def test_parse_error_text(self, label, shown):
        with pytest.raises(DomainError) as exc:
            ShotKind.parse(label)
        assert str(exc.value) == (f"unknown shot label {shown} "
                                  "(expected one of: Drive, Drop, Lob, Boast)")
        assert exc.value.field == "shot"


class TestTrialRecord:
    def test_valid_construction_and_key(self):
        rec = TrialRecord(1, ShotKind.DRIVE, 1, 586, 0.197, 374, 1.22)
        assert rec.key == (1, ShotKind.DRIVE, 1)

    @pytest.mark.parametrize("field,value", [
        ("person_id", 0), ("trial_index", -1), ("ball_distance_cm", 0.0),
        ("ball_time_s", -0.1), ("player_distance_cm", 0.0),
        ("movement_time_s", 0.0), ("person_id", "1"),
        pytest.param("ball_distance_cm", 10**400, id="ball_distance_cm-1e400"),
        pytest.param("movement_time_s", -10**400, id="movement_time_s--1e400"),
    ])
    def test_rejects_non_positive_fields(self, field, value):
        kwargs = dict(person_id=1, shot=ShotKind.DRIVE, trial_index=1,
                      ball_distance_cm=586.0, ball_time_s=0.197,
                      player_distance_cm=374.0, movement_time_s=1.22)
        kwargs[field] = value
        with pytest.raises(DomainError) as exc:
            TrialRecord(**kwargs)
        assert exc.value.field == field

    @pytest.mark.parametrize("text", ["1_000", "\uff11_\uff10\uff10\uff10",
                                      "\u0661\u0660"],
                             ids=["digit_separator", "fullwidth", "arabic_indic"])
    @pytest.mark.parametrize("field", ["ball_distance_cm", "ball_time_s",
                                       "player_distance_cm", "movement_time_s"])
    def test_string_measurement_takes_the_csv_number_grammar(self, field, text):
        # float() reads these three as 1000 or 10; a CSV cell may not hold them
        kwargs = dict(person_id=1, shot=ShotKind.DRIVE, trial_index=1,
                      ball_distance_cm=586.0, ball_time_s=0.197,
                      player_distance_cm=374.0, movement_time_s=1.22)
        kwargs[field] = text
        with pytest.raises(DomainError) as exc:
            TrialRecord(**kwargs)
        assert exc.value.field == field
        assert str(exc.value) == f"{field} must be a number, got {text!r}"

    def test_ascii_string_measurements_still_accepted(self):
        rec = TrialRecord(1, "Drive", 1, "586", " 0.197 ", "374", "1.22")
        assert rec == TrialRecord(1, ShotKind.DRIVE, 1, 586.0, 0.197, 374.0, 1.22)
        assert [type(value) for value in rec[3:]] == [float] * 4

    @pytest.mark.parametrize("value", [b"1_000", bytearray(b"586"), memoryview(b"586")],
                             ids=["bytes", "bytearray", "memoryview"])
    def test_bytes_measurement_is_refused(self, value):
        # float() read b"1_000" as 1000.0, outside the number grammar
        with pytest.raises(DomainError) as exc:
            TrialRecord(1, "Drive", 1, value, 0.2, 300, 1.2)
        assert exc.value.field == "ball_distance_cm"
        assert str(exc.value) == f"ball_distance_cm must be a number, got {value!r}"


BIG = 10**5000  # more digits than str() of an int prints

#: (call, exception class, message) of refusals that print the caller's value.
TOO_LONG_TO_PRINT = [
    (lambda doc, trials: stats.AnalysisOptions(stats_tolerance=BIG), UsageError,
     "stats_tolerance must be a finite number > 0, got a value too long to print"),
    (lambda doc, trials: stats.AnalysisOptions(exclude_shots=BIG), UsageError,
     "exclude_shots must be a collection of shot labels, got a value too long to print"),
    (lambda doc, trials: stats.AnalysisOptions(exclude_shots=[BIG]), DomainError,
     "unknown shot label a value too long to print (expected one of: Drive, Drop, Lob, Boast)"),
    (lambda doc, trials: parse_csv("a", slowdown_factor=-BIG), UsageError,
     "slowdown_factor must be a finite number > 0, got a value too long to print"),
    (lambda doc, trials: TrialRecord(-BIG, "Drive", 1, 1, 1, 1, 1), DomainError,
     "person_id must be >= 1, got a value too long to print"),
    (lambda doc, trials: TrialRecord(1, BIG, 1, 1, 1, 1, 1), DomainError,
     "unknown shot label a value too long to print (expected one of: Drive, Drop, Lob, Boast)"),
    (lambda doc, trials: TrialRecord(1, "Drive", [BIG], 1, 1, 1, 1), DomainError,
     "trial_index must be an integer, got a value too long to print"),
    (lambda doc, trials: TrialRecord(1, "Drive", 1, [BIG], 1, 1, 1), DomainError,
     "ball_distance_cm must be a number, got a value too long to print"),
    (lambda doc, trials: figure_series(doc, BIG), UsageError,
     "unknown figure a value too long to print (valid: 4, 5, 6, 7, 8)"),
    (lambda doc, trials: ShotKind.parse(BIG), DomainError,
     "unknown shot label a value too long to print (expected one of: Drive, Drop, Lob, Boast)"),
    (lambda doc, trials: ModelKind.parse(BIG), UsageError,
     "unknown model a value too long to print "
     "(valid models: squash, fitts, mackenzie, welford, steering)"),
    (lambda doc, trials: fit_model(BIG, []), UsageError,
     "unknown model a value too long to print "
     "(valid models: squash, fitts, mackenzie, welford, steering)"),
    (lambda doc, trials: stats.group_stats(trials, level=BIG), UsageError,
     "unknown grouping level a value too long to print (expected 'person_shot' or 'shot')"),
]


@pytest.mark.parametrize("call,error,message", TOO_LONG_TO_PRINT)
def test_a_refused_value_too_long_to_print_keeps_the_promised_error(
        report, derived36, call, error, message):
    # each raised a bare ValueError: Exceeds the limit (4300 digits) for
    # integer string conversion, from repr() or str() of the value
    with pytest.raises(error) as exc:
        call(report, derived36)
    assert str(exc.value) == message


def test_shown_is_repr_unless_it_is_too_long_to_print():
    for value in (10**400, -(10**4299), "x", None, [1.5], b"4"):
        assert core._shown(value) == repr(value)
    for value in (10**4300, -BIG, [BIG], {"k": BIG}):
        assert core._shown(value) == "a value too long to print"


@pytest.mark.parametrize("parse,member", [(ShotKind.parse, ShotKind.LOB),
                                          (ModelKind.parse, ModelKind.WELFORD)],
                         ids=["shot", "model"])
def test_labels_are_read_from_a_str_or_a_member_only(parse, member):
    class Spelled:  # str() of it is the label, but it is no str
        def __str__(self):
            return member.value

    assert parse(member) is member
    assert parse(f" {member.value.upper()} ") is member
    for label in (Spelled(), member.value.encode(), [member.value], 42):
        with pytest.raises((DomainError, UsageError)) as exc:
            parse(label)
        assert repr(label) in str(exc.value)


class TestBallSpeed:
    @pytest.mark.parametrize("text", ["1_000", "\uff11_\uff10\uff10\uff10",
                                      "\u0661\u0660"],
                             ids=["digit_separator", "fullwidth", "arabic_indic"])
    def test_string_input_takes_the_csv_number_grammar(self, text):
        for args, field in (((text, "0.2"), "ball_distance_cm"),
                            (("586", text), "ball_time_s")):
            with pytest.raises(DomainError) as exc:
                ball_speed(*args)
            assert exc.value.field == field
        assert ball_speed("586", "0.2") == ball_speed(586, 0.2) == 29.3

    def test_reference_row_one(self):
        assert ball_speed(586, 0.197) == pytest.approx(29.75, abs=0.01)

    def test_unit_conversion_identity(self):
        assert ball_speed(100, 1.0) == 1.0

    def test_reference_boast(self):
        assert ball_speed(999, 0.964) == pytest.approx(10.36, abs=0.01)

    @pytest.mark.parametrize("d,t,field", [
        (0, 1.0, "ball_distance_cm"), (100, 0, "ball_time_s"),
        (-5, 1.0, "ball_distance_cm"),
    ])
    def test_domain_errors_name_the_field(self, d, t, field):
        with pytest.raises(DomainError) as exc:
            ball_speed(d, t)
        assert exc.value.field == field

    @pytest.mark.parametrize("call,field", [
        (lambda: ball_speed(10**400, 0.197), "ball_distance_cm"),
        (lambda: ball_speed(586, 10**5000), "ball_time_s"),
        (lambda: index_of_difficulty(10**400, 3.74), "ball_speed_mps"),
        (lambda: index_of_difficulty(29.75, -10**400), "player_distance_m")])
    def test_int_beyond_the_float_range_is_a_domain_error(self, call, field):
        # float() of the int overflows; a message cannot hold 5,001 digits
        with pytest.raises(DomainError) as exc:
            call()
        assert (str(exc.value), exc.value.field) == (
            f"{field} must be within the float range, got a number too large "
            "for a float", field)


class TestIndexOfDifficulty:
    def test_reference_row_one(self):
        assert index_of_difficulty(29.75, 3.74) == pytest.approx(6.80, abs=0.01)

    def test_unit_product_is_zero_bits(self):
        assert index_of_difficulty(1.0, 1.0) == 0.0

    def test_reference_boast(self):
        assert index_of_difficulty(8.97, 4.90) == pytest.approx(5.46, abs=0.01)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            index_of_difficulty(0.0, 1.0)
        with pytest.raises(DomainError):
            index_of_difficulty(1.0, -2.0)


class TestInformationRate:
    def test_reference_row_one(self):
        assert information_rate(6.8, 1.22) == pytest.approx(5.57, abs=0.01)

    def test_unit_denominator(self):
        assert information_rate(5.0, 1.0) == 5.0

    def test_reference_boast(self):
        assert information_rate(5.91, 1.013) == pytest.approx(5.83, abs=0.01)

    def test_rejects_non_positive_mt(self):
        with pytest.raises(DomainError):
            information_rate(5.0, 0.0)

    @pytest.mark.parametrize("id_bits,message", [
        (None, "id_bits must be a number, got None"),
        ("x", "id_bits must be a number, got 'x'"),
        (10**400, "id_bits must be within the float range, got a number too large "
                  "for a float")], ids=["none", "string", "1e400"])
    def test_id_bits_that_is_no_float_is_a_domain_error(self, id_bits, message):
        with pytest.raises(DomainError) as exc:
            information_rate(id_bits, 1.2)
        assert (str(exc.value), exc.value.field) == (message, "id_bits")

    def test_id_bits_may_be_any_float(self):
        assert information_rate(-3, 2.0) == -1.5
        assert information_rate("6.8", 2.0) == 3.4
        assert math.isnan(information_rate(math.nan, 2.0))


class TestDeriveTrial:
    def test_reference_row_one(self):
        rec = TrialRecord(1, ShotKind.DRIVE, 1, 586, 0.197, 374, 1.22)
        d = derive_trial(rec)
        assert d.ball_speed_mps == pytest.approx(29.75, abs=0.01)
        assert d.id_bits == pytest.approx(6.80, abs=0.01)
        assert d.info_rate_bps == pytest.approx(5.57, abs=0.01)
        expected = oracles.FROZEN_DERIVED_SPOTS[(1, "Drive", 1)]
        assert d.ball_speed_mps == pytest.approx(expected[0], abs=1e-12)
        assert d.id_bits == pytest.approx(expected[1], abs=1e-12)
        assert d.info_rate_bps == pytest.approx(expected[2], abs=1e-12)

    def test_degenerate_synthetic_row(self):
        rec = TrialRecord(9, ShotKind.DROP, 1, 100, 1.0, 100, 1.0)
        d = derive_trial(rec)
        assert d.ball_speed_mps == 1.0
        assert d.id_bits == 0.0
        assert d.info_rate_bps == 0.0

    def test_reference_drop(self):
        rec = TrialRecord(2, ShotKind.DROP, 1, 636, 0.446, 260, 1.12)
        d = derive_trial(rec)
        assert d.ball_speed_mps == pytest.approx(14.26, abs=0.01)
        assert d.id_bits == pytest.approx(5.21, abs=0.01)
        assert d.info_rate_bps == pytest.approx(4.65, abs=0.01)

    def test_raw_fields_pass_through_unchanged(self):
        rec = TrialRecord(1, ShotKind.LOB, 2, 665, 0.3625, 402, 1.63)
        assert derive_trial(rec).base is rec

    def test_deterministic_and_pure(self):
        rec = TrialRecord(3, ShotKind.BOAST, 3, 969, 1.08, 490, 1.44)
        a, b = derive_trial(rec), derive_trial(rec)
        assert (a.ball_speed_mps, a.id_bits, a.info_rate_bps) == \
               (b.ball_speed_mps, b.id_bits, b.info_rate_bps)
        assert a == b

    def test_equals_component_operations_bit_for_bit(self):
        # derive_trial computes in-range trials without the component
        # operations' re-validation; the bits must be theirs all the same
        rng = random.Random(11)
        records = [TrialRecord(1, ShotKind.DRIVE, i + 1, 10.0 ** rng.uniform(-3, 5),
                               10.0 ** rng.uniform(-4, 2), 10.0 ** rng.uniform(-3, 5),
                               10.0 ** rng.uniform(-3, 3)) for i in range(2000)]
        records.append(TrialRecord(1, ShotKind.LOB, 1, 1e200, 1e-100, 1e-50, 1e-300))
        for rec in records:
            v = ball_speed(rec.ball_distance_cm, rec.ball_time_s)
            idb = index_of_difficulty(v, rec.player_distance_cm / 100.0)
            ir = information_rate(idb, rec.movement_time_s)
            d = derive_trial(rec)
            assert (d.ball_speed_mps, d.id_bits, d.info_rate_bps) == (v, idb, ir)

    @pytest.mark.parametrize("fields,field", [
        ({"ball_distance_cm": -1.0, "ball_time_s": -0.2}, "ball_distance_cm"),
        ({"player_distance_cm": -300.0}, "player_distance_m"),
        ({"movement_time_s": -1.5}, "movement_time_s"),
        ({"movement_time_s": math.inf}, "movement_time_s"),
        ({"ball_distance_cm": "far"}, "ball_distance_cm"),
        ({"ball_distance_cm": 1e308, "ball_time_s": 1e-308}, "ball_speed_mps"),
        ({"ball_time_s": 0.0}, "ball_time_s"),
        ({"movement_time_s": 0.0}, "movement_time_s"),
    ], ids=["both_negative", "negative_distance", "negative_mt", "infinite_mt",
            "text", "speed_overflow", "zero_ball_time", "zero_mt"])
    def test_out_of_range_fields_fail_as_components_do(self, fields, field):
        # a record that dodged construction-time validation still fails on
        # the first component operation that rejects it
        values = {"person_id": 2, "shot": ShotKind.LOB, "trial_index": 3,
                  "ball_distance_cm": 586.0, "ball_time_s": 0.2,
                  "player_distance_cm": 300.0, "movement_time_s": 1.5, **fields}
        rec = tuple.__new__(TrialRecord, values.values())  # the unchecked constructor
        with pytest.raises(DomainError) as exc:
            derive_trial(rec)
        assert str(exc.value).startswith("trial (person=2, shot=Lob, trial=3): ")
        assert exc.value.field == field

    @pytest.mark.parametrize("distance", [None, "x"])
    def test_non_number_distance_is_a_domain_error_naming_it(self, distance):
        rec = tuple.__new__(TrialRecord, (1, ShotKind.DRIVE, 1, 586.0, 0.197, distance, 1.22))
        with pytest.raises(DomainError) as exc:
            derive_trial(rec)
        assert str(exc.value) == ("trial (person=1, shot=Drive, trial=1): "
                                  f"player_distance_cm must be a number, got {distance!r}")
        assert exc.value.field == "player_distance_cm"

    def test_number_grammar_distance_derives_as_its_number(self):
        # ball_speed reads a ball distance of this kind; so does the fallback
        rec = tuple.__new__(TrialRecord, (1, ShotKind.DRIVE, 1, 586.0, 0.197, "374", 1.22))
        want = derive_trial(TrialRecord(1, ShotKind.DRIVE, 1, 586.0, 0.197, 374.0, 1.22))
        got = derive_trial(rec)
        assert got.base is rec
        assert (got.ball_speed_mps, got.id_bits, got.info_rate_bps) == (
            want.ball_speed_mps, want.id_bits, want.info_rate_bps)

    @pytest.mark.parametrize("db_cm,dp_cm,shown", [
        (1e-300, 1e-300, "0.0"),  # v*D underflows to 0
        (1e308, 1e308, "inf"),    # v*D overflows
    ], ids=["product_underflow", "product_overflow"])
    def test_product_without_finite_difficulty_is_domain_error(
            self, db_cm, dp_cm, shown):
        rec = TrialRecord(2, ShotKind.LOB, 3, db_cm, 1.0, dp_cm, 1.5)
        with pytest.raises(DomainError) as exc:
            derive_trial(rec)
        assert str(exc.value) == (
            "trial (person=2, shot=Lob, trial=3): v*D must be finite and > 0 "
            f"for a finite difficulty, got {shown}")
        assert exc.value.field == "id_bits"

    def test_component_errors_annotated_with_trial_key(self):
        # a record that dodged construction-time validation (e.g. built by
        # deserialization code gone wrong) still fails loudly, with context
        rec = tuple.__new__(TrialRecord, (2, ShotKind.LOB, 3, -1.0, 0.2, 300.0, 1.5))
        with pytest.raises(DomainError) as exc:
            derive_trial(rec)
        msg = str(exc.value)
        assert "person=2" in msg and "Lob" in msg and "trial=3" in msg
        assert exc.value.field == "ball_distance_cm"


def _fuzzed_records(rng: random.Random, n: int) -> list:
    """n valid records over many magnitudes: ID negative and positive."""
    return [TrialRecord(rng.randint(1, 9), rng.choice(list(ShotKind)), i + 1,
                        10.0 ** rng.uniform(-3, 5), 10.0 ** rng.uniform(-4, 2),
                        10.0 ** rng.uniform(-3, 5), 10.0 ** rng.uniform(-3, 3))
            for i in range(n)]


def _unchecked(record: TrialRecord, **fields) -> TrialRecord:
    """record with fields replaced, built without TrialRecord's checks."""
    return tuple.__new__(TrialRecord, {**record._asdict(), **fields}.values())


def _outcome(derive, records) -> tuple:
    """The trials that derive yields for records, each as (type, base is
    its record, repr of each derived value), and the text of the DomainError
    it stops with, if any."""
    got, error = [], None
    try:
        for trial in derive(records):
            got.append(trial)
    except DomainError as exc:
        error = str(exc)
    return [(type(t), t.base is r, tuple(map(repr, t[1:]))) for t, r in zip(got, records)], error


class TestDeriveKernel:
    """core._derived derives a block of records a column at a time; it
    yields what derive_trial gives row by row, bit for bit, and stops with
    its DomainError at the same row."""

    @staticmethod
    def _by_row(records):
        return map(derive_trial, records)

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
    def test_clean_records_equal_the_row_path(self, n, monkeypatch):
        records = _fuzzed_records(random.Random(n), n)
        want = _outcome(self._by_row, records)
        assert len(want[0]) == n and want[1] is None
        calls = []
        monkeypatch.setattr(core, "derive_trial", lambda r: calls.append(r))
        assert _outcome(core._derived, records) == want
        assert calls == []  # every block went a column at a time

    @pytest.mark.parametrize("fields,where", [
        ({"ball_distance_cm": 1e308, "ball_time_s": 1e-308}, 300),  # v overflows
        ({"ball_distance_cm": 1e-300, "player_distance_cm": 1e-300}, 256),  # v*D underflows
        ({"player_distance_cm": 1e308, "ball_distance_cm": 1e308}, 255),  # v*D overflows
        ({"ball_distance_cm": "far"}, 0),  # a str field: TypeError
        ({"movement_time_s": 0}, 599),  # MT = 0
        ({"ball_time_s": -1.0, "ball_distance_cm": -5.0}, 400),  # v > 0 from two negatives
    ], ids=["v_overflow", "product_underflow", "product_overflow", "text", "zero_mt",
            "negative_pair"])
    def test_a_bad_record_raises_as_the_row_path(self, fields, where):
        records = _fuzzed_records(random.Random(where), 600)
        records[where] = _unchecked(records[where], **fields)
        want = _outcome(self._by_row, records)
        assert len(want[0]) == where and want[1].startswith("trial (person=")
        assert _outcome(core._derived, records) == want

    def test_a_block_that_does_not_compute_goes_row_by_row(self, monkeypatch):
        """A number-grammar str field derives as its number; only its block,
        rows 256-511, is handed to derive_trial."""
        records = _fuzzed_records(random.Random(3), 600)
        records[300] = _unchecked(records[300], player_distance_cm="374")
        want = _outcome(self._by_row, records)
        assert len(want[0]) == 600 and want[1] is None
        calls = []
        row_path = core.derive_trial
        monkeypatch.setattr(core, "derive_trial", lambda r: calls.append(r) or row_path(r))
        assert _outcome(core._derived, records) == want
        assert calls == records[256:512]

    @pytest.mark.parametrize("value", [math.inf, math.nan, -0.0, 5e-324, 1e308])
    def test_edge_values_in_a_block_equal_the_row_path(self, value):
        """A value that is not finite and > 0, or whose column sum overflows,
        in each measured column of a 257-row set."""
        for column in REQUIRED_COLUMNS[3:]:
            records = _fuzzed_records(random.Random(7), 257)
            name = TrialRecord._fields[REQUIRED_COLUMNS.index(column)]
            for where in (0, 255, 256):
                records[where] = _unchecked(records[where], **{name: value})
            assert _outcome(core._derived, records) == _outcome(self._by_row, records)


class TestCourtGeometry:
    def test_max_reach_is_front_corner_distance(self):
        assert MAX_PLAYER_REACH_M == pytest.approx(
            math.sqrt(5.55 ** 2 + 3.2 ** 2), abs=1e-12)
        assert MAX_PLAYER_REACH_M == pytest.approx(6.41, abs=0.01)


class TestCourtScreen:
    """The plausibility warnings, through parse_csv's report on one row."""

    def _warnings(self, dp_cm=374.0, db_cm=586.0, t_s=0.197) -> list[str]:
        dataset, report = parse_csv(f"{','.join(REQUIRED_COLUMNS)}\n"
                                    f"1,Drive,1,{db_cm!r},{t_s!r},{dp_cm!r},1.22\n")
        assert len(dataset) == 1 and report.ok
        assert {row for row, _ in report.warnings} <= {2}
        return [w for _, w in report.warnings]

    def test_plausible_trial_has_no_warnings(self):
        assert self._warnings() == []

    def test_player_distance_beyond_reach_warns(self):
        warnings = self._warnings(dp_cm=800.0)
        assert len(warnings) == 1
        assert "reach" in warnings[0]

    def test_implausible_speed_warns(self):
        # 150 m/s: 15000 cm covered in 1 s
        warnings = self._warnings(db_cm=15000.0, t_s=1.0)
        assert any("plausible band" in w for w in warnings)

    def test_non_positive_difficulty_warns_but_does_not_reject(self):
        # v = 0.5 m/s over 1 m: v*D = 0.5 -> negative difficulty
        assert self._warnings(dp_cm=100.0, db_cm=50.0, t_s=1.0) == [
            "ball speed 0.50 m/s outside plausible band [1, 100] m/s",
            "v*D = 0.5000 <= 1 gives non-positive difficulty (-1.0000 bits)"]
        rec = TrialRecord(1, ShotKind.DROP, 1, 50, 1.0, 100, 1.0)
        assert derive_trial(rec).id_bits < 0  # still derivable

    @pytest.mark.parametrize("db_cm,t_s,dp_cm", [
        (586.0, 1e-300, 374.0),     # speed about 6e300 m/s
        (586.0, 0.197, 1e308),      # player distance 1e306 m
        (1e-100, 1e100, 1e-100),    # speed and v*D about 1e-202 and 1e-304
    ])
    def test_warnings_are_at_most_100_characters(self, db_cm, t_s, dp_cm):
        warnings = self._warnings(dp_cm, db_cm, t_s)
        assert warnings and all(len(w) <= 100 for w in warnings)

    def test_a_million_meters_is_written_in_exponent_notation(self):
        assert self._warnings(dp_cm=1e8) == [
            "player_distance 1.000e+06 m exceeds court reach 6.41 m"]

    def test_moderate_values_keep_two_decimals(self):
        assert self._warnings(dp_cm=800.0, db_cm=15000.0, t_s=1.0) == [
            "player_distance 8.00 m exceeds court reach 6.41 m",
            "ball speed 150.00 m/s outside plausible band [1, 100] m/s"]

    def test_zero_speed_is_a_row_error_not_a_warning(self):
        # parse_csv makes such a row a v_mps error before the screen, so the
        # screen only sees rows whose v*D is finite and > 0
        dataset, report = parse_csv(f"{','.join(REQUIRED_COLUMNS)}\n"
                                    "1,Drop,1,5e-324,1e308,100,1.0\n")
        assert (len(dataset), report.warnings) == (0, [])
        assert [e[:2] for e in report.errors] == [(2, "v_mps")]


class TestRequireFittable:
    """The rule of analysis, checked on shot -> (ids, mts) columns."""

    RULE = "every shot needs 2 trials with distinct IDs to fit its line"

    @staticmethod
    def _columns(**ids):
        """IDs 5.0 and 6.0 in every shot but the ones named, by value."""
        columns = {kind: ([5.0, 6.0], [1.0, 1.2]) for kind in ShotKind}
        for name, column in ids.items():
            columns[ShotKind(name)] = (column, [1.0] * len(column))
        return columns

    @pytest.mark.parametrize("ids", [[5.0, 6.0], [6.5, 6.5, 7.0], [7.0, 6.5, 6.5],
                                     [6.5, 7.0, 6.5]])
    def test_two_distinct_ids_in_every_shot_pass(self, ids):
        assert require_fittable(self._columns(**{kind.value: ids for kind in ShotKind})) is None

    def test_two_trials_of_equal_id_are_a_degenerate_design_naming_it(self):
        with pytest.raises(DegenerateDesignError) as exc:
            require_fittable(self._columns(Drive=[6.5, 6.5]))
        assert str(exc.value) == ("all 2 trials of shot Drive have ID 6.5; every shot "
                                  "needs 2 trials with distinct IDs to fit its line")

    @pytest.mark.parametrize("kind", list(ShotKind), ids=str)
    @pytest.mark.parametrize("ids", [[], [6.5]], ids=["0_trials", "1_trial"])
    def test_fewer_than_two_trials_are_a_usage_error_naming_the_shot(self, kind, ids):
        with pytest.raises(UsageError) as exc:
            require_fittable(self._columns(**{kind.value: ids}))
        assert str(exc.value) == f"shot {kind} has {len(ids)} trial(s); {self.RULE}"

    @pytest.mark.parametrize("kind", list(ShotKind), ids=str)
    def test_equal_ids_are_a_degenerate_design_naming_the_shot(self, kind):
        with pytest.raises(DegenerateDesignError) as exc:
            require_fittable(self._columns(**{kind.value: [0.1 + 0.2] * 3}))
        assert str(exc.value) == (f"all 3 trials of shot {kind} have ID "
                                  f"0.30000000000000004; {self.RULE}")

    @pytest.mark.parametrize("first,later", [
        (a, b) for i, a in enumerate(ShotKind) for b in list(ShotKind)[i + 1:]], ids=str)
    def test_the_first_breaking_shot_in_shot_order_is_named(self, first, later):
        for first_ids, later_ids, error in (([6.5, 6.5], [], DegenerateDesignError),
                                            ([6.5], [7.0, 7.0], UsageError)):
            with pytest.raises(error) as exc:
                require_fittable(self._columns(**{later.value: later_ids,
                                                  first.value: first_ids}))
            assert f"shot {first} " in str(exc.value)
