from __future__ import annotations

import math

import pytest

from squashfitts import (DomainError, ModelKind, PointingTrial, ShotKind,
                         TrialRecord, UsageError, derive_trial,
                         id_fitts_original, id_mackenzie, model_design_row,
                         predict_mt_steering, predict_mt_welford)


def test_fitts_original_anchors():
    assert id_fitts_original(5.0, 5.0) == 1.0          # A = W -> log2(2)
    assert id_fitts_original(8.0, 1.0) == 4.0
    assert id_fitts_original(10.0, 5.0) == 2.0


def test_fitts_original_negative_exactly_when_2a_below_w():
    assert id_fitts_original(1.0, 3.0) < 0.0           # 2A = 2 < 3
    assert id_fitts_original(1.5, 3.0) == 0.0          # 2A = W
    assert id_fitts_original(2.0, 3.0) > 0.0


def test_fitts_original_rejects_non_positive():
    with pytest.raises(DomainError):
        id_fitts_original(0.0, 1.0)
    with pytest.raises(DomainError):
        id_fitts_original(1.0, 0.0)


def _welford(amplitude, width):
    return predict_mt_welford(0.1, 0.2, 0.3, amplitude, width)


def _steering(amplitude, width):
    return predict_mt_steering(0.1, 0.2, amplitude, width)


@pytest.mark.parametrize("formula,amplitude,width,message,field", [
    (id_fitts_original, 0.0, 2.0, "amplitude must be > 0, got 0.0", "amplitude"),
    (id_fitts_original, -1.5, 2.0, "amplitude must be > 0, got -1.5", "amplitude"),
    (id_fitts_original, math.nan, 2.0, "amplitude must be > 0, got nan", "amplitude"),
    (id_fitts_original, 3.0, 0.0, "width must be > 0, got 0.0", "width"),
    (id_fitts_original, 3.0, -1.5, "width must be > 0, got -1.5", "width"),
    (id_fitts_original, 3.0, math.nan, "width must be > 0, got nan", "width"),
    (id_fitts_original, 0, -2, "amplitude must be > 0, got 0", "amplitude"),
    (id_mackenzie, -1.5, 2.0, "amplitude must be >= 0, got -1.5", "amplitude"),
    (id_mackenzie, math.nan, 2.0, "amplitude must be >= 0, got nan", "amplitude"),
    (id_mackenzie, 0.0, 0.0, "width must be > 0, got 0.0", "width"),
    (id_mackenzie, 3.0, -1.5, "width must be > 0, got -1.5", "width"),
    (id_mackenzie, 3.0, math.nan, "width must be > 0, got nan", "width"),
    (id_mackenzie, -1, math.nan, "amplitude must be >= 0, got -1", "amplitude"),
    (_welford, 0.0, 2.0, "amplitude must be > 0, got 0.0", "amplitude"),
    (_welford, -1.5, 2.0, "amplitude must be > 0, got -1.5", "amplitude"),
    (_welford, math.nan, 2.0, "amplitude must be > 0, got nan", "amplitude"),
    (_welford, 3.0, 0.0, "width must be > 0, got 0.0", "width"),
    (_welford, 3.0, -1.5, "width must be > 0, got -1.5", "width"),
    (_welford, 3.0, math.nan, "width must be > 0, got nan", "width"),
    (_welford, math.nan, 0.0, "amplitude must be > 0, got nan", "amplitude"),
    (_steering, 3.0, 0.0, "width must be > 0, got 0.0", "width"),
    (_steering, -1.5, -1.5, "width must be > 0, got -1.5", "width"),
    (_steering, math.nan, math.nan, "width must be > 0, got nan", "width"),
])
def test_formula_domain_error_text(formula, amplitude, width, message, field):
    """The exact message and field of each formula's argument checks; the
    amplitude is checked first."""
    with pytest.raises(DomainError) as exc:
        formula(amplitude, width)
    assert (str(exc.value), exc.value.field) == (message, field)


def test_steering_checks_only_the_width():
    assert _steering(0.0, 2.0) == 0.1
    assert _steering(-4.0, 2.0) == pytest.approx(-0.3)


def test_mackenzie_anchors():
    assert id_mackenzie(0.0, 5.0) == 0.0
    assert id_mackenzie(3.5, 1.0) == 3.0               # log2(8)
    assert id_mackenzie(2.0, 2.0) == pytest.approx(math.log2(3.0), abs=1e-12)


def test_mackenzie_non_negative_everywhere():
    for a, w in [(0.0, 1.0), (0.01, 10.0), (5.0, 0.1), (100.0, 100.0)]:
        assert id_mackenzie(a, w) >= 0.0


def test_mackenzie_converges_to_original_at_large_ratio():
    a, w = 1e6, 1.0
    assert abs(id_mackenzie(a, w) - id_fitts_original(a, w)) < 1e-5


def test_welford_prediction_anchors():
    assert predict_mt_welford(0.0, 1.0, 1.0, 2.0, 0.5) == 2.0
    assert predict_mt_welford(0.3, 0.0, 0.0, 5.0, 1.0) == 0.3
    assert predict_mt_welford(0.0, 1.0, 0.0, 8.0, 3.0) == 3.0


def test_welford_equal_slopes_reduce_to_log_ratio():
    a, b = 0.17, 0.42
    for amp, wid in [(2.0, 0.5), (7.3, 1.9), (100.0, 3.0)]:
        combined = a + b * math.log2(amp / wid)
        assert predict_mt_welford(a, b, b, amp, wid) == pytest.approx(
            combined, abs=1e-12)


def test_steering_prediction_anchors():
    assert predict_mt_steering(0.1, 0.2, 5.0, 1.0) == pytest.approx(1.1)
    assert predict_mt_steering(0.0, 1.0, 3.0, 3.0) == 1.0
    assert predict_mt_steering(0.5, 0.0, 123.0, 4.0) == 0.5
    with pytest.raises(DomainError):
        predict_mt_steering(0.0, 1.0, 1.0, 0.0)


def test_pointing_trial_validation():
    PointingTrial(amplitude=0.0, width=1.0, movement_time_s=0.5)  # A = 0 is fine
    with pytest.raises(DomainError):
        PointingTrial(amplitude=1.0, width=0.0, movement_time_s=0.5)
    with pytest.raises(DomainError):
        PointingTrial(amplitude=1.0, width=1.0, movement_time_s=0.0)


@pytest.mark.parametrize("value", [None, "2", [1.0], complex(1, 0)],
                         ids=["none", "string", "list", "complex"])
@pytest.mark.parametrize("field,rule", [("amplitude", ">= 0"), ("width", "> 0"),
                                        ("movement_time_s", "> 0")])
def test_pointing_trial_non_number_is_domain_error(field, rule, value):
    fields = {"amplitude": 1.0, "width": 1.0, "movement_time_s": 1.0, field: value}
    with pytest.raises(DomainError) as exc:
        PointingTrial(**fields)
    assert exc.value.field == field
    assert str(exc.value) == f"{field} must be a finite number {rule}, got {value!r}"


@pytest.mark.parametrize("value", [10**400, -10**400, 10**5000],
                         ids=["1e400", "-1e400", "1e5000"])
@pytest.mark.parametrize("field,rule", [("amplitude", ">= 0"), ("width", "> 0"),
                                        ("movement_time_s", "> 0")])
def test_pointing_trial_int_beyond_the_float_range_is_domain_error(field, rule, value):
    fields = {"amplitude": 1.0, "width": 1.0, "movement_time_s": 1.0, field: value}
    with pytest.raises(DomainError) as exc:
        PointingTrial(**fields)
    assert (str(exc.value), exc.value.field) == (
        f"{field} must be a finite number {rule}, got a number too large for a float", field)


def test_model_kind_parse_and_names():
    assert ModelKind.parse("SQUASH") is ModelKind.SQUASH_ID
    assert ModelKind.parse(" welford ") is ModelKind.WELFORD
    for kind in ModelKind:
        for name in (kind, kind.value, kind.value.upper(), f" {kind.value}\t"):
            assert ModelKind.parse(name) is kind
    for name in ("", "SQUASH_ID", "fitts2", None):
        with pytest.raises(UsageError) as exc:
            ModelKind.parse(name)
        assert str(exc.value) == (f"unknown model {name!r} (valid models: "
                                  "squash, fitts, mackenzie, welford, steering)")
    with pytest.raises(UsageError) as exc:
        ModelKind.parse("nosuch")
    # the error must list the valid names for the CLI to relay
    for name in ("squash", "fitts", "mackenzie", "welford", "steering"):
        assert name in str(exc.value)


def test_design_rows():
    pt = PointingTrial(amplitude=8.0, width=1.0, movement_time_s=0.9)
    assert model_design_row(ModelKind.FITTS_ORIGINAL, pt) == [4.0]
    pt2 = PointingTrial(amplitude=2.0, width=0.5, movement_time_s=0.9)
    assert model_design_row(ModelKind.WELFORD, pt2) == [1.0, 1.0]
    assert model_design_row(ModelKind.STEERING, pt2) == [4.0]
    assert model_design_row(ModelKind.MACKENZIE_SHANNON, pt2) == \
        [math.log2(2 * 2.0 / 0.5 + 1.0)]


def test_design_row_type_mismatch_is_usage_error():
    rec = TrialRecord(1, ShotKind.DRIVE, 1, 586, 0.197, 374, 1.22)
    with pytest.raises(UsageError):
        model_design_row(ModelKind.SQUASH_ID,
                         PointingTrial(amplitude=1, width=1, movement_time_s=1))
    with pytest.raises(UsageError):
        model_design_row(ModelKind.FITTS_ORIGINAL, derive_trial(rec))

