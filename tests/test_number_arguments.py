"""Every public number argument against a table of hostile values.

Each call either returns or raises a SquashFittsError; a DomainError names
the argument in .field. A value that is no number, or that no float holds,
is always refused. The table must cover every float-annotated parameter of
a public function and every field of the checked records, so a new public
number argument has to be added here.
"""
from __future__ import annotations

import inspect
from functools import cache

import pytest

import squashfitts as sf
from squashfitts import DomainError, SquashFittsError

#: Values that are no number, a str outside the cells' number grammar, or
#: ints that no float holds: refused by every number argument, except that
#: 10**400 is a valid integer id.
REFUSED = [None, "x", "", "1_0", "\uff12", b"4", [4], object(), complex(1, 0),
           10**400, -10**5000]
INTEGER_IDS = {("TrialRecord", "person_id"), ("TrialRecord", "trial_index")}

#: Numbers at the edges of the rules: each call returns or refuses.
EDGES = [float("nan"), float("inf"), float("-inf"), -1, 0, -0.0, True]

POINTING = sf.PointingTrial(8.0, 1.0, 0.9)
TEXT = "person,shot,trial,db_cm,t_s,dp_cm,mt_s\n1,Drive,1,586,0.197,374,1.22\n"


@cache
def _trials():
    return [sf.derive_trial(t) for t in sf.bundled_dataset().trials]


@cache
def _document():
    return sf.run_analysis(sf.bundled_dataset())


#: (public name, parameter, the .field of a DomainError, call of a value v).
#: A parameter that holds many numbers (values, points, rows) has a row per
#: slot, each naming its column.
TABLE = [
    ("TrialRecord", "person_id", "person_id",
     lambda v: sf.TrialRecord(v, "Drive", 1, 586.0, 0.197, 374.0, 1.22)),
    ("TrialRecord", "shot", "shot",
     lambda v: sf.TrialRecord(1, v, 1, 586.0, 0.197, 374.0, 1.22)),
    ("TrialRecord", "trial_index", "trial_index",
     lambda v: sf.TrialRecord(1, "Drive", v, 586.0, 0.197, 374.0, 1.22)),
    ("TrialRecord", "ball_distance_cm", "ball_distance_cm",
     lambda v: sf.TrialRecord(1, "Drive", 1, v, 0.197, 374.0, 1.22)),
    ("TrialRecord", "ball_time_s", "ball_time_s",
     lambda v: sf.TrialRecord(1, "Drive", 1, 586.0, v, 374.0, 1.22)),
    ("TrialRecord", "player_distance_cm", "player_distance_cm",
     lambda v: sf.TrialRecord(1, "Drive", 1, 586.0, 0.197, v, 1.22)),
    ("TrialRecord", "movement_time_s", "movement_time_s",
     lambda v: sf.TrialRecord(1, "Drive", 1, 586.0, 0.197, 374.0, v)),
    ("ShotKind.parse", "label", "shot", lambda v: sf.ShotKind.parse(v)),
    ("ModelKind.parse", "name", None, lambda v: sf.ModelKind.parse(v)),
    ("ball_speed", "ball_distance_cm", "ball_distance_cm", lambda v: sf.ball_speed(v, 0.197)),
    ("ball_speed", "ball_time_s", "ball_time_s", lambda v: sf.ball_speed(586.0, v)),
    ("index_of_difficulty", "ball_speed_mps", "ball_speed_mps",
     lambda v: sf.index_of_difficulty(v, 3.74)),
    ("index_of_difficulty", "player_distance_m", "player_distance_m",
     lambda v: sf.index_of_difficulty(29.7, v)),
    ("information_rate", "id_bits", "id_bits", lambda v: sf.information_rate(v, 1.22)),
    ("information_rate", "movement_time_s", "movement_time_s",
     lambda v: sf.information_rate(6.8, v)),
    ("parse_csv", "slowdown_factor", None, lambda v: sf.parse_csv(TEXT, slowdown_factor=v)),
    ("figure_series", "figure", None, lambda v: sf.figure_series(_document(), v)),
    ("AnalysisOptions", "exclude_shots", "shot", lambda v: sf.AnalysisOptions(exclude_shots=v)),
    ("AnalysisOptions", "exclude_shots", "shot",
     lambda v: sf.AnalysisOptions(exclude_shots=[v])),
    ("AnalysisOptions", "stats_tolerance", None,
     lambda v: sf.AnalysisOptions(stats_tolerance=v)),
    ("group_stats", "level", None, lambda v: sf.group_stats(_trials(), level=v)),
    ("mean", "values", "values", lambda v: sf.mean([1.0, v])),
    ("population_sd", "values", "values", lambda v: sf.population_sd([1.0, v])),
    ("ols_simple", "points", "x", lambda v: sf.ols_simple([(v, 1.0), (2.0, 0.0), (3.0, 5.0)])),
    ("ols_simple", "points", "y", lambda v: sf.ols_simple([(1.0, v), (2.0, 0.0), (3.0, 5.0)])),
    ("pearson_r", "points", "x", lambda v: sf.pearson_r([(v, 1.0), (2.0, 0.0), (3.0, 5.0)])),
    ("pearson_r", "points", "y", lambda v: sf.pearson_r([(1.0, v), (2.0, 0.0), (3.0, 5.0)])),
    ("ols_two_predictor", "rows", "x1", lambda v: sf.ols_two_predictor(
        [(v, 1.0, 1.0), (2.0, 0.0, 2.0), (3.0, 5.0, 3.0), (1.0, 1.0, 0.0)])),
    ("ols_two_predictor", "rows", "x2", lambda v: sf.ols_two_predictor(
        [(1.0, v, 1.0), (2.0, 0.0, 2.0), (3.0, 5.0, 3.0), (1.0, 1.0, 0.0)])),
    ("ols_two_predictor", "rows", "y", lambda v: sf.ols_two_predictor(
        [(1.0, 1.0, v), (2.0, 0.0, 2.0), (3.0, 5.0, 3.0), (1.0, 1.0, 0.0)])),
    ("PointingTrial", "amplitude", "amplitude", lambda v: sf.PointingTrial(v, 1.0, 0.5)),
    ("PointingTrial", "width", "width", lambda v: sf.PointingTrial(8.0, v, 0.5)),
    ("PointingTrial", "movement_time_s", "movement_time_s",
     lambda v: sf.PointingTrial(8.0, 1.0, v)),
    ("id_fitts_original", "amplitude", "amplitude", lambda v: sf.id_fitts_original(v, 1.0)),
    ("id_fitts_original", "width", "width", lambda v: sf.id_fitts_original(8.0, v)),
    ("id_mackenzie", "amplitude", "amplitude", lambda v: sf.id_mackenzie(v, 1.0)),
    ("id_mackenzie", "width", "width", lambda v: sf.id_mackenzie(8.0, v)),
    ("predict_mt_welford", "a", "a", lambda v: sf.predict_mt_welford(v, 1.0, 1.0, 2.0, 0.5)),
    ("predict_mt_welford", "b1", "b1", lambda v: sf.predict_mt_welford(0.1, v, 1.0, 2.0, 0.5)),
    ("predict_mt_welford", "b2", "b2", lambda v: sf.predict_mt_welford(0.1, 1.0, v, 2.0, 0.5)),
    ("predict_mt_welford", "amplitude", "amplitude",
     lambda v: sf.predict_mt_welford(0.1, 1.0, 1.0, v, 0.5)),
    ("predict_mt_welford", "width", "width",
     lambda v: sf.predict_mt_welford(0.1, 1.0, 1.0, 2.0, v)),
    ("predict_mt_steering", "a", "a", lambda v: sf.predict_mt_steering(v, 0.2, 5.0, 1.0)),
    ("predict_mt_steering", "b", "b", lambda v: sf.predict_mt_steering(0.1, v, 5.0, 1.0)),
    ("predict_mt_steering", "amplitude", "amplitude",
     lambda v: sf.predict_mt_steering(0.1, 0.2, v, 1.0)),
    ("predict_mt_steering", "width", "width", lambda v: sf.predict_mt_steering(0.1, 0.2, 5.0, v)),
    ("fit_model", "kind", None, lambda v: sf.fit_model(v, [POINTING] * 3)),
    ("model_design_row", "kind", None, lambda v: sf.model_design_row(v, POINTING)),
]


def _required() -> set:
    """(name, parameter) of every float-annotated parameter of a public
    function, and (record, field) of every field of the checked records."""
    required = {(record.__name__, field)
                for record in (sf.TrialRecord, sf.PointingTrial, sf.AnalysisOptions)
                for field in record._fields}
    for name in sf.__all__:
        obj = getattr(sf, name)
        if inspect.isfunction(obj):
            required |= {(name, p.name) for p in inspect.signature(obj).parameters.values()
                         if "float" in str(p.annotation)}
    return required


def test_the_table_covers_every_public_number_argument():
    assert _required() <= {(name, parameter) for name, parameter, _, _ in TABLE}


@pytest.mark.parametrize("name,parameter,field,call", TABLE,
                         ids=[f"{name}-{parameter}-{field}" for name, parameter, field, _ in TABLE])
def test_a_hostile_value_returns_or_is_a_named_refusal(name, parameter, field, call):
    refused_values = [v for v in REFUSED if (name, parameter) not in INTEGER_IDS or v != 10**400]
    for refused, values in ((True, refused_values), (False, EDGES)):
        for i, value in enumerate(values):
            try:
                call(value)
            except SquashFittsError as exc:
                assert not isinstance(exc, DomainError) or exc.field == field, str(exc)
            else:
                assert not refused, f"REFUSED[{i}] was taken"
