from __future__ import annotations

import math
import random

import pytest

from squashfitts import (DegenerateDesignError, DerivedTrial, DomainError, GroupKey,
                         ModelKind, PointingTrial, ShotKind, TrialRecord,
                         UndefinedCorrelationError, UsageError, fit_model,
                         group_stats, mean, model_design_row, ols_simple,
                         ols_two_predictor, pearson_r, population_sd,
                         predict_mt_welford)

import oracles


def _derived(person, shot, trial, id_bits, mt=1.0, ir=1.0, v=10.0):
    """DerivedTrial with hand-chosen derived values (for stats tests the
    derived fields are the data; the base record just needs to be valid)."""
    base = TrialRecord(person, shot, trial, 100.0, 0.1, 100.0, mt)
    return DerivedTrial(base=base, ball_speed_mps=v, id_bits=id_bits,
                        info_rate_bps=ir)


class TestMeanAndSd:
    def test_mean_reference_group(self):
        assert mean([6.8, 6.8, 7.01]) == pytest.approx(6.87, abs=1e-9)

    def test_mean_trivial(self):
        assert mean([5]) == 5
        assert mean([1, 2, 3]) == 2

    @pytest.mark.parametrize("function", [mean, population_sd])
    def test_empty_is_usage_error(self, function):
        with pytest.raises(UsageError, match=f"^{function.__name__} of empty sequence$"):
            function([])

    def test_population_sd_reproduces_published_spread(self):
        # divide-by-n gives 0.099 (published as 0.1); divide-by-(n-1)
        # would give 0.121 and not reproduce the published value
        sd = population_sd([6.8, 6.8, 7.01])
        assert sd == pytest.approx(0.099, abs=0.001)
        sample_sd = sd * math.sqrt(3 / 2)
        assert abs(sample_sd - 0.1) > abs(sd - 0.1)

    def test_population_sd_second_group(self):
        assert population_sd([5.21, 5.58, 5.34]) == pytest.approx(0.153, abs=0.001)

    def test_population_sd_constant_is_zero(self):
        assert math.fsum([0.1] * 3) / 3 != 0.1  # the mean misses the value by an ulp
        for xs in ([4.2, 4.2, 4.2], [0.1] * 3):
            assert population_sd(xs) == 0.0

    def test_population_sd_bounded_by_range(self):
        rng = random.Random(7)
        for _ in range(50):
            xs = [rng.uniform(-10, 10) for _ in range(rng.randint(1, 20))]
            sd = population_sd(xs)
            assert sd <= (max(xs) - min(xs)) + 1e-12
            assert (sd == 0.0) == (len(set(xs)) == 1)

    @pytest.mark.parametrize("function", [mean, population_sd])
    @pytest.mark.parametrize("value,message", [
        (None, "values must be a number, got None"), ("x", "values must be a number, got 'x'"),
        ("1_5", "values must be a number, got '1_5'"),  # float() read it as 15
        (b"4", "values must be a number, got b'4'"),
        (10**400, "values must be within the float range, got a number too large for a float"),
        (math.inf, "values must be finite numbers, got inf"),
        (math.nan, "values must be finite numbers, got nan")])
    def test_a_value_that_is_no_finite_number_is_a_domain_error(self, function, value,
                                                                 message):
        with pytest.raises(DomainError) as exc:
            function([1.0, value])
        assert (str(exc.value), exc.value.field) == (message, "values")

    def test_a_grammar_string_is_its_number(self):
        assert mean(["1.5", " 2.5 "]) == 2.0
        assert population_sd(["1", 3]) == 1.0


class TestGroupStats:
    def test_group_key_needs_a_field(self):
        with pytest.raises(UsageError):
            GroupKey()

    def test_person_shot_group_from_published_ids(self):
        trials = [_derived(1, ShotKind.DRIVE, i + 1, idb)
                  for i, idb in enumerate([6.8, 6.8, 7.01])]
        (g,) = group_stats(trials, "person_shot")
        assert g.key == GroupKey(person_id=1, shot=ShotKind.DRIVE)
        assert g.n == 3
        assert g.mean_id == pytest.approx(6.87, abs=0.01)
        assert g.sd_id == pytest.approx(0.10, abs=0.01)

    def test_shot_level_boast_group_from_published_ids(self):
        ids = [5.91, 5.59, 5.56, 5.5, 5.46, 5.54, 5.5, 5.6, 5.46]
        trials = [_derived(1 + i // 3, ShotKind.BOAST, i % 3 + 1, idb)
                  for i, idb in enumerate(ids)]
        (g,) = group_stats(trials, "shot")
        assert g.key == GroupKey(shot=ShotKind.BOAST)
        assert g.mean_id == pytest.approx(5.57, abs=0.01)
        assert g.sd_id == pytest.approx(0.13, abs=0.01)

    def test_singleton_group_has_zero_sd(self):
        (g,) = group_stats([_derived(1, ShotKind.LOB, 1, 6.0)], "person_shot")
        assert g.n == 1
        assert g.sd_id == 0.0
        assert g.sd_mt == 0.0

    def test_groups_ordered_person_then_shot(self, derived36):
        stats = group_stats(derived36, "person_shot")
        keys = [(g.key.person_id, g.key.shot) for g in stats]
        shot_order = list(ShotKind)
        expected = [(p, s) for p in (1, 2, 3) for s in shot_order]
        assert keys == expected

    def test_group_sizes_sum_to_total(self, derived36):
        for level in ("person_shot", "shot"):
            assert sum(g.n for g in group_stats(derived36, level)) == 36

    def test_empty_and_bad_level_are_usage_errors(self):
        with pytest.raises(UsageError):
            group_stats([], "shot")
        with pytest.raises(UsageError):
            group_stats([_derived(1, ShotKind.LOB, 1, 6.0)], "weekday")


class TestOlsSimple:
    def test_two_points(self):
        fit = ols_simple([(0, 0), (1, 1)])
        assert fit.slope == 1.0
        assert fit.intercept == 0.0
        assert fit.pearson_r == 1.0

    def test_noiseless_recovery(self):
        pts = [(x, 2.0 * x + 3.0) for x in range(1, 11)]
        fit = ols_simple(pts)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(3.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_oracle_on_reference_data(self, derived36):
        pts = [(t.id_bits, t.movement_time_s) for t in derived36]
        fit = ols_simple(pts)
        slope, intercept, r, r2 = oracles.ols_normal_equations(
            [p[0] for p in pts], [p[1] for p in pts])
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)
        assert fit.pearson_r == pytest.approx(r, abs=1e-9)

    def test_degenerate_design(self):
        assert math.fsum([0.1] * 3) / 3 != 0.1
        for x in (2.0, 0.1):
            with pytest.raises(DegenerateDesignError,
                               match=rf"^all 3 predictor values equal {x!r}; "):
                ols_simple([(x, 1.0), (x, 3.0), (x, 5.0)])

    def test_too_few_points(self):
        with pytest.raises(UsageError, match=r"^a line needs >= 2 points, got 1$"):
            ols_simple([(1.0, 2.0)])


class TestPearson:
    def test_perfect_positive_and_negative(self):
        inc = [(x, 3 * x + 1) for x in range(5)]
        dec = [(x, -2 * x + 7) for x in range(5)]
        assert pearson_r(inc) == pytest.approx(1.0, abs=1e-12)
        assert pearson_r(dec) == pytest.approx(-1.0, abs=1e-12)

    def test_reference_data_medium_positive(self, derived36):
        pts = [(t.id_bits, t.movement_time_s) for t in derived36]
        r = pearson_r(pts)
        _, _, oracle_r, _ = oracles.ols_normal_equations(
            [p[0] for p in pts], [p[1] for p in pts])
        assert 0.0 < r < 1.0
        assert r == pytest.approx(oracle_r, abs=1e-9)

    def test_one_point_is_a_usage_error(self):
        with pytest.raises(UsageError, match=r"^pearson_r needs >= 2 points, got 1$"):
            pearson_r([(1, 2)])

    def test_constant_data_is_undefined(self):
        assert math.fsum([0.1] * 3) / 3 != 0.1
        for points, axis in (([(1.0, 2.0), (1.0, 3.0)], "x"),
                             ([(1.0, 2.0), (3.0, 2.0)], "y"),
                             ([(1.0, 2.0), (1.0, 2.0)], "x"),  # both constant: x is named
                             ([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)], "x"),
                             ([(1.0, 0.1), (2.0, 0.1), (3.0, 0.1)], "y")):
            with pytest.raises(UndefinedCorrelationError) as exc:
                pearson_r(points)
            assert str(exc.value) == f"correlation undefined: {axis} is constant"


@pytest.mark.parametrize("call,field", [
    (lambda v: ols_simple([(v, 1.0), (2.0, 0.0), (3.0, 5.0)]), "x"),
    (lambda v: ols_simple([(1.0, v), (2.0, 0.0), (3.0, 5.0)]), "y"),
    (lambda v: pearson_r([(v, 1.0), (2.0, 0.0), (3.0, 5.0)]), "x"),
    (lambda v: ols_two_predictor([(1.0, v, 1.0), (2.0, 0.0, 2.0), (3.0, 5.0, 3.0)]), "x2"),
], ids=["ols_simple-x", "ols_simple-y", "pearson_r-x", "ols_two_predictor-x2"])
@pytest.mark.parametrize("value", [None, "1_0", 10**400, math.inf, -math.inf, math.nan])
def test_a_point_that_is_no_finite_number_is_a_domain_error_naming_its_column(call, field,
                                                                              value):
    # an infinity among these points made math.fsum raise a bare ValueError
    # (-inf + inf), and a NaN gave pearson_r = 1.0
    with pytest.raises(DomainError) as exc:
        call(value)
    assert exc.value.field == field


class TestOlsTwoPredictor:
    def test_noiseless_recovery(self):
        rows = [(x1 * 0.5, (x1 * 7 % 5) + 0.25,  0.0) for x1 in range(20)]
        rows = [(x1, x2, 0.2 + 0.1 * x1 + 0.3 * x2) for x1, x2, _ in rows]
        fit = ols_two_predictor(rows)
        assert fit.a == pytest.approx(0.2, abs=1e-9)
        assert fit.b1 == pytest.approx(0.1, abs=1e-9)
        assert fit.b2 == pytest.approx(0.3, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.predict(2.0, 3.0) == pytest.approx(0.2 + 0.1 * 2.0 + 0.3 * 3.0, abs=1e-9)

    def test_collinear_predictors_raise(self):
        rows = [(x, 2.0 * x, 1.0 + x) for x in range(10)]
        with pytest.raises(DegenerateDesignError) as exc:
            ols_two_predictor(rows)
        assert "collinear" in str(exc.value)

    @pytest.mark.parametrize("rows,message", [
        ([(5.0, x, 1.0 + x) for x in range(10)],
         "predictor x1 is constant (collinear with the intercept column)"),
        ([(x, -2.5, 1.0 + x) for x in range(10)],
         "predictor x2 is constant (collinear with the intercept column)"),
        ([(5.0, -2.5, 1.0 + x) for x in range(10)],
         "both predictors are constant (collinear with the intercept column)"),
        ([(0.1, x, 1.0 + x) for x in range(3)],
         "predictor x1 is constant (collinear with the intercept column)"),
        ([(x, 0.1, 1.0 + x) for x in range(3)],
         "predictor x2 is constant (collinear with the intercept column)"),
        ([(0.1, 0.1, 1.0 + x) for x in range(3)],
         "both predictors are constant (collinear with the intercept column)"),
    ], ids=["x1", "x2", "both", "x1_at_0.1", "x2_at_0.1", "both_at_0.1"])
    def test_constant_predictor_names_the_column(self, rows, message):
        assert math.fsum([0.1] * 3) / 3 != 0.1
        with pytest.raises(DegenerateDesignError) as exc:
            ols_two_predictor(rows)
        assert str(exc.value) == message

    def test_too_few_rows(self):
        with pytest.raises(UsageError):
            ols_two_predictor([(1, 2, 3), (2, 3, 4)])

    def test_three_rows_that_are_not_collinear_are_enough(self):
        fit = ols_two_predictor([(0.0, 0.0, 1.0), (1.0, 0.0, 3.0), (0.0, 1.0, 4.0)])
        assert fit.n == 3
        assert (fit.a, fit.b1, fit.b2) == pytest.approx((1.0, 2.0, 3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_recovery_within_three_standard_errors(self):
        rows = oracles.mc_welford_rows()
        fit = ols_two_predictor(rows)
        oracle = oracles.ols2_cramer(rows)
        for got, frozen, ind in zip((fit.a, fit.b1, fit.b2),
                                    oracles.FROZEN_MC_WELFORD_COEF, oracle):
            assert got == pytest.approx(frozen, abs=1e-9)
            assert got == pytest.approx(ind, abs=1e-9)
        for got, planted, se in zip((fit.a, fit.b1, fit.b2),
                                    oracles.MC_PLANT,
                                    oracles.FROZEN_MC_WELFORD_SE):
            assert abs(got - planted) <= 3.0 * se


class TestFitModel:
    def test_squash_is_a_usage_error_naming_the_overall_fit(self, derived36):
        for call in (lambda: fit_model("squash", derived36),
                     lambda: model_design_row(ModelKind.SQUASH_ID, derived36[0])):
            with pytest.raises(UsageError) as exc:
                call()
            assert "run_analysis(...).overall_fit" in str(exc.value)
            assert "stats.fit_overall" in str(exc.value)

    def test_welford_noiseless_recovery(self):
        trials = []
        for i in range(24):
            amp = 1.0 + i * 0.5
            wid = 0.25 + (i % 6) * 0.3
            mt = predict_mt_welford(0.4, 0.12, 0.31, amp, wid)
            trials.append(PointingTrial(amplitude=amp, width=wid,
                                        movement_time_s=mt))
        fit = fit_model("welford", trials)
        assert fit.a == pytest.approx(0.4, abs=1e-9)
        assert fit.b1 == pytest.approx(0.12, abs=1e-9)
        assert fit.b2 == pytest.approx(0.31, abs=1e-9)

    def test_mackenzie_noiseless_recovery(self):
        trials = []
        for i in range(15):
            amp, wid = 1.0 + i, 2.0
            mt = 0.1 + 0.15 * math.log2(2 * amp / wid + 1)
            trials.append(PointingTrial(amplitude=amp, width=wid,
                                        movement_time_s=mt))
        fit = fit_model("mackenzie", trials)
        assert fit.slope == pytest.approx(0.15, abs=1e-9)
        assert fit.intercept == pytest.approx(0.1, abs=1e-9)

    def test_incompatible_data_is_usage_error(self, derived36):
        with pytest.raises(UsageError):
            fit_model("fitts", derived36)
        with pytest.raises(UsageError):
            fit_model("squash", [PointingTrial(amplitude=1, width=1,
                                               movement_time_s=1)])
        with pytest.raises(UsageError):
            fit_model("squash", [])
