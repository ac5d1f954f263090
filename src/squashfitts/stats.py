"""Descriptive statistics, least-squares fitting, and a run's settings and overall line.

Everything here is exact arithmetic over the inputs (math.fsum for the
accumulations, no iterative solvers). Standard deviations use the
population convention (divide by n): that is the convention under which
the grouped spreads published alongside the bundled dataset are
reproduced, e.g. ids [6.8, 6.8, 7.01] give 0.099 (published as 0.1)
where the n-1 convention would give 0.121.

Degenerate regression designs raise instead of falling back to a
pseudo-inverse, so data problems surface loudly.
"""
import math
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from .core import _SHOT_ORDER, DerivedTrial, ShotKind, _Checked, _require_setting
from .errors import DegenerateDesignError, UndefinedCorrelationError, UsageError

#: Relative threshold below which a design's scaled determinant counts as zero.
_RANK_TOL = 1e-12


def _mean(xs: Sequence[float]) -> float:
    """Mean of a non-empty float column. The sum is a math.fsum, correctly
    rounded and so independent of the column's order."""
    return math.fsum(xs) / len(xs)


def _centred(xs: Sequence[float]) -> tuple[float, float]:
    """The column kernel: (mean, centred sum of squares) of a non-empty
    float column; the sum is 0.0 where all values are equal, though the mean can miss them."""
    xbar = _mean(xs)
    ss = math.fsum([(x - xbar) ** 2 for x in xs])
    return xbar, 0.0 if ss and xs[0] == xs[-1] and min(xs) == max(xs) else ss


def _sxy(xs: Sequence[float], ys: Sequence[float], xbar: float, ybar: float) -> float:
    """Centred sum of cross products of two columns, completing _centred
    for a line."""
    return math.fsum([(x - xbar) * (y - ybar) for x, y in zip(xs, ys)])


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean. Empty input is a usage error."""
    vals = [float(v) for v in values]
    if not vals:
        raise UsageError("mean of empty sequence")
    return _mean(vals)


def population_sd(values: Iterable[float]) -> float:
    """Population (divide-by-n) standard deviation."""
    vals = [float(v) for v in values]
    if not vals:
        raise UsageError("population_sd of empty sequence")
    return math.sqrt(_centred(vals)[1] / len(vals))


class GroupKey(_Checked, NamedTuple("GroupKey", [("person_id", int | None),
                                                 ("shot", ShotKind | None)])):
    """Identifies a statistics group; an absent field is marginalized over."""

    __slots__ = ()

    def __new__(cls, person_id: int | None = None, shot: ShotKind | None = None):
        if person_id is None and shot is None:
            raise UsageError("GroupKey needs at least one of person_id, shot")
        return tuple.__new__(cls, (person_id, shot))

    def __str__(self) -> str:
        parts = []
        if self.person_id is not None:
            parts.append(f"person {self.person_id}")
        if self.shot is not None:
            parts.append(str(self.shot))
        return " / ".join(parts)


class GroupStats(NamedTuple):
    """Mean/SD aggregates of one group of derived trials."""

    key: GroupKey
    n: int
    mean_id: float
    sd_id: float
    mean_mt: float
    sd_mt: float
    mean_ir: float


class LinearFit(NamedTuple):
    """Slope/intercept of a single-predictor least-squares line plus
    goodness of fit. r_squared equals pearson_r**2 by construction."""

    slope: float
    intercept: float
    pearson_r: float
    r_squared: float
    n: int

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


class WelfordFit(NamedTuple):
    """Intercept and two slopes of the two-predictor movement-time model."""

    a: float
    b1: float
    b2: float
    r_squared: float
    n: int

    def predict(self, x1: float, x2: float) -> float:
        return self.a + self.b1 * x1 + self.b2 * x2


def _columns(points) -> tuple[list[float], list[float]]:
    pts = [(float(x), float(y)) for x, y in points]
    return [x for x, _ in pts], [y for _, y in pts]


def cell_stats(cell: tuple, ids, mts, irs) -> GroupStats:
    """GroupStats of one (person_id, shot) cell from its ID, MT and IR
    columns, built unchecked: a cell is always a valid GroupKey."""
    n = len(ids)
    mean_id, ss_id = _centred(ids)
    mean_mt, ss_mt = _centred(mts)
    return tuple.__new__(GroupStats, (
        tuple.__new__(GroupKey, cell), n, mean_id, math.sqrt(ss_id / n),
        mean_mt, math.sqrt(ss_mt / n), _mean(irs)))


class Aggregation(NamedTuple):
    """What :func:`aggregate` returns: the trials in canonical order
    (person, shot declaration order, trial index), the GroupStats of each
    (person, shot) cell and of each shot, and shot -> (ids, mts) columns
    in table order for every ShotKind (empty for a shot without trials)."""

    table: tuple
    per_person_shot: tuple
    per_shot: tuple
    columns: dict


_TRIAL_INDEX = attrgetter("base.trial_index")


def aggregate(trials: Iterable[DerivedTrial]) -> Aggregation:
    """Group derived trials into (person, shot) cells in one pass, the one
    place that groups trials. math.fsum is correctly rounded, so every
    number equals, bit for bit, the same formula over the group's trials
    in any order."""
    cells: dict[tuple, list] = {}
    for t in trials:
        cells.setdefault((t.base.person_id, t.base.shot), []).append(t)

    table = []
    per_person_shot = []
    by_shot = {kind: ([], [], []) for kind in ShotKind}  # (ids, mts, irs)
    for cell in sorted(cells, key=lambda cell: (cell[0], _SHOT_ORDER[cell[1]])):
        members = cells[cell]
        members.sort(key=_TRIAL_INDEX)  # unique within a dataset's cell
        table += members
        ids = [t.id_bits for t in members]
        mts = [t.base.movement_time_s for t in members]
        irs = [t.info_rate_bps for t in members]
        per_person_shot.append(cell_stats(cell, ids, mts, irs))
        shot_ids, shot_mts, shot_irs = by_shot[cell[1]]
        shot_ids += ids
        shot_mts += mts
        shot_irs += irs
    per_shot = [cell_stats((None, kind), *columns)
                for kind, columns in by_shot.items() if columns[0]]
    return Aggregation(tuple(table), tuple(per_person_shot), tuple(per_shot),
                       {kind: (ids, mts) for kind, (ids, mts, _) in by_shot.items()})


def group_stats(trials: Sequence[DerivedTrial], level: str = "person_shot",
                ) -> list[GroupStats]:
    """Aggregate derived trials at person-by-shot or shot-only level.

    Output is ordered by person id then shot declaration order; each
    non-empty group yields one entry.
    """
    trials = list(trials)
    if not trials:
        raise UsageError("group_stats of empty trial sequence")
    if level not in ("person_shot", "shot"):
        raise UsageError(f"unknown grouping level {level!r} "
                         "(expected 'person_shot' or 'shot')")
    groups = aggregate(trials)
    return list(groups.per_person_shot if level == "person_shot"
                else groups.per_shot)


def fit_columns(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """ols_simple of the points zip(xs, ys), given as float columns."""
    n = len(xs)
    if n < 2:
        raise UsageError(f"a line needs >= 2 points, got {n}")
    xbar, sxx = _centred(xs)
    ybar, syy = _centred(ys)
    sxy = _sxy(xs, ys, xbar, ybar)
    if sxx == 0.0:
        raise DegenerateDesignError(
            f"all {n} predictor values equal {xs[0]!r}; no line is determined")
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    if syy == 0.0:
        # flat response: the line fits perfectly but carries no association
        r = 0.0
    else:
        r = sxy / math.sqrt(sxx * syy)
        r = max(-1.0, min(1.0, r))
    return LinearFit(slope=slope, intercept=intercept,
                     pearson_r=r, r_squared=r * r, n=n)


#: Base tolerance for comparing computed aggregates against published ones.
STATS_TOLERANCE = 0.01


class AnalysisOptions(_Checked, NamedTuple("AnalysisOptions", [
        ("exclude_shots", frozenset), ("stats_tolerance", float)])):
    """The two settings of a run: exclude_shots filters the *overall* fit
    only (grouped statistics, per-shot and single-shot-excluded fits and
    per-shot figures cover the full dataset); stats_tolerance is the base
    tolerance of the published-aggregate cross-checks."""

    __slots__ = ()

    def __new__(cls, exclude_shots=frozenset(), stats_tolerance=STATS_TOLERANCE):
        if isinstance(exclude_shots, str) or not hasattr(exclude_shots, "__iter__"):
            raise UsageError("exclude_shots must be a collection of shot labels, "
                             f"got {exclude_shots!r}")
        shots = frozenset(ShotKind.parse(s) for s in exclude_shots)
        if len(shots) >= len(ShotKind):
            raise UsageError("cannot exclude all four shot kinds")
        return tuple.__new__(cls, (shots, _require_setting(stats_tolerance,
                                                           "stats_tolerance")))

    @property
    def overall_subset(self) -> str:
        if not self.exclude_shots:
            return "all"
        names = sorted(s.value.lower() for s in self.exclude_shots)
        return "exclude_" + "+".join(names)


def fit_overall(columns: dict, options: AnalysisOptions) -> LinearFit:
    """The overall MT-vs-ID line over the shots options keeps, from the
    columns of :func:`aggregate` or ``core._shot_columns``, joined in shot
    order: the report's, the figures' and ``fit --model squash``'s."""
    xs, ys = [], []
    for kind in ShotKind:
        if kind not in options.exclude_shots:
            ids, mts = columns[kind]
            xs += ids
            ys += mts
    try:
        return fit_columns(xs, ys)
    except (UsageError, DegenerateDesignError) as exc:  # < 2 points, or all IDs equal
        raise type(exc)(f"overall fit ({options.overall_subset}): {exc}")


def ols_simple(points: Sequence[tuple[float, float]]) -> LinearFit:
    """Least-squares line through (x, y) points.

    slope = cov(x, y) / var(x); exact on noiseless linear data. Requires
    two or more points with at least two distinct x values.
    """
    return fit_columns(*_columns(points))


def pearson_r(points: Sequence[tuple[float, float]]) -> float:
    """Product-moment correlation of (x, y) points, in [-1, 1]."""
    xs, ys = _columns(points)
    if len(xs) < 2:
        raise UsageError(f"pearson_r needs >= 2 points, got {len(xs)}")
    xbar, sxx = _centred(xs)
    ybar, syy = _centred(ys)
    if sxx == 0.0 or syy == 0.0:
        which = "x" if sxx == 0.0 else "y"
        raise UndefinedCorrelationError(f"correlation undefined: {which} is constant")
    return max(-1.0, min(1.0, _sxy(xs, ys, xbar, ybar) / math.sqrt(sxx * syy)))


def ols_two_predictor(rows: Sequence[tuple[float, float, float]]) -> WelfordFit:
    """Least-squares fit of y = a + b1*x1 + b2*x2.

    Solved through the centered normal equations (a 2x2 system after
    eliminating the intercept), which is closed-form and well conditioned
    at this problem size. Rank deficiency raises naming the collinear
    columns.
    """
    data = [(float(x1), float(x2), float(y)) for x1, x2, y in rows]
    n = len(data)
    if n < 3:
        raise UsageError(f"ols_two_predictor needs >= 3 rows, got {n}")
    x1s, x2s, ys = (list(column) for column in zip(*data))
    x1bar, s11 = _centred(x1s)
    x2bar, s22 = _centred(x2s)
    ybar, sst = _centred(ys)
    s12 = _sxy(x1s, x2s, x1bar, x2bar)
    s1y = _sxy(x1s, ys, x1bar, ybar)
    s2y = _sxy(x2s, ys, x2bar, ybar)

    if s11 == 0.0 or s22 == 0.0:
        which = ("both predictors are" if s11 == s22 else
                 "predictor x1 is" if s11 == 0.0 else "predictor x2 is")
        raise DegenerateDesignError(f"{which} constant (collinear with the intercept column)")
    det = s11 * s22 - s12 * s12
    if det <= _RANK_TOL * s11 * s22:
        raise DegenerateDesignError(
            "predictors x1 and x2 are collinear; the design is rank deficient")

    b1 = (s1y * s22 - s2y * s12) / det
    b2 = (s2y * s11 - s1y * s12) / det
    a = ybar - b1 * x1bar - b2 * x2bar

    sse = math.fsum((r[2] - (a + b1 * r[0] + b2 * r[1])) ** 2 for r in data)
    r_squared = 0.0 if sst == 0.0 else max(0.0, min(1.0, 1.0 - sse / sst))
    return WelfordFit(a=a, b1=b1, b2=b2, r_squared=r_squared, n=n)

