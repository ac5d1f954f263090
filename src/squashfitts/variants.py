"""The pointing task: aimed-movement models with an explicit closed form,
read from amplitude,width,mt_s CSV (parse_pointing_csv) and fitted (fit_model).

Five models are named (core.ModelKind). The four pointing-task models are each
usable as a difficulty calculator and as the design row of a movement-time
regression; the squash line is an analysis run's overall fit (stats.fit_overall):

    squash      ID = log2(v * D)            (this package's core metric)
    fitts       ID = log2(2A / W)           (classic reciprocal tapping)
    mackenzie   ID = log2(2A / W + 1)       (non-negative variant)
    welford     MT = a + b1*log2(A) + b2*log2(1/W)
    steering    MT = a + b * (A / W)        (trajectory tasks)

The mackenzie form is kept exactly as published alongside the reference
dataset, with 2A/W + 1 inside the logarithm; the more common A/W + 1
convention is deliberately not substituted (see README).

Many other published extensions (multiple-target, multi-directional,
discrete, compound, model-based, expanding-target, time-constrained,
bivariate, cognitive, 3D) have no single agreed closed form and are
catalogued in the README only.
"""
import math
from typing import NamedTuple

from .core import ModelKind, _Checked
from .dataset import (_MOVEMENT_TIME, ValidationReport, _cell_number, _data_rows, _read_cells,
                      _split_header)
from .errors import DomainError, UsageError
from .stats import LinearFit, WelfordFit, ols_simple, ols_two_predictor

POINTING_COLUMNS = ("amplitude", "width", "mt_s")
_POINTING_RULES = (("amplitude", _cell_number), ("width", _cell_number), _MOVEMENT_TIME)

#: Largest design-value magnitude a pointing model accepts: below it no centred
#: square or sum in a fit overflows (as dataset.MOVEMENT_TIME_RANGE_S for MT).
DESIGN_VALUE_BOUND = 1e100


class PointingTrial(_Checked, NamedTuple("PointingTrial", [
        ("amplitude", float), ("width", float), ("movement_time_s", float)])):
    """One pointing-task observation: target distance A, width W, and MT."""

    __slots__ = ()

    def __new__(cls, amplitude: float, width: float, movement_time_s: float):
        for name, value, rule in (("amplitude", amplitude, ">= 0"), ("width", width, "> 0"),
                                  ("movement_time_s", movement_time_s, "> 0")):
            try:
                ok = math.isfinite(value) and (value > 0 or value == 0 and rule == ">= 0")
            except TypeError:  # not a number
                ok = False
            except OverflowError:  # an int that no float holds; its digits may be too many
                raise DomainError(f"{name} must be a finite number {rule}, got a number "
                                  "too large for a float", field=name) from None
            if not ok:
                raise DomainError(f"{name} must be a finite number {rule}, got {value!r}",
                                  field=name)
        return tuple.__new__(cls, (amplitude, width, movement_time_s))


def _check_sizes(amplitude: float, width: float, amplitude_rule: str = "> 0") -> None:
    """A DomainError naming the first of amplitude (held to amplitude_rule:
    "> 0", ">= 0", or "" for none) and width (> 0) that breaks its rule."""
    for name, value, rule in (("amplitude", amplitude, amplitude_rule), ("width", width, "> 0")):
        if rule and not (value >= 0 if rule == ">= 0" else value > 0):
            raise DomainError(f"{name} must be {rule}, got {value!r}", field=name)


def id_fitts_original(amplitude: float, width: float) -> float:
    """Classic difficulty log2(2A/W). Goes negative exactly when 2A < W."""
    _check_sizes(amplitude, width)
    return math.log2(2.0 * amplitude / width)


def id_mackenzie(amplitude: float, width: float) -> float:
    """Shannon-style difficulty log2(2A/W + 1); non-negative for A >= 0."""
    _check_sizes(amplitude, width, ">= 0")
    return math.log2(2.0 * amplitude / width + 1.0)


def predict_mt_welford(a: float, b1: float, b2: float,
                       amplitude: float, width: float) -> float:
    """Two-coefficient movement-time prediction a + b1*log2(A) + b2*log2(1/W)."""
    _check_sizes(amplitude, width)
    return a + b1 * math.log2(amplitude) + b2 * math.log2(1.0 / width)


def predict_mt_steering(a: float, b: float, amplitude: float, width: float) -> float:
    """Steering-law movement-time prediction a + b*(A/W)."""
    _check_sizes(amplitude, width, "")
    return a + b * (amplitude / width)


def pointing_model(kind: ModelKind) -> ModelKind:
    """Parse a pointing-task model name; squash is a UsageError."""
    kind = ModelKind.parse(kind)
    if kind is ModelKind.SQUASH_ID:
        raise UsageError("model squash is fitted by the analysis run: use "
                         "run_analysis(...).overall_fit or stats.fit_overall")
    return kind


def model_design_row(kind: ModelKind, trial: PointingTrial) -> list[float]:
    """Predictor vector whose linear combination plus an intercept
    predicts movement time under the given pointing-task model.

    One predictor each, except welford (two). A design value (2A/W, A/W or
    1/W) that is not finite, or larger in magnitude than
    DESIGN_VALUE_BOUND, is a DomainError.
    """
    kind = pointing_model(kind)
    if not isinstance(trial, PointingTrial):
        raise UsageError(f"model {kind} requires PointingTrial, got "
                         f"{type(trial).__name__}")
    if kind is ModelKind.FITTS_ORIGINAL:
        row = [id_fitts_original(trial.amplitude, trial.width)]
    elif kind is ModelKind.MACKENZIE_SHANNON:
        row = [id_mackenzie(trial.amplitude, trial.width)]
    elif kind is ModelKind.STEERING:
        row = [trial.amplitude / trial.width]
    else:  # welford: separate log-amplitude and log-inverse-width predictors
        if not trial.amplitude > 0:
            raise DomainError("welford model requires amplitude > 0", field="amplitude")
        row = [math.log2(trial.amplitude), math.log2(1.0 / trial.width)]
    if not all(abs(value) <= DESIGN_VALUE_BOUND for value in row):
        problem = ("is not finite" if not all(map(math.isfinite, row))
                   else f"exceeds {DESIGN_VALUE_BOUND:g} in magnitude")
        raise DomainError(f"model {kind} design value {row} {problem} for "
                          f"amplitude={trial.amplitude!r}, width={trial.width!r}",
                          field="width")
    return row


def fit_model(kind: ModelKind, dataset) -> LinearFit | WelfordFit:
    """Fit a pointing-task model's movement-time regression to PointingTrial
    data through its design rows. The squash line is an analysis run's
    overall fit, so squash is a UsageError (see model_design_row)."""
    kind = pointing_model(kind)
    trials = list(dataset)
    need = 3 if kind is ModelKind.WELFORD else 2  # rows per fitted coefficient
    if len(trials) < need:
        raise UsageError(f"model {kind} needs >= {need} trials, got {len(trials)}")
    rows = [(*model_design_row(kind, t), t.movement_time_s) for t in trials]
    return (ols_two_predictor if kind is ModelKind.WELFORD else ols_simple)(rows)


def parse_pointing_csv(text: str) -> tuple[list[PointingTrial], ValidationReport]:
    """Parse a pointing-task CSV (amplitude,width,mt_s) into trials plus a
    ValidationReport of (row, column, message) errors, as dataset.parse_csv
    does. A movement time outside dataset.MOVEMENT_TIME_RANGE_S is a row
    error; otherwise PointingTrial validates the row (an amplitude of 0 is valid)."""
    report = ValidationReport()
    split = _split_header(text, report.errors)
    if split is None:
        return [], report
    header, records = split
    if tuple(header) != POINTING_COLUMNS:
        report.errors.append((1, "header", f"expected header {','.join(POINTING_COLUMNS)}"
                                           f", got {','.join(header)}"))
        return [], report
    trials = []
    for idx, cells, _ in _data_rows(records, len(POINTING_COLUMNS), report.errors):
        values = _read_cells(idx, cells, _POINTING_RULES, report.errors)
        if values is None:
            continue
        try:
            trials.append(PointingTrial(*values))
        except DomainError as exc:  # amplitude or width, named as their columns
            report.errors.append((idx, exc.field, str(exc)))
    return trials, report
