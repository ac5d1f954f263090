"""Domain types, derivations and the rule of analysis for squash shot retrieval.

A trial records how far and how long the ball travelled (to get its speed)
and how far and how long the retrieving player moved. From those four
measurements we derive:

    ball speed      v  = (ball distance / 100) / ball time        [m/s]
    task difficulty ID = log2(v * player distance in meters)      [bits]
    information rate IR = ID / movement time                      [bits/s]

Raw lengths are stored in centimeters (matching how such tables are
usually published); conversion to meters happens only inside the
derivations and is exact (/100). ID and IR only come out in the expected
range when v is in m/s and the player distance is in meters, so those are
the canonical units throughout.
"""
import math
import sys
from enum import Enum
from itertools import islice, repeat
from operator import attrgetter, mul, truediv
from typing import NamedTuple

from .errors import DegenerateDesignError, DomainError, UsageError

#: Speeds outside this band (m/s) are flagged as implausible for squash.
PLAUSIBLE_SPEED_BAND_MPS = (1.0, 100.0)

#: Player distances (m) beyond the T's farthest (front) corner on a standard
#: court, 5.55 m to the front wall and 3.2 m to each side, are flagged.
MAX_PLAYER_REACH_M = math.hypot(5.55, 3.2)

#: Rows per block of records derived, of CSV records parsed, and of a report
#: or figure file written in pieces.
_CHUNK_ROWS = 256


def _blocks(items):
    """Lists of _CHUNK_ROWS successive items of an iterable, the last one shorter."""
    items = iter(items)
    return iter(lambda: list(islice(items, _CHUNK_ROWS)), [])


class ShotKind(Enum):
    """The four shot types present in the reference experiment.

    Declaration order is the canonical presentation order for grouped
    output (drives, drops, lobs, boasts).
    """

    DRIVE = "Drive"
    DROP = "Drop"
    LOB = "Lob"
    BOAST = "Boast"
    __hash__ = object.__hash__  # members are singletons; Enum's hashes the name in Python

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, label: str) -> "ShotKind":
        """Parse a shot label (or a ShotKind), case-insensitively. Anything
        other than drive/drop/lob/boast is an error."""
        if isinstance(label, cls):
            return label
        kind = _SHOT_LABELS.get(label.strip().lower()) if isinstance(label, str) else None
        if kind is None:
            valid = ", ".join(k.value for k in cls)
            raise DomainError(f"unknown shot label {_shown(label)} (expected one of: {valid})",
                              field="shot")
        return kind


#: Lower-cased label -> kind, for ShotKind.parse.
_SHOT_LABELS = {kind.value.lower(): kind for kind in ShotKind}

#: Kind -> position in the canonical presentation order.
_SHOT_ORDER = {kind: i for i, kind in enumerate(ShotKind)}


class ModelKind(Enum):
    """Which difficulty/movement-time model to use (see variants). Values are
    the case-insensitive names accepted on the command line."""

    SQUASH_ID = "squash"
    FITTS_ORIGINAL = "fitts"
    MACKENZIE_SHANNON = "mackenzie"
    WELFORD = "welford"
    STEERING = "steering"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, name: str) -> "ModelKind":
        """Parse a model name (or a ModelKind), case-insensitively."""
        if isinstance(name, cls):
            return name
        try:
            return cls(name.strip().lower())  # the values are lower case
        except (AttributeError, ValueError):  # no str, or no model's name
            valid = ", ".join(k.value for k in cls)
            raise UsageError(f"unknown model {_shown(name)} (valid models: {valid})") from None


def _plain(text: str) -> bool:
    """The number grammar's precondition on text: ASCII only, without "_"."""
    return text.isascii() and "_" not in text


def _number(text: str, kind=float):
    """kind (float or int) of the stripped text, in the one number grammar:
    int()/float() syntax, but _plain. Else a ValueError worded as a refused
    cell is reported ("expected a number, got 'x'")."""
    stripped = text.strip()
    if _plain(stripped):
        try:
            return kind(stripped)
        except ValueError:
            pass
    raise ValueError(f"expected {'an integer' if kind is int else 'a number'}, got {text!r}")


def _shown(value) -> str:
    """repr(value) for a message that refuses it, or "a value too long to print" where
    repr() fails on an int of more digits than sys.get_int_max_str_digits()."""
    try:
        return repr(value)
    except ValueError:
        return "a value too long to print"


def _float(value, name: str) -> float:
    """value as a float: a str in the number grammar, else a real number as float() reads
    it (not bytes, which it reads as text). A value that is no number (None, "x", b"4") or
    that no float holds (10**400) is a DomainError naming the field name."""
    try:  # ldexp(x, 0) is float(x) for a real x, and takes no bytes for text
        return _number(value) if isinstance(value, str) else math.ldexp(value, 0)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {_shown(value)}", field=name) from None
    except OverflowError:  # its digits may be too many for a message
        raise DomainError(f"{name} must be within the float range, got a number too "
                          "large for a float", field=name) from None


def _require_positive(value: float, name: str, rule: str = "> 0") -> float:
    """_float(value, name), held to rule: "> 0", or ">= 0"."""
    value = _float(value, name)
    if not (math.isfinite(value) and (value > 0.0 or value == 0.0 and rule == ">= 0")):
        raise DomainError(f"{name} must be a finite number {rule}, got {value!r}", field=name)
    return value


def _require_setting(value, name: str):
    """value of a numeric setting: an int or float, not a bool, > 0 and at
    most the largest float (so that it converts to one); else a UsageError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0.0 < value <= sys.float_info.max):
        raise UsageError(f"{name} must be a finite number > 0, got {_shown(value)}")
    return value


def _require_positive_int(value: int, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {_shown(value)}", field=name)
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {_shown(value)}", field=name)
    return value


class _Checked:
    """Base of the records whose constructor checks its fields, which _make calls, and
    NamedTuple's _replace through it; tuple.__new__(cls, fields) is the unchecked path."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class TrialRecord(_Checked, NamedTuple("TrialRecord", [
        ("person_id", int), ("shot", ShotKind), ("trial_index", int),
        ("ball_distance_cm", float), ("ball_time_s", float),
        ("player_distance_cm", float), ("movement_time_s", float)])):
    """One raw trial: identifiers plus the four measured quantities."""

    __slots__ = ()

    def __new__(cls, person_id, shot, trial_index, ball_distance_cm, ball_time_s,
                player_distance_cm, movement_time_s):
        return tuple.__new__(cls, (
            _require_positive_int(person_id, "person_id"), ShotKind.parse(shot),
            _require_positive_int(trial_index, "trial_index"),
            _require_positive(ball_distance_cm, "ball_distance_cm"),
            _require_positive(ball_time_s, "ball_time_s"),
            _require_positive(player_distance_cm, "player_distance_cm"),
            _require_positive(movement_time_s, "movement_time_s")))

    key = property(attrgetter("person_id", "shot", "trial_index"),
                   doc="(person_id, shot, trial_index), unique within a dataset.")


class DerivedTrial(NamedTuple):
    """A trial enriched with ball speed, difficulty and information rate."""

    base: TrialRecord
    ball_speed_mps: float
    id_bits: float
    info_rate_bps: float

    # passthroughs so downstream code reads naturally
    person_id = property(attrgetter("base.person_id"))
    shot = property(attrgetter("base.shot"))
    trial_index = property(attrgetter("base.trial_index"))
    movement_time_s = property(attrgetter("base.movement_time_s"))


def ball_speed(ball_distance_cm: float, ball_time_s: float) -> float:
    """Ball speed in m/s from distance travelled (cm) and elapsed time (s).

    Average speed over the flight is taken as the speed of the shot.
    """
    d = _require_positive(ball_distance_cm, "ball_distance_cm")
    t = _require_positive(ball_time_s, "ball_time_s")
    return (d / 100.0) / t


def index_of_difficulty(ball_speed_mps: float, player_distance_m: float) -> float:
    """Difficulty of retrieving a shot, in bits: log2(v * D).

    v is the ball speed in m/s and D the distance the player must cover in
    meters. The product can drop below 1 for very slow, very close shots;
    the logarithm is then negative, which is permitted (parse_csv's report
    warns on it). A product that overflows or underflows to 0 has no finite
    difficulty and is an error.
    """
    v = _require_positive(ball_speed_mps, "ball_speed_mps")
    vd = v * _require_positive(player_distance_m, "player_distance_m")
    underivable = _underivable(v, vd)
    if underivable:
        raise DomainError(underivable[1], field=underivable[0])
    return math.log2(vd)


def information_rate(id_bits: float, movement_time_s: float) -> float:
    """Information rate (throughput) in bits/s: ID / MT."""
    mt = _require_positive(movement_time_s, "movement_time_s")
    return _float(id_bits, "id_bits") / mt


def _underivable(v: float, vd: float) -> tuple[str, str] | None:
    """(column, message) when a trial's speed v or its v*D is not a finite
    number > 0 (the measurements overflow or underflow), else None."""
    if not (math.isfinite(v) and v > 0.0):
        return ("v_mps", f"derived ball speed must be finite and > 0, got {v!r}")
    if not (math.isfinite(vd) and vd > 0.0):
        return ("id_bits", f"v*D must be finite and > 0 for a finite "
                           f"difficulty, got {vd!r}")
    return None


def speed_and_product(record: TrialRecord) -> tuple[float, float]:
    """(v, v*D) of a trial: ball speed in m/s, as :func:`ball_speed`
    computes it, and its product with the player distance in meters,
    whose log2 is the difficulty. Either may overflow or underflow."""
    v = (record.ball_distance_cm / 100.0) / record.ball_time_s
    return v, v * (record.player_distance_cm / 100.0)


def _speeds_and_products(db, t, player_m) -> tuple[list, list]:
    """speed_and_product's (v, v*D) of a block's columns, player distance in meters."""
    v = list(map(truediv, map(truediv, db, repeat(100.0)), t))
    return v, list(map(mul, v, player_m))


def _finite_positive(*columns) -> bool:
    """Whether every value of the columns (non-empty number sequences) is finite and > 0:
    a column's sum is finite only where no value is NaN or inf, and its min does the rest.
    Also False where a finite column's sum overflows, say [1e308, 1e308]; the caller then
    takes its per-row path, which gives the same result."""
    return all(math.isfinite(sum(col)) and min(col) > 0.0 for col in columns)


def derive_trial(record: TrialRecord) -> DerivedTrial:
    """Derive speed, difficulty and information rate for one trial.

    Pure and deterministic; raw fields pass through unchanged. Domain
    errors from the component operations are re-raised annotated with the
    trial key. The reference of :func:`_derived`, which derives many trials
    with the same float operations, a block of columns at a time.
    """
    try:
        v = ball_speed(record.ball_distance_cm, record.ball_time_s)
        dp = record.player_distance_cm
        if not isinstance(dp, (int, float)):  # judged as the field it is, not in meters
            dp = _require_positive(dp, "player_distance_cm")
        idb = index_of_difficulty(v, dp / 100.0)
        ir = information_rate(idb, record.movement_time_s)
    except DomainError as exc:
        raise DomainError(
            f"trial (person={record.person_id}, shot={record.shot}, "
            f"trial={record.trial_index}): {exc}", field=exc.field) from exc
    return DerivedTrial(record, v, idb, ir)


def _derived(records):
    """derive_trial of each record, with its float operations on the columns of
    a block of _CHUNK_ROWS records at a time. A block with a v, v*D, t or MT not
    finite and > 0, or that does not compute, goes through derive_trial row by row."""
    for block in _blocks(records):
        try:
            *_, db, t, dp, mt = zip(*block)
            v, vd = _speeds_and_products(db, t, map(truediv, dp, repeat(100.0)))
            in_range = _finite_positive(v, vd, t, mt)
        except (TypeError, ValueError, ArithmeticError):  # a field that is not a number
            in_range = False
        if in_range:
            idb = list(map(math.log2, vd))
            yield from map(tuple.__new__, repeat(DerivedTrial),
                           zip(block, v, idb, map(truediv, idb, mt)))
        else:
            yield from map(derive_trial, block)


def _short(x: float) -> str:
    """x with 2 decimals, or in exponent notation where that would be long."""
    return f"{x:.2f}" if x < 1e6 else f"{x:.3e}"


def _court_warnings(report, row: int, player_distance_cm: float, v: float, vd: float) -> None:
    """Plausibility screen of the trial of row with this distance and (v, v*D):
    warns in report, never rejects. Flags a player distance beyond
    MAX_PLAYER_REACH_M, a ball speed outside PLAUSIBLE_SPEED_BAND_MPS and a
    non-positive difficulty (v*D <= 1). Every warning is at most 100 characters long."""
    player_m = player_distance_cm / 100.0
    if player_m > MAX_PLAYER_REACH_M:
        report.warn(row, f"player_distance {_short(player_m)} m exceeds court "
                         f"reach {MAX_PLAYER_REACH_M:.2f} m")
    lo, hi = PLAUSIBLE_SPEED_BAND_MPS
    if not lo <= v <= hi:
        report.warn(row, f"ball speed {_short(v)} m/s outside plausible band [{lo:g}, {hi:g}] m/s")
    if vd <= 1.0:
        report.warn(row, f"v*D = {vd:.4f} <= 1 gives non-positive difficulty "
                         f"({math.log2(vd):.4f} bits)")


def _shot_columns(records) -> dict:
    """shot -> (ids, mts) columns of the records, derived, in input order,
    for every ShotKind (empty for a shot without trials): aggregate's
    columns without its sort and statistics. Every fit is a math.fsum of
    per-point terms, so a line fitted to them equals, bit for bit, one
    fitted to aggregate's."""
    columns = {kind: ([], []) for kind in ShotKind}
    for t in _derived(records):
        ids, mts = columns[t.base.shot]
        ids.append(t.id_bits)
        mts.append(t.base.movement_time_s)
    return columns


def require_fittable(columns: dict) -> None:
    """The rule of analysis: every shot has 2 trials with distinct IDs, so
    that every line a run fits is determined. columns maps every ShotKind to
    its (ids, mts), as aggregate and _shot_columns give them. The first shot
    in ShotKind order that breaks the rule is named: < 2 trials is a
    UsageError, equal IDs a DegenerateDesignError."""
    rule = "every shot needs 2 trials with distinct IDs to fit its line"
    for kind in ShotKind:
        ids = columns[kind][0]
        n = len(ids)
        if n < 2:
            raise UsageError(f"shot {kind} has {n} trial(s); {rule}")
        if ids.count(ids[0]) == n:
            raise DegenerateDesignError(
                f"all {n} trials of shot {kind} have ID {ids[0]!r}; {rule}")
