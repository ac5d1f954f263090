"""Dataset schema, CSV parsing/serialization, and the bundled reference data.

CSV schema (exact header, period decimal separator, no locale handling):

    person,shot,trial,db_cm,t_s,dp_cm,mt_s[,v_mps,id_bits,ir_bps]

The first seven columns are authoritative: identifiers plus the four raw
measurements (ball distance cm, ball time s, player distance cm, movement
time s). The optional derived columns are ignored on input and recomputed
by the analysis: trusting file-supplied derived values would propagate
whatever rounding they were written with.

Parsing is total: malformed input produces structured errors with row and
column coordinates, never an exception. Row numbers are 1-based file lines
(the header is line 1). A dataset that parsed with any errors must not be
analyzed; warnings never block. Pointing-task files (amplitude,width,mt_s)
go through the same reader and cell rules, see variants.parse_pointing_csv.
"""
import csv
import io
import math
from collections.abc import Iterator
from functools import cache, partial
from itertools import chain, compress, count, islice, repeat
from operator import gt, le, lt, truediv

from .core import (_CHUNK_ROWS, _SHOT_LABELS, MAX_PLAYER_REACH_M, PLAUSIBLE_SPEED_BAND_MPS,
                   ShotKind, TrialRecord, _blocks, _court_warnings, _derived, _finite_positive,
                   _number, _plain, _require_setting, _speeds_and_products, _underivable,
                   speed_and_product)
from .errors import UsageError

REQUIRED_COLUMNS = ("person", "shot", "trial", "db_cm", "t_s", "dp_cm", "mt_s")
DERIVED_COLUMNS = ("v_mps", "id_bits", "ir_bps")

#: Movement times (s) outside this range are row errors: inside it |IR|
#: stays below ~1e103 and squared MT deviations below ~4e200, so no sum overflows.
MOVEMENT_TIME_RANGE_S = (1e-100, 1e100)

#: Fixed number of decimals used when serializing derived columns.
DERIVED_DECIMALS = 6

_BUNDLED_RESOURCE = "squash_trials.csv"

#: Number of trials in the bundled reference dataset (3 persons x 4 shots
#: x 3 trials); lets callers rule out the bundled data without parsing it.
BUNDLED_TRIALS = 36


class _Fields:
    """repr and == of a __slots__ record, field by field, as a dataclass's."""

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


def _duplicate_key(key: tuple) -> str:
    """The error of a trial key seen before, as parse_csv and Dataset word it."""
    person, shot, trial = key
    return f"duplicate trial key {(person, str(shot), trial)}"


class Dataset(_Fields):
    """An immutable collection of trials plus free-form provenance notes."""

    __slots__ = ("trials", "metadata")

    def __init__(self, trials, metadata: dict[str, str] | None = None):
        trials, seen = tuple(trials), set()
        for t in trials:
            if t.key in seen:
                raise UsageError(_duplicate_key(t.key))
            seen.add(t.key)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "metadata", dict(metadata or {}))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Dataset is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle through __init__, not __setattr__
        return Dataset, (self.trials, self.metadata)

    def __len__(self) -> int:
        return len(self.trials)


class ValidationReport(_Fields):
    """Structured outcome of parsing/validating a dataset: (row, column,
    message) errors and (row, message) warnings."""

    __slots__ = ("errors", "warnings")

    def __init__(self):
        self.errors, self.warnings = [], []

    def error(self, row: int, column: str, message: str) -> None:
        """Record an error of the cell (row, column), or of a whole row ("row")
        or the header ("header"): the one writer of errors."""
        self.errors.append((row, column, message))

    def warn(self, row: int, message: str) -> None:
        """Record a warning of row: the one writer of warnings."""
        self.warnings.append((row, message))

    @property
    def ok(self) -> bool:
        return not self.errors

    def format_text(self) -> str:
        lines = [f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"]
        for row, col, msg in self.errors:
            lines.append(f"  error: row {row}, column {col!r}: {msg}")
        for row, msg in self.warnings:
            lines.append(f"  warning: row {row}: {msg}")
        return "\n".join(lines)


def _positive_int(cell: str) -> int:
    value = _number(cell, int)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


def _measurement(cell: str, bounds: tuple[float, float] | None = None) -> float:
    """A measurement cell: a finite number > 0, within bounds if given."""
    value = _number(cell)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {cell!r}")
    if value <= 0.0:
        raise ValueError(f"measurements must be > 0, got {value!r}")
    if bounds and not bounds[0] <= value <= bounds[1]:
        raise ValueError(f"expected a value within [{bounds[0]:g}, {bounds[1]:g}], got {value!r}")
    return value


_MOVEMENT_TIME = ("mt_s", partial(_measurement, bounds=MOVEMENT_TIME_RANGE_S))


def _read_cells(idx: int, cells: list[str], rules: tuple, report) -> tuple | None:
    """The values of the cells under rules, a (column, rule) each in column
    order, or None; each cell a rule refuses is an error of row idx in report."""
    values = []
    for cell, (column, rule) in zip(cells, rules):
        try:
            values.append(rule(cell))
        except ValueError as exc:
            report.error(idx, column, str(exc))
    return tuple(values) if len(values) == len(rules) else None


def _records(text: str):
    """CSV records of text, as read, the one CSV reader of the package. One
    leading byte order mark (U+FEFF, as spreadsheets write) is skipped; a
    record the csv module rejects (say, a cell over its field size limit)
    is yielded as the csv.Error in its place."""
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    while True:
        try:
            yield from reader
            return
        except csv.Error as exc:
            yield exc


def _blank(record) -> bool:
    return isinstance(record, list) and not any(cell.strip() for cell in record)


def _split_header(text: str, report) -> tuple[list[str], Iterator] | None:
    """(stripped header cells, iterator of the data records) of CSV text,
    or None after recording in report why there is no header. Only a blank first
    record makes it read on: input with nothing but blank records is
    empty, else the blank record is the (defective) header."""
    records = _records(text)
    first = next(records, None)
    if first is None or _blank(first) and all(map(_blank, records)):
        report.error(0, "header", "no header: input is empty")
    elif isinstance(first, csv.Error):
        report.error(1, "header", str(first))
    else:
        return [cell.strip() for cell in first], records
    return None


def _data_rows(records, ncols: int, report, start: int = 2):
    """(row number, cells, the cells joined) of each non-blank data record
    with ncols cells, the first record at row start; any other non-blank
    record is a row error in report."""
    for idx, cells in enumerate(records, start):
        if isinstance(cells, csv.Error):
            report.error(idx, "row", str(cells))
        elif not (text := "".join(cells)).strip():
            continue
        elif len(cells) != ncols:
            report.error(idx, "row", f"expected {ncols} cells, got {len(cells)}")
        else:
            yield idx, cells, text


def _clean_row(cells: list[str], text: str, slowdown_factor: float) -> tuple | None:
    """TrialRecord's seven fields (ball time divided) of a data row whose
    cells all meet parse_csv's cell rules, else None; text is the cells joined."""
    try:
        person, trial = int(cells[0]), int(cells[2])
        db, t, dp, mt = float(cells[3]), float(cells[4]), float(cells[5]), float(cells[6])
    except ValueError:  # int() and float() strip less than str.strip(), never more
        return None
    t /= slowdown_factor  # in (0, inf) only where the undivided t is too
    shot = _SHOT_LABELS.get(cells[1].strip().lower())
    lo, hi = MOVEMENT_TIME_RANGE_S
    if (not _plain(text) or shot is None or person < 1 or trial < 1 or not 0.0 < db < math.inf
            or not 0.0 < t < math.inf or not 0.0 < dp < math.inf or not lo <= mt <= hi):
        return None
    return person, shot, trial, db, t, dp, mt


def _block_trials(block: list, start: int, ncols: int, slowdown_factor: float,
                  seen: dict, report, plain: bool) -> list | None:
    """The TrialRecords of a block of data records, the first at row start,
    converted a column at a time as _clean_row converts a row; their keys go
    into seen and their warnings into report. None, with nothing recorded,
    where a record is a csv.Error, blank or not ncols cells wide, or a row
    that _clean_row refuses, that repeats a key or that is underivable.
    Where plain, every data record is known to be _plain: no cell is tested."""
    if any(map(isinstance, block, repeat(csv.Error))) or {*map(len, block)} != {ncols}:
        return None
    person_cells, shot_cells, trial_cells, *measurements = islice(zip(*block), 7)
    try:  # int() and float() strip less than str.strip(), never more
        persons, indexes = list(map(int, person_cells)), list(map(int, trial_cells))
        db, t, dp, mt = (list(map(float, cells)) for cells in measurements)
    except ValueError:
        return None
    t = list(map(truediv, t, repeat(slowdown_factor)))
    shots = list(map(_SHOT_LABELS.get, map(str.lower, map(str.strip, shot_cells))))
    keys = list(zip(persons, shots, indexes))
    lo, hi = MOVEMENT_TIME_RANGE_S
    # the MT sum is finite only where no value is NaN or inf; min and max do the rest
    if (None in shots or min(persons) < 1 or min(indexes) < 1 or not _finite_positive(db, t, dp)
            or not (math.isfinite(sum(mt)) and lo <= min(mt) and max(mt) <= hi)
            or not (plain or _plain("".join(chain.from_iterable(block))))
            or len({*keys}) < len(keys) or not seen.keys().isdisjoint(keys)):
        return None
    player_m = list(map(truediv, dp, repeat(100.0)))
    v, vd = _speeds_and_products(db, t, player_m)
    if not _finite_positive(v, vd):
        return None  # _underivable: v or v*D overflows or underflows
    seen.update(zip(keys, range(start, start + len(keys))))
    slow, fast = PLAUSIBLE_SPEED_BAND_MPS
    if max(player_m) > MAX_PLAYER_REACH_M or min(v) < slow or max(v) > fast or min(vd) <= 1.0:
        # the same tests a row at a time: _court_warnings words a flagged row's warnings
        flagged = map(any, zip(map(gt, player_m, repeat(MAX_PLAYER_REACH_M)),
                               map(lt, v, repeat(slow)), map(gt, v, repeat(fast)),
                               map(le, vd, repeat(1.0))))
        for row in compress(zip(count(start), dp, v, vd), flagged):
            _court_warnings(report, *row)
    fields = zip(persons, shots, indexes, db, t, dp, mt)
    return list(map(tuple.__new__, repeat(TrialRecord), fields))  # checked: no constructor


def parse_csv(text: str, metadata: dict[str, str] | None = None,
              slowdown_factor: float = 1.0,
              ) -> tuple[Dataset, ValidationReport]:
    """Parse CSV text into a Dataset plus a ValidationReport.

    Returns every successfully parsed trial even when other rows fail;
    callers gate analysis on ``report.ok``. Ball times are divided by
    slowdown_factor (for t_s read off slowed-down footage) before any row
    check; a factor that is not an int or float, finite and > 0, is a
    UsageError. Plausibility warnings (court reach, speed band, non-positive
    difficulty) are attached per row. One leading byte order mark (U+FEFF)
    is skipped. A movement time outside MOVEMENT_TIME_RANGE_S, or a divided
    ball time not finite and > 0, is a row error.

    Data records are read in blocks of _CHUNK_ROWS and converted a column
    at a time. A block holding any record that is not a clean trial (a CSV
    error, a blank or short row, a refused cell, a repeated key or an
    underivable trial) is read row by row instead, and a refused row cell
    by cell, so the trials, errors and warnings, and their order, are the
    same on every path.
    """
    _require_setting(slowdown_factor, "slowdown_factor")
    report = ValidationReport()
    split = _split_header(text, report)
    if split is None:
        return Dataset((), metadata), report
    header, records = split
    ncols = len(header)
    in_order = tuple(header[:len(REQUIRED_COLUMNS)]) == REQUIRED_COLUMNS
    for col in REQUIRED_COLUMNS:
        if col not in header:
            report.error(1, col, "missing required column")
    # after the required columns in order, a required column again is unexpected too
    known = DERIVED_COLUMNS if in_order else REQUIRED_COLUMNS + DERIVED_COLUMNS
    for col in header[len(REQUIRED_COLUMNS):] if in_order else header:
        if col not in known:
            report.error(1, col, "unexpected column")
    if not in_order and report.ok:
        report.error(1, "header", f"columns out of order: expected {','.join(REQUIRED_COLUMNS)}"
                                  f" first, got {','.join(header)}")
    if not report.ok:  # every header defect is an error of row 1
        return Dataset((), metadata), report

    def ball_time(cell: str) -> float:  # t_s: a measurement, divided by the factor
        t = _measurement(cell) / slowdown_factor
        if not 0.0 < t < math.inf:
            raise ValueError(f"t_s / {slowdown_factor!r} must be finite and > 0, got {t!r}")
        return t
    rules = (("person", _positive_int), ("shot", ShotKind.parse), ("trial", _positive_int),
             ("db_cm", _measurement), ("t_s", ball_time), ("dp_cm", _measurement), _MOVEMENT_TIME)
    trials: list[TrialRecord] = []
    seen: dict[tuple, int] = {}
    # the header record ends at a newline: no "_" after the first, none in a data record
    body = text.removeprefix("\ufeff")  # _records skips the mark, which is not ASCII
    plain = body.isascii() and body.find("_", body.find("\n")) < 0
    for start, block in zip(count(2, _CHUNK_ROWS), _blocks(records)):
        clean = _block_trials(block, start, ncols, slowdown_factor, seen, report, plain)
        if clean is not None:
            trials += clean
            continue
        for idx, cells, text in _data_rows(block, ncols, report, start):
            # cell by cell only where the whole row is refused; derived cells are ignored
            values = (_clean_row(cells, text, slowdown_factor)
                      or _read_cells(idx, cells, rules, report))
            if values is None:
                continue
            key = values[:3]
            if key in seen:
                report.error(idx, "trial", f"{_duplicate_key(key)} first seen at row {seen[key]}")
                continue
            record = tuple.__new__(TrialRecord, values)  # fields checked: unchecked constructor
            v, vd = speed_and_product(record)
            derived_error = _underivable(v, vd)
            if derived_error:
                report.error(idx, *derived_error)
                continue
            seen[key] = idx
            _court_warnings(report, idx, values[5], v, vd)
            trials.append(record)

    dataset = object.__new__(Dataset)  # seen kept the keys unique: no second scan
    object.__setattr__(dataset, "trials", tuple(trials))
    object.__setattr__(dataset, "metadata", dict(metadata or {}))
    return dataset, report


def _format_raw(value: float) -> str:
    """Shortest decimal string that parses back to the identical float."""
    s = repr(float(value))
    return s[:-2] if s.endswith(".0") else s


def write_csv(dataset: Dataset, include_derived: bool = False) -> str:
    """Serialize a dataset; parse_csv(write_csv(d)) reproduces d's trials
    bit-exactly. Derived columns, when requested, are recomputed at full
    precision and written with 6 decimals."""
    if not dataset.trials:
        raise UsageError("write_csv of empty dataset")
    header = REQUIRED_COLUMNS + (DERIVED_COLUMNS if include_derived else ())
    lines = [",".join(header)]
    derived = _derived(dataset.trials)  # read only where include_derived
    for record in dataset.trials:
        cells = [*map(str, record[:3]), *map(_format_raw, record[3:])]
        if include_derived:
            cells += [f"{x:.{DERIVED_DECIMALS}f}" for x in next(derived)[1:]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _chunks(items, render, sep: str):
    """sep.join of the rows render(block) returns for each block of _CHUNK_ROWS
    items (filled a column at a time), a piece a block; every piece but the
    first starts with sep."""
    lead = ""
    for block in _blocks(items):
        yield lead + sep.join(render(block))
        lead = sep


@cache
def bundled_text() -> str:
    """Raw text of the bundled reference CSV (verbatim transcription of
    the published squash retrieval table, including its printed derived
    columns), read from the package once per process."""
    from importlib import resources  # here: only this read needs it
    return (resources.files("squashfitts.data")
            .joinpath(_BUNDLED_RESOURCE).read_text(encoding="utf-8"))


#: Provenance notes of the bundled reference dataset.
BUNDLED_METADATA = {
    "source": "bundled squash shot-retrieval reference table",
    "units": "lengths in cm, durations in s",
    "slowdown_factor": "10",
    "derived_columns": "as published; ignored on input and recomputed",
}


def bundled_dataset() -> Dataset:
    """The bundled reference dataset: 3 persons x 4 shots x 3 trials."""
    dataset, report = parse_csv(bundled_text(), metadata=BUNDLED_METADATA)
    if not report.ok:  # packaged data is validated by the test suite
        raise RuntimeError(f"bundled dataset failed to parse:\n{report.format_text()}")
    return dataset
