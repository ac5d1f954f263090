"""Reference values published with the bundled dataset, for cross-checks.

The write-up that the bundled table was transcribed from also printed the
derived columns (speed, difficulty, information rate), grouped mean/SD
summaries, and an overall trend line MT = 0.456 * ID - 1.3. Those printed
numbers are carried here verbatim, as strings, because the number of
printed decimals matters: a value published as "0.2" only constrains the
true value to [0.15, 0.25).

Comparison rule ("print-precision tolerance"): a computed value matches a
published one when

    |computed - published| <= base_tol + 0.5 * 10**(-decimals)

i.e. the stated tolerance plus half of the published rounding step. With
that rule every published aggregate is reproduced from the bundled raw
data. A plain +-base_tol comparison is also reported for transparency;
it fails only where the publication printed fewer decimals than the
tolerance assumes (or, for one table row, where the published number is
inconsistent with its own inputs; see ``self_consistent``).
"""
import math
from typing import NamedTuple

from .core import ShotKind, TrialRecord
from .dataset import DERIVED_COLUMNS, _clean_row, _data_rows, _split_header, bundled_text


class PublishedValue(NamedTuple):
    """A number exactly as printed at the source, plus its precision."""

    text: str
    value: float
    decimals: int

    @classmethod
    def of(cls, text: str) -> "PublishedValue":
        stripped = text.strip()
        decimals = len(stripped.split(".")[1]) if "." in stripped else 0
        return cls(text=stripped, value=float(stripped), decimals=decimals)

    @property
    def half_step(self) -> float:
        """Half the rounding step of the printed representation."""
        return 0.5 * 10.0 ** (-self.decimals)

    def matches(self, computed: float, base_tol: float) -> bool:
        """Print-precision tolerance comparison (see module docstring)."""
        return abs(computed - self.value) <= base_tol + self.half_step

    def matches_plain(self, computed: float, base_tol: float) -> bool:
        return abs(computed - self.value) <= base_tol


#: Tolerance for comparing recomputed derived columns against the printed
#: table (after rounding to 2 decimals).
DERIVATION_TOLERANCE = 0.02


class PublishedRow(NamedTuple):
    """Printed derived columns of one bundled-table row.

    ``self_consistent`` is False when the row's printed difficulty
    disagrees with log2(printed V x printed DP/100) by more than print
    precision allows, i.e. the published row contradicts its own inputs
    (a publication erratum, detectable without recomputation).
    """

    person_id: int
    shot: ShotKind
    trial_index: int
    v_mps: PublishedValue
    id_bits: PublishedValue
    ir_bps: PublishedValue
    self_consistent: bool


def _bundled_table() -> list[tuple[TrialRecord, PublishedRow]]:
    """Each bundled row's trial paired with its printed derived values, in
    table order: the one reader of the packaged table's printed columns."""
    out = []
    # the packaged text parses without errors (the suite checks it): unchecked records
    header, records = _split_header(bundled_text(), [])
    col = {name: i for i, name in enumerate(header)}
    for _, cells, text in _data_rows(records, len(header), []):
        record = tuple.__new__(TrialRecord, _clean_row(cells, text, 1.0))
        v, idb, ir = (PublishedValue.of(cells[col[name]]) for name in DERIVED_COLUMNS)
        implied_id = math.log2(v.value * (record.player_distance_cm / 100.0))
        # printed V and ID each carry their own rounding; allow both
        consistent = abs(implied_id - idb.value) <= idb.half_step + DERIVATION_TOLERANCE
        out.append((record, PublishedRow(*record.key, v, idb, ir, consistent)))
    return out


def published_rows() -> list[PublishedRow]:
    """Printed derived values for every bundled row, in table order."""
    return [row for _, row in _bundled_table()]


def _stats(pairs: dict[tuple[int | None, ShotKind], tuple[str, str]]):
    return {key: (PublishedValue.of(m), PublishedValue.of(s))
            for key, (m, s) in pairs.items()}


#: Published grouped difficulty summaries: (person or None, shot) ->
#: (mean ID, SD of ID). None marginalizes over persons.
PUBLISHED_GROUP_STATS = _stats({
    (1, ShotKind.DRIVE): ("6.87", "0.1"),
    (1, ShotKind.DROP): ("5.81", "0.02"),
    (1, ShotKind.LOB): ("6.26", "0.08"),
    (1, ShotKind.BOAST): ("5.69", "0.16"),
    (2, ShotKind.DRIVE): ("6.57", "0.1"),
    (2, ShotKind.DROP): ("5.38", "0.15"),
    (2, ShotKind.LOB): ("6.3", "0.2"),
    (2, ShotKind.BOAST): ("5.5", "0.03"),
    (3, ShotKind.DRIVE): ("6.66", "0.08"),
    (3, ShotKind.DROP): ("5.85", "0.04"),
    (3, ShotKind.LOB): ("6.3", "0.2"),
    (3, ShotKind.BOAST): ("5.52", "0.06"),
    (None, ShotKind.DRIVE): ("6.7", "0.16"),
    (None, ShotKind.DROP): ("5.68", "0.23"),
    (None, ShotKind.LOB): ("6.29", "0.16"),
    (None, ShotKind.BOAST): ("5.57", "0.13"),
})

#: Published overall trend line, MT = slope * ID + intercept.
PUBLISHED_TREND_SLOPE = PublishedValue.of("0.456")
PUBLISHED_TREND_INTERCEPT = PublishedValue.of("-1.3")

#: Mean and SD of the throughput (bits/s) of the classic reciprocal tapping
#: experiment, shown in the report for context only.
REFERENCE_THROUGHPUT_MEAN_BPS = 10.10
REFERENCE_THROUGHPUT_SD_BPS = 1.33
