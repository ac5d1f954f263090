"""Seeded input generator for the benchmark workloads.

Every file is a pure function of (workload, seed): the same seed gives the
same bytes. Rows are shuffled so the pipeline's canonical sort has real
work to do. Alongside each file the generator returns what it knows by
construction (row, warning and error counts), which the correctness checks
compare against the program's output.

Clean rows keep every measurement inside the plausible band, so they raise
no warning. A warning row breaks exactly one plausibility rule (player
distance beyond court reach, or ball speed above 100 m/s) and so raises
exactly one warning. A corrupted row in a dirty copy carries exactly one
defect (a bad number, a short row or a duplicate key) and so raises exactly
one error.
"""
import math
import random

HEADER = "person,shot,trial,db_cm,t_s,dp_cm,mt_s"
SHOTS = ("Drive", "Drop", "Lob", "Boast")
_NUMERIC_CELLS = (3, 4, 5, 6)
_BAD_NUMBERS = ("", "x1.5", "-3", "nan", "0", "1e", "inf")


def _row(rng: random.Random, person: int, shot: str, trial: int,
         warning: str | None) -> list[str]:
    db_cm = round(rng.uniform(300.0, 900.0), 1)
    if warning == "speed":
        v = rng.uniform(110.0, 200.0)
    else:
        v = rng.uniform(8.0, 60.0)
    t_s = round(db_cm / 100.0 / v, 4)
    if warning == "reach":
        dp_cm = round(rng.uniform(650.0, 900.0), 1)
    else:
        dp_cm = round(rng.uniform(100.0, 600.0), 1)
    v = db_cm / 100.0 / t_s
    id_bits = math.log2(v * dp_cm / 100.0)
    mt_s = round(max(0.3, 0.25 + 0.12 * id_bits + rng.gauss(0.0, 0.15)), 3)
    return [str(person), shot, str(trial), repr(db_cm), repr(t_s),
            repr(dp_cm), repr(mt_s)]


def clean_rows(seed: int, persons: int, trials: int,
               warning_share: float = 0.0) -> list[tuple[list[str], bool]]:
    """persons x 4 shots x trials valid rows in shuffled order, each with
    whether it raises (exactly one) plausibility warning."""
    rng = random.Random(seed)
    rows = []
    for person in range(1, persons + 1):
        for shot in SHOTS:
            for trial in range(1, trials + 1):
                warning = None
                if rng.random() < warning_share:
                    warning = rng.choice(("reach", "speed"))
                rows.append((_row(rng, person, shot, trial, warning),
                             warning is not None))
    rng.shuffle(rows)
    return rows


def dirty_copy(seed: int, rows: list[tuple[list[str], bool]],
               error_share: float) -> tuple[list[list[str]], int, int]:
    """Copy of clean rows with about error_share of them given one defect
    each. Returns (rows, errors, warnings): the exact number of rows that
    fail to parse and of warnings the rows that still parse raise."""
    rng = random.Random(seed ^ 0x5EED)
    out = []
    accepted_keys = []
    errors = warnings = 0
    for cells, warns in rows:
        cells = list(cells)
        if rng.random() >= error_share:
            out.append(cells)
            accepted_keys.append(cells[:3])
            warnings += warns
            continue
        errors += 1
        kind = rng.choice(("number", "short", "duplicate"))
        if kind == "duplicate" and accepted_keys:
            cells[:3] = rng.choice(accepted_keys)
        elif kind == "short":
            cells.pop()
        else:
            cells[rng.choice(_NUMERIC_CELLS)] = rng.choice(_BAD_NUMBERS)
        out.append(cells)
    return out, errors, warnings


def to_csv(rows: list[list[str]]) -> str:
    return HEADER + "\n" + "".join(",".join(r) + "\n" for r in rows)
