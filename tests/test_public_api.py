from __future__ import annotations

import inspect
from enum import Enum

import squashfitts

#: Every settable library value: the defaulted parameters of the functions
#: and of the record constructors in __all__. A new knob has to be added
#: here, in its own diff.
SETTABLE_VALUES = [
    "AnalysisOptions.exclude_shots", "AnalysisOptions.stats_tolerance",
    "Dataset.metadata", "GroupKey.person_id", "GroupKey.shot",
    "group_stats(level=)", "parse_csv(metadata=)",
    "parse_csv(slowdown_factor=)", "run_analysis(options=)",
    "write_csv(include_derived=)",
]


def _settable_values() -> list[str]:
    names = []
    for name in squashfitts.__all__:
        obj = getattr(squashfitts, name)
        if inspect.isclass(obj) and issubclass(obj, (Enum, Exception)):
            continue  # members and errors, not settings
        if inspect.isclass(obj) or inspect.isfunction(obj):
            spell = "{}.{}" if inspect.isclass(obj) else "{}({}=)"
            names += [spell.format(name, p.name)
                      for p in inspect.signature(obj).parameters.values()
                      if p.default is not p.empty]
    return names


def test_settable_library_values_are_pinned():
    assert len(SETTABLE_VALUES) == 10
    assert _settable_values() == SETTABLE_VALUES
