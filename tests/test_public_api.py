from __future__ import annotations

import dataclasses
import inspect

import squashfitts

#: Every settable library value: the defaulted parameters of the functions
#: in __all__ and the defaulted fields of the dataclasses in __all__. A new
#: knob has to be added here, in its own diff.
SETTABLE_VALUES = [
    "AnalysisOptions.exclude_shots", "AnalysisOptions.stats_tolerance",
    "Dataset.metadata", "GroupKey.person_id", "GroupKey.shot",
    "ValidationReport.errors", "ValidationReport.warnings",
    "group_stats(level=)", "parse_csv(metadata=)",
    "parse_csv(slowdown_factor=)", "run_analysis(options=)",
    "write_csv(include_derived=)",
]


def _settable_values() -> list[str]:
    names = []
    for name in squashfitts.__all__:
        obj = getattr(squashfitts, name)
        if dataclasses.is_dataclass(obj):
            names += [f"{name}.{f.name}" for f in dataclasses.fields(obj)
                      if f.default is not dataclasses.MISSING
                      or f.default_factory is not dataclasses.MISSING]
        elif inspect.isfunction(obj):
            names += [f"{name}({p.name}=)"
                      for p in inspect.signature(obj).parameters.values()
                      if p.default is not p.empty]
    return names


def test_settable_library_values_are_pinned():
    assert len(SETTABLE_VALUES) == 12
    assert _settable_values() == SETTABLE_VALUES
