from __future__ import annotations

import importlib
import inspect
from enum import Enum

import pytest

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


def test_each_public_name_is_the_object_of_its_home_module():
    for name in squashfitts.__all__:
        obj = getattr(squashfitts, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("squashfitts."), name
        assert getattr(home, name) is obj, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from squashfitts import *", namespace)
    namespace.pop("__builtins__")
    assert len(squashfitts.__all__) == 45
    assert sorted(namespace) == sorted(squashfitts.__all__)
    assert all(namespace[name] is getattr(squashfitts, name) for name in namespace)


def test_dir_lists_every_public_name():
    assert set(squashfitts.__all__) <= set(dir(squashfitts))


def test_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="'squashfitts'.*'nope'"):
        squashfitts.nope  # noqa: B018
    assert not hasattr(squashfitts, "nope")
