"""The record types: tuples where tuple semantics are harmless, frozen
__slots__ classes where they are not, and the unchecked constructor the
package takes for fields it has checked already."""
from __future__ import annotations

import copy
import math
import pickle
import random
import subprocess
import sys

import pytest

from squashfitts import (AnalysisOptions, Dataset, DerivedTrial, DomainError,
                         GroupKey, GroupStats, PointingTrial, ShotKind,
                         TrialRecord, UsageError, ValidationReport, ball_speed,
                         derive_trial, index_of_difficulty, information_rate,
                         mean, parse_csv, population_sd, write_csv)
from squashfitts.published import PUBLISHED_TREND_SLOPE, published_rows
from squashfitts.stats import cell_stats


def _random_record(rng: random.Random, index: int) -> TrialRecord:
    def value():
        return math.ldexp(rng.random() + 0.5, rng.randint(-30, 30))
    return TrialRecord(rng.randint(1, 50), rng.choice(list(ShotKind)), index,
                       value(), value(), value(), value())


class TestTrustedConstruction:
    """Records built without their constructor's checks equal, in value and
    type, what the public constructors build from the same fields."""

    def test_parse_csv_rows(self):
        rng = random.Random(13)
        for _ in range(20):
            trials = tuple(_random_record(rng, i) for i in range(1, 200))
            parsed, report = parse_csv(write_csv(Dataset(trials)),
                                       slowdown_factor=rng.choice((1.0, 10.0)))
            assert report.ok and len(parsed) == len(trials)
            for t in parsed.trials:
                again = TrialRecord(*t)
                assert type(t) is type(again) is TrialRecord
                assert t == again
                assert [type(v) for v in t] == [type(v) for v in again]
            assert type(parsed) is Dataset
            assert parsed == Dataset(parsed.trials, dict(parsed.metadata))

    def test_derive_trial_fast_path(self):
        rng = random.Random(14)
        for i in range(1, 3000):
            record = _random_record(rng, i)
            v = ball_speed(record.ball_distance_cm, record.ball_time_s)
            idb = index_of_difficulty(v, record.player_distance_cm / 100.0)
            public = DerivedTrial(base=record, ball_speed_mps=v, id_bits=idb,
                                  info_rate_bps=information_rate(idb, record.movement_time_s))
            fast = derive_trial(record)
            assert type(fast) is type(public) is DerivedTrial
            assert fast == public

    def test_cell_stats(self):
        rng = random.Random(15)
        for _ in range(500):
            n = rng.randint(1, 9)
            ids, mts, irs = ([rng.uniform(-5.0, 12.0) for _ in range(n)]
                             for _ in range(3))
            cell = rng.choice(((rng.randint(1, 9), rng.choice(list(ShotKind))),
                               (None, rng.choice(list(ShotKind)))))
            public = GroupStats(key=GroupKey(*cell), n=n,
                                mean_id=mean(ids), sd_id=population_sd(ids),
                                mean_mt=mean(mts), sd_mt=population_sd(mts),
                                mean_ir=mean(irs))
            fast = cell_stats(cell, ids, mts, irs)
            assert type(fast) is type(public) is GroupStats
            assert type(fast.key) is type(public.key) is GroupKey
            assert fast == public


class TestRepr:
    """repr text as the dataclass records wrote it."""

    def test_trial_records_and_group_stats(self, bundled, report):
        record = ("TrialRecord(person_id=1, shot=<ShotKind.DRIVE: 'Drive'>, "
                  "trial_index=1, ball_distance_cm=586.0, ball_time_s=0.197, "
                  "player_distance_cm=374.0, movement_time_s=1.22)")
        assert repr(bundled.trials[0]) == record
        assert repr(derive_trial(bundled.trials[0])) == (
            f"DerivedTrial(base={record}, ball_speed_mps=29.746192893401016, "
            "id_bits=6.797671399966146, info_rate_bps=5.57186180325094)")
        assert repr(report.per_person_shot_stats[0]) == (
            "GroupStats(key=GroupKey(person_id=1, shot=<ShotKind.DRIVE: 'Drive'>), "
            "n=3, mean_id=6.8827215186081, sd_id=0.12194529208158428, "
            "mean_mt=1.22, sd_mt=0.008164965809277268, mean_ir=5.641247294729361)")

    def test_slots_records(self, bundled):
        assert repr(Dataset(bundled.trials[:1], {"a": "b"})) == (
            f"Dataset(trials=({bundled.trials[0]!r},), metadata={{'a': 'b'}})")
        assert repr(ValidationReport()) == "ValidationReport(errors=[], warnings=[])"


class TestImmutability:
    def test_assigning_a_field_raises(self, bundled, report):
        records = [(bundled.trials[0], "ball_time_s"),
                   (report.derived_table[0], "id_bits"),
                   (report.per_shot_stats[0], "mean_ir"),
                   (report.per_shot_stats[0].key, "shot"),
                   (report.overall_fit, "slope"),
                   (report.options, "stats_tolerance"),
                   (report, "overall_fit"),
                   (PointingTrial(1.0, 1.0, 1.0), "width"),
                   (PUBLISHED_TREND_SLOPE, "value"),
                   (published_rows()[0], "self_consistent"),
                   (bundled, "trials"), (bundled, "metadata")]
        for record, name in records:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before

    def test_copy_and_pickle_give_equal_records(self, bundled, report):
        for record in (bundled, bundled.trials[0], report.derived_table[0],
                       report.options, report.per_shot_stats[0], report):
            for again in (copy.copy(record), copy.deepcopy(record),
                          pickle.loads(pickle.dumps(record))):
                assert type(again) is type(record) and again == record

    def test_validation_report_stays_mutable(self):
        report = ValidationReport()
        report.errors = [(2, "t_s", "bad")]
        assert not report.ok
        expected = ValidationReport()
        expected.errors.append((2, "t_s", "bad"))
        assert report == expected
        assert report != ValidationReport()


class TestTupleSemantics:
    def test_records_unpack_and_compare_as_tuples(self, bundled):
        t = bundled.trials[0]
        person, shot, trial, *measurements = t
        assert (person, shot, trial) == t.key
        assert t == tuple(t) and hash(t) == hash(tuple(t))
        assert GroupKey(shot=ShotKind.LOB) == (None, ShotKind.LOB)

    def test_make_and_replace_run_the_checks(self, bundled):
        t = bundled.trials[0]
        assert t._replace(movement_time_s="2") == t[:6] + (2.0,)
        assert type(t._replace(person_id=2)) is TrialRecord
        with pytest.raises(DomainError):
            t._replace(ball_time_s=-1.0)
        with pytest.raises(DomainError):
            TrialRecord._make([1, "Drive", 1, "x", 1, 1, 1])
        with pytest.raises(UsageError):
            GroupKey(1, ShotKind.LOB)._replace(person_id=None, shot=None)
        with pytest.raises(DomainError):
            PointingTrial._make((1.0, 0.0, 1.0))
        assert AnalysisOptions()._replace(exclude_shots={"lob"}).exclude_shots == {
            ShotKind.LOB}

    @pytest.mark.parametrize("record, bad, error", [
        (TrialRecord(1, "Drive", 1, 586, 0.197, 374, 1.22), {"ball_time_s": -1}, DomainError),
        (PointingTrial(1.0, 1.0, 1.0), {"width": 0.0}, DomainError),
        (AnalysisOptions(), {"stats_tolerance": -1}, UsageError),
        (GroupKey(1, ShotKind.LOB), {"person_id": None, "shot": None}, UsageError),
    ], ids=["TrialRecord", "PointingTrial", "AnalysisOptions", "GroupKey"])
    def test_replace_refuses_what_the_constructor_refuses(self, record, bad, error):
        with pytest.raises(error):
            record._replace(**bad)
        with pytest.raises(ValueError, match="unexpected field names"):  # namedtuple's own
            record._replace(no_such_field=1)
        assert record._replace() == record and type(record._replace()) is type(record)

    def test_dataset_is_not_a_tuple(self, bundled):
        assert not isinstance(bundled, tuple)
        assert len(bundled) == len(bundled.trials) == 36
        assert Dataset(()).metadata == {} and Dataset(()).metadata is not Dataset(()).metadata
        assert (Dataset(()) == 5) is False
        with pytest.raises(TypeError):
            hash(bundled)


@pytest.mark.parametrize("modules, left_out", [
    ("squashfitts.cli", "dataclasses"),  # the records are built without dataclasses
    ("squashfitts.dataset, squashfitts.stats", "squashfitts.variants"),  # no pointing code
    # the figures and the overall line load no report code
    ("squashfitts.plot, squashfitts.stats", "squashfitts.pipeline"),
    ("squashfitts.plot, squashfitts.stats", "squashfitts.published"),
    ("squashfitts.plot, squashfitts.stats", "json"),
], ids=["cli", "dataset_stats", "plot_stats_pipeline", "plot_stats_published",
        "plot_stats_json"])
def test_import_leaves_a_module_out(modules, left_out):
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {modules}; "
         f"assert {left_out!r} not in sys.modules, '{left_out} imported'"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


#: The modules a subcommand loads only when it analyses, summarises or draws,
#: or, for variants, fits a pointing-task model.
_DEFERRED = ("squashfitts.pipeline", "squashfitts.stats", "squashfitts.published",
             "squashfitts.plot", "squashfitts.variants", "json")


@pytest.mark.parametrize("argv, loaded", [
    (["validate"], set()),
    (["derive"], set()),
    (["stats"], {"squashfitts.stats"}),
    (["fit", "--model", "squash"], {"squashfitts.stats"}),
    (["fit", "--model", "fitts", "--input", "pointing.csv"],
     {"squashfitts.stats", "squashfitts.variants"}),
    (["report"], {"json", "squashfitts.pipeline", "squashfitts.published",
                  "squashfitts.stats"}),
    (["figures"], {"squashfitts.plot", "squashfitts.stats"}),
], ids=["validate", "derive", "stats", "fit", "fit_pointing", "report", "figures"])
def test_each_subcommand_imports_only_what_it_runs(tmp_path, argv, loaded):
    output = str(tmp_path / ("figures" if argv == ["figures"] else "out.txt"))
    (tmp_path / "pointing.csv").write_text("amplitude,width,mt_s\n2,1,0.5\n4,1,0.62\n")
    argv = [str(tmp_path / arg) if arg == "pointing.csv" else arg for arg in argv]
    if "--input" not in argv:
        argv += ["--input", "bundled"]
    script = ("import sys\nfrom squashfitts import cli\n"
              f"code = cli.main({argv + ['--output', output]!r})\n"
              f"print(code, sorted(m for m in {_DEFERRED!r} if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {sorted(loaded)}"


def test_package_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, squashfitts; "
         "print(sorted(m for m in sys.modules if m.startswith('squashfitts.')))"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
