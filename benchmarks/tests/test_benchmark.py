"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q benchmarks/tests
"""
import json
import os
import re

import gen
import run

import squashfitts as sf

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_generator_is_deterministic_for_a_seed():
    a = gen.clean_rows(7, persons=20, trials=3, warning_share=0.2)
    assert a == gen.clean_rows(7, persons=20, trials=3, warning_share=0.2)
    assert a != gen.clean_rows(8, persons=20, trials=3, warning_share=0.2)
    assert gen.dirty_copy(7, a, 0.3) == gen.dirty_copy(7, a, 0.3)


def test_generator_counts_match_the_parser():
    rows = gen.clean_rows(3, persons=50, trials=2, warning_share=0.2)
    dataset, report = sf.parse_csv(gen.to_csv([r for r, _ in rows]))
    assert (len(dataset), len(report.errors)) == (400, 0)
    assert len(report.warnings) == sum(w for _, w in rows) > 0
    dirty, errors, warnings = gen.dirty_copy(3, rows, 0.3)
    dataset, report = sf.parse_csv(gen.to_csv(dirty))
    assert len(report.errors) == errors > 0
    assert len(report.warnings) == warnings
    assert len(dataset) == 400 - errors


def test_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == list(run.WORKLOADS.values())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    names = [*run.WORKLOADS, *dict(run.END_TO_END), *dict(run.PER_LAYER)]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


def _ops(tmp_path, monkeypatch):
    monkeypatch.chdir(run.ROOT)
    return {op.name: op for op in run.prepare("bundled_cli", 1, str(tmp_path))}


def test_corrupted_report_is_a_failed_op(tmp_path, monkeypatch):
    op = _ops(tmp_path, monkeypatch)["report"]
    results = run.Results()
    with run.Launcher() as launcher:
        runner = run.Calibrated(launcher)
        run.run_cli_op(runner, op, str(tmp_path), results)
        assert results.failures == []
        check = op.check

        def corrupt_then_check(code, stderr):
            with open(op.out, "r+b") as fh:
                fh.seek(100)
                fh.write(b"#")
            return check(code, stderr)

        op.check = corrupt_then_check
        run.run_cli_op(runner, op, str(tmp_path), results)
    assert results.attempted == 2
    assert len(results.failures) == 1


def test_changed_figure_is_a_failed_op(tmp_path, monkeypatch):
    op = _ops(tmp_path, monkeypatch)["figures"]
    results = run.Results()
    with run.Launcher() as launcher:
        runner = run.Calibrated(launcher)
        run.run_cli_op(runner, op, str(tmp_path), results)
        check = op.check

        def corrupt_then_check(code, stderr):
            with open(os.path.join(op.out, "fig7_lobs.svg"), "a") as fh:
                fh.write(" ")
            return check(code, stderr)

        op.check = corrupt_then_check
        run.run_cli_op(runner, op, str(tmp_path), results)
    assert results.attempted == 2
    assert len(results.failures) == 1


def test_wrong_validate_count_is_a_failure():
    check = run.validate_check("x.csv", 1, valid=9, errors=1, warnings=0)
    assert check(1, "x.csv: 9 valid trial(s)\n1 error(s), 0 warning(s)\n  ...") is None
    assert check(1, "x.csv: 9 valid trial(s)\n2 error(s), 0 warning(s)\n") is not None
    assert check(0, "x.csv: 9 valid trial(s)\n1 error(s), 0 warning(s)\n") is not None
