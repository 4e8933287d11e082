"""Tests for the perfbench gate (repro.bench.ratchet)."""

import json
from pathlib import Path

import pytest

from repro.bench.ratchet import evaluate, main

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
METRICS = {metric["name"]: metric for metric in SPEC["end_to_end"]}

#: A core-study result line exactly as ``perfbench/run.py`` prints it.
REAL_LINE = (
    '{"correct": true, "attempted": 43, "failed": 0, "metrics": {'
    '"setup_s": {"value": 0.42374975655096275, "unit": "s"}, '
    '"wall_s": {"value": 2.0697225210606573, "unit": "s"}, '
    '"peak_rss_mb": {"value": 58.25, "unit": "MB"}, '
    '"tpr": {"value": 0.55, "unit": "ratio"}, '
    '"tnr": {"value": 1.0, "unit": "ratio"}, '
    '"verdict_p50_ms": {"value": 1923.9467483389983, "unit": "ms"}, '
    '"verdict_p99_ms": {"value": 2068.108113258711, "unit": "ms"}}}'
)

#: End-to-end values of one synthetic run.
BASE = {"setup_s": 1.0, "wall_s": 2.0, "peak_rss_mb": 60.0, "tpr": 0.5,
        "tnr": 1.0, "verdict_p50_ms": 100.0, "verdict_p99_ms": 120.0}


def _worse(name, share):
    """BASE's *name* moved *share* of its bound in its worse direction."""
    metric = METRICS[name]
    sign = -1 if metric["better"] == "higher" else 1
    return BASE[name] * (1 + sign * share * metric["bound"])


def _run(correct=True, failed=0, **values):
    """One perfbench result: BASE with *values* replaced (None drops one)."""
    merged = {**BASE, **values}
    metrics = {name: {"value": value, "unit": "x"}
               for name, value in merged.items() if value is not None}
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


def _write(directory, odd=None):
    """A CI run directory: three runs of every workload, named as CI names
    them.  *odd* maps a workload to the result lines (dicts or raw text)
    it gets instead."""
    directory.mkdir()
    for workload in WORKLOADS:
        runs = (odd or {}).get(workload, [_run()] * 3)
        for index, run in enumerate(runs, 1):
            text = run if isinstance(run, str) else json.dumps(run)
            (directory / f"perfbench-{workload}-{index}.json").write_text(text + "\n")
    return str(directory)


@pytest.fixture
def gate(monkeypatch, capsys):
    """``gate(current, previous=None) -> (exit code, output)``, run from the
    repository root, where the gate reads BENCHMARK.json."""
    monkeypatch.chdir(REPO_ROOT)

    def run(current, previous=None):
        argv = [current] + (["--previous", previous] if previous else [])
        code = main(argv)
        return code, capsys.readouterr().out

    return run


class TestEvaluate:
    def test_median_of_three_gates(self):
        result = evaluate([3.0, 3.4, 3.2], previous=3.0, tolerance=0.25)
        assert result.ok
        assert result.median == 3.2
        assert result.threshold == pytest.approx(2.25)

    def test_previous_ratchets_threshold_up(self):
        ok = evaluate([3.0], previous=4.0, tolerance=0.25)
        assert ok.ok  # exactly at threshold passes
        bad = evaluate([2.9], previous=4.0, tolerance=0.25)
        assert not bad.ok
        assert bad.threshold == pytest.approx(3.0)

    def test_noise_within_tolerance_passes(self):
        # A 15% dip on a noisy 1-vCPU runner must not fail the build.
        assert evaluate([3.4 * 0.85], previous=3.4, tolerance=0.25).ok

    def test_input_validation(self):
        with pytest.raises(ValueError):
            evaluate([], previous=1.0, tolerance=0.1)
        with pytest.raises(ValueError):
            evaluate([3.0], previous=1.0, tolerance=1.5)
        with pytest.raises(ValueError, match="better"):
            evaluate([3.0], previous=1.0, tolerance=0.1, better="smaller")


class TestLowerIsBetter:
    """The direction perfbench's times and sizes are gated in
    (``better: lower`` in BENCHMARK.json)."""

    def test_previous_plus_tolerance_is_the_ceiling(self):
        ok = evaluate([12.5], previous=10.0, tolerance=0.25, better="lower")
        assert ok.ok  # exactly at threshold passes
        assert ok.threshold == pytest.approx(12.5)
        bad = evaluate([12.6], previous=10.0, tolerance=0.25, better="lower")
        assert not bad.ok
        assert "REGRESSION" in bad.message
        assert "lower is better" in bad.message

    def test_improvement_passes(self):
        assert evaluate([4.0], previous=10.0, tolerance=0.1, better="lower").ok

    def test_median_gates(self):
        result = evaluate([9.0, 30.0, 10.5], previous=10.0, tolerance=0.1,
                          better="lower")
        assert result.median == 10.5
        assert result.ok

    def test_higher_is_better_mirrors_it(self):
        # the same numbers, the other direction: a detection rate that fell
        assert not evaluate([0.85], previous=1.0, tolerance=0.1,
                            better="higher").ok
        assert evaluate([0.9], previous=1.0, tolerance=0.1, better="higher").ok


class TestCli:
    """``python -m repro.bench.ratchet RUN_DIR --previous DIR``, the CI
    ``perf`` job's gate."""

    def test_no_previous_artifact_gates_the_output_check_only(self, tmp_path, gate):
        # ten times slower, yet nothing to compare with
        current = _write(tmp_path / "now", {"core-study": [_run(wall_s=20.0)]})
        code, out = gate(current, str(tmp_path / "missing"))
        assert code == 0
        assert "core-study: no previous main result, output check only" in out
        assert "perfbench gate: ok" in out

    def test_within_bounds_passes(self, tmp_path, gate):
        previous = _write(tmp_path / "main")
        inside = {name: _worse(name, 0.9) for name in BASE}
        current = _write(tmp_path / "now", {w: [_run(**inside)] * 3 for w in WORKLOADS})
        code, out = gate(current, previous)
        assert code == 0, out
        assert out.count("perf ratchet ok") == len(WORKLOADS) * len(BASE)

    def test_regression_vs_previous_fails(self, tmp_path, gate):
        # lower is better: the median wall_s past previous * (1 + bound)
        previous = _write(tmp_path / "main")
        slow = _worse("wall_s", 1.01)
        current = _write(tmp_path / "now", {
            "memory-study": [_run(wall_s=slow), _run(wall_s=slow), _run()]})
        code, out = gate(current, previous)
        assert code == 1
        assert "FAILED memory-study wall_s: perf ratchet REGRESSION" in out
        assert out.count("FAILED") == 2  # that metric, and the summary line

    def test_higher_is_better_metric_past_its_bound_fails(self, tmp_path, gate):
        previous = _write(tmp_path / "main")
        fell = _worse("tpr", 1.01)
        current = _write(tmp_path / "now", {"serve-stream": [_run(tpr=fell)] * 3})
        code, out = gate(current, previous)
        assert code == 1
        assert "FAILED serve-stream tpr: perf ratchet REGRESSION" in out
        assert "higher is better" in out

    def test_incorrect_run_fails(self, tmp_path, gate):
        current = _write(tmp_path / "now", {"core-study": [_run(), _run(correct=False)]})
        code, out = gate(current)
        assert code == 1
        assert "FAILED core-study: output check failed" in out

    def test_failed_operations_fail(self, tmp_path, gate):
        current = _write(tmp_path / "now", {"serve-stream": [_run(failed=3)]})
        code, out = gate(current)
        assert code == 1
        assert "FAILED serve-stream: output check failed (3 of 10)" in out

    def test_run_file_whose_last_line_is_not_json_fails_and_names_it(
        self, tmp_path, gate
    ):
        traceback_tail = "ZeroDivisionError: division by zero"
        current = _write(tmp_path / "now", {"memory-study": [_run(), traceback_tail]})
        code, out = gate(current)
        assert code == 1
        assert "perfbench-memory-study-2.json: last line is not a perfbench result" in out

    def test_last_line_is_the_result(self, tmp_path, gate):
        # a file holding the whole stdout of a run is read like its last line
        current = _write(tmp_path / "now",
                         {"core-study": ["a line before\n" + json.dumps(_run())]})
        assert gate(current)[0] == 0

    def test_workload_without_runs_fails(self, tmp_path, gate):
        current = _write(tmp_path / "now", {"core-study": []})
        code, out = gate(current)
        assert code == 1
        assert "FAILED core-study: no perfbench-core-study-*.json" in out

    def test_metric_missing_on_one_side_is_skipped(self, tmp_path, gate):
        # either comparison would fail, had both sides the metric
        previous = _write(tmp_path / "main", {
            w: [_run(verdict_p99_ms=1.0, tpr=None)] for w in WORKLOADS})
        current = _write(tmp_path / "now", {
            w: [_run(verdict_p99_ms=None, tpr=0.01)] for w in WORKLOADS})
        code, out = gate(current, previous)
        assert code == 0, out
        assert "verdict_p99_ms:" not in out and "tpr:" not in out
        assert "wall_s: perf ratchet ok" in out

    def test_corrupt_previous_gates_the_output_check_only(self, tmp_path, gate):
        previous = _write(tmp_path / "main", {"core-study": ["{not json"]})
        current = _write(tmp_path / "now", {"core-study": [_run(wall_s=20.0)]})
        code, out = gate(current, previous)
        assert code == 0
        assert "previous main result unreadable" in out
        assert "perfbench-core-study-1.json" in out

    def test_real_bench_report_is_readable(self, tmp_path, gate):
        # The gate consumes what perfbench/run.py actually prints.
        runs = {w: [REAL_LINE] for w in WORKLOADS}
        code, out = gate(_write(tmp_path / "now", runs),
                         _write(tmp_path / "main", runs))
        assert code == 0, out
        assert out.count("perf ratchet ok") == len(WORKLOADS) * len(BASE)
