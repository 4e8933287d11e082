"""Tests for the perf trajectory ratchet (repro.bench.ratchet)."""

import json

import pytest

from repro.bench.ratchet import (
    DEFAULT_FLOOR,
    DEFAULT_TOLERANCE,
    evaluate,
    main,
    read_speedup,
)


def _write_report(path, speedup, **extra):
    payload = {"single": {"aggregate_speedup": speedup}, **extra}
    path.write_text(json.dumps(payload))
    return str(path)


class TestEvaluate:
    def test_median_of_three_gates(self):
        result = evaluate([3.0, 3.4, 3.2], previous=None, floor=2.0)
        assert result.ok
        assert result.median == 3.2
        assert result.threshold == 2.0

    def test_static_floor_fails_without_previous(self):
        result = evaluate([1.5, 1.6, 1.4], previous=None, floor=2.0)
        assert not result.ok
        assert "REGRESSION" in result.message

    def test_previous_ratchets_threshold_up(self):
        # Median 3.0 clears the 2.0 floor but not 4.0 * (1 - 0.25) = 3.0...
        ok = evaluate([3.0], previous=4.0, floor=2.0, tolerance=0.25)
        assert ok.ok  # exactly at threshold passes
        bad = evaluate([2.9], previous=4.0, floor=2.0, tolerance=0.25)
        assert not bad.ok
        assert bad.threshold == pytest.approx(3.0)

    def test_noise_within_tolerance_passes(self):
        # A 15% dip on a noisy 1-vCPU runner must not fail the build.
        result = evaluate([3.4 * 0.85], previous=3.4, tolerance=DEFAULT_TOLERANCE)
        assert result.ok

    def test_previous_below_floor_keeps_floor(self):
        result = evaluate([2.1], previous=2.05, floor=2.0, tolerance=0.25)
        assert result.threshold == 2.0
        assert result.ok

    def test_input_validation(self):
        with pytest.raises(ValueError):
            evaluate([], previous=None)
        with pytest.raises(ValueError):
            evaluate([3.0], previous=None, tolerance=1.5)
        with pytest.raises(ValueError, match="better"):
            evaluate([3.0], previous=None, better="smaller")
        with pytest.raises(ValueError, match="previous value or a floor"):
            evaluate([3.0], previous=None, floor=None)

    def test_defaults_are_sane(self):
        assert 0 < DEFAULT_TOLERANCE < 1
        assert DEFAULT_FLOOR >= 1


class TestLowerIsBetter:
    """The direction perfbench's times and sizes are gated in
    (``better: lower`` in BENCHMARK.json)."""

    def test_previous_plus_tolerance_is_the_ceiling(self):
        ok = evaluate([12.5], previous=10.0, floor=None, tolerance=0.25,
                      better="lower")
        assert ok.ok  # exactly at threshold passes
        assert ok.threshold == pytest.approx(12.5)
        bad = evaluate([12.6], previous=10.0, floor=None, tolerance=0.25,
                       better="lower")
        assert not bad.ok
        assert "REGRESSION" in bad.message
        assert "lower is better" in bad.message

    def test_improvement_passes(self):
        assert evaluate([4.0], previous=10.0, floor=None, tolerance=0.1,
                        better="lower").ok

    def test_median_gates(self):
        result = evaluate([9.0, 30.0, 10.5], previous=10.0, floor=None,
                          tolerance=0.1, better="lower")
        assert result.median == 10.5
        assert result.ok

    def test_floor_is_a_static_maximum_and_the_stricter_bound_wins(self):
        # previous 10 + 25% = 12.5, but the static maximum 11 is stricter
        result = evaluate([12.0], previous=10.0, floor=11.0, tolerance=0.25,
                          better="lower")
        assert result.threshold == 11.0
        assert not result.ok
        # without a previous value the static maximum alone applies
        assert evaluate([10.9], previous=None, floor=11.0,
                        better="lower").ok

    def test_higher_is_better_mirrors_it(self):
        # the same numbers, the other direction: a detection rate that fell
        assert not evaluate([0.85], previous=1.0, floor=None, tolerance=0.1,
                            better="higher").ok
        assert evaluate([0.9], previous=1.0, floor=None, tolerance=0.1,
                        better="higher").ok


class TestCli:
    def test_pass_with_fallback_floor_and_emit(self, tmp_path, capsys):
        reports = [
            _write_report(tmp_path / f"bench-{i}.json", speedup)
            for i, speedup in enumerate([3.1, 3.3, 3.0])
        ]
        emitted = tmp_path / "BENCH_simulation.json"
        code = main(reports + [
            "--previous", str(tmp_path / "missing.json"),
            "--emit", str(emitted),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "static floor" in output
        # The emitted artifact is the median run's report.
        assert read_speedup(emitted) == 3.1

    def test_regression_vs_previous_fails(self, tmp_path, capsys):
        reports = [_write_report(tmp_path / "bench.json", 3.0)]
        previous = _write_report(tmp_path / "prev.json", 5.0)
        code = main(reports + ["--previous", previous])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_corrupt_previous_falls_back_to_floor(self, tmp_path, capsys):
        report = _write_report(tmp_path / "bench.json", 3.0)
        bad = tmp_path / "prev.json"
        bad.write_text("{not json")
        code = main([report, "--previous", str(bad), "--floor", "2.0"])
        assert code == 0
        assert "previous artifact unusable" in capsys.readouterr().out

    def test_real_bench_report_is_readable(self, tmp_path):
        # The ratchet consumes what repro-bench actually writes.
        from repro.bench.perf import SCHEMA_VERSION

        report = _write_report(
            tmp_path / "bench.json", 3.3, schema_version=SCHEMA_VERSION
        )
        assert read_speedup(report) == 3.3
