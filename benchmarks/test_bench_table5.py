"""Benchmark: regenerate table5_detection (Table V)."""

from repro.experiments import table5_detection as experiment


def test_bench_table5(run_experiment):
    run_experiment(experiment)
