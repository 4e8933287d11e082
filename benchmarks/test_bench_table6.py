"""Benchmark: regenerate table6_window (Table VI)."""

from repro.experiments import table6_window as experiment


def test_bench_table6(run_experiment):
    run_experiment(experiment)
