"""Benchmark: regenerate table7_memory (Table VII)."""

from repro.experiments import table7_memory as experiment


def test_bench_table7(run_experiment):
    run_experiment(experiment)
