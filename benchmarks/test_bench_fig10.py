"""Benchmark: regenerate fig10_counters (Figure 10)."""

from repro.experiments import fig10_counters as experiment


def test_bench_fig10(run_experiment):
    run_experiment(experiment)
