"""Benchmark: regenerate fig1_speedup (Figure 1)."""

from repro.experiments import fig1_speedup as experiment


def test_bench_fig1(run_experiment):
    run_experiment(experiment)
