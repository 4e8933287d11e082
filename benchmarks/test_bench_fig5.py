"""Benchmark: regenerate fig5_traces (Figure 5)."""

from repro.experiments import fig5_traces as experiment


def test_bench_fig5(run_experiment):
    run_experiment(experiment)
