"""Benchmark: regenerate fig8_roc (Figure 8)."""

from repro.experiments import fig8_roc as experiment


def test_bench_fig8(run_experiment):
    run_experiment(experiment)
