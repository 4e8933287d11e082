"""Benchmark: regenerate fig13_training_archs (Figure 13)."""

from repro.experiments import fig13_training_archs as experiment


def test_bench_fig13(run_experiment):
    run_experiment(experiment)
