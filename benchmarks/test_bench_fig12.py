"""Benchmark: regenerate fig12_arch_features (Figure 12)."""

from repro.experiments import fig12_arch_features as experiment


def test_bench_fig12(run_experiment):
    run_experiment(experiment)
