"""Benchmark: regenerate fig4_severity (Figure 4)."""

from repro.experiments import fig4_severity as experiment


def test_bench_fig4(run_experiment):
    run_experiment(experiment)
