"""Benchmark: regenerate fig11_timestep (Figure 11)."""

from repro.experiments import fig11_timestep as experiment


def test_bench_fig11(run_experiment):
    run_experiment(experiment)
