"""Benchmark: regenerate fig3_simpoint_ipc (Figure 3)."""

from repro.experiments import fig3_simpoint_ipc as experiment


def test_bench_fig3(run_experiment):
    run_experiment(experiment)
