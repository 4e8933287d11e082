"""Benchmark: regenerate fig9_probes (Figure 9)."""

from repro.experiments import fig9_probes as experiment


def test_bench_fig9(run_experiment):
    run_experiment(experiment)
