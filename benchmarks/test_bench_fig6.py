"""Benchmark: regenerate fig6_bug_vs_bugfree (Figure 6)."""

from repro.experiments import fig6_bug_vs_bugfree as experiment


def test_bench_fig6(run_experiment):
    run_experiment(experiment)
