"""Benchmark: regenerate table4_ipc_modeling (Table IV)."""

from repro.experiments import table4_ipc_modeling as experiment


def test_bench_table4(run_experiment):
    run_experiment(experiment)
