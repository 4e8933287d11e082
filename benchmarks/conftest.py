"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper at the ``smoke``
scale (see ``repro.experiments.common``).  A single :class:`ExperimentContext`
is shared across benchmarks so simulations are not repeated; set the
``REPRO_BENCH_SCALE`` environment variable to ``small`` or ``full`` for a
higher-fidelity (and much longer) run.  ``REPRO_JOBS`` shards the underlying
simulations across worker processes, and ``REPRO_BENCH_STORE`` points the
context at a persistent result store so repeated benchmark sessions skip
simulation entirely (timings then measure the ML/analysis stages).
"""

import os

import pytest

from repro.experiments.common import ExperimentContext


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "smoke")


@pytest.fixture(scope="session")
def context(bench_scale) -> ExperimentContext:
    return ExperimentContext(
        bench_scale, store_path=os.environ.get("REPRO_BENCH_STORE") or None
    )


@pytest.fixture()
def run_experiment(benchmark, bench_scale, context):
    """``run_experiment(module)`` runs one experiment exactly once under
    pytest-benchmark timing.  A fixture, not an importable helper: a bare
    ``from conftest import ...`` resolves to whichever rootless conftest
    pytest loaded last, so it broke when ``tests/`` was collected first."""

    def run(module):
        result = benchmark.pedantic(
            module.run, kwargs={"scale": bench_scale, "context": context},
            rounds=1, iterations=1, warmup_rounds=0,
        )
        assert result.rows, f"{module.EXPERIMENT_ID} produced no rows"
        print()
        print(result.to_text())
        return result

    return run
