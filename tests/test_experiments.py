"""Tests for the experiments harness (scales, context, rendering, runner)."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import BLAS_THREAD_VARS
from repro.experiments import (
    SCALES,
    ExperimentContext,
    ExperimentResult,
    get_scale,
    render_table,
)
from repro.experiments.runner import EXPERIMENTS, run_all


class TestScales:
    def test_three_scales_defined(self):
        assert set(SCALES) == {"smoke", "small", "full"}
        assert get_scale("smoke").name == "smoke"
        assert get_scale(SCALES["full"]) is SCALES["full"]
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_full_scale_covers_paper_configuration(self):
        full = get_scale("full")
        assert len(full.benchmarks) == 10
        assert full.bug_types is None
        assert "GBT-250" in full.engines


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table([{"a": 1, "b": 0.5}, {"a": 20, "c": "x"}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_empty_rows(self):
        assert render_table([]) == "(no rows)"

    def test_result_to_text(self):
        result = ExperimentResult("x", "Title", [{"v": 1}], notes="note")
        text = result.to_text()
        assert "Title" in text and "note" in text


class TestContext:
    def test_design_sets(self):
        context = ExperimentContext("smoke")
        sets = context.core_designs()
        assert set(sets) == {"I", "II", "III", "IV"}
        assert all(sets.values())
        mem_sets = context.memory_designs()
        assert len(mem_sets["IV"]) == 2

    def test_bug_suites_respect_scale(self):
        context = ExperimentContext("smoke")
        suite = context.core_bugs()
        assert set(suite) == set(context.scale.bug_types)
        assert all(len(v) == 1 for v in suite.values())

    def test_detection_setup_composition(self):
        context = ExperimentContext("smoke")
        setup = context.detection_setup(engine="Lasso")
        assert setup.model_config.engine == "Lasso"
        assert setup.cache is context.cache
        assert len(setup.probes) == 0 or setup.probes[0] is not context.probes[0]

    def test_runtime_wiring(self, tmp_path):
        context = ExperimentContext("smoke", jobs=3, store_path=str(tmp_path / "s"))
        assert context.engine.jobs == 3
        assert context.engine.store is context.store
        assert context.cache.engine is context.engine
        assert context.memory_cache.engine is context.engine
        # The ad-hoc IPC-target memory cache shares the same engine/store.
        setup = context.memory_detection_setup(engine="Lasso", target_metric="ipc")
        assert setup.cache.engine is context.engine

    def test_jobs_default_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert ExperimentContext("smoke").jobs == 5
        monkeypatch.delenv("REPRO_JOBS")
        context = ExperimentContext("smoke")
        assert context.jobs == 1
        assert context.store is None


class TestRunner:
    def test_experiment_registry_complete(self):
        expected = {"fig1", "fig3", "fig4", "tab4", "fig5", "fig6", "tab5", "fig8",
                    "fig9", "fig10", "fig11", "tab6", "fig12", "fig13", "tab7",
                    "mixes"}
        assert set(EXPERIMENTS) == expected

    def test_opt_in_experiments_excluded_by_default(self):
        from repro.experiments.runner import OPT_IN

        assert OPT_IN == {"mixes"}
        default = [e for e in EXPERIMENTS if e not in OPT_IN]
        assert "mixes" not in default and len(default) == len(EXPERIMENTS) - 1

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_all("smoke", only=["tab99"])


class TestBlasThreads:
    """One BLAS thread by default; a count the user set is kept."""

    SRC = str(Path(__file__).resolve().parents[1] / "src")

    def _run(self, args, **env):
        environ = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        environ.update(env, PYTHONPATH=self.SRC)
        return subprocess.run(
            [sys.executable, *args], env=environ, capture_output=True, text=True,
            timeout=300, check=True,
        ).stdout

    def test_default_is_one_thread_before_numpy_loads(self):
        probe = (
            "import os, sys, repro; assert 'numpy' not in sys.modules; "
            "print(*(os.environ.get(n) for n in repro.BLAS_THREAD_VARS), "
            "repro.blas_threads())"
        )
        assert self._run(["-c", probe]).split() == ["1", "1", "1"]

    def test_a_user_count_survives_into_the_runtime_line(self):
        probe = (
            "import os, repro; "
            "print(*(os.environ.get(n) for n in repro.BLAS_THREAD_VARS), "
            "repro.blas_threads())"
        )
        assert self._run(["-c", probe], OMP_NUM_THREADS="2").split() == [
            "None", "2", "2"
        ]
        report = self._run(
            ["-m", "repro.experiments.runner", "--scale", "smoke", "--only", "fig3"],
            OPENBLAS_NUM_THREADS="3",
        )
        (runtime,) = [
            line for line in report.splitlines() if line.startswith("[runtime]")
        ]
        assert runtime.endswith(" blas_threads=3")


class TestTable4Timing:
    def test_each_row_times_only_its_own_fits(self, monkeypatch):
        # Every engine reads the same simulations.  Run inside the first
        # engine's timed prepare() and error vectors, they were charged to
        # that engine's Training (s) and Inference (s).
        from repro.experiments import table4_ipc_modeling
        from repro.experiments.common import SMOKE

        scale = dataclasses.replace(
            SMOKE, name="tab4-timing", benchmarks=("403.gcc",),
            instructions_per_benchmark=3_000, interval_size=1_000, max_simpoints=1,
            engines=("Lasso", "Lasso"), train_arch_limit=2, test_arch_limit=1,
        )
        context = ExperimentContext(scale)
        grown = []
        for name in ("prepare", "error_vector"):
            timed = getattr(table4_ipc_modeling.TwoStageDetector, name)

            def counting(self, *args, _timed=timed, _name=name):
                before = len(context.cache)
                result = _timed(self, *args)
                grown.append((_name, len(context.cache) - before))
                return result

            monkeypatch.setattr(table4_ipc_modeling.TwoStageDetector, name, counting)
        result = table4_ipc_modeling.run(context=context)
        assert len(result.rows) == 2
        assert grown and all(new == 0 for _name, new in grown), grown
