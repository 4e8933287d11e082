"""Native (compiled C) kernel: build layer, fallback semantics, identity.

The bit-identity of the native kernel against the scalar/reference oracle
is hammered by ``tests/test_differential.py`` (fuzz + golden digests);
this file covers what the differential suite cannot: the build cache, the
compiler-discovery/override knobs, the graceful degradation when no
compiler exists or the compile fails, and the kernel limits.

Tests that re-point ``REPRO_NATIVE_CC``/``REPRO_NATIVE_CACHE`` reset the
build layer's memoised state around themselves so the rest of the session
keeps its already-loaded library.
"""

import shutil
import warnings

import numpy as np
import pytest

from repro.bugs.core_bugs import RegisterReduction, SerializeOpcode
from repro.coresim import (
    BugRecord,
    CoreBugModel,
    simulate_batch_scalar,
    simulate_trace,
)
from repro.coresim.native import (
    CACHE_ENV_VAR,
    COMPILER_ENV_VAR,
    NativeKernelUnavailable,
    find_compiler,
    native_available,
    simulate_batch_native,
)
from repro.coresim.native import build as native_build
from repro.uarch import core_microarch
from repro.workloads import (
    Opcode,
    TraceGenerator,
    build_program,
    decode_trace,
    workload,
)


def _assert_identical(a, b, context):
    assert a.cycles == b.cycles, context
    assert a.instructions == b.instructions, context
    assert set(a.series.counters) == set(b.series.counters), context
    for name in a.series.counters:
        assert np.array_equal(a.series.counters[name], b.series.counters[name]), (
            context,
            name,
        )


@pytest.fixture()
def fresh_build_state():
    """Reset the build layer's memoised state before AND after the test."""
    native_build._reset_for_tests()
    yield
    native_build._reset_for_tests()


@pytest.fixture()
def short_trace():
    program = build_program(workload("403.gcc"), seed=21)
    return decode_trace(TraceGenerator(program, seed=22).generate(700))


class TestEligibility:
    def test_ineligible_bug_raises_unavailable(self, short_trace):
        """Every bug model runs natively; only a request past a kernel limit
        raises, here an extra delay longer than the whole cycle budget."""
        if not native_available():
            pytest.skip("no C compiler on this host")
        bug = CoreBugModel()
        bug.compile = lambda trace: BugRecord(iq_free_below=1 << 20, iq_delay=1 << 40)
        with pytest.raises(NativeKernelUnavailable, match="wake calendar"):
            simulate_batch_native(
                core_microarch("K8"), [short_trace], bug=bug, step_cycles=256
            )

    def test_empty_trace_rejected(self):
        if not native_available():
            pytest.skip("no C compiler on this host")
        with pytest.raises(ValueError):
            simulate_batch_native(
                core_microarch("K8"), [decode_trace([])], step_cycles=64
            )


    def test_record_column_length_checked(self, short_trace):
        """Both paths index record columns by uop: a short or long one is
        refused before any pointer is passed or any cycle runs."""
        simulators = [simulate_batch_scalar]
        if native_available():
            simulators.append(simulate_batch_native)
        for n in (3, len(short_trace) + 1):
            bug = CoreBugModel()
            bug.compile = lambda trace, n=n: BugRecord(extra_delay=np.zeros(n, np.int64))
            for simulate in simulators:
                with pytest.raises(ValueError, match="one entry per uop"):
                    simulate(core_microarch("K8"), [short_trace], bug=bug, step_cycles=256)


class TestDirectIdentity:
    def test_simulate_batch_native_matches_scalar(self, short_trace):
        if not native_available():
            pytest.skip("no C compiler on this host")
        config = core_microarch("Cedarview")
        for bug in (None, RegisterReduction(16), SerializeOpcode(Opcode.XOR)):
            native = simulate_batch_native(
                config, [short_trace], bug=bug, step_cycles=256
            )[0]
            scalar = simulate_batch_scalar(
                config, [short_trace], bug=bug, step_cycles=256
            )[0]
            _assert_identical(scalar, native, f"direct bug={bug}")


class TestFallback:
    def test_missing_compiler_falls_back_with_one_warning(
        self, fresh_build_state, monkeypatch, short_trace
    ):
        monkeypatch.setenv(COMPILER_ENV_VAR, "/nonexistent/compiler-xyz")
        assert find_compiler() is None
        config = core_microarch("Skylake")
        with pytest.warns(RuntimeWarning, match="falling back to the scalar"):
            degraded = simulate_trace(config, short_trace, step_cycles=256)
        # second call: memoised None, no second warning, still correct
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = simulate_trace(config, short_trace, step_cycles=256)
        scalar = simulate_batch_scalar(config, [short_trace], step_cycles=256)[0]
        _assert_identical(scalar, degraded, "no-compiler fallback")
        _assert_identical(scalar, again, "no-compiler fallback (memoised)")

    def test_failed_compile_falls_back(
        self, fresh_build_state, monkeypatch, tmp_path, short_trace
    ):
        false_bin = shutil.which("false")
        if false_bin is None:
            pytest.skip("no `false` binary to stand in for a broken compiler")
        monkeypatch.setenv(COMPILER_ENV_VAR, false_bin)
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
        config = core_microarch("Skylake")
        with pytest.warns(RuntimeWarning, match="falling back to the scalar"):
            degraded = simulate_trace(config, short_trace, step_cycles=256)
        scalar = simulate_batch_scalar(config, [short_trace], step_cycles=256)[0]
        _assert_identical(scalar, degraded, "compile-failure fallback")
        # the failed build leaves no artifact behind
        cache = tmp_path / "cache"
        assert not cache.exists() or not list(cache.glob("*.so"))


class TestBuildCache:
    def test_build_cache_reused_across_loads(
        self, fresh_build_state, monkeypatch, tmp_path
    ):
        if find_compiler() is None:
            pytest.skip("no C compiler on this host")
        cache = tmp_path / "native-cache"
        monkeypatch.setenv(CACHE_ENV_VAR, str(cache))
        first = native_build.library_path()
        assert first is not None and first.parent == cache
        artifacts = list(cache.glob("repro_core_*.so"))
        assert len(artifacts) == 1
        mtime = artifacts[0].stat().st_mtime_ns
        # a fresh process-equivalent resolve hits the cache, not the compiler
        # (the --version probe is the only subprocess allowed through)
        native_build._reset_for_tests()
        real_run = native_build.subprocess.run

        def version_only(cmd, *args, **kwargs):
            if "--version" in cmd:
                return real_run(cmd, *args, **kwargs)
            pytest.fail("cache hit must not invoke the compiler")

        monkeypatch.setattr(native_build.subprocess, "run", version_only)
        second = native_build.library_path()
        assert second == first
        assert artifacts[0].stat().st_mtime_ns == mtime

    def test_unusable_override_disables_rather_than_discovers(
        self, fresh_build_state, monkeypatch
    ):
        """An explicit but broken REPRO_NATIVE_CC must not silently fall
        back to PATH discovery — forced-failure CI legs depend on this."""
        monkeypatch.setenv(COMPILER_ENV_VAR, "/nonexistent/compiler-xyz")
        assert find_compiler() is None
        assert not native_available()

    def test_empty_override_disables(self, fresh_build_state, monkeypatch):
        monkeypatch.setenv(COMPILER_ENV_VAR, "   ")
        assert find_compiler() is None
