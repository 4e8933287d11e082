"""Native (compiled C) kernel: build layer, fallback semantics, identity.

The bit-identity of the native kernel against the scalar/reference oracle
is hammered by ``tests/test_differential.py`` (fuzz + golden digests);
this file covers what the differential suite cannot: the build cache, the
compiler-discovery/override knobs, the graceful degradation when no
compiler exists or the compile fails, the kernel limits, and the layout
check that refuses a C unit whose params struct or constants differ from
its ctypes wrapper's.

Tests that re-point ``REPRO_NATIVE_CC``/``REPRO_NATIVE_CACHE`` reset the
build layer's memoised state around themselves so the rest of the session
keeps its already-loaded library.
"""

import ctypes
import re
import shutil
import subprocess
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
from repro.coresim.native import kernel
from repro.memsim import native as memsim_native
from repro.memsim import simulate_memory_python, simulate_memory_trace
from repro.ml import native as ml_native
from repro.uarch import core_microarch, memory_microarch
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


#: Scratch units build at -O0: a struct's layout does not depend on the
#: optimisation level, and -O0 compiles a unit several times faster.
_SCRATCH_CFLAGS = ("-O0", "-std=c99", "-fPIC", "-shared")


@pytest.fixture()
def compiler():
    path = find_compiler()
    if path is None:
        pytest.skip("no C compiler on this host")
    return path


def _skewed_source(unit_file, *edits):
    """The text of the C unit *unit_file*, each ``(pattern, replacement)``
    regex edit applied (each must match, or the case tests nothing)."""
    (path,) = [p for p in native_build.SOURCE_PATHS if p.name == unit_file]
    text = path.read_text(encoding="utf-8")
    for pattern, replacement in edits:
        text, count = re.subn(pattern, replacement, text)
        assert count, f"{pattern!r} no longer matches {unit_file}"
    return text


def _scratch_unit(compiler, tmp_path, unit_file, *edits):
    """The C unit *unit_file* alone, skewed by *edits*, built and loaded."""
    source = tmp_path / unit_file
    source.write_text(_skewed_source(unit_file, *edits), encoding="utf-8")
    library = tmp_path / "unit.so"
    subprocess.run(
        [compiler, *_SCRATCH_CFLAGS, str(source), "-o", str(library)],
        check=True, capture_output=True,
    )
    return ctypes.CDLL(str(library))


def _with_fields(unit, edit):
    """*unit* with its ctypes params class rebuilt from ``edit(fields)``."""
    fields = edit(list(unit.params._fields_))
    params = type(unit.params.__name__, (ctypes.Structure,), {"_fields_": fields})
    return unit._replace(params=params)


def _swapped(first, second):
    def edit(fields):
        names = [name for name, _ in fields]
        i, j = names.index(first), names.index(second)
        fields[i], fields[j] = fields[j], fields[i]
        return fields
    return edit


def _refusal(lib, unit):
    """The message of the check's refusal of *unit* in *lib*."""
    with pytest.raises(NativeKernelUnavailable) as refused:
        native_build.check_layout(lib, unit)
    message = str(refused.value)
    assert f"native {unit.name} unit" in message, message
    return message


class TestLayoutCheck:
    """Each C unit reports its params struct's fields (C type, offset,
    size), its ``sizeof`` and the constants its wrapper relies on; binding
    the unit compares the report with the ctypes declaration.  C-side skews
    build the skewed unit alone into a scratch library; ctypes-side skews
    check an edited class against the real library."""

    def test_every_unit_binds(self):
        if not native_available():
            pytest.skip("no C compiler on this host")
        for unit in (kernel._UNIT, memsim_native._UNIT, ml_native._UNIT,
                     ml_native._PREDICT):
            lib = native_build.bind(unit)
            assert list(getattr(lib, unit.entry).argtypes) == unit.argtypes

    def test_c_slot_removal_detected(self, compiler, tmp_path):
        lib = _scratch_unit(
            compiler, tmp_path, "_core.c",
            (r"    S_FETCH_STALL,\n", ""), (r"C\[S_FETCH_STALL\] \+= [^;]+;", ";"),
        )
        message = _refusal(lib, kernel._UNIT)
        assert "S_ROB_OCC = 38 in C, S_ROB_OCC = 39 in Python" in message, message

    def test_c_struct_field_rename_detected(self, compiler, tmp_path):
        lib = _scratch_unit(
            compiler, tmp_path, "_core.c", (r"\brob_size\b", "rob_sizz")
        )
        message = _refusal(lib, kernel._UNIT)
        assert "i64 rob_sizz at offset 16" in message, message
        assert "i64 rob_size at offset 16" in message, message

    def test_c_field_type_change_detected(self, compiler, tmp_path):
        # i64 -> i32 also shifts every later field; the first skewed one is named.
        lib = _scratch_unit(
            compiler, tmp_path, "_core.c",
            (r"X\(i64, rob_size, \)", "X(i32, rob_size, )"),
        )
        message = _refusal(lib, kernel._UNIT)
        assert "i32 rob_size at offset 16 (4 bytes) in C" in message, message
        assert "i64 rob_size at offset 16 (8 bytes) in Python" in message, message

    def test_memsim_struct_field_rename_detected(self, compiler, tmp_path):
        lib = _scratch_unit(
            compiler, tmp_path, "_memsim.c", (r"\bdram_latency\b", "dram_latencx")
        )
        message = _refusal(lib, memsim_native._UNIT)
        assert "_MemParams" in message and "dram_latencx" in message, message
        assert "dram_latency" in message, message

    def test_memsim_ctypes_field_reorder_detected(self):
        if not native_available():
            pytest.skip("no C compiler on this host")
        unit = _with_fields(memsim_native._UNIT, _swapped("warmup", "step"))
        message = _refusal(native_build.load_library(), unit)
        assert "i64 warmup at offset 8" in message, message
        assert "i64 step at offset 8" in message, message

    def test_memsim_ctypes_field_type_change_detected(self):
        if not native_available():
            pytest.skip("no C compiler on this host")

        def as_double(fields):
            return [(name, ctypes.c_double if name == "dram_latency" else ctype)
                    for name, ctype in fields]

        unit = _with_fields(memsim_native._UNIT, as_double)
        message = _refusal(native_build.load_library(), unit)
        assert "i64 dram_latency at offset 32 (8 bytes) in C" in message, message
        assert "double dram_latency at offset 32 (8 bytes) in Python" in message

    def test_memsim_column_count_skew_refused_before_any_write(
        self, compiler, tmp_path, monkeypatch, short_trace
    ):
        """A column inserted before C_STALL_CYCLES would move that column's
        writes one past the out_rows buffer sized from _COLUMN_NAMES: the
        bind refuses the unit before its entry point is typed or called."""
        lib = _scratch_unit(
            compiler, tmp_path, "_memsim.c",
            (r"    C_STALL_CYCLES,\n", "    C_EXTRA,\n    C_STALL_CYCLES,\n"),
        )
        monkeypatch.setattr(native_build, "load_library", lambda: lib)
        config = memory_microarch("Skylake-mem")
        with pytest.warns(RuntimeWarning, match="native memsim kernel disabled"):
            with pytest.raises(NativeKernelUnavailable,
                               match="NUM_COLUMNS = 24 in C, NUM_COLUMNS = 23"):
                memsim_native.simulate_memory_native(config, short_trace)
        assert lib.repro_memsim.argtypes is None
        fallback = simulate_memory_trace(config, short_trace)
        python = simulate_memory_python(config, short_trace)
        assert (fallback.cycles, fallback.amat) == (python.cycles, python.amat)
        for name, values in python.series.counters.items():
            assert fallback.series.counters[name].tobytes() == values.tobytes(), name

    def test_gbt_struct_field_rename_detected(self, compiler, tmp_path):
        lib = _scratch_unit(
            compiler, tmp_path, "_gbt.c", (r"\blearning_rate\b", "learning_ratx")
        )
        message = _refusal(lib, ml_native._UNIT)
        assert "_GbtParams" in message and "learning_ratx" in message, message
        assert "learning_rate" in message, message

    def test_gbt_field_type_change_detected(self, compiler, tmp_path):
        lib = _scratch_unit(
            compiler, tmp_path, "_gbt.c",
            (r"X\(double, learning_rate\)", "X(i64, learning_rate)"),
        )
        message = _refusal(lib, ml_native._UNIT)
        assert "i64 learning_rate at offset 80 (8 bytes) in C" in message, message
        assert "double learning_rate at offset 80 (8 bytes) in Python" in message

    def test_gbt_ctypes_field_reorder_detected(self):
        if not native_available():
            pytest.skip("no C compiler on this host")
        unit = _with_fields(ml_native._UNIT, _swapped("learning_rate", "base"))
        message = _refusal(native_build.load_library(), unit)
        assert "double learning_rate at offset 80" in message, message
        assert "double base at offset 80" in message, message

    def test_missing_layout_export_detected(self, compiler, tmp_path):
        lib = _scratch_unit(
            compiler, tmp_path, "_gbt.c", (r"\brepro_gbt_layout\b", "repro_gbt_report")
        )
        assert "repro_gbt_layout" in _refusal(lib, ml_native._UNIT)

    def test_checked_once_per_library_object(self, fresh_build_state, monkeypatch):
        """The outcome is remembered per library object, not per ``id()``:
        a library loaded after a reset may sit where the dropped one did,
        and it is checked and its entry point typed again."""
        if not native_available():
            pytest.skip("no C compiler on this host")
        checked = []
        check_layout = native_build.check_layout

        def counting(lib, unit):
            checked.append(unit.name)
            check_layout(lib, unit)

        monkeypatch.setattr(native_build, "check_layout", counting)
        native_build.bind(kernel._UNIT)
        native_build.bind(kernel._UNIT)
        assert checked == ["core"]
        native_build._reset_for_tests()
        lib = native_build.bind(kernel._UNIT)
        assert checked == ["core", "core"]
        assert list(lib.repro_simulate.argtypes) == kernel._UNIT.argtypes

    def test_skewed_build_falls_back_end_to_end(
        self, compiler, fresh_build_state, monkeypatch, tmp_path, short_trace
    ):
        skewed = tmp_path / "_core.c"
        skewed.write_text(
            _skewed_source("_core.c", (r"X\(i64, rob_size, \)", "X(i32, rob_size, )")),
            encoding="utf-8",
        )
        monkeypatch.setattr(native_build, "SOURCE_PATHS", tuple(
            skewed if path.name == "_core.c" else path
            for path in native_build.SOURCE_PATHS
        ))
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
        config = core_microarch("Skylake")
        with pytest.warns(RuntimeWarning, match="core kernel disabled.*rob_size"):
            degraded = simulate_trace(config, short_trace, step_cycles=256)
        assert native_available()  # built and loaded: only the core unit is refused
        native_build.bind(memsim_native._UNIT)
        scalar = simulate_batch_scalar(config, [short_trace], step_cycles=256)[0]
        _assert_identical(scalar, degraded, "skewed-build fallback")
