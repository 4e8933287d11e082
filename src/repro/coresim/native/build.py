"""Lazy build layer for the native kernels.

The three C units shipped inside the package — ``_core.c`` (the core cycle
loop), ``_memsim.c`` (the memory-hierarchy loop) and ``_gbt.c`` (the
gradient-boosting loop) — are compiled together into one shared library on
first use, with whatever system compiler is discoverable; there is
deliberately no numba/Cython/setuptools-build-time dependency.  The library
is cached under a per-user build directory keyed by
``blake2b(sources + flags + compiler + compiler version)``, so source edits,
flag changes, and toolchain upgrades each get a fresh artifact while repeat
runs pay nothing.  One library means one build: whatever loads the core
kernel (``native_available()``) has the memsim and GBT kernels too.

Failure is never an exception here: no compiler, an unwritable cache
directory, or a failed compile all degrade to ``None`` with a single
``RuntimeWarning`` per process, and the simulators and the GBT fall back to
their Python loops (see ``repro.coresim.simulator``,
``repro.memsim.simulator`` and ``repro.ml.gbt``).

Each unit declares its params struct from one X-macro field list and
reports its layout from the same list.  A wrapper reaches its unit through
:func:`bind`, which checks the report against the wrapper's ctypes
declaration once per loaded library: a skewed build raises
:class:`NativeKernelUnavailable` and falls back instead of writing past a
struct.  Argument lists are not reported (C cannot report a prototype).

Environment knobs:

``REPRO_NATIVE_CC``
    Explicit compiler command or path.  An unusable value (missing binary)
    disables every native kernel rather than falling back to discovery,
    which makes forced-failure testing deterministic.
``REPRO_NATIVE_CACHE``
    Build-cache directory override (default:
    ``$XDG_CACHE_HOME/repro/native`` or ``~/.cache/repro/native``).
``REPRO_NATIVE_SANITIZE``
    Sanitizer mode for the native build.  ``1``/``on`` selects
    ``address,undefined``; any other non-empty value is passed through as the
    ``-fsanitize=`` argument.  Sanitized builds get their own cache artifact
    (the flags are part of the cache key) and force **serial** execution —
    ASan's shadow memory and interceptors are not worth multiplying across a
    process pool, and failures are easiest to read from a single process.
    Running Python against an ASan'd shared library additionally requires
    preloading the sanitizer runtime (see docs/ANALYSIS.md).
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
import weakref
from pathlib import Path
from typing import NamedTuple

from . import workspace

#: Compiler override environment variable (see module docstring).
COMPILER_ENV_VAR = "REPRO_NATIVE_CC"

#: Build-cache directory override environment variable.
CACHE_ENV_VAR = "REPRO_NATIVE_CACHE"

#: Sanitizer mode environment variable (see module docstring).
SANITIZE_ENV_VAR = "REPRO_NATIVE_SANITIZE"

#: Compilers probed on PATH, in preference order, when no override is set.
COMPILER_CANDIDATES = ("gcc", "cc", "clang")

#: Flags for the shared-library build.  Part of the cache key.
#: ``-ffp-contract=off`` keeps ``a*b + c`` two roundings, as numpy and
#: Python compute it: GCC turns contraction off under ``-std=c99`` already,
#: Clang fuses into an FMA wherever the target has one (any arm64).
CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")

#: Warning gate flags: the C source must stay warning-clean under these.
#: Checked by ``werror_check`` (wired into repro-lint and CI), not by the
#: regular build — a user's exotic toolchain must not lose the kernel over
#: a new warning.
WERROR_FLAGS = ("-Wall", "-Wextra", "-Werror")

#: The C units linked into the one kernel library.
SOURCE_PATHS = (
    Path(__file__).with_name("_core.c"),
    Path(__file__).with_name("_memsim.c"),
    Path(__file__).with_name("_gbt.c"),
)

_lib: "ctypes.CDLL | None" = None
_lib_resolved = False
#: Guards loading the library and binding its units.
_load_lock = threading.Lock()
#: Per library, each entry point bound so far: None, or why its unit's
#: check failed.  Keyed by the object (weakly), not its ``id()``, which a
#: library loaded after :func:`_reset_for_tests` can reuse while its entry
#: points are untyped.
_bound: "weakref.WeakKeyDictionary[ctypes.CDLL, dict]" = weakref.WeakKeyDictionary()
_warned = False
_compiler_info: "dict[str, str] | None | bool" = False  # False == not probed


def _warn_once(reason: str) -> None:
    global _warned
    if _warned:
        return
    _warned = True
    warnings.warn(
        f"repro native kernel unavailable ({reason}); "
        "falling back to the scalar kernel, the Python memsim and the numpy GBT",
        RuntimeWarning,
        stacklevel=3,
    )


def sanitize_mode() -> "str | None":
    """The active ``-fsanitize=`` argument, or None when sanitizers are off."""
    raw = os.environ.get(SANITIZE_ENV_VAR, "").strip().lower()
    if raw in ("", "0", "off", "no", "false"):
        return None
    if raw in ("1", "on", "yes", "true"):
        return "address,undefined"
    return raw


def active_cflags() -> "tuple[str, ...]":
    """Build flags for the current mode.  Part of the cache key, so the
    sanitized artifact never collides with the regular one."""
    mode = sanitize_mode()
    if mode is None:
        return CFLAGS
    return CFLAGS + (f"-fsanitize={mode}", "-fno-omit-frame-pointer", "-g")


def find_compiler() -> "str | None":
    """Absolute path of the C compiler to use, or None."""
    override = os.environ.get(COMPILER_ENV_VAR)
    if override is not None:
        override = override.strip()
        if not override:
            return None
        resolved = shutil.which(override)
        if resolved is not None:
            return resolved
        if os.path.isfile(override) and os.access(override, os.X_OK):
            return override
        return None
    for name in COMPILER_CANDIDATES:
        resolved = shutil.which(name)
        if resolved is not None:
            return resolved
    return None


def _compiler_version(compiler: str) -> str:
    try:
        proc = subprocess.run(
            [compiler, "--version"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    for line in (proc.stdout or proc.stderr or "").splitlines():
        line = line.strip()
        if line:
            return line
    return "unknown"


def compiler_info() -> "dict[str, str] | None":
    """``{"path": ..., "version": ...}`` for the active compiler, or None.

    Memoised; the version is part of the build key, so a toolchain
    upgrade rebuilds the library.
    """
    global _compiler_info
    if _compiler_info is False:
        compiler = find_compiler()
        if compiler is None:
            _compiler_info = None
        else:
            _compiler_info = {
                "path": compiler,
                "version": _compiler_version(compiler),
            }
    return _compiler_info  # type: ignore[return-value]


def cache_dir() -> Path:
    """The build-cache directory (not necessarily existing yet)."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro" / "native"


def library_path() -> "Path | None":
    """Path of the compiled shared library, building it if needed.

    Returns None (with a one-time warning) when no compiler is available or
    the build fails for any reason.
    """
    info = compiler_info()
    if info is None:
        _warn_once("no usable C compiler (set $REPRO_NATIVE_CC or install gcc/cc)")
        return None
    compiler = info["path"]
    sources = []
    for path in SOURCE_PATHS:
        try:
            sources.append(path.read_text(encoding="utf-8"))
        except OSError as exc:
            _warn_once(f"cannot read {path.name}: {exc}")
            return None
    cflags = active_cflags()
    key = hashlib.blake2b(
        "\x00".join([*sources, " ".join(cflags), compiler, info["version"]]).encode(
            "utf-8"
        ),
        digest_size=16,
    ).hexdigest()
    directory = cache_dir()
    artifact = directory / f"repro_core_{key}.so"
    if artifact.exists():
        return artifact
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            prefix=".repro_core_", suffix=".so", dir=str(directory)
        )
        os.close(fd)
    except OSError as exc:
        _warn_once(f"cannot create build cache under {directory}: {exc}")
        return None
    try:
        proc = subprocess.run(
            [compiler, *cflags, *(str(path) for path in SOURCE_PATHS), "-o", tmp_path],
            capture_output=True,
            text=True,
            timeout=300,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        os.unlink(tmp_path)
        _warn_once(f"compiler invocation failed: {exc}")
        return None
    if proc.returncode != 0 or not os.path.getsize(tmp_path):
        os.unlink(tmp_path)
        detail = (proc.stderr or proc.stdout or "").strip().splitlines()
        tail = detail[-1] if detail else f"exit status {proc.returncode}"
        _warn_once(f"compilation failed: {tail}")
        return None
    os.replace(tmp_path, artifact)  # atomic vs concurrent builders
    return artifact


def werror_check(source_text: "str | None" = None) -> "tuple[bool | None, str]":
    """Syntax-check kernel source under ``-Wall -Wextra -Werror``.

    Checks *source_text*, or every unit in :data:`SOURCE_PATHS` when it is
    ``None``.  Returns ``(ok, diagnostics)``.  ``ok`` is ``None`` when no
    compiler is available (callers — repro-lint's native gate and CI — skip
    cleanly).  This is a pure front-end pass (``-fsyntax-only``): no
    artifact is produced and the build cache is untouched.
    """
    info = compiler_info()
    if info is None:
        return None, "no usable C compiler"
    if source_text is None:
        results = []
        for path in SOURCE_PATHS:
            try:
                results.append(werror_check(path.read_text(encoding="utf-8")))
            except OSError as exc:
                results.append((False, f"cannot read {path.name}: {exc}"))
        return (
            all(ok for ok, _ in results),
            "\n".join(text for _, text in results if text),
        )
    fd, tmp_path = tempfile.mkstemp(prefix=".repro_werror_", suffix=".c")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(source_text)
        proc = subprocess.run(
            [
                info["path"],
                "-std=c99",
                *WERROR_FLAGS,
                "-fsyntax-only",
                tmp_path,
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return False, f"compiler invocation failed: {exc}"
    finally:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
    diagnostics = (proc.stderr or proc.stdout or "").strip()
    return proc.returncode == 0, diagnostics


def sanitizer_preload() -> "list[str]":
    """Sanitizer runtime libraries that must be LD_PRELOADed into Python.

    A sanitized kernel library references ASan/UBSan runtime symbols that the
    python binary was not linked against; preloading the runtimes satisfies
    them.  Returns an empty list when sanitizers are off or the paths cannot
    be resolved (the caller decides whether that is fatal).
    """
    mode = sanitize_mode()
    info = compiler_info()
    if mode is None or info is None:
        return []
    libraries = []
    wanted = []
    if "address" in mode:
        wanted.append("libasan.so")
    if "undefined" in mode:
        wanted.append("libubsan.so")
    for name in wanted:
        try:
            proc = subprocess.run(
                [info["path"], f"-print-file-name={name}"],
                capture_output=True,
                text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        path = (proc.stdout or "").strip()
        if path and path != name and os.path.exists(path):
            libraries.append(path)
    return libraries


def load_library() -> "ctypes.CDLL | None":
    """The compiled kernel library (every unit), or None when unavailable.
    Memoised.  A thread that asks while another builds or loads it waits
    for that result instead of reading the library as missing."""
    global _lib, _lib_resolved
    if _lib_resolved:
        return _lib
    with _load_lock:
        if not _lib_resolved:
            path = library_path()
            if path is not None:
                try:
                    _lib = ctypes.CDLL(str(path))
                except OSError as exc:
                    _warn_once(f"cannot load {path.name}: {exc}")
            _lib_resolved = True
    return _lib


class NativeKernelUnavailable(RuntimeError):
    """The native kernel cannot run this request (caller falls back)."""


class Unit(NamedTuple):
    """A C unit as its ctypes wrapper declares it: the params struct, the
    constants the wrapper relies on (by C name, in the order the unit
    reports them), and the entry point with its argument types.  The unit
    reports its side as ``repro_<name>_layout``; a unit with two entry
    points is declared once per entry point."""

    name: str
    params: "type[ctypes.Structure]"
    constants: "dict[str, int]"
    entry: str
    argtypes: list


class _LayoutEntry(ctypes.Structure):
    """``LayoutEntry`` of each unit: a params field's name, C type, offset
    and size (``value``), or, with no type, a constant's name and value."""

    _fields_ = [("name", ctypes.c_char_p), ("type", ctypes.c_char_p),
                ("offset", ctypes.c_int64), ("value", ctypes.c_int64)]


#: How the C units spell the ctypes types of their params fields.
_C_TYPES = {ctypes.c_int64: "i64", ctypes.c_double: "double"}


def _expected_report(unit: Unit) -> list:
    """The layout report *unit*'s wrapper declares, as ``(C type, name,
    offset, value)`` entries: each params field (its size as the value),
    then, with no type, ``sizeof`` and each constant."""
    report = []
    for name, ctype in unit.params._fields_:
        element = ctype._type_ if issubclass(ctype, ctypes.Array) else ctype
        field = getattr(unit.params, name)
        report.append((_C_TYPES.get(element, element.__name__), name,
                       field.offset, field.size))
    constants = {"sizeof": ctypes.sizeof(unit.params), **unit.constants}
    return report + [(None, name, 0, value) for name, value in constants.items()]


def _describe(entry: "tuple | None") -> str:
    if entry is None:
        return "nothing"
    ctype, name, offset, value = entry
    return (f"{name} = {value}" if ctype is None
            else f"{ctype} {name} at offset {offset} ({value} bytes)")


def check_layout(lib: ctypes.CDLL, unit: Unit) -> None:
    """Raise :class:`NativeKernelUnavailable` unless *lib* exports *unit*'s
    entry point and a layout report equal, entry for entry, to the one the
    wrapper declares (:func:`_expected_report`)."""
    try:
        report = getattr(lib, f"repro_{unit.name}_layout")
        getattr(lib, unit.entry)
    except AttributeError as exc:
        raise NativeKernelUnavailable(f"the native {unit.name} unit: {exc}") from None
    report.argtypes = []
    report.restype = ctypes.POINTER(_LayoutEntry)
    entries = report()
    reported = []
    for index in itertools.count():
        entry = entries[index]
        if entry.name is None:
            break
        reported.append((entry.type and entry.type.decode(), entry.name.decode(),
                         entry.offset, entry.value))
    for index, (c_entry, py_entry) in enumerate(
            itertools.zip_longest(reported, _expected_report(unit))):
        if c_entry != py_entry:
            raise NativeKernelUnavailable(
                f"the native {unit.name} unit's {unit.params.__name__} layout, "
                f"entry {index}: {_describe(c_entry)} in C, "
                f"{_describe(py_entry)} in Python")


def bind(unit: Unit) -> ctypes.CDLL:
    """The kernel library with *unit*'s entry point typed, once
    :func:`check_layout` passed for this library object (the outcome is
    remembered per entry point).  Raises :class:`NativeKernelUnavailable`
    when there is no library or the check failed, and warns the first time
    it fails."""
    lib = load_library()
    if lib is None:
        raise NativeKernelUnavailable("native kernel library unavailable")
    entries = _bound.setdefault(lib, {})
    if unit.entry not in entries:
        with _load_lock:
            if unit.entry not in entries:
                try:
                    check_layout(lib, unit)
                except NativeKernelUnavailable as exc:
                    warnings.warn(f"repro native {unit.name} kernel disabled ({exc}); "
                                  "falling back to its Python loop",
                                  RuntimeWarning, stacklevel=3)
                    entries[unit.entry] = str(exc)
                else:
                    function = getattr(lib, unit.entry)
                    function.restype, function.argtypes = ctypes.c_int, unit.argtypes
                    entries[unit.entry] = None
    problem = entries[unit.entry]
    if problem is not None:
        raise NativeKernelUnavailable(problem)
    return lib


def _reset_for_tests() -> None:
    """Drop all memoised build state (tests re-point env vars around this),
    and free the pooled workspaces of the library it drops."""
    global _lib, _lib_resolved, _warned, _compiler_info
    workspace.reset()
    _lib = None
    _lib_resolved = False
    _warned = False
    _compiler_info = False
