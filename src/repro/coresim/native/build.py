"""Lazy build layer for the native simulation kernels.

The C sources shipped inside the package — ``_core.c`` (the core cycle
loop) and ``_memsim.c`` (the memory-hierarchy loop) — are compiled together
into one shared library on first use, with whatever system compiler is
discoverable; there is deliberately no numba/Cython/setuptools-build-time
dependency.  The library is cached under a per-user build directory keyed by
``blake2b(sources + flags + compiler + compiler version)``, so source edits,
flag changes, and toolchain upgrades each get a fresh artifact while repeat
runs pay nothing.  One library means one build: whatever loads the core
kernel (``native_available()``) has the memsim kernel too.

Failure is never an exception here: no compiler, an unwritable cache
directory, or a failed compile all degrade to ``None`` with a single
``RuntimeWarning`` per process, and the simulators fall back to their Python
loops (see ``repro.coresim.simulator`` and ``repro.memsim.simulator``).

Environment knobs:

``REPRO_NATIVE_CC``
    Explicit compiler command or path.  An unusable value (missing binary)
    disables both native kernels rather than falling back to discovery,
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
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

#: Compiler override environment variable (see module docstring).
COMPILER_ENV_VAR = "REPRO_NATIVE_CC"

#: Build-cache directory override environment variable.
CACHE_ENV_VAR = "REPRO_NATIVE_CACHE"

#: Sanitizer mode environment variable (see module docstring).
SANITIZE_ENV_VAR = "REPRO_NATIVE_SANITIZE"

#: Compilers probed on PATH, in preference order, when no override is set.
COMPILER_CANDIDATES = ("gcc", "cc", "clang")

#: Flags for the shared-library build.  Part of the cache key.
CFLAGS = ("-O2", "-std=c99", "-fPIC", "-shared")

#: Warning gate flags: the C source must stay warning-clean under these.
#: Checked by ``werror_check`` (wired into repro-lint and CI), not by the
#: regular build — a user's exotic toolchain must not lose the kernel over
#: a new warning.
WERROR_FLAGS = ("-Wall", "-Wextra", "-Werror")

#: The C units linked into the one kernel library.
SOURCE_PATHS = (
    Path(__file__).with_name("_core.c"),
    Path(__file__).with_name("_memsim.c"),
)

_lib: "ctypes.CDLL | None" = None
_lib_resolved = False
_warned = False
_compiler_info: "dict[str, str] | None | bool" = False  # False == not probed


def _warn_once(reason: str) -> None:
    global _warned
    if _warned:
        return
    _warned = True
    warnings.warn(
        f"repro native kernel unavailable ({reason}); "
        "falling back to the scalar kernel and the Python memsim",
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

    Memoised; recorded into the schema-v5 ``native`` bench section so perf
    numbers are attributable to a toolchain.
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
    """The compiled kernel library (both units), or None when unavailable.
    Memoised."""
    global _lib, _lib_resolved
    if _lib_resolved:
        return _lib
    _lib_resolved = True
    path = library_path()
    if path is None:
        return None
    try:
        _lib = ctypes.CDLL(str(path))
    except OSError as exc:
        _warn_once(f"cannot load {path.name}: {exc}")
        _lib = None
    return _lib


def _reset_for_tests() -> None:
    """Drop all memoised build state (tests re-point env vars around this)."""
    global _lib, _lib_resolved, _warned, _compiler_info
    _lib = None
    _lib_resolved = False
    _warned = False
    _compiler_info = False
