"""Native compiled simulation kernel (C via ctypes, lazily built).

See :mod:`repro.coresim.native.kernel` for the marshalling layer and
:mod:`repro.coresim.native.build` for compiler discovery, the blake2b-keyed
build cache, and the graceful no-compiler fallback.  The same library holds
the memory-hierarchy kernel (``_memsim.c``), marshalled by
:mod:`repro.memsim.native`, and the gradient-boosting loop (``_gbt.c``),
marshalled by :mod:`repro.ml.native`.  Both simulators keep their tables
across calls in workspaces pooled by :mod:`repro.coresim.native.workspace`.
"""

from .build import (
    CACHE_ENV_VAR,
    COMPILER_ENV_VAR,
    NativeKernelUnavailable,
    cache_dir,
    compiler_info,
    find_compiler,
    load_library,
)
from .kernel import core_kernel, native_available, simulate_batch_native

__all__ = [
    "CACHE_ENV_VAR",
    "COMPILER_ENV_VAR",
    "NativeKernelUnavailable",
    "cache_dir",
    "compiler_info",
    "core_kernel",
    "find_compiler",
    "load_library",
    "native_available",
    "simulate_batch_native",
]
