"""``repro.analysis`` — static contract analysis (``repro-lint``).

The simulation kernels are pinned bit-identical by the differential
oracle at *test* time; this package enforces the underlying contracts at
*lint* time, before anything runs:

* ``counter_contract`` — one counter-name universe across all three lanes
  (scalar, frozen reference, native C) plus the C↔ctypes ABI.
* ``determinism`` — no global RNG, wall-clock, ``id()``-keyed hashing or
  unordered-set iteration in result-affecting code.
* ``protocol_constants`` — wire/schema constants defined exactly once.
* ``native_gate`` — ``_core.c`` and ``_memsim.c`` stay ``-Wall -Wextra
  -Werror`` clean.

Entry points: the ``repro-lint`` console script and
``python -m repro.analysis`` (both -> :func:`repro.analysis.cli.main`).
"""

from .findings import Allowlist, Finding, Pragmas, scan_pragmas
from .tree import SourceTree

__all__ = [
    "Allowlist",
    "Finding",
    "Pragmas",
    "SourceTree",
    "scan_pragmas",
]
