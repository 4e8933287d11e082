"""``repro.analysis`` — static contract analysis (``repro-lint``).

The simulation kernels are pinned bit-identical by the differential
oracle at *test* time; this package enforces the underlying contracts at
*lint* time, before anything runs:

* ``counter_contract`` — one counter-name universe across both lanes
  (frozen reference, native C) and the golden manifest.  (Each C unit
  reports its own struct layout, checked when the library loads.)
* ``determinism`` — no global RNG, wall-clock, ``id()``-keyed hashing or
  unordered-set iteration in result-affecting code.
* ``protocol_constants`` — wire/schema constants defined exactly once.
* ``native_gate`` — every C unit of the native library (``_core.c``,
  ``_memsim.c``, ``_gbt.c``) stays ``-Wall -Wextra -Werror`` clean.

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
