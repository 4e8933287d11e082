"""Native warning gate: the kernel library's C units (``_core.c``,
``_memsim.c`` and ``_gbt.c``, as ``build.SOURCE_PATHS`` lists them) must be
``-Wall -Wextra -Werror`` clean.

Unlike the other rule families this one shells out to the system C compiler
(via :func:`repro.coresim.native.build.werror_check`).  The regular kernel
build deliberately does **not** pass ``-Werror`` — a user's toolchain must
never lose the native kernel over a new warning — so the strictness lives
here, in the lint, where a warning is a reviewable finding instead of a
runtime regression.

On hosts without a compiler the gate is skipped (no findings): CI runs it on
a toolchain-pinned image where it is authoritative.  Pass ``--no-native``
to the CLI to skip it explicitly.
"""

from __future__ import annotations

from .findings import Finding
from .tree import SourceTree

RULE = "native-warnings"

#: Where the units sit in a source tree, relative to its root.
UNIT_DIRECTORY = "src/repro/coresim/native"


def check(tree: SourceTree) -> "list[Finding]":
    from ..coresim.native import build

    findings = []
    for unit in build.SOURCE_PATHS:
        findings.extend(_check_unit(tree, f"{UNIT_DIRECTORY}/{unit.name}"))
    return findings


def _check_unit(tree: SourceTree, path: str) -> "list[Finding]":
    from ..coresim.native import build

    if not tree.exists(path):
        return [Finding(RULE, path, 0, "native kernel C source is missing")]
    ok, diagnostics = build.werror_check(tree.read(path))
    if ok is None or ok:
        return []
    findings = []
    for line in diagnostics.splitlines():
        line = line.strip()
        # Keep only the actual diagnostic lines; drop carets and context.
        if ": error:" in line or ": warning:" in line:
            # "<tmpfile>.c:LINE:COL: error: ..." -> pin to the real source.
            parts = line.split(":", 3)
            lineno = 0
            if len(parts) >= 2 and parts[1].isdigit():
                lineno = int(parts[1])
            findings.append(Finding(RULE, path, lineno, parts[-1].strip()))
    if not findings:
        findings.append(
            Finding(RULE, path, 0, diagnostics or "werror gate failed")
        )
    return findings
