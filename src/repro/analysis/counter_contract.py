"""Counter-contract checker (rule family 1): the counter-name universe.

The reproduction's core guarantee is that the frozen seed pipeline (which
is also the Python fallback) and the compiled native kernel emit
**identical counter name sets** (and values — values are the differential
oracle's job; names are checkable statically).  This rule extracts the
counter-name universe of each lane without running any simulation:

* **reference** — ``coresim/_reference.py`` (``_bump("...")`` sites, stats
  dicts, cache/issue-class f-string templates).  The frozen seed copy is the
  anchor the native lane is compared against.
* **native** — the slot-name tables in ``coresim/native/kernel.py``.  The
  C side of that contract (slot constants, params-struct layouts) is not
  read here: each C unit reports it, and the wrapper checks the report when
  the library is loaded (``repro.coresim.native.build.check_layout``).

The checker also consumes ``tests/data/counter_manifest.json`` (written by
``tests/data/make_golden.py``), so the statically extracted universe and the
golden suite's observed-at-runtime universe share one source of truth: every
name a kernel actually sampled must be statically accounted for, and every
kernel must have observed the same names.
"""

from __future__ import annotations

import ast
import json
import re

from .findings import Finding
from .tree import SourceTree

#: Counter-name shape: a known subsystem prefix, a dot, then dotted segments.
COUNTER_NAME_RE = re.compile(
    r"^(commit|writeback|issue|dispatch|rename|fetch|lsq|rob|iq|bp|bug|cache)"
    r"\.[a-z0-9_]+(\.[a-zA-Z0-9_]+)*$"
)

#: Derived-counter shape (computed by ``counters.derived_counters``).
DERIVED_NAME_RE = re.compile(r"^derived\.[a-z0-9_]+$")

#: Cache-level short names expanded through the ``cache.{name}.accesses``
#: f-string templates of the reference lane.
_CACHE_LEVEL_RE = re.compile(r"^(l1d|l[0-9])$")

REFERENCE_PATH = "src/repro/coresim/_reference.py"
NATIVE_KERNEL_PATH = "src/repro/coresim/native/kernel.py"
COUNTERS_PATH = "src/repro/coresim/counters.py"
ISA_PATH = "src/repro/workloads/isa.py"
MANIFEST_PATH = "tests/data/counter_manifest.json"

RULE = "counter-contract"


def _fail(path: str, line: int, message: str) -> Finding:
    return Finding(RULE, path, line, message)


def opclass_members(tree: SourceTree) -> "list[str]":
    """OpClass member names, in definition order, from ``workloads/isa.py``."""
    module = tree.parse(ISA_PATH)
    for node in module.body:
        if isinstance(node, ast.ClassDef) and node.name == "OpClass":
            members = []
            for statement in node.body:
                if isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        if isinstance(target, ast.Name):
                            members.append(target.id)
            return members
    raise ValueError(f"OpClass enum not found in {ISA_PATH}")


def _docstring_lines(module: ast.Module) -> "set[int]":
    lines: set[int] = set()
    for node in ast.walk(module):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.add(body[0].value.lineno)
    return lines


def _joined_str_parts(node: ast.JoinedStr) -> "list[str]":
    return [
        part.value
        for part in node.values
        if isinstance(part, ast.Constant) and isinstance(part.value, str)
    ]


def extract_lane_names(
    tree: SourceTree, paths: "tuple[str, ...]", op_classes: "list[str]"
) -> "set[str]":
    """The statically visible counter-name set of one lane's source files.

    Plain string constants matching :data:`COUNTER_NAME_RE` are taken
    verbatim (docstrings excluded).  Two f-string templates are expanded:
    ``issue.class.{...}`` over the OpClass members and
    ``cache.{...}.accesses``/``.misses`` over the cache-level short names
    found in the same lane.
    """
    names: set[str] = set()
    cache_levels: set[str] = set()
    saw_cache_template = False
    for path in paths:
        module = tree.parse(path)
        skip_lines = _docstring_lines(module)
        for node in ast.walk(module):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.lineno in skip_lines:
                    continue
                if COUNTER_NAME_RE.match(node.value):
                    names.add(node.value)
                elif _CACHE_LEVEL_RE.match(node.value):
                    cache_levels.add(node.value)
            elif isinstance(node, ast.JoinedStr):
                parts = _joined_str_parts(node)
                if any(part.startswith("issue.class.") for part in parts):
                    names.update(f"issue.class.{member}" for member in op_classes)
                elif "cache." in parts:
                    for suffix in (".accesses", ".misses"):
                        if suffix in parts:
                            saw_cache_template = True
    if saw_cache_template:
        for level in cache_levels:
            names.add(f"cache.{level}.accesses")
            names.add(f"cache.{level}.misses")
    return names


def extract_derived_names(tree: SourceTree) -> "set[str]":
    """Derived-counter names declared in ``coresim/counters.py``."""
    module = tree.parse(COUNTERS_PATH)
    names: set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DERIVED_NAME_RE.match(node.value):
                names.add(node.value)
    return names


# --------------------------------------------------------------------- native


def extract_native_slots(
    tree: SourceTree, op_classes: "list[str]"
) -> "tuple[list[str], list[str]]":
    """``(_LAZY_SLOT_NAMES, _ALWAYS_SLOT_NAMES)`` from ``native/kernel.py``."""
    module = tree.parse(NATIVE_KERNEL_PATH)
    lazy: "list[str] | None" = None
    always: "list[str] | None" = None
    for node in module.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if target.id == "_LAZY_SLOT_NAMES":
            value = node.value
            head: list[str] = []
            expanded: list[str] = []
            if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add):
                tuple_node, tail = value.left, value.right
            else:
                tuple_node, tail = value, None
            if isinstance(tuple_node, ast.Tuple):
                head = [
                    element.value
                    for element in tuple_node.elts
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)
                ]
            if tail is not None and any(
                isinstance(inner, ast.JoinedStr)
                and any(
                    part.startswith("issue.class.")
                    for part in _joined_str_parts(inner)
                )
                for inner in ast.walk(tail)
            ):
                expanded = [f"issue.class.{member}" for member in op_classes]
            lazy = head + expanded
        elif target.id == "_ALWAYS_SLOT_NAMES" and isinstance(node.value, ast.Tuple):
            always = [
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            ]
    if lazy is None or always is None:
        raise ValueError(
            f"{NATIVE_KERNEL_PATH}: _LAZY_SLOT_NAMES/_ALWAYS_SLOT_NAMES not found"
        )
    return lazy, always


# ------------------------------------------------------------------- manifest


def check_manifest(
    tree: SourceTree, reference: "set[str]", derived: "set[str]"
) -> "list[Finding]":
    """Compare the golden suite's observed universe against the static one."""
    path = MANIFEST_PATH
    if not tree.exists(path):
        return [
            _fail(
                path,
                0,
                "counter manifest missing — regenerate with "
                "`PYTHONPATH=src python tests/data/make_golden.py`",
            )
        ]
    try:
        manifest = json.loads(tree.read(path))
        kernels: dict[str, list[str]] = manifest["kernels"]
    except (ValueError, KeyError, TypeError) as exc:
        return [_fail(path, 0, f"counter manifest unreadable: {exc}")]

    findings: list[Finding] = []
    if "scalar" not in kernels:
        findings.append(_fail(path, 0, "manifest records no scalar kernel universe"))
        return findings

    anchor = set(kernels["scalar"])
    for kernel, names in sorted(kernels.items()):
        observed = set(names)
        if observed != anchor:
            for name in sorted(anchor - observed):
                findings.append(
                    _fail(
                        path,
                        0,
                        f"kernel {kernel!r} did not observe counter {name!r} "
                        "that the scalar kernel observed",
                    )
                )
            for name in sorted(observed - anchor):
                findings.append(
                    _fail(
                        path,
                        0,
                        f"kernel {kernel!r} observed counter {name!r} that the "
                        "scalar kernel did not",
                    )
                )
        raw = {
            name
            for name in observed
            if not name.startswith("derived.") and name != "cycles"
        }
        for name in sorted(raw - reference):
            findings.append(
                _fail(
                    path,
                    0,
                    f"kernel {kernel!r} observed counter {name!r} that no "
                    "static emission site accounts for",
                )
            )
        for name in sorted({n for n in observed if n.startswith("derived.")} - derived):
            findings.append(
                _fail(
                    path,
                    0,
                    f"kernel {kernel!r} observed derived counter {name!r} not "
                    "declared in coresim/counters.py",
                )
            )
    if len(anchor) < 30:
        findings.append(
            _fail(
                path,
                0,
                f"manifest scalar universe suspiciously small ({len(anchor)} "
                "names) — regenerate with make_golden.py",
            )
        )
    return findings


# ----------------------------------------------------------------- entry point


def _compare_lanes(
    lane: str, path: str, names: "set[str]", reference: "set[str]"
) -> "list[Finding]":
    findings = []
    for name in sorted(reference - names):
        findings.append(
            _fail(
                path,
                0,
                f"lane '{lane}' is missing counter {name!r} that the "
                "reference lane emits",
            )
        )
    for name in sorted(names - reference):
        findings.append(
            _fail(
                path,
                0,
                f"lane '{lane}' emits counter {name!r} that the reference "
                "lane does not",
            )
        )
    return findings


def check(tree: SourceTree) -> "list[Finding]":
    """Run the full counter-contract rule family."""
    try:
        op_classes = opclass_members(tree)
    except (ValueError, OSError, SyntaxError) as exc:
        return [_fail(ISA_PATH, 0, f"cannot extract OpClass members: {exc}")]

    findings: list[Finding] = []
    reference = extract_lane_names(tree, (REFERENCE_PATH,), op_classes)
    derived = extract_derived_names(tree)

    if len(reference) < 30:
        findings.append(
            _fail(
                REFERENCE_PATH,
                0,
                f"reference lane extraction found only {len(reference)} "
                "counters — extraction is broken, refusing to compare",
            )
        )
        return findings

    try:
        lazy, always = extract_native_slots(tree, op_classes)
        native = set(lazy) | set(always) | {
            name for name in extract_lane_names(tree, (NATIVE_KERNEL_PATH,), op_classes)
            if name.startswith("cache.")
        }
        findings.extend(
            _compare_lanes("native", NATIVE_KERNEL_PATH, native, reference)
        )
        if len(lazy) != len(set(lazy)) or len(always) != len(set(always)):
            findings.append(
                _fail(NATIVE_KERNEL_PATH, 0, "duplicate names in the slot tables")
            )
    except ValueError as exc:
        findings.append(_fail(NATIVE_KERNEL_PATH, 0, str(exc)))

    findings.extend(check_manifest(tree, reference, derived))
    return findings
