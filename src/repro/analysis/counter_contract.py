"""Counter-contract checker (rule family 1): the counter-name universe.

The reproduction's core guarantee is that the frozen seed pipeline (which
is also the Python fallback) and the compiled native kernel emit
**identical counter name sets** (and values — values are the differential
oracle's job; names are checkable statically).  This rule extracts the
counter-name universe of each lane without running any simulation:

* **reference** — ``coresim/_reference.py`` (``_bump("...")`` sites, stats
  dicts, cache/issue-class f-string templates).  The frozen seed copy is the
  anchor the native lane is compared against.
* **native** — the slot-name tables in ``coresim/native/kernel.py``, plus a
  light C tokenizer over ``_core.c`` checking the slot-enum segmentation and
  the ``SimParams`` struct layout against the ctypes marshalling.  The
  memsim and GBT units get the same struct check: ``_memsim.c``'s
  ``MemParams`` against ``_MemParams`` in ``memsim/native.py``, and
  ``_gbt.c``'s ``GbtParams`` against ``_GbtParams`` in ``ml/native.py``.

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
from .csource import CSource, CTokenizeError, tokenize
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
NATIVE_C_PATH = "src/repro/coresim/native/_core.c"
MEMSIM_KERNEL_PATH = "src/repro/memsim/native.py"
MEMSIM_C_PATH = "src/repro/coresim/native/_memsim.c"
GBT_KERNEL_PATH = "src/repro/ml/native.py"
GBT_C_PATH = "src/repro/coresim/native/_gbt.c"
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


def _module_int_env(module: ast.Module, op_class_count: int) -> "dict[str, int]":
    """Module-level integer constants of kernel.py (``_MAX_LEVELS = 3`` etc.).

    ``len(OpClass)`` is the one non-literal shape used; it resolves to the
    member count extracted from ``isa.py``.
    """
    env: dict[str, int] = {}
    for node in module.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if isinstance(value, ast.Constant) and isinstance(value.value, int):
            env[target.id] = value.value
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "len"
            and len(value.args) == 1
            and isinstance(value.args[0], ast.Name)
            and value.args[0].id == "OpClass"
        ):
            env[target.id] = op_class_count
    return env


def _eval_int(node: ast.expr, env: "dict[str, int]") -> int:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name) and node.id in env:
        return env[node.id]
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
        left = _eval_int(node.left, env)
        right = _eval_int(node.right, env)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        return left * right
    raise ValueError(f"cannot statically evaluate {ast.dump(node)}")


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


def extract_ctypes_fields(
    tree: SourceTree,
    op_class_count: int,
    path: str = NATIVE_KERNEL_PATH,
    class_name: str = "_SimParams",
) -> "list[tuple[str, int | None]]":
    """Ordered ``(name, array_length)`` of ``class_name._fields_`` in *path*."""
    module = tree.parse(path)
    env = _module_int_env(module, op_class_count)
    for node in ast.walk(module):
        if not isinstance(node, ast.ClassDef) or node.name != class_name:
            continue
        for statement in node.body:
            if (
                isinstance(statement, ast.Assign)
                and len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)
                and statement.targets[0].id == "_fields_"
                and isinstance(statement.value, ast.List)
            ):
                fields: list[tuple[str, "int | None"]] = []
                for element in statement.value.elts:
                    if not (
                        isinstance(element, ast.Tuple) and len(element.elts) == 2
                    ):
                        continue
                    name_node, type_node = element.elts
                    if not (
                        isinstance(name_node, ast.Constant)
                        and isinstance(name_node.value, str)
                    ):
                        continue
                    length: "int | None" = None
                    if isinstance(type_node, ast.BinOp) and isinstance(
                        type_node.op, ast.Mult
                    ):
                        length = _eval_int(type_node.right, env)
                    fields.append((name_node.value, length))
                return fields
    raise ValueError(f"{path}: {class_name}._fields_ not found")


def _check_struct(
    path: str,
    source: CSource,
    struct: str,
    py_fields: "list[tuple[str, int | None]]",
    ctypes_name: str,
) -> "list[Finding]":
    """The C *struct* must mirror the ctypes *ctypes_name* field for field:
    names, order and array lengths (the FFI marshalling contract)."""
    c_struct = source.structs.get(struct)
    if c_struct is None:
        return [_fail(path, 0, f"{struct} struct not found in {path.rsplit('/', 1)[-1]}")]
    c_fields = [(field.name, field.array_length) for field in c_struct]
    if c_fields == py_fields:
        return []
    findings: list[Finding] = []
    c_names = [name for name, _length in c_fields]
    py_names = [name for name, _length in py_fields]
    for name in py_names:
        if name not in c_names:
            findings.append(_fail(
                path, 0, f"{struct} field {name!r} (ctypes) missing from the C struct"
            ))
    for name in c_names:
        if name not in py_names:
            findings.append(_fail(
                path, 0,
                f"{struct} field {name!r} (C) missing from the ctypes {ctypes_name}",
            ))
    if not findings:
        findings.append(_fail(
            path,
            0,
            f"{struct} field order or array lengths diverge "
            f"between C and ctypes: {c_fields} != {py_fields}",
        ))
    return findings


def check_native_abi(
    tree: SourceTree,
    lazy: "list[str]",
    always: "list[str]",
    op_class_count: int,
) -> "list[Finding]":
    """Cross-check ``_core.c`` against the ctypes layer (C lane)."""
    findings: list[Finding] = []
    path = NATIVE_C_PATH
    if not tree.exists(path):
        return [_fail(path, 0, "native kernel C source is missing")]
    try:
        source: CSource = tokenize(tree.read(path))
    except CTokenizeError as exc:
        return [_fail(path, 0, f"C tokenizer failed: {exc}")]

    def check_value(name: str, expected: int, what: str) -> None:
        try:
            actual = source.value(name)
        except CTokenizeError:
            findings.append(_fail(path, 0, f"C constant {name} not found ({what})"))
            return
        if actual != expected:
            findings.append(
                _fail(
                    path,
                    0,
                    f"C {name} is {actual} but the ctypes layer implies "
                    f"{expected} ({what})",
                )
            )

    # Slot-enum segmentation: [0, N_PIPE) lazily emitted, then the always
    # block, then 2 slots per cache level.
    n_lazy = len(lazy)
    n_always = len(always)
    check_value(
        "S_ROB_OCC", n_lazy, "first always-slot == len(_LAZY_SLOT_NAMES)"
    )
    check_value(
        "S_L1_ACC",
        n_lazy + n_always,
        "first cache slot == lazy + always slot count",
    )
    check_value(
        "NUM_SLOTS",
        n_lazy + n_always + 6,
        "total slots == lazy + always + 2*3 cache counters",
    )
    try:
        n_classes = source.value("NUM_CLASSES")
        if n_classes != op_class_count:
            findings.append(
                _fail(
                    path,
                    0,
                    f"C NUM_CLASSES is {n_classes} but OpClass has "
                    f"{op_class_count} members",
                )
            )
    except CTokenizeError:
        findings.append(_fail(path, 0, "C constant NUM_CLASSES not found"))

    # SimParams struct: field names, order and array lengths must mirror the
    # ctypes _SimParams exactly — this is the FFI marshalling contract.
    findings.extend(_check_struct(
        path, source, "SimParams", extract_ctypes_fields(tree, op_class_count),
        "_SimParams",
    ))

    # The exported entry point the ctypes layer binds must exist in C.
    if "repro_simulate" not in source.functions:
        findings.append(
            _fail(path, 0, "exported function repro_simulate not defined in _core.c")
        )
    return findings


#: The units past ``_core.c``, each one params struct and one entry point:
#: ``(C source, ctypes module, C struct, ctypes class, exported function)``.
UNIT_ABIS = (
    (MEMSIM_C_PATH, MEMSIM_KERNEL_PATH, "MemParams", "_MemParams", "repro_memsim"),
    (GBT_C_PATH, GBT_KERNEL_PATH, "GbtParams", "_GbtParams", "repro_gbt_fit"),
)


def check_unit_abi(
    tree: SourceTree,
    op_class_count: int,
    path: str,
    kernel_path: str,
    struct: str,
    ctypes_name: str,
    function: str,
) -> "list[Finding]":
    """Cross-check a unit's params *struct* against its ctypes mirror and
    require its exported *function*."""
    unit = path.rsplit("/", 1)[-1]
    if not tree.exists(path):
        return [_fail(path, 0, f"native kernel C source {unit} is missing")]
    try:
        source = tokenize(tree.read(path))
    except CTokenizeError as exc:
        return [_fail(path, 0, f"C tokenizer failed: {exc}")]
    py_fields = extract_ctypes_fields(tree, op_class_count, kernel_path, ctypes_name)
    findings = _check_struct(path, source, struct, py_fields, ctypes_name)
    if function not in source.functions:
        findings.append(
            _fail(path, 0, f"exported function {function} not defined in {unit}")
        )
    return findings


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
        findings.extend(check_native_abi(tree, lazy, always, len(op_classes)))
    except ValueError as exc:
        findings.append(_fail(NATIVE_KERNEL_PATH, 0, str(exc)))
    for abi in UNIT_ABIS:
        try:
            findings.extend(check_unit_abi(tree, len(op_classes), *abi))
        except ValueError as exc:
            findings.append(_fail(abi[1], 0, str(exc)))

    findings.extend(check_manifest(tree, reference, derived))
    return findings
