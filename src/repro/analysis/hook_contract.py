"""Hook-override eligibility lint (rule family 3).

The scalar pipeline skips unoverridden hooks entirely, and the native
kernel refuses bug models that override any *dynamic* hook — both
decisions are made by **class-level** comparison against
:class:`~repro.coresim.hooks.CoreBugModel`.  That mechanism is sound only
while three invariants hold, all of which this rule checks statically:

* The hook namespace is partitioned: ``STRUCTURAL_HOOKS`` (evaluated once)
  and ``DYNAMIC_HOOKS`` (per-cycle) in ``hooks.py`` together cover exactly
  the hook methods ``CoreBugModel`` defines, with no overlap and nothing
  left over.  A hook added to ``CoreBugModel`` but not classified would
  silently run on a kernel that never calls it.
* The scalar pipeline's ``_HOOK_FLAGS`` hoisting table covers exactly the
  dynamic hooks it dispatches per cycle (everything dynamic except
  ``cache_extra_latency``, which the cache model reads at construction).
* Nobody assigns hooks at instance level (``self.serialize = ...``) or
  monkeypatches them onto a class (``SomeBug.serialize = ...``): both defeat
  class-level override detection, so the fast path would skip a hook the
  model believes is active — precisely the silent-divergence failure mode
  the differential oracle exists to prevent.

It also pins the eligibility chain itself: ``native/kernel.py`` must derive
``supports_native`` from ``dynamic_hook_free`` in ``hooks.py``, the one
predicate over the classification tables.
"""

from __future__ import annotations

import ast

from .findings import Finding
from .tree import SourceTree

HOOKS_PATH = "src/repro/coresim/hooks.py"
PIPELINE_PATH = "src/repro/coresim/pipeline.py"
NATIVE_KERNEL_PATH = "src/repro/coresim/native/kernel.py"

RULE = "hook-contract"

#: The predicate in ``hooks.py`` that ``supports_native`` must defer to.
PREDICATE = "dynamic_hook_free"


def _fail(path: str, line: int, message: str) -> Finding:
    return Finding(RULE, path, line, message)


def hook_methods(tree: SourceTree) -> "set[str]":
    """Hook names: every public method ``CoreBugModel`` defines."""
    module = tree.parse(HOOKS_PATH)
    for node in module.body:
        if isinstance(node, ast.ClassDef) and node.name == "CoreBugModel":
            return {
                statement.name
                for statement in node.body
                if isinstance(statement, ast.FunctionDef)
                and not statement.name.startswith("_")
            }
    raise ValueError(f"CoreBugModel not found in {HOOKS_PATH}")


def _string_collection(module: ast.Module, target_name: str) -> "set[str] | None":
    """The string elements of a module-level set/tuple/frozenset assignment."""
    for node in module.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == target_name
        ):
            strings = {
                inner.value
                for inner in ast.walk(node.value)
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str)
            }
            return strings
    return None


def _hook_flag_names(module: ast.Module) -> "set[str] | None":
    """First elements of the ``_HOOK_FLAGS`` (hook, attr) pair table."""
    for node in module.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "_HOOK_FLAGS"
            and isinstance(node.value, ast.Tuple)
        ):
            names = set()
            for element in node.value.elts:
                if (
                    isinstance(element, ast.Tuple)
                    and element.elts
                    and isinstance(element.elts[0], ast.Constant)
                    and isinstance(element.elts[0].value, str)
                ):
                    names.add(element.elts[0].value)
            return names
    return None


def check_partition(tree: SourceTree) -> "list[Finding]":
    """Hook-namespace partition checks across hooks/pipeline."""
    findings: list[Finding] = []
    try:
        hooks = hook_methods(tree)
    except (ValueError, OSError, SyntaxError) as exc:
        return [_fail(HOOKS_PATH, 0, f"cannot extract CoreBugModel hooks: {exc}")]

    hooks_module = tree.parse(HOOKS_PATH)
    structural = _string_collection(hooks_module, "STRUCTURAL_HOOKS")
    dynamic = _string_collection(hooks_module, "DYNAMIC_HOOKS")
    if structural is None or dynamic is None:
        return [
            _fail(
                HOOKS_PATH,
                0,
                "STRUCTURAL_HOOKS/DYNAMIC_HOOKS classification tables not found",
            )
        ]

    for name in sorted(structural & dynamic):
        findings.append(
            _fail(
                HOOKS_PATH,
                0,
                f"hook {name!r} classified both structural and dynamic",
            )
        )
    for name in sorted(hooks - (structural | dynamic)):
        findings.append(
            _fail(
                HOOKS_PATH,
                0,
                f"CoreBugModel hook {name!r} is unclassified — add it to "
                "STRUCTURAL_HOOKS or DYNAMIC_HOOKS in hooks.py",
            )
        )
    for name in sorted((structural | dynamic) - hooks):
        findings.append(
            _fail(
                HOOKS_PATH,
                0,
                f"hooks.py classifies {name!r} but CoreBugModel defines no "
                "such hook",
            )
        )

    flags = _hook_flag_names(tree.parse(PIPELINE_PATH))
    if flags is None:
        findings.append(_fail(PIPELINE_PATH, 0, "_HOOK_FLAGS table not found"))
    else:
        expected = dynamic - {"cache_extra_latency"}
        for name in sorted(expected - flags):
            findings.append(
                _fail(
                    PIPELINE_PATH,
                    0,
                    f"dynamic hook {name!r} missing from the pipeline's "
                    "_HOOK_FLAGS hoisting table — it would never be called",
                )
            )
        for name in sorted(flags - expected):
            findings.append(
                _fail(
                    PIPELINE_PATH,
                    0,
                    f"_HOOK_FLAGS hoists {name!r}, which is not a per-cycle "
                    "dynamic hook",
                )
            )
    return findings


def check_native_defers(tree: SourceTree) -> "list[Finding]":
    """``supports_native`` must be derived from the ``hooks.py`` predicate."""
    module = tree.parse(NATIVE_KERNEL_PATH)
    for node in ast.walk(module):
        if isinstance(node, ast.FunctionDef) and node.name == "supports_native":
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call):
                    func = inner.func
                    name = (
                        func.id
                        if isinstance(func, ast.Name)
                        else func.attr
                        if isinstance(func, ast.Attribute)
                        else None
                    )
                    if name == PREDICATE:
                        return []
            return [
                _fail(
                    NATIVE_KERNEL_PATH,
                    node.lineno,
                    f"supports_native does not defer to {PREDICATE} — native "
                    "eligibility can drift from the hook classification",
                )
            ]
    return [_fail(NATIVE_KERNEL_PATH, 0, "supports_native not found")]


def _bug_model_classes(module: ast.Module) -> "dict[str, ast.ClassDef]":
    """Classes in *module* that (transitively, by name) extend CoreBugModel."""
    by_name = {
        node.name: node for node in ast.walk(module) if isinstance(node, ast.ClassDef)
    }

    def base_names(node: ast.ClassDef) -> "list[str]":
        names = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                names.append(base.id)
            elif isinstance(base, ast.Attribute):
                names.append(base.attr)
        return names

    models: dict[str, ast.ClassDef] = {}
    changed = True
    while changed:
        changed = False
        for name, node in by_name.items():
            if name in models:
                continue
            for base in base_names(node):
                if base in ("CoreBugModel", "CoreBug") or base in models:
                    models[name] = node
                    changed = True
                    break
    return models


def check_overrides(tree: SourceTree) -> "list[Finding]":
    """Flag hook bindings that bypass class-level override detection."""
    try:
        hooks = hook_methods(tree)
    except (ValueError, OSError, SyntaxError):
        return []  # check_partition already reported this

    findings: list[Finding] = []
    for path in tree.python_files():
        module = tree.parse(path)
        models = _bug_model_classes(module)

        # self.<hook> = ... inside a bug-model class body defeats the
        # class-level override scan: the pipeline hoists hooks from the type.
        for class_node in models.values():
            for node in ast.walk(class_node):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr in hooks
                        ):
                            findings.append(
                                _fail(
                                    path,
                                    node.lineno,
                                    f"instance-level hook binding self."
                                    f"{target.attr} in {class_node.name}: "
                                    "class-level override detection will not "
                                    "see it and the fast path skips the hook",
                                )
                            )

        # Class.<hook> = ... / setattr(Class, "<hook>", ...) at any scope
        # rewrites eligibility after kernels may have cached their decision.
        for node in ast.walk(module):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in hooks
                        and isinstance(target.value, ast.Name)
                        and target.value.id != "self"
                        and (
                            target.value.id in models
                            or target.value.id in ("CoreBugModel", "CoreBug")
                        )
                    ):
                        findings.append(
                            _fail(
                                path,
                                node.lineno,
                                f"monkeypatched hook {target.value.id}."
                                f"{target.attr}: kernel-eligibility decisions "
                                "already made from the class are now stale",
                            )
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "setattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in hooks
            ):
                findings.append(
                    _fail(
                        path,
                        node.lineno,
                        f"setattr-based hook binding of {node.args[1].value!r} "
                        "bypasses class-level override detection",
                    )
                )
    return findings


def check(tree: SourceTree) -> "list[Finding]":
    """Run the full hook-contract rule family."""
    findings = check_partition(tree)
    findings.extend(check_native_defers(tree))
    findings.extend(check_overrides(tree))
    return findings
