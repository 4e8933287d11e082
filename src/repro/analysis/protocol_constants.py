"""Protocol-constant lint (rule family 4): single-definition wire constants.

The serving daemon and its clients, and the cluster scheduler and its
``repro-worker`` processes, talk across process (and potentially host)
boundaries.  Their wire constants therefore have exactly one home each:

* ``PROTOCOL_VERSION`` and ``MAX_FRAME_BYTES`` — ``runtime/framing.py``
* the liveness frame kinds ``PING`` / ``PONG`` / ``HEARTBEAT`` and the
  liveness timing constants ``HEARTBEAT_INTERVAL`` /
  ``LIVENESS_DEADLINE`` — ``runtime/framing.py`` (shared by
  ``repro-worker``, the cluster scheduler and ``repro-serve``)
* the frame-header layout ``">Q"`` — ``runtime/framing.py``

Every other module must *import* them.  A second literal definition would
let the two sides of a connection silently disagree about the protocol
they speak — the exact class of skew this lint makes structurally
impossible.  The liveness timing pair is included because a driver
enforcing a deadline its workers never heard of is the same skew in the
time domain: kill-happy drivers against slow-heartbeat workers.
"""

from __future__ import annotations

import ast

from .findings import Finding
from .tree import ANALYSIS_ROOT, SourceTree

RULE = "protocol-constant"

#: constant name -> (canonical repo path, canonical module tail for imports,
#: required literal kind: "int", "number" or "str")
CANONICAL = {
    "PROTOCOL_VERSION": ("src/repro/runtime/framing.py", "framing", "int"),
    "MAX_FRAME_BYTES": ("src/repro/runtime/framing.py", "framing", "int"),
    "PING": ("src/repro/runtime/framing.py", "framing", "str"),
    "PONG": ("src/repro/runtime/framing.py", "framing", "str"),
    "HEARTBEAT": ("src/repro/runtime/framing.py", "framing", "str"),
    "HEARTBEAT_INTERVAL": ("src/repro/runtime/framing.py", "framing", "number"),
    "LIVENESS_DEADLINE": ("src/repro/runtime/framing.py", "framing", "number"),
}

FRAMING_PATH = "src/repro/runtime/framing.py"

#: The length-prefix header layout.  Appearing anywhere else means a second
#: hand-rolled framing implementation.
FRAME_HEADER_FORMAT = ">Q"


def _fail(path: str, line: int, message: str) -> Finding:
    return Finding(RULE, path, line, message)


def _is_literal(node: ast.expr, kind: str) -> bool:
    """Whether *node* is a literal of the required *kind*.

    ``int`` accepts integer literals and arithmetic over them (``1 << 30``);
    ``number`` additionally accepts float literals (liveness timings);
    ``str`` accepts exactly a string literal (frame kinds).
    """
    if kind == "str":
        return isinstance(node, ast.Constant) and isinstance(node.value, str)
    types = (int, float) if kind == "number" else int
    if isinstance(node, ast.Constant):
        # bool is an int subclass but never a sane protocol constant.
        return isinstance(node.value, types) and not isinstance(node.value, bool)
    if isinstance(node, ast.BinOp):
        return _is_literal(node.left, kind) and _is_literal(node.right, kind)
    return False


_KIND_LABEL = {
    "int": "literal integer",
    "number": "literal number",
    "str": "literal string",
}


def check(tree: SourceTree) -> "list[Finding]":
    findings: list[Finding] = []
    defined_at_home: dict[str, bool] = {name: False for name in CANONICAL}

    for path in tree.python_files():
        if path.startswith(ANALYSIS_ROOT):
            continue  # the lint's own pattern tables are not protocol users
        module = tree.parse(path)
        for node in ast.walk(module):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if not isinstance(target, ast.Name) or target.id not in CANONICAL:
                        continue
                    home, _module_tail, kind = CANONICAL[target.id]
                    if path == home:
                        if _is_literal(node.value, kind):
                            defined_at_home[target.id] = True
                        else:
                            findings.append(
                                _fail(
                                    path,
                                    node.lineno,
                                    f"{target.id} must be a {_KIND_LABEL[kind]} "
                                    "in its canonical module",
                                )
                            )
                    else:
                        findings.append(
                            _fail(
                                path,
                                node.lineno,
                                f"{target.id} redefined outside its canonical "
                                f"home {home} — import it instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                module_tail = (node.module or "").rsplit(".", 1)[-1]
                for alias in node.names:
                    if alias.name in CANONICAL:
                        _home, expected_tail, _kind = CANONICAL[alias.name]
                        if module_tail != expected_tail:
                            findings.append(
                                _fail(
                                    path,
                                    node.lineno,
                                    f"{alias.name} imported from "
                                    f"{node.module or '.'} instead of its "
                                    f"canonical module ({expected_tail})",
                                )
                            )
            elif (
                isinstance(node, ast.Constant)
                and node.value == FRAME_HEADER_FORMAT
                and path != FRAMING_PATH
            ):
                findings.append(
                    _fail(
                        path,
                        node.lineno,
                        f"frame-header format {FRAME_HEADER_FORMAT!r} outside "
                        "runtime/framing.py — use read_frame/write_frame "
                        "instead of hand-rolling framing",
                    )
                )

    for name, seen in sorted(defined_at_home.items()):
        if not seen:
            home, _tail, _kind = CANONICAL[name]
            findings.append(
                _fail(
                    home,
                    0,
                    f"canonical definition of {name} not found in {home}",
                )
            )
    return findings
