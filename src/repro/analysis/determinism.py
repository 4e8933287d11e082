"""Determinism lints (rule family 2): AST visitors over every source file.

The repository's core guarantee is that simulation results are a pure
function of ``(config, bug, trace, step)`` — that is what lets three kernels
be pinned bit-identical and lets the content-addressed result store replay
across hosts and backends.  These rules flag the constructs that historically
break that purity:

``global-rng``
    Calls into the *global* RNG streams (``random.*`` module functions,
    ``np.random.*`` legacy functions).  Seeded generator construction
    (``np.random.default_rng(seed)``, ``random.Random(seed)``) is fine — the
    point is that shared mutable RNG state must not leak into (or out of)
    result-affecting code.  No ``src/`` code touches a global stream, so
    nothing carries a pragma for this rule.

``wall-clock``
    ``time.time()`` / ``time.perf_counter()`` / ``datetime.now()`` and
    friends.  Wall-clock reads are legitimate in measurement and bookkeeping
    code (serve stats, the store's temp-file sweep) — those files are
    allowlisted — but must never feed stored simulation results.

``id-hash``
    ``id(...)`` feeding a hash-based container or ``hash()``: ``id`` values
    vary across processes, so any ordering or keying derived from them is
    nondeterministic across the serial/parallel execution boundary.

``set-order``
    Iterating an unordered ``set``/``frozenset`` into an order-sensitive
    consumer (``for`` loop body, ``list``/``tuple``/``enumerate``/``join``,
    list/dict comprehension).  Order-insensitive reducers (``sorted``,
    ``min``/``max``/``sum``/``len``/``any``/``all``) are not flagged.
"""

from __future__ import annotations

import ast

from .findings import Finding
from .tree import SourceTree

#: ``numpy.random`` attributes that construct independent, explicitly seeded
#: generators rather than touching the shared legacy stream.
_NP_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence", "RandomState", "BitGenerator", "PCG64", "Philox"})

#: ``random`` module attributes that are constructors, not global-stream calls.
_PY_RANDOM_OK = frozenset({"Random", "SystemRandom"})

#: Wall-clock reads (resolved dotted names).
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Callables whose argument order does not matter (safe set consumers).
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)

#: Callables that materialise their argument's iteration order.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter", "next"})


def _import_aliases(module: ast.Module) -> "dict[str, str]":
    """Local name -> fully qualified module/attribute path, from imports."""
    aliases: dict[str, str] = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def _dotted(node: ast.expr) -> "str | None":
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolve(dotted: "str | None", aliases: "dict[str, str]") -> "str | None":
    """Expand the leading alias of *dotted* to its imported path."""
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    expansion = aliases.get(head)
    if expansion is None:
        return dotted
    return f"{expansion}.{rest}" if rest else expansion


def _is_set_producer(node: ast.expr) -> bool:
    """True when *node* syntactically evaluates to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra (a | b, a - b, ...) is only recognised when one side is
        # itself a syntactic set; plain integer arithmetic stays quiet.
        return _is_set_producer(node.left) or _is_set_producer(node.right)
    return False


def _contains_id_call(node: ast.AST) -> "ast.Call | None":
    for inner in ast.walk(node):
        if (
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Name)
            and inner.func.id == "id"
            and len(inner.args) == 1
        ):
            return inner
    return None


def check_file(path: str, module: ast.Module) -> "list[Finding]":
    """Run every determinism rule over one parsed file."""
    findings: list[Finding] = []
    aliases = _import_aliases(module)

    for node in ast.walk(module):
        # ---------------------------------------------- global-rng, wall-clock
        if isinstance(node, ast.Call):
            name = _resolve(_dotted(node.func), aliases)
            if name is not None:
                if name.startswith("random.") and name.count(".") == 1:
                    attr = name.split(".", 1)[1]
                    if attr not in _PY_RANDOM_OK:
                        findings.append(
                            Finding(
                                "global-rng",
                                path,
                                node.lineno,
                                f"call to the global RNG stream: random.{attr}() "
                                "(use a seeded random.Random instance)",
                            )
                        )
                elif name.startswith("numpy.random."):
                    attr = name.split(".", 2)[2].split(".")[0]
                    if attr not in _NP_RANDOM_OK:
                        findings.append(
                            Finding(
                                "global-rng",
                                path,
                                node.lineno,
                                f"call to the global numpy RNG: np.random.{attr}() "
                                "(use np.random.default_rng(seed))",
                            )
                        )
                elif name in _WALL_CLOCK:
                    findings.append(
                        Finding(
                            "wall-clock",
                            path,
                            node.lineno,
                            f"wall-clock read {name}() — must not affect stored "
                            "results (pragma/allowlist for measurement code)",
                        )
                    )

            # ------------------------------------------------------- id-hash
            if isinstance(node.func, ast.Name) and node.func.id in (
                "hash",
                "set",
                "frozenset",
            ):
                for arg in node.args:
                    hit = _contains_id_call(arg)
                    if hit is not None:
                        findings.append(
                            Finding(
                                "id-hash",
                                path,
                                hit.lineno,
                                f"id() feeding {node.func.id}(): object ids are "
                                "process-specific and break cross-process determinism",
                            )
                        )

            # ------------------------------------- set-order (call consumers)
            func_name = node.func.id if isinstance(node.func, ast.Name) else None
            if func_name in _ORDER_SENSITIVE_CALLS:
                for arg in node.args:
                    if _is_set_producer(arg):
                        findings.append(
                            Finding(
                                "set-order",
                                path,
                                arg.lineno,
                                f"{func_name}() over an unordered set materialises "
                                "nondeterministic order (wrap in sorted(...))",
                            )
                        )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
                and _is_set_producer(node.args[0])
            ):
                findings.append(
                    Finding(
                        "set-order",
                        path,
                        node.lineno,
                        "str.join over an unordered set produces nondeterministic "
                        "text (wrap in sorted(...))",
                    )
                )

        elif isinstance(node, (ast.Set, ast.Dict, ast.SetComp, ast.DictComp, ast.Subscript)):
            # ------------------------------------------- id-hash (containers)
            exprs: list[ast.expr] = []
            if isinstance(node, ast.Set):
                exprs = node.elts
            elif isinstance(node, ast.Dict):
                exprs = [key for key in node.keys if key is not None]
            elif isinstance(node, ast.SetComp):
                exprs = [node.elt]
            elif isinstance(node, ast.DictComp):
                exprs = [node.key]
            elif isinstance(node, ast.Subscript):
                exprs = [node.slice]
            for expr in exprs:
                hit = _contains_id_call(expr)
                if hit is not None:
                    kind = type(node).__name__
                    findings.append(
                        Finding(
                            "id-hash",
                            path,
                            hit.lineno,
                            f"id() used as a {kind} key/element: object ids are "
                            "process-specific and break cross-process determinism",
                        )
                    )

        # ------------------------------------------- set-order (iteration)
        if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_producer(node.iter):
            findings.append(
                Finding(
                    "set-order",
                    path,
                    node.iter.lineno,
                    "for-loop over an unordered set: iteration order is "
                    "hash-dependent (iterate sorted(...) instead)",
                )
            )
        elif isinstance(node, (ast.ListComp, ast.DictComp)):
            for generator in node.generators:
                if _is_set_producer(generator.iter):
                    findings.append(
                        Finding(
                            "set-order",
                            path,
                            generator.iter.lineno,
                            "comprehension over an unordered set builds an "
                            "order-sensitive container (iterate sorted(...))",
                        )
                    )
    return findings


def check(tree: SourceTree) -> "list[Finding]":
    """Determinism lints over every Python file under ``src/repro``."""
    findings: list[Finding] = []
    for path in tree.python_files():
        findings.extend(check_file(path, tree.parse(path)))
    return findings
