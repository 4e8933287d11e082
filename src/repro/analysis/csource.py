"""A light C tokenizer for the native kernel units (``coresim/native/*.c``).

This is deliberately **not** a C parser: the native kernel's contract
surface with ``kernel.py`` is three flat declarations — integer ``#define``
macros, anonymous ``enum`` blocks (the counter-slot layout and the op-class
values), and the ``SimParams`` struct's field list — all of which regular
expressions extract reliably from the comment-stripped source.  The
counter-contract checker compares what comes out of here against the ctypes
marshalling layer, so a slot inserted, removed or reordered on either side
of the FFI boundary fails at lint time instead of as a silent counter skew.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_COMMENT_RE = re.compile(r"/\*.*?\*/|//[^\n]*", re.DOTALL)
_DEFINE_RE = re.compile(r"^\s*#\s*define\s+([A-Za-z_]\w*)\s+(.+?)\s*$", re.MULTILINE)
_ENUM_RE = re.compile(r"\benum\s*(?:[A-Za-z_]\w*\s*)?\{(.*?)\}", re.DOTALL)
_STRUCT_RE = re.compile(
    r"typedef\s+struct\s*\{(.*?)\}\s*([A-Za-z_]\w*)\s*;", re.DOTALL
)
_FIELD_RE = re.compile(
    r"([A-Za-z_]\w*)\s+([A-Za-z_]\w*)\s*(?:\[\s*([^\]]+?)\s*\])?\s*;"
)
_EXPR_OK_RE = re.compile(r"^[\w\s+\-*/()]+$")


class CTokenizeError(ValueError):
    """The source does not match the flat declaration shapes we rely on."""


@dataclass
class CStructField:
    name: str
    ctype: str
    array_length: "int | None" = None


@dataclass
class CSource:
    """Extracted declarations of one C translation unit."""

    #: Every integer constant: #defines plus all enum members, by name.
    constants: dict[str, int] = field(default_factory=dict)
    #: Enum blocks, in file order, as ordered (name, value) lists.
    enums: list[list[tuple[str, int]]] = field(default_factory=list)
    #: Structs by typedef name.
    structs: dict[str, list[CStructField]] = field(default_factory=dict)
    #: Names of functions defined at file scope (crude but sufficient).
    functions: set[str] = field(default_factory=set)

    def enum_containing(self, member: str) -> "list[tuple[str, int]]":
        for block in self.enums:
            if any(name == member for name, _value in block):
                return block
        raise CTokenizeError(f"no enum block defines {member!r}")

    def enum_index(self, member: str) -> int:
        """The *position* of an enum member within its block (not its value)."""
        block = self.enum_containing(member)
        for index, (name, _value) in enumerate(block):
            if name == member:
                return index
        raise CTokenizeError(member)  # pragma: no cover - enum_containing found it

    def value(self, name: str) -> int:
        if name not in self.constants:
            raise CTokenizeError(f"unknown C constant {name!r}")
        return self.constants[name]


def _eval_expr(expr: str, env: "dict[str, int]") -> int:
    expr = expr.strip()
    if not _EXPR_OK_RE.match(expr):
        raise CTokenizeError(f"unsupported C constant expression: {expr!r}")
    try:
        result = eval(  # noqa: S307 - token set restricted to arithmetic above
            expr, {"__builtins__": {}}, dict(env)
        )
    except Exception as exc:
        raise CTokenizeError(f"cannot evaluate C expression {expr!r}: {exc}") from exc
    if not isinstance(result, int):
        raise CTokenizeError(f"non-integer C expression {expr!r}")
    return result


def tokenize(text: str) -> CSource:
    """Extract defines, enums and structs from C source *text*."""
    stripped = _COMMENT_RE.sub(" ", text)
    source = CSource()

    for name, expr in _DEFINE_RE.findall(stripped):
        try:
            source.constants[name] = _eval_expr(expr, source.constants)
        except CTokenizeError:
            continue  # non-integer macro (none exist in _core.c today)

    for body in _ENUM_RE.findall(stripped):
        block: list[tuple[str, int]] = []
        next_value = 0
        for entry in body.split(","):
            entry = entry.strip()
            if not entry:
                continue
            if "=" in entry:
                name, expr = (part.strip() for part in entry.split("=", 1))
                value = _eval_expr(expr, source.constants)
            else:
                name, value = entry, next_value
            if not re.fullmatch(r"[A-Za-z_]\w*", name):
                raise CTokenizeError(f"malformed enum member {entry!r}")
            block.append((name, value))
            source.constants[name] = value
            next_value = value + 1
        source.enums.append(block)

    for body, typedef_name in _STRUCT_RE.findall(stripped):
        fields = [
            CStructField(
                name=name,
                ctype=ctype,
                array_length=(
                    _eval_expr(length, source.constants) if length else None
                ),
            )
            for ctype, name, length in _FIELD_RE.findall(body)
        ]
        source.structs[typedef_name] = fields

    # Function definitions: a return type followed by name( at line start-ish.
    for match in re.finditer(
        r"^[A-Za-z_][\w\s*]*?\b([A-Za-z_]\w*)\s*\([^;{]*\)\s*\{",
        stripped,
        re.MULTILINE,
    ):
        source.functions.add(match.group(1))
    return source
