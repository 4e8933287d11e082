"""``repro-lint`` — static contract analysis for the three-kernel invariants.

Runs every rule family over the repository without executing a single
simulation step, applies inline pragmas and the checked-in allowlist, and
exits non-zero iff any *live* (unsuppressed) finding remains::

    repro-lint                      # text report, exit 1 on violations
    repro-lint --format json        # machine-readable (CI artifact)
    repro-lint --only determinism   # one rule family
    repro-lint --no-native          # skip the compiler-backed warning gate
    repro-lint --list-rules         # rule catalogue

See docs/ANALYSIS.md for the rule catalogue and the suppression grammar.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import counter_contract, determinism, native_gate
from . import protocol_constants
from .findings import ALLOWLIST_NAME, Allowlist, Finding, apply_suppressions, scan_pragmas
from .tree import SourceTree

#: Rule families in report order: family name -> (check, description).
FAMILIES = {
    "counter-contract": (
        counter_contract.check,
        "counter-name universe identical across reference/native lanes,"
        " C slot enum and SimParams ABI vs ctypes, golden manifest",
    ),
    "determinism": (
        determinism.check,
        "global RNG streams, wall-clock reads, id()-keyed hashing, and"
        " unordered-set iteration reaching ordered consumers",
    ),
    "protocol-constant": (
        protocol_constants.check,
        "the wire constants of runtime/framing.py (PROTOCOL_VERSION,"
        " MAX_FRAME_BYTES, the liveness frame kinds and timings) defined"
        " once and imported everywhere else; no hand-rolled frame headers",
    ),
    "native-warnings": (
        native_gate.check,
        "the native library's three C units (_core.c, _memsim.c, _gbt.c)"
        " compile -Wall -Wextra -Werror clean (skipped without a C compiler;"
        " use --no-native to skip explicitly)",
    ),
}


def default_root() -> Path:
    """The repository root: nearest ancestor of this file with src/repro."""
    here = Path(__file__).resolve()
    for candidate in here.parents:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return Path.cwd()


def run_lint(
    root: Path,
    overlay: "dict[str, str] | None" = None,
    families: "tuple[str, ...] | None" = None,
    native: bool = True,
    allowlist: "Allowlist | None" = None,
) -> "list[Finding]":
    """Run the selected rule families and apply suppressions.

    Returns every finding, suppressed ones included (``suppressed=True``);
    callers decide what a failure is.  *overlay* maps repo-relative paths to
    replacement text, letting tests lint mutated sources in memory.
    """
    tree = SourceTree(root, overlay)
    selected = families if families is not None else tuple(FAMILIES)
    findings: list[Finding] = []
    for family in selected:
        if family == "native-warnings" and not native:
            continue
        check, _description = FAMILIES[family]
        findings.extend(check(tree))

    pragmas_by_path = {}
    for path in tree.python_files():
        pragmas = scan_pragmas(tree.read(path))
        pragmas_by_path[path] = pragmas
        for line in pragmas.malformed:
            findings.append(
                Finding(
                    "pragma-format",
                    path,
                    line,
                    "allow-pragma without a reason — write "
                    "`# repro: allow(rule): why`",
                )
            )

    if allowlist is None:
        allowlist = Allowlist.load(Path(root) / ALLOWLIST_NAME)
    for number, raw in allowlist.malformed:
        findings.append(
            Finding(
                "pragma-format",
                ALLOWLIST_NAME,
                number,
                f"malformed allowlist entry {raw.strip()!r} — expected "
                "`<rule> <path>[:<line>] <reason>`",
            )
        )
    apply_suppressions(findings, pragmas_by_path, allowlist)
    if families is None and native:
        # Only a run of every family can tell that an entry waives nothing.
        for number, entry in allowlist.unused():
            findings.append(
                Finding(
                    "pragma-format",
                    ALLOWLIST_NAME,
                    number,
                    f"allowlist entry {entry!r} suppresses no finding — "
                    "delete it",
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


def _report_text(findings: "list[Finding]", out) -> None:
    live = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]
    for finding in live:
        print(f"{finding.location()}: {finding.rule}: {finding.message}", file=out)
    if live:
        print(file=out)
    print(
        f"repro-lint: {len(live)} violation(s), "
        f"{len(suppressed)} suppressed",
        file=out,
    )


def _report_json(findings: "list[Finding]", out) -> None:
    live = sum(1 for f in findings if not f.suppressed)
    payload = {
        "tool": "repro-lint",
        "live": live,
        "suppressed": len(findings) - live,
        "findings": [finding.as_dict() for finding in findings],
    }
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static contract analysis for the repro three-kernel "
        "determinism invariants.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repository root to lint (default: auto-detected)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="FAMILY",
        choices=sorted(FAMILIES),
        help="run only this rule family (repeatable)",
    )
    parser.add_argument(
        "--no-native",
        action="store_true",
        help="skip the compiler-backed -Werror gate",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule-family catalogue and exit",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for family, (_check, description) in FAMILIES.items():
            print(f"{family}\n    {description}")
        return 0
    root = args.root if args.root is not None else default_root()
    if not (root / "src" / "repro").is_dir():
        print(f"repro-lint: {root} does not look like the repro repository",
              file=sys.stderr)
        return 2
    families = tuple(args.only) if args.only else None
    findings = run_lint(root, families=families, native=not args.no_native)
    if args.format == "json":
        _report_json(findings, sys.stdout)
    else:
        _report_text(findings, sys.stdout)
    return 1 if any(not f.suppressed for f in findings) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
