"""Finding model, pragma grammar and allowlist for ``repro-lint``.

Every rule reports :class:`Finding` objects.  A finding can be suppressed in
two ways (docs/ANALYSIS.md):

* **Inline pragma** — a ``# repro: allow(<rule>[, <rule>...]): <reason>``
  comment on the offending line or on the line immediately above it.  The
  reason is mandatory: an unexplained suppression is itself a violation
  (rule ``pragma-format``).
* **Checked-in allowlist** — ``.repro-lint-allow`` at the repository root,
  one entry per line: ``<rule> <path>[:<line>] <reason...>``.  A path entry
  without a line suppresses the rule for the whole file (used for files
  whose wall-clock reads all feed timing reports, like the serve daemon's
  latency stats).

Suppressed findings are retained (``suppressed=True``) so the JSON report
shows what was waived and why; only live findings affect the exit status.
A full run also reports each allowlist entry that suppressed nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

#: Pragma grammar: ``# repro: allow(rule-a, rule-b): reason text``.
PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*(?P<rules>[a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\s*\)"
    r"\s*(?::\s*(?P<reason>\S.*))?"
)

#: Allowlist entry: ``<rule> <path>[:<line>] <reason...>`` (reason required).
ALLOWLIST_RE = re.compile(
    r"^(?P<rule>[a-z0-9-]+)\s+(?P<path>\S+?)(?::(?P<line>\d+))?\s+(?P<reason>\S.*)$"
)

#: Name of the checked-in allowlist file, looked up at the lint root.
ALLOWLIST_NAME = ".repro-lint-allow"


@dataclass
class Finding:
    """One rule violation (or waived violation) at a source location."""

    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False
    suppression: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}" if self.line else self.path

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
            "suppression": self.suppression,
        }


@dataclass
class Pragmas:
    """Inline ``# repro: allow(...)`` pragmas of one source file."""

    #: line number -> {rule -> reason}; a pragma covers its own line and the
    #: line immediately below (so it can sit above a long statement).
    by_line: dict[int, dict[str, str]] = field(default_factory=dict)
    #: Malformed pragmas (missing reason), reported as findings.
    malformed: list[int] = field(default_factory=list)

    def lookup(self, rule: str, line: int) -> "str | None":
        """The reason suppressing *rule* at *line*, or ``None``."""
        for candidate in (line, line - 1):
            rules = self.by_line.get(candidate)
            if rules is not None and rule in rules:
                return rules[rule]
        return None


def scan_pragmas(text: str) -> Pragmas:
    """Extract every allow-pragma from *text* (line numbers are 1-based)."""
    pragmas = Pragmas()
    for number, line in enumerate(text.splitlines(), start=1):
        if "repro:" not in line:
            continue
        match = PRAGMA_RE.search(line)
        if match is None:
            continue
        reason = match.group("reason")
        if not reason:
            pragmas.malformed.append(number)
            continue
        rules = {name.strip(): reason for name in match.group("rules").split(",")}
        pragmas.by_line.setdefault(number, {}).update(rules)
    return pragmas


class Allowlist:
    """The checked-in suppression list (``.repro-lint-allow``)."""

    def __init__(self) -> None:
        #: (rule, path) for a whole-file entry, (rule, path, line) for a
        #: line-pinned one -> (reason, line number in the file, entry text).
        self._entries: dict[tuple, tuple[str, int, str]] = {}
        #: keys of the entries :meth:`lookup` has matched.
        self._used: set[tuple] = set()
        self.malformed: list[tuple[int, str]] = []

    @classmethod
    def load(cls, path: Path) -> "Allowlist":
        allowlist = cls()
        if not path.is_file():
            return allowlist
        for number, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            match = ALLOWLIST_RE.match(line)
            if match is None:
                allowlist.malformed.append((number, raw))
                continue
            rule = match.group("rule")
            entry_path = match.group("path")
            reason = match.group("reason").strip()
            key = (rule, entry_path)
            if match.group("line"):
                key += (int(match.group("line")),)
            allowlist._entries[key] = (reason, number, line)
        return allowlist

    def lookup(self, rule: str, path: str, line: int) -> "str | None":
        """The allowlist reason covering (*rule*, *path*, *line*), if any."""
        for key in ((rule, path, line), (rule, path)):
            if key in self._entries:
                self._used.add(key)
                return self._entries[key][0]
        return None

    def unused(self) -> "list[tuple[int, str]]":
        """(line number, text) of each entry that :meth:`lookup` never matched."""
        return sorted(
            (number, text)
            for key, (_reason, number, text) in self._entries.items()
            if key not in self._used
        )


def apply_suppressions(
    findings: "list[Finding]",
    pragmas_by_path: "dict[str, Pragmas]",
    allowlist: Allowlist,
) -> "list[Finding]":
    """Mark findings covered by a pragma or allowlist entry as suppressed."""
    for finding in findings:
        pragmas = pragmas_by_path.get(finding.path)
        reason = pragmas.lookup(finding.rule, finding.line) if pragmas else None
        if reason is not None:
            finding.suppressed = True
            finding.suppression = f"pragma: {reason}"
            continue
        reason = allowlist.lookup(finding.rule, finding.path, finding.line)
        if reason is not None:
            finding.suppressed = True
            finding.suppression = f"allowlist: {reason}"
    return findings
