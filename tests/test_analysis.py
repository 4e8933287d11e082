"""Tests for ``repro-lint`` (the ``repro.analysis`` static checker).

Layout mirrors the rule families: for every rule there is at least one
fixture proving it **fires** and one proving a pragma or allowlist entry
**suppresses** it.  The counter-contract section additionally mutates a
counter name in each of the three kernel lanes (via the in-memory overlay —
the repository on disk is never touched) and asserts the checker pins the
exact mutated name.  Finally, the linter must exit 0 on the real repository.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import counter_contract, determinism
from repro.analysis import native_gate, protocol_constants
from repro.analysis.cli import FAMILIES, main, run_lint
from repro.analysis.findings import (
    Allowlist,
    Finding,
    apply_suppressions,
    scan_pragmas,
)
from repro.analysis.tree import SourceTree

REPO_ROOT = Path(__file__).resolve().parent.parent


def tree_with(overlay=None):
    return SourceTree(REPO_ROOT, overlay)


def det_findings(source, path="src/repro/synthetic_fixture.py"):
    """Determinism findings for a synthetic one-file module."""
    tree = tree_with({path: source})
    return determinism.check_file(path, tree.parse(path))


def rules_of(findings):
    return {finding.rule for finding in findings}


# ---------------------------------------------------------------------------
# determinism: global-rng
# ---------------------------------------------------------------------------


class TestGlobalRng:
    def test_fires_on_module_random(self):
        found = det_findings("import random\nx = random.randint(0, 7)\n")
        assert rules_of(found) == {"global-rng"}
        assert "random.randint" in found[0].message

    def test_fires_on_numpy_global(self):
        found = det_findings("import numpy as np\nx = np.random.rand(3)\n")
        assert rules_of(found) == {"global-rng"}

    def test_seeded_generators_ok(self):
        found = det_findings(
            "import random\nimport numpy as np\n"
            "rng = random.Random(7)\ngen = np.random.default_rng(7)\n"
        )
        assert found == []

    def test_pragma_suppresses(self):
        path = "src/repro/synthetic_fixture.py"
        source = (
            "import random\n"
            "x = random.random()  # repro: allow(global-rng): test fixture\n"
        )
        tree = tree_with({path: source})
        findings = determinism.check_file(path, tree.parse(path))
        apply_suppressions(findings, {path: scan_pragmas(source)}, Allowlist())
        assert len(findings) == 1 and findings[0].suppressed
        assert findings[0].suppression.startswith("pragma:")

    def test_pragma_without_reason_does_not_suppress(self):
        path = "src/repro/synthetic_fixture.py"
        source = "import random\nx = random.random()  # repro: allow(global-rng)\n"
        findings = det_findings(source, path)
        pragmas = scan_pragmas(source)
        apply_suppressions(findings, {path: pragmas}, Allowlist())
        assert not findings[0].suppressed
        assert pragmas.malformed == [2]


# ---------------------------------------------------------------------------
# determinism: wall-clock
# ---------------------------------------------------------------------------


class TestWallClock:
    def test_fires(self):
        found = det_findings("import time\nstamp = time.time()\n")
        assert rules_of(found) == {"wall-clock"}

    def test_fires_on_datetime(self):
        found = det_findings(
            "import datetime\nnow = datetime.datetime.now()\n"
        )
        assert rules_of(found) == {"wall-clock"}

    def test_allowlist_suppresses_whole_file(self, tmp_path):
        path = "src/repro/synthetic_fixture.py"
        findings = det_findings("import time\nstamp = time.time()\n", path)
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text(f"wall-clock {path} fixture timing code\n")
        apply_suppressions(findings, {}, Allowlist.load(allow))
        assert findings[0].suppressed
        assert findings[0].suppression.startswith("allowlist:")

    def test_allowlist_line_pin_is_line_specific(self, tmp_path):
        path = "src/repro/synthetic_fixture.py"
        findings = det_findings(
            "import time\na = time.time()\nb = time.time()\n", path
        )
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text(f"wall-clock {path}:2 only the first read\n")
        apply_suppressions(findings, {}, Allowlist.load(allow))
        by_line = {finding.line: finding.suppressed for finding in findings}
        assert by_line == {2: True, 3: False}

    def test_malformed_allowlist_entry_reported(self, tmp_path):
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text("wall-clock onlytwofields\n")
        loaded = Allowlist.load(allow)
        assert loaded.malformed and loaded.malformed[0][0] == 1


# ---------------------------------------------------------------------------
# determinism: id-hash
# ---------------------------------------------------------------------------


class TestIdHash:
    def test_fires_on_set_of_ids(self):
        found = det_findings("seen = set(id(x) for x in [1, 2])\n")
        assert "id-hash" in rules_of(found)

    def test_fires_on_dict_key(self):
        found = det_findings("table = {id(obj): 1 for obj in [object()]}\n")
        assert "id-hash" in rules_of(found)

    def test_plain_id_ok(self):
        # id() alone (e.g. logged) does not key anything.
        assert det_findings("marker = id(object())\n") == []


# ---------------------------------------------------------------------------
# determinism: set-order
# ---------------------------------------------------------------------------


class TestSetOrder:
    def test_fires_on_for_loop(self):
        found = det_findings("for item in {3, 1, 2}:\n    print(item)\n")
        assert rules_of(found) == {"set-order"}

    def test_fires_on_list_of_set(self):
        found = det_findings("items = list({3, 1, 2})\n")
        assert rules_of(found) == {"set-order"}

    def test_fires_on_join(self):
        found = det_findings("text = ','.join({'b', 'a'})\n")
        assert rules_of(found) == {"set-order"}

    def test_sorted_is_ok(self):
        assert det_findings("items = sorted({3, 1, 2})\n") == []

    def test_membership_is_ok(self):
        assert det_findings("ok = 3 in {3, 1, 2}\n") == []


# ---------------------------------------------------------------------------
# counter-contract
# ---------------------------------------------------------------------------


def counter_findings(overlay=None):
    return counter_contract.check(tree_with(overlay))


def _mutate(path, old, new):
    text = (REPO_ROOT / path).read_text(encoding="utf-8")
    assert old in text, f"{old!r} not found in {path}"
    return {path: text.replace(old, new)}


class TestCounterContract:
    def test_clean_on_repository(self):
        assert counter_findings() == []

    def test_reference_universe_is_complete(self):
        tree = tree_with()
        ops = counter_contract.opclass_members(tree)
        names = counter_contract.extract_lane_names(
            tree, (counter_contract.REFERENCE_PATH,), ops
        )
        assert "commit.instructions" in names
        assert "cache.l1d.misses" in names
        assert f"issue.class.{ops[0]}" in names
        assert len(names) == 55

    @pytest.mark.parametrize(
        "path,lane",
        [
            ("src/repro/coresim/pipeline.py", "scalar"),
            ("src/repro/coresim/native/kernel.py", "native"),
        ],
    )
    def test_mutated_name_is_pinned_per_lane(self, path, lane):
        # Mutate one counter name in exactly one lane: the checker must name
        # both the missing original and the unknown replacement, in that lane.
        overlay = _mutate(path, '"commit.idle_cycles"', '"commit.idle_cyclez"')
        findings = counter_findings(overlay)
        messages = [f.message for f in findings if f.rule == "counter-contract"]
        assert any(
            f"lane '{lane}' is missing counter 'commit.idle_cycles'" in message
            for message in messages
        ), messages
        assert any("commit.idle_cyclez" in message for message in messages)

    def test_mutated_reference_flags_every_lane(self):
        overlay = _mutate(
            "src/repro/coresim/_reference.py",
            '"commit.idle_cycles"',
            '"commit.idle_cyclez"',
        )
        messages = [f.message for f in counter_findings(overlay)]
        for lane in ("scalar", "native"):
            assert any(
                f"lane '{lane}'" in m and "commit.idle_cyclez" in m
                for m in messages
            ), (lane, messages)

    def test_c_slot_removal_detected(self):
        overlay = _mutate(
            "src/repro/coresim/native/_core.c", "    S_FETCH_STALL,\n", ""
        )
        messages = [f.message for f in counter_findings(overlay)]
        assert any("S_ROB_OCC" in m or "NUM_SLOTS" in m for m in messages), messages

    def test_c_struct_field_rename_detected(self):
        overlay = _mutate(
            "src/repro/coresim/native/_core.c",
            "i64 rob_size;",
            "i64 rob_sizz;",
        )
        messages = [f.message for f in counter_findings(overlay)]
        assert any("rob_size" in m for m in messages), messages
        assert any("rob_sizz" in m for m in messages), messages

    def test_memsim_struct_field_rename_detected(self):
        overlay = _mutate(
            "src/repro/coresim/native/_memsim.c",
            "i64 dram_latency;",
            "i64 dram_latencx;",
        )
        messages = [f.message for f in counter_findings(overlay)]
        assert any("MemParams" in m and "dram_latency" in m for m in messages), messages
        assert any("dram_latencx" in m for m in messages), messages

    def test_memsim_ctypes_field_reorder_detected(self):
        overlay = _mutate(
            "src/repro/memsim/native.py",
            '        ("warmup", ctypes.c_int64),\n        ("step", ctypes.c_int64),\n',
            '        ("step", ctypes.c_int64),\n        ("warmup", ctypes.c_int64),\n',
        )
        messages = [f.message for f in counter_findings(overlay)]
        assert any("MemParams field order" in m for m in messages), messages

    def test_manifest_kernel_skew_detected(self):
        manifest = json.loads(
            (REPO_ROOT / "tests/data/counter_manifest.json").read_text("utf-8")
        )
        manifest["kernels"]["native"] = [
            n for n in manifest["kernels"]["native"] if n != "commit.instructions"
        ]
        overlay = {
            "tests/data/counter_manifest.json": json.dumps(manifest)
        }
        messages = [f.message for f in counter_findings(overlay)]
        assert any(
            "'native'" in m and "'commit.instructions'" in m for m in messages
        ), messages

    def test_manifest_unknown_name_detected(self):
        manifest = json.loads(
            (REPO_ROOT / "tests/data/counter_manifest.json").read_text("utf-8")
        )
        for names in manifest["kernels"].values():
            names.append("commit.phantom")
        overlay = {"tests/data/counter_manifest.json": json.dumps(manifest)}
        messages = [f.message for f in counter_findings(overlay)]
        assert any(
            "no static emission site" in m and "commit.phantom" in m
            for m in messages
        ), messages


# ---------------------------------------------------------------------------
# protocol-constant
# ---------------------------------------------------------------------------


class TestProtocolConstants:
    def test_clean_on_repository(self):
        assert protocol_constants.check(tree_with()) == []

    def test_redefinition_fires(self):
        path = "src/repro/synthetic_proto.py"
        source = "PROTOCOL_VERSION = 2\n"
        findings = protocol_constants.check(tree_with({path: source}))
        assert any(
            "redefined outside its canonical home" in f.message for f in findings
        )

    def test_import_from_wrong_module_fires(self):
        path = "src/repro/synthetic_proto.py"
        source = "from repro.runtime.worker import PROTOCOL_VERSION\n"
        findings = protocol_constants.check(tree_with({path: source}))
        assert any("canonical module" in f.message for f in findings)

    def test_import_from_canonical_module_ok(self):
        path = "src/repro/synthetic_proto.py"
        source = "from repro.runtime.framing import PROTOCOL_VERSION\n"
        assert protocol_constants.check(tree_with({path: source})) == []

    def test_hand_rolled_frame_header_fires(self):
        path = "src/repro/synthetic_proto.py"
        source = 'import struct\nHEADER = struct.Struct(">Q")\n'
        findings = protocol_constants.check(tree_with({path: source}))
        assert any("frame-header format" in f.message for f in findings)

    def test_missing_canonical_definition_fires(self):
        overlay = _mutate(
            "src/repro/runtime/framing.py",
            "PROTOCOL_VERSION = 2",
            "PROTOCOL_VERSION = int('2')",
        )
        findings = protocol_constants.check(tree_with(overlay))
        assert any("literal integer" in f.message for f in findings)

    def test_liveness_frame_kind_redefinition_fires(self):
        path = "src/repro/synthetic_proto.py"
        source = 'HEARTBEAT = "heartbeat"\n'
        findings = protocol_constants.check(tree_with({path: source}))
        assert any(
            "HEARTBEAT redefined outside its canonical home" in f.message
            for f in findings
        )

    def test_liveness_timing_redefinition_fires(self):
        path = "src/repro/synthetic_proto.py"
        source = "LIVENESS_DEADLINE = 30.0\n"
        findings = protocol_constants.check(tree_with({path: source}))
        assert any(
            "LIVENESS_DEADLINE redefined outside its canonical home" in f.message
            for f in findings
        )

    def test_liveness_constants_import_from_framing_ok(self):
        path = "src/repro/synthetic_proto.py"
        source = (
            "from repro.runtime.framing import (\n"
            "    HEARTBEAT, HEARTBEAT_INTERVAL, LIVENESS_DEADLINE, PING, PONG)\n"
        )
        assert protocol_constants.check(tree_with({path: source})) == []

    def test_liveness_timing_must_be_numeric_literal(self):
        overlay = _mutate(
            "src/repro/runtime/framing.py",
            "HEARTBEAT_INTERVAL = 1.0",
            'HEARTBEAT_INTERVAL = float("1.0")',
        )
        findings = protocol_constants.check(tree_with(overlay))
        assert any("literal number" in f.message for f in findings)

    def test_frame_kind_must_be_string_literal(self):
        overlay = _mutate(
            "src/repro/runtime/framing.py",
            'PING = "ping"',
            'PING = str("ping")',
        )
        findings = protocol_constants.check(tree_with(overlay))
        assert any("literal string" in f.message for f in findings)


# ---------------------------------------------------------------------------
# native gate + sanitizer wiring
# ---------------------------------------------------------------------------


class TestNativeGate:
    def test_werror_clean_or_skipped(self):
        findings = native_gate.check(tree_with())
        assert findings == []

    def test_warning_becomes_finding(self):
        from repro.coresim.native import build

        if build.find_compiler() is None:
            pytest.skip("no C compiler on this host")
        text = (REPO_ROOT / "src/repro/coresim/native/_core.c").read_text("utf-8")
        overlay = {
            "src/repro/coresim/native/_core.c": text
            + "\nstatic int lint_fixture(int unused) { return 0; }\n"
        }
        findings = native_gate.check(tree_with(overlay))
        assert findings, "expected -Wall/-Wextra to flag the unused fixture"

    def test_sanitize_mode_parsing(self, monkeypatch):
        from repro.coresim.native import build

        monkeypatch.delenv(build.SANITIZE_ENV_VAR, raising=False)
        assert build.sanitize_mode() is None
        assert build.active_cflags() == build.CFLAGS
        monkeypatch.setenv(build.SANITIZE_ENV_VAR, "1")
        assert build.sanitize_mode() == "address,undefined"
        assert "-fsanitize=address,undefined" in build.active_cflags()
        monkeypatch.setenv(build.SANITIZE_ENV_VAR, "undefined")
        assert build.sanitize_mode() == "undefined"
        monkeypatch.setenv(build.SANITIZE_ENV_VAR, "off")
        assert build.sanitize_mode() is None

    def test_sanitize_forces_serial_backend(self, monkeypatch):
        from repro.coresim.native import build
        from repro.runtime.backends import SerialBackend, parse_backend

        monkeypatch.setenv(build.SANITIZE_ENV_VAR, "1")
        with pytest.warns(RuntimeWarning, match="serial"):
            backend = parse_backend("local:4")
        assert isinstance(backend, SerialBackend)

    def test_sanitize_changes_cache_key(self, monkeypatch, tmp_path):
        """The sanitized artifact must never collide with the regular one."""
        from repro.coresim.native import build

        if build.find_compiler() is None:
            pytest.skip("no C compiler on this host")
        monkeypatch.setenv(build.CACHE_ENV_VAR, str(tmp_path))
        monkeypatch.delenv(build.SANITIZE_ENV_VAR, raising=False)
        build._reset_for_tests()
        plain = build.library_path()
        monkeypatch.setenv(build.SANITIZE_ENV_VAR, "1")
        build._reset_for_tests()
        sanitized = build.library_path()
        build._reset_for_tests()
        assert plain is not None and sanitized is not None
        assert plain != sanitized


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------


class TestCli:
    def test_repository_is_lint_clean(self):
        findings = run_lint(REPO_ROOT)
        live = [f for f in findings if not f.suppressed]
        assert live == [], [f"{f.location()}: {f.rule}: {f.message}" for f in live]
        # The sanctioned suppressions must be present (not an empty report).
        assert any(f.suppressed for f in findings)

    def test_exit_codes(self, capsys):
        assert main(["--root", str(REPO_ROOT), "--no-native"]) == 0
        capsys.readouterr()
        assert main(["--root", "/nonexistent"]) == 2

    def test_json_format_is_machine_readable(self, capsys):
        code = main(["--root", str(REPO_ROOT), "--format", "json", "--no-native"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-lint"
        assert payload["live"] == 0
        assert payload["suppressed"] > 0
        assert all("rule" in f and "path" in f for f in payload["findings"])

    def test_only_family_selection(self, capsys):
        code = main(
            ["--root", str(REPO_ROOT), "--only", "protocol-constant"]
        )
        assert code == 0

    def test_list_rules_covers_every_family(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in FAMILIES:
            assert family in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--no-native",
             "--root", str(REPO_ROOT)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 violation(s)" in proc.stdout
