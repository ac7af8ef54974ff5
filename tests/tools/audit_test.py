#!/usr/bin/env python3
"""Golden tests for tools/analyze/ajac_audit.py.

Three layers, mirroring how a linter regresses in practice:

 1. Fixtures: each known-bad snippet under fixtures/ must be flagged with
    exactly the expected rule ids (and the clean fixture with none) — the
    rules fire where they should.
 2. Tree: the committed sources must audit clean — the rules do not fire
    where they should not.
 3. Seeded regression: deleting one racy-ok tag from a real runtime file
    must produce a racy-ok-tag finding — the contract is actually load-
    bearing, not vacuously satisfied by the matcher missing everything.

Runs under ctest (ToolsAudit) and standalone:  python3 tests/tools/audit_test.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS_TOOLS = Path(__file__).resolve().parent
REPO_ROOT = TESTS_TOOLS.parent.parent
AUDITOR = REPO_ROOT / "tools" / "analyze" / "ajac_audit.py"
FIXTURES = TESTS_TOOLS / "fixtures"

# fixture file -> sorted list of expected rule ids (one entry per finding).
EXPECTED = {
    "untagged_relaxed.cpp": ["racy-ok-tag"],
    "unknown_tag.cpp": ["racy-ok-unknown-tag"],
    "orphan_tag.cpp": ["racy-ok-orphan"],
    "atomic_member.hpp": ["atomic-scope"],
    "raw_seq_write.cpp": ["seqlock-protocol"],
    "ring_seq_outside.cpp": ["seqlock-protocol"],
    "ring_seq_allowed.hpp": [],
    "omp_outside.cpp": ["omp-allowlist"],
    "relative_include.cpp": ["include-hygiene"],
    "raw_clock.cpp": ["clock-ban"],
    "raw_madvise.cpp": ["mmap-ban", "mmap-ban"],
    "raw_yield.cpp": ["yield-site"],
    "clean.cpp": [],
}

FAILURES: list[str] = []


def fail(msg: str) -> None:
    FAILURES.append(msg)
    print(f"FAIL: {msg}", file=sys.stderr)


def run_auditor(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(AUDITOR), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def audit_json(*paths: str) -> tuple[int, list[dict]]:
    proc = run_auditor("--json", *paths)
    if proc.returncode not in (0, 1):
        fail(f"auditor crashed on {paths}: rc={proc.returncode}\n{proc.stderr}")
        return proc.returncode, []
    return proc.returncode, json.loads(proc.stdout)


def test_fixtures() -> None:
    on_disk = sorted(p.name for p in FIXTURES.iterdir() if p.suffix in (".cpp", ".hpp"))
    if on_disk != sorted(EXPECTED):
        fail(f"fixture set drifted: on disk {on_disk}, expected {sorted(EXPECTED)}")
    for name, want in EXPECTED.items():
        rc, findings = audit_json(str(FIXTURES / name))
        got = sorted(f["rule"] for f in findings)
        if got != sorted(want):
            fail(f"{name}: expected rules {sorted(want)}, got {got}")
        want_rc = 1 if want else 0
        if rc != want_rc:
            fail(f"{name}: expected exit {want_rc}, got {rc}")
        for f in findings:
            if f["file"] != str(FIXTURES / name) or f["line"] < 1:
                fail(f"{name}: finding does not point into the fixture: {f}")


def test_tree_is_clean() -> None:
    rc, findings = audit_json()  # default roots: src tests bench examples
    if rc != 0 or findings:
        rules = sorted({f["rule"] for f in findings})
        fail(f"committed tree must audit clean; got {len(findings)} "
             f"finding(s) [{', '.join(rules)}], e.g. {findings[:3]}")


def test_fixture_dir_is_skipped_in_walks() -> None:
    # Walking tests/ must not surface the intentionally-bad fixtures.
    rc, findings = audit_json("tests")
    if rc != 0 or findings:
        fail(f"directory walk leaked fixture findings: {findings[:3]}")


def test_seeded_regression() -> None:
    """Delete one racy-ok tag from a real file: the auditor must notice."""
    victim = (REPO_ROOT / "src" / "runtime" / "include" / "ajac" / "runtime" /
              "terminator.hpp")
    scope = victim.relative_to(REPO_ROOT).as_posix()
    text = victim.read_text()
    tagged = [ln for ln in text.split("\n") if re.search(r"racy-ok\(", ln)]
    if not tagged:
        fail(f"{victim} has no racy-ok tags to seed a regression with")
        return
    # Drop only the first tagged comment line; keep the access it blessed.
    mutated = text.replace(tagged[0] + "\n", "", 1)
    if mutated == text:
        fail("failed to strip the seeded racy-ok line")
        return
    with tempfile.TemporaryDirectory() as tmp:
        mutant = Path(tmp) / "terminator_mutant.hpp"
        # Keep the original path scoping so path-scoped rules see the file
        # as the runtime header it is a copy of.
        mutant.write_text(f"// audit-as: {scope}\n" + mutated)
        rc, findings = audit_json(str(mutant))
        rules = {f["rule"] for f in findings}
        if rc != 1 or "racy-ok-tag" not in rules:
            fail(f"seeded tag deletion not caught: rc={rc}, rules={sorted(rules)}")

        # Control: the unmutated copy must stay clean, proving the finding
        # above comes from the deletion, not from the copy mechanics.
        control = Path(tmp) / "terminator_control.hpp"
        control.write_text(f"// audit-as: {scope}\n" + text)
        rc, findings = audit_json(str(control))
        if rc != 0 or findings:
            fail(f"control copy not clean: {findings[:3]}")


def test_explain_and_list() -> None:
    proc = run_auditor("--list-rules")
    if proc.returncode != 0:
        fail(f"--list-rules exited {proc.returncode}")
    listed = [ln.split()[0] for ln in proc.stdout.strip().split("\n") if ln.strip()]
    for rule in set(EXPECTED_RULES := [r for v in EXPECTED.values() for r in v]):
        if rule not in listed:
            fail(f"--list-rules is missing '{rule}'")
    for rule in listed:
        p = run_auditor("--explain", rule)
        if p.returncode != 0 or "Fix:" not in p.stdout:
            fail(f"--explain {rule}: exit {p.returncode} or no Fix: guidance")
    if run_auditor("--explain", "no-such-rule").returncode != 2:
        fail("--explain with an unknown rule must exit 2")


def main() -> int:
    if not AUDITOR.is_file():
        print(f"FAIL: auditor not found at {AUDITOR}", file=sys.stderr)
        return 1
    test_fixtures()
    test_tree_is_clean()
    test_fixture_dir_is_skipped_in_walks()
    test_seeded_regression()
    test_explain_and_list()
    if FAILURES:
        print(f"\naudit_test: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("audit_test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
