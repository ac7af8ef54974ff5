#!/usr/bin/env python3
"""ajac_audit: concurrency-contract static analysis for the ajac tree.

The C++ type system cannot express this repo's concurrency discipline —
"every relaxed atomic access is individually justified", "the seqlock
counters are only touched through the protocol methods", "raw atomics
live in the three modules whose job is synchronization" — and clang-tidy
has no checks for them either. This auditor closes that gap with a small
set of mechanical, greppable rules over the committed sources. It is
dependency-free (Python stdlib only) and is invoked by tools/lint.sh as
well as directly:

    tools/analyze/ajac_audit.py                 # audit the whole tree
    tools/analyze/ajac_audit.py src/runtime     # audit a subtree
    tools/analyze/ajac_audit.py --explain racy-ok-tag
    tools/analyze/ajac_audit.py --json          # machine-readable findings
    tools/analyze/ajac_audit.py --list-rules

Exit status: 0 clean, 1 findings, 2 usage/configuration error.

The racy-ok contract
--------------------
Every `std::memory_order_relaxed` access must carry a justification
comment on the same line or within the three lines above it:

    // racy-ok(<tag>): <why this relaxed access is correct>

where <tag> names a justification *category* registered in
tools/analyze/racy_ok.toml (the manifest). The tag makes justifications
greppable by kind — `grep -rn 'racy-ok(seqlock-open)'` lists every
seqlock-opening store in the tree — and the manifest forces each new
category through review: an unregistered tag is a finding, so inventing
a category means editing a file whose diff a reviewer will see.

Fixture support
---------------
Files may carry a `// audit-as: <path>` directive in their first ten
lines; path-scoped rules (atomic-scope, omp-allowlist, seqlock-protocol,
clock-ban, mmap-ban, yield-site) then treat the file as if it lived at
<path>. This lets the golden fixtures under tests/tools/fixtures/
exercise rules that only fire in particular subtrees. The fixtures directory itself is skipped
when walking directories (its files are intentionally bad) but is
audited when a fixture file is passed as an explicit argument.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

try:  # Python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - container ships 3.11
    tomllib = None

REPO_MARKERS = ("CMakeLists.txt", ".git")
SOURCE_SUFFIXES = {".cpp", ".hpp"}
DEFAULT_ROOTS = ("src", "tests", "bench", "examples")
FIXTURE_DIR = Path("tests/tools/fixtures")
MANIFEST_NAME = "racy_ok.toml"

# How far above a relaxed access its racy-ok comment may sit. Three lines
# covers a wrapped comment plus a wrapped statement without letting one
# comment silently bless an unrelated access further down.
RACY_OK_WINDOW = 3

RACY_OK_RE = re.compile(r"racy-ok\(([A-Za-z0-9_-]+)\):\s*(\S.*)?")
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
AUDIT_AS_RE = re.compile(r"audit-as:\s*(\S+)")
ALLOW_CLOCK_RE = re.compile(r"lint:allow-clock")

# ---------------------------------------------------------------------------
# Rule registry. Each rule's `explain` text is the canonical statement of
# the contract it enforces; `--explain <id>` prints it verbatim.
# ---------------------------------------------------------------------------

RULES: dict[str, str] = {
    "racy-ok-tag": """\
Every `std::memory_order_relaxed` access must carry a justification:

    // racy-ok(<tag>): <reason>

on the same line or within the three lines directly above the access.
Relaxed ordering is the single most dangerous tool in the tree — it is
what makes the paper's racy reads legal C++, and it is also what turns a
forgotten release into a silent reordering bug. The tag names a reviewed
justification category (see tools/analyze/racy_ok.toml); the reason says
why THIS access needs no ordering. An access with neither is either
unreviewed or wrong — the auditor cannot tell which, so it flags it.

Fix: add the comment, picking the registered tag that matches the
justification (run with --explain racy-ok-unknown-tag for the tag list),
or strengthen the ordering if the access actually publishes data.""",
    "racy-ok-unknown-tag": """\
The tag inside `racy-ok(<tag>):` must be registered in
tools/analyze/racy_ok.toml. Tags are justification *categories* — e.g.
`init` (single-threaded setup before the fork), `seqlock-open` (the
writer's own counter, which only it mutates), `intended-race` (the
paper's deliberate racy read/write). Registration keeps the category
list short and reviewed: a new kind of relaxed-access justification must
be added to the manifest, where its definition gets review, instead of
being minted ad hoc at a call site.

Fix: use an existing tag if one fits; otherwise add a `[tags.<name>]`
entry with a `summary` to the manifest in the same change.""",
    "racy-ok-orphan": """\
A `racy-ok(...)` comment must be followed by a `memory_order_relaxed`
access on its own line or within the three lines below it. An orphaned
justification usually means the access it blessed was edited away or
strengthened — leaving a comment that will silently re-attach itself to
the next relaxed access someone writes nearby, justifying it with a
rationale written for different code.

Fix: delete the stale comment (or move it back next to its access).""",
    "atomic-scope": """\
Raw `std::atomic` may only appear under src/runtime, src/obs, and
src/fault (plus the wrapper machinery in ajac/util/annotate.hpp). Those
are the modules whose *job* is cross-thread communication; everywhere
else in src/ an atomic is a red flag that synchronization is leaking
into single-threaded code — the sparse kernels, generators, solvers and
models are all sequential by contract, and an atomic there either lies
about concurrency that does not exist or quietly introduces concurrency
the runtime layer does not know about. Tests and bench code are exempt
(they legitimately build small concurrent harnesses).

Fix: move the shared state into a runtime/obs/fault type, or pass it in
from the runtime layer instead of declaring it locally.""",
    "seqlock-protocol": """\
The seqlock sequence counters (identifiers containing `seq`) may only be
loaded or stored inside the protocol headers:
ajac/runtime/shared_vector.hpp and ajac/obs/event_ring.hpp (the
telemetry ring's per-slot seqlock).
The seqlock's correctness is a whole-protocol property — the odd/even
discipline, the acquire/release pairing, the single-writer invariant —
and a counter access outside the protocol methods can break it in ways
no local inspection will catch (e.g. an innocent-looking `seq.load` used
to "peek" at a version without the retry loop). Everyone else uses the
public API: read(), read_versioned(), write(), version() — or, for the
event ring, publish() and poll().

Fix: route the access through the protocol methods, or extend the
protocol header if the operation is genuinely new.""",
    "omp-allowlist": """\
`#pragma omp` is restricted to the runtime layer (src/runtime/**), the
benchmark harness (bench/**), and the three sparse kernels with internal
parallel loops (src/sparse/csr.cpp, src/sparse/blocked_csr.cpp,
src/sparse/sell_csr.cpp — the last two first-touch their hot arrays on
the threads that will relax them).
Thread creation is an architectural event
in this codebase: the runtime owns the fork/join structure that the
fault injector, the metrics registry, and the termination protocol are
all built around. An OpenMP region anywhere else creates threads those
subsystems do not know exist — fault plans will not cover them, metrics
slots will not be sized for them, and the solver's determinism
arguments quietly stop holding.

Fix: hoist the parallelism into the runtime layer, or add the file to
the allowlist in a reviewed change if it is genuinely a new kernel.""",
    "include-hygiene": """\
Project headers are included as `"ajac/<module>/<name>.hpp"` — never by
a relative path (`"../foo.hpp"`), and never with angle brackets
(`<ajac/...>`). Relative includes resolve against the including file's
location, so moving either file silently changes what gets included;
module-qualified quoted includes break loudly at build time instead.
Angle brackets tell the preprocessor to search system directories
first, which can shadow the in-tree header with a stale installed copy.

Fix: include the header as "ajac/<module>/<name>.hpp".""",
    "clock-ban": """\
Raw std::chrono clock reads (`steady_clock::now` etc.) are only allowed
in ajac/util/timer.hpp and under src/obs. Everywhere else timestamps
must flow through WallTimer, for two reasons: instrumented and
uninstrumented runs must read the clock at the same call sites (or
enabling metrics perturbs the schedule being measured), and the distsim
runs on *simulated* time — a wall-clock read inside it is a category
error that compiles fine. A deliberate exception is marked with a
`lint:allow-clock` comment on the offending line.

Fix: take a WallTimer (or a time parameter) instead of reading the
clock inline.""",
    "mmap-ban": """\
Raw page-mapping calls (`mmap`, `munmap`, `mremap`, `madvise`) are only
allowed in ajac/util/aligned.hpp, the way fences are confined to
annotate.hpp. Its allocator owns the solve's large arrays: it maps them
2 MiB-aligned, advises MADV_HUGEPAGE, staggers their start offsets so
that arrays streamed together do not alias modulo 4 KiB, and recovers
the mapping from the pointer on release. A mapping made elsewhere skips
the stagger (an unstaggered mirror/next pair made the parallel region
3x slower), and a munmap of memory the allocator mapped leaves a vector
pointing at unmapped pages.

Fix: allocate through CacheAlignedAllocator, AlignedVector or
UninitVector, or extend aligned.hpp if a new kind of mapping is needed.""",
    "yield-site": """\
`sched_yield(` is only allowed in ajac/runtime/terminator.hpp (an actor
parked at the cap yields between polls) and ajac/runtime/actor_step.hpp
(the one yield rule of solve_shared and solve_mesh). A yield puts the
caller behind every runnable task on its core, so an actor that yields
after every iteration while it lags starves: the others reach the cap,
park, and the solve ends unconverged. The step yields only while its
actor is ahead of the slowest (Terminator::ahead_of_slowest); a second
yield site would bring the starving rule back.

Fix: let the actor step's close phase yield, or park through the
Terminator; do not call sched_yield elsewhere.""",
}

# Path scopes (matched against the *effective* path, honoring audit-as).
ATOMIC_ALLOWED_PREFIXES = (
    "src/runtime/",
    "src/obs/",
    "src/fault/",
    "src/mesh/",
)
ATOMIC_ALLOWED_FILES = ("src/util/include/ajac/util/annotate.hpp",)
SEQLOCK_ALLOWED_FILES = (
    "src/runtime/include/ajac/runtime/shared_vector.hpp",
    "src/obs/include/ajac/obs/event_ring.hpp",
)
OMP_ALLOWED_PREFIXES = ("src/runtime/", "bench/")
OMP_ALLOWED_FILES = (
    "src/sparse/csr.cpp",
    "src/sparse/blocked_csr.cpp",
    "src/sparse/sell_csr.cpp",
)
CLOCK_ALLOWED_PREFIXES = ("src/obs/",)
CLOCK_ALLOWED_FILES = ("src/util/include/ajac/util/timer.hpp",)
MMAP_ALLOWED_FILES = ("src/util/include/ajac/util/aligned.hpp",)
YIELD_ALLOWED_FILES = (
    "src/runtime/include/ajac/runtime/terminator.hpp",
    "src/runtime/include/ajac/runtime/actor_step.hpp",
)

ATOMIC_RE = re.compile(r"\bstd\s*::\s*atomic\b")
SEQ_ACCESS_RE = re.compile(r"\b[A-Za-z_]*seq[A-Za-z_0-9]*(?:\[[^\]]*\])?\s*\.\s*(?:load|store|exchange|compare_exchange\w*)\s*\(")
OMP_RE = re.compile(r"^\s*#\s*pragma\s+omp\b")
CLOCK_RE = re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b")
MMAP_RE = re.compile(r"\b(?:mmap|mmap64|munmap|mremap|madvise|posix_madvise)\s*\(")
YIELD_RE = re.compile(r"\bsched_yield\s*\(")
REL_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"\.\./')
ANGLE_INCLUDE_RE = re.compile(r"^\s*#\s*include\s+<ajac/")


@dataclass
class Finding:
    rule: str
    file: str
    line: int  # 1-based
    message: str
    snippet: str

    def text(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}\n    {self.snippet.strip()}"

    def as_json(self) -> dict:
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet.strip(),
        }


@dataclass
class SourceLine:
    """One physical line split into code and comment text."""

    code: str
    comment: str


def split_comments(text: str) -> list[SourceLine]:
    """Split each line of a C++ source into (code, comment) halves.

    A line-oriented scanner tracking block comments and string/char
    literals. Raw strings are handled well enough for this tree (no rule
    pattern legitimately appears inside one); preprocessor continuations
    are treated as independent lines, which is fine for pattern rules.
    """
    lines: list[SourceLine] = []
    in_block = False
    for raw in text.split("\n"):
        code_parts: list[str] = []
        comment_parts: list[str] = []
        i, n = 0, len(raw)
        in_string: str | None = None  # the quote character, when inside
        while i < n:
            c = raw[i]
            if in_block:
                end = raw.find("*/", i)
                if end < 0:
                    comment_parts.append(raw[i:])
                    i = n
                else:
                    comment_parts.append(raw[i:end])
                    i = end + 2
                    in_block = False
                continue
            if in_string:
                code_parts.append(c)
                if c == "\\" and i + 1 < n:
                    code_parts.append(raw[i + 1])
                    i += 2
                    continue
                if c == in_string:
                    in_string = None
                i += 1
                continue
            if c in "\"'":
                in_string = c
                code_parts.append(c)
                i += 1
                continue
            if c == "/" and i + 1 < n and raw[i + 1] == "/":
                comment_parts.append(raw[i + 2 :])
                i = n
                continue
            if c == "/" and i + 1 < n and raw[i + 1] == "*":
                in_block = True
                i += 2
                continue
            code_parts.append(c)
            i += 1
        # An unterminated string literal never spans lines in valid C++;
        # reset so one bad fixture line cannot poison the rest of a file.
        in_string = None
        lines.append(SourceLine("".join(code_parts), "".join(comment_parts)))
    return lines


@dataclass
class AuditFile:
    path: Path  # real path on disk
    effective: str  # repo-relative path used for scoping (audit-as aware)
    raw_lines: list[str]
    lines: list[SourceLine]


def load_file(path: Path, repo_root: Path) -> AuditFile:
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = split_comments(text)
    try:
        effective = path.resolve().relative_to(repo_root).as_posix()
    except ValueError:
        effective = path.as_posix()
    for sl in lines[:10]:
        m = AUDIT_AS_RE.search(sl.comment)
        if m:
            effective = m.group(1)
            break
    return AuditFile(path, effective, text.split("\n"), lines)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def check_racy_ok(f: AuditFile, tags: dict[str, str], out: list[Finding]) -> None:
    display = f.path.as_posix()
    # Pass 1: collect racy-ok comments and relaxed accesses by line index.
    comments: dict[int, tuple[str, str | None]] = {}
    accesses: list[int] = []
    for idx, sl in enumerate(f.lines):
        m = RACY_OK_RE.search(sl.comment)
        if m:
            comments[idx] = (m.group(1), m.group(2))
        if RELAXED_RE.search(sl.code):
            accesses.append(idx)

    claimed: set[int] = set()
    for idx in accesses:
        # Same line, or within RACY_OK_WINDOW *code* lines above: blank and
        # comment-only lines (a wrapped justification) do not consume the
        # window, so a two-line comment over a wrapped statement still
        # reaches its access. A single comment may bless several
        # consecutive accesses (e.g. a tagged loop whose body spans two
        # lines), so claimed comments stay usable inside the window.
        found = None
        budget = RACY_OK_WINDOW
        j = idx
        while j >= 0 and budget >= 0:
            if j in comments:
                found = j
                break
            if f.lines[j].code.strip():
                budget -= 1
            j -= 1
        if found is None:
            out.append(
                Finding(
                    "racy-ok-tag",
                    display,
                    idx + 1,
                    "memory_order_relaxed without a racy-ok(<tag>) justification",
                    f.raw_lines[idx],
                )
            )
            continue
        claimed.add(found)
        tag, reason = comments[found]
        if tag not in tags:
            known = ", ".join(sorted(tags)) or "<manifest empty>"
            out.append(
                Finding(
                    "racy-ok-unknown-tag",
                    display,
                    found + 1,
                    f"tag '{tag}' is not registered in {MANIFEST_NAME} (known: {known})",
                    f.raw_lines[found],
                )
            )
        elif not reason:
            out.append(
                Finding(
                    "racy-ok-tag",
                    display,
                    found + 1,
                    "racy-ok tag has no reason text after the colon",
                    f.raw_lines[found],
                )
            )

    for idx, (tag, _) in comments.items():
        if idx in claimed:
            continue
        # Orphan check: no relaxed access within the window of code lines
        # below (mirroring the upward search: comment-only and blank lines
        # do not consume the window).
        hit = False
        budget = RACY_OK_WINDOW
        j = idx
        while j < len(f.lines) and budget >= 0:
            if RELAXED_RE.search(f.lines[j].code):
                hit = True
                break
            if f.lines[j].code.strip():
                budget -= 1
            j += 1
        if not hit:
            out.append(
                Finding(
                    "racy-ok-orphan",
                    display,
                    idx + 1,
                    f"racy-ok({tag}) comment with no memory_order_relaxed access "
                    f"within {RACY_OK_WINDOW} lines below",
                    f.raw_lines[idx],
                )
            )


def _scoped(effective: str, prefixes: tuple[str, ...], files: tuple[str, ...]) -> bool:
    return effective.startswith(prefixes) or effective in files


def check_atomic_scope(f: AuditFile, out: list[Finding]) -> None:
    if not f.effective.startswith("src/"):
        return
    if _scoped(f.effective, ATOMIC_ALLOWED_PREFIXES, ATOMIC_ALLOWED_FILES):
        return
    for idx, sl in enumerate(f.lines):
        if ATOMIC_RE.search(sl.code):
            out.append(
                Finding(
                    "atomic-scope",
                    f.path.as_posix(),
                    idx + 1,
                    "raw std::atomic outside src/runtime, src/obs, src/fault "
                    f"(file scoped as {f.effective})",
                    f.raw_lines[idx],
                )
            )


def check_seqlock_protocol(f: AuditFile, out: list[Finding]) -> None:
    if not f.effective.startswith("src/"):
        return
    if f.effective in SEQLOCK_ALLOWED_FILES:
        return
    for idx, sl in enumerate(f.lines):
        if SEQ_ACCESS_RE.search(sl.code):
            out.append(
                Finding(
                    "seqlock-protocol",
                    f.path.as_posix(),
                    idx + 1,
                    "seqlock counter accessed outside the protocol headers "
                    "(use read()/read_versioned()/write()/version())",
                    f.raw_lines[idx],
                )
            )


def check_omp_allowlist(f: AuditFile, out: list[Finding]) -> None:
    if _scoped(f.effective, OMP_ALLOWED_PREFIXES, OMP_ALLOWED_FILES):
        return
    for idx, sl in enumerate(f.lines):
        if OMP_RE.search(sl.code):
            out.append(
                Finding(
                    "omp-allowlist",
                    f.path.as_posix(),
                    idx + 1,
                    "#pragma omp outside the runtime/bench/sparse-kernel allowlist "
                    f"(file scoped as {f.effective})",
                    f.raw_lines[idx],
                )
            )


def check_include_hygiene(f: AuditFile, out: list[Finding]) -> None:
    for idx, sl in enumerate(f.lines):
        if REL_INCLUDE_RE.search(sl.code):
            out.append(
                Finding(
                    "include-hygiene",
                    f.path.as_posix(),
                    idx + 1,
                    'relative #include "../..." '
                    '(address project headers as "ajac/<module>/<name>.hpp")',
                    f.raw_lines[idx],
                )
            )
        elif ANGLE_INCLUDE_RE.search(sl.code):
            out.append(
                Finding(
                    "include-hygiene",
                    f.path.as_posix(),
                    idx + 1,
                    "project header included with angle brackets (use quotes)",
                    f.raw_lines[idx],
                )
            )


def check_clock_ban(f: AuditFile, out: list[Finding]) -> None:
    if _scoped(f.effective, CLOCK_ALLOWED_PREFIXES, CLOCK_ALLOWED_FILES):
        return
    for idx, sl in enumerate(f.lines):
        if CLOCK_RE.search(sl.code) and not ALLOW_CLOCK_RE.search(sl.comment):
            out.append(
                Finding(
                    "clock-ban",
                    f.path.as_posix(),
                    idx + 1,
                    "raw std::chrono clock read outside ajac/util/timer.hpp and "
                    "src/obs (use WallTimer, or mark lint:allow-clock)",
                    f.raw_lines[idx],
                )
            )


def check_mmap_ban(f: AuditFile, out: list[Finding]) -> None:
    if _scoped(f.effective, (), MMAP_ALLOWED_FILES):
        return
    for idx, sl in enumerate(f.lines):
        if MMAP_RE.search(sl.code):
            out.append(
                Finding(
                    "mmap-ban",
                    f.path.as_posix(),
                    idx + 1,
                    "raw mmap/munmap/mremap/madvise outside ajac/util/aligned.hpp "
                    "(allocate through CacheAlignedAllocator)",
                    f.raw_lines[idx],
                )
            )


def check_yield_site(f: AuditFile, out: list[Finding]) -> None:
    if _scoped(f.effective, (), YIELD_ALLOWED_FILES):
        return
    for idx, sl in enumerate(f.lines):
        if YIELD_RE.search(sl.code):
            out.append(
                Finding(
                    "yield-site",
                    f.path.as_posix(),
                    idx + 1,
                    "sched_yield outside ajac/runtime/terminator.hpp and "
                    "ajac/runtime/actor_step.hpp (yield through the actor step)",
                    f.raw_lines[idx],
                )
            )


def audit_file(f: AuditFile, tags: dict[str, str]) -> list[Finding]:
    out: list[Finding] = []
    check_racy_ok(f, tags, out)
    check_atomic_scope(f, out)
    check_seqlock_protocol(f, out)
    check_omp_allowlist(f, out)
    check_include_hygiene(f, out)
    check_clock_ban(f, out)
    check_mmap_ban(f, out)
    check_yield_site(f, out)
    return out


# ---------------------------------------------------------------------------
# Manifest + file discovery
# ---------------------------------------------------------------------------


def load_manifest(path: Path) -> dict[str, str]:
    """Load the racy-ok tag manifest: {tag: summary}."""
    if not path.is_file():
        raise SystemExit(f"ajac_audit: manifest not found: {path}")
    data = path.read_bytes()
    if tomllib is not None:
        doc = tomllib.loads(data.decode("utf-8"))
        tags = doc.get("tags", {})
        result = {}
        for name, body in tags.items():
            if not isinstance(body, dict) or "summary" not in body:
                raise SystemExit(
                    f"ajac_audit: manifest entry [tags.{name}] needs a 'summary'"
                )
            result[name] = str(body["summary"])
        return result
    # Fallback parser for pre-3.11 interpreters: only the exact shape this
    # manifest uses ([tags.<name>] sections with a summary string).
    result = {}
    current = None
    for raw in data.decode("utf-8").split("\n"):
        line = raw.strip()
        m = re.match(r"\[tags\.([A-Za-z0-9_-]+)\]$", line)
        if m:
            current = m.group(1)
            result[current] = ""
        elif current and line.startswith("summary"):
            result[current] = line.split("=", 1)[1].strip().strip('"')
    return result


def find_repo_root(start: Path) -> Path:
    p = start.resolve()
    for candidate in (p, *p.parents):
        if any((candidate / m).exists() for m in REPO_MARKERS):
            return candidate
    return start.resolve()


def discover(paths: list[str], repo_root: Path) -> list[Path]:
    """Resolve CLI paths to the list of sources to audit.

    Directories are walked (skipping the fixtures directory); files are
    taken verbatim, fixtures included — that is how the fixture tests
    audit intentionally-bad inputs.
    """
    fixture_root = (repo_root / FIXTURE_DIR).resolve()
    files: list[Path] = []
    roots = paths or [str(repo_root / r) for r in DEFAULT_ROOTS if (repo_root / r).is_dir()]
    for root in roots:
        p = Path(root)
        if p.is_file():
            files.append(p)
            continue
        if not p.is_dir():
            raise SystemExit(f"ajac_audit: no such file or directory: {root}")
        for child in sorted(p.rglob("*")):
            if child.suffix not in SOURCE_SUFFIXES or not child.is_file():
                continue
            if fixture_root in child.resolve().parents:
                continue
            files.append(child)
    return files


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="ajac_audit.py",
        description="Concurrency-contract auditor for the ajac tree.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to audit "
                        "(default: src tests bench examples)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array on stdout")
    parser.add_argument("--explain", metavar="RULE",
                        help="print the contract a rule enforces and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="list rule ids with one-line summaries and exit")
    parser.add_argument("--manifest", metavar="PATH",
                        help=f"racy-ok tag manifest (default: {MANIFEST_NAME} "
                             "next to this script)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalize --help to 0.
        return int(e.code or 0)

    if args.list_rules:
        for rule, text in RULES.items():
            first = text.split("\n", 1)[0].rstrip(":")
            print(f"{rule:22s} {first}")
        return 0

    if args.explain:
        if args.explain not in RULES:
            print(f"ajac_audit: unknown rule '{args.explain}' "
                  f"(known: {', '.join(RULES)})", file=sys.stderr)
            return 2
        print(f"[{args.explain}]\n")
        print(RULES[args.explain])
        return 0

    script_dir = Path(__file__).resolve().parent
    repo_root = find_repo_root(script_dir)
    manifest = Path(args.manifest) if args.manifest else script_dir / MANIFEST_NAME
    try:
        tags = load_manifest(manifest)
        files = discover(args.paths, repo_root)
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for path in files:
        findings.extend(audit_file(load_file(path, repo_root), tags))

    if args.json:
        print(json.dumps([f.as_json() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.text())
        if findings:
            rules = sorted({f.rule for f in findings})
            print(f"ajac_audit: {len(findings)} finding(s) "
                  f"[{', '.join(rules)}] in {len(files)} file(s)", file=sys.stderr)
            print("ajac_audit: run with --explain <rule> for the contract "
                  "and how to fix it", file=sys.stderr)
        else:
            print(f"ajac_audit: OK ({len(files)} file(s) audited)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
