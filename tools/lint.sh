#!/usr/bin/env bash
# Repo lint: mechanical hygiene rules clang-tidy cannot express, the
# concurrency-contract auditor (tools/analyze/ajac_audit.py), and a
# clang-tidy pass when the binary and a compile database are available.
#
# Shell rules (each greppable, each with a rationale):
#   fence-ban        std::atomic_thread_fence only inside ajac/util/annotate.hpp.
#                    The seqlock and runtime use per-element acquire/release
#                    orderings so ThreadSanitizer can model them; a raw fence
#                    reintroduces synchronization TSan silently ignores.
#   tsan-raw-ban     __tsan_* / Annotate* / __asan_* calls only via the
#                    AJAC_TSAN_* and AJAC_ASAN_* wrappers in annotate.hpp,
#                    so every escape from the memory model (and every
#                    poisoned region) is recorded in one reviewable file.
#   pragma-once      every header starts its preprocessor life with #pragma once.
#   no-using-std     no file-scope `using namespace std`.
#   checked-entry    public solver/runtime entry points validate their inputs:
#                    each listed translation unit must contain AJAC_CHECK (or
#                    an explicit validation throw, as in the IO parsers).
#   fault-decisions  `duty_active(` and `FaultClock::kBitFlip*` appear only
#                    under src/fault/ and src/distsim/ (tests may check the
#                    schedule against them). The shared and mesh runtimes
#                    take every fault decision from one per-actor schedule
#                    (fault::ActorFaults), so no runtime grows its own
#                    injector again. distsim is exempt because its
#                    stragglers and stale windows act in simulated time.
#
# The auditor carries the concurrency-contract rules (racy-ok tags on
# relaxed atomics, atomic/seqlock/omp scoping) plus include-hygiene and
# clock-ban, which migrated there from this script, and mmap-ban, which
# confines raw mmap/munmap/mremap/madvise calls to ajac/util/aligned.hpp
# the way fence-ban confines fences to annotate.hpp (rules there are
# pinned by golden fixtures under tests/tools/fixtures); run
# `tools/analyze/ajac_audit.py --list-rules` for the catalogue and
# `--explain <rule>` for any rule's contract.
#
# Usage: tools/lint.sh [--build-dir <dir>] [--require-clang-tidy]
# (run from the repo root). --require-clang-tidy turns a missing
# clang-tidy binary or compile database into a failure instead of a
# skip — CI's static-analysis job sets it so the tidy pass can never
# silently stop running.
# Exit status: 0 clean, 1 violations found.

set -u

BUILD_DIR=""
REQUIRE_TIDY=0
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="${2:-}"; shift 2 ;;
    --require-clang-tidy) REQUIRE_TIDY=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."

FAILURES=0
fail() {
  echo "lint: $1" >&2
  shift
  for line in "$@"; do echo "    $line" >&2; done
  FAILURES=$((FAILURES + 1))
}

# Source sets. Committed sources only; build trees are never linted, and
# the auditor's golden fixtures are intentionally rule-breaking inputs.
mapfile -t ALL_SOURCES < <(find src tests bench examples \
  \( -name '*.cpp' -o -name '*.hpp' \) -type f \
  -not -path 'tests/tools/fixtures/*' | sort)
mapfile -t ALL_HEADERS < <(find src tests bench examples \
  -name '*.hpp' -type f -not -path 'tests/tools/fixtures/*' | sort)

# --- fence-ban -------------------------------------------------------------
# Comment lines may mention the fence (to explain why it is banned).
HITS=$(grep -n 'atomic_thread_fence' "${ALL_SOURCES[@]}" \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|\*)' \
  | grep -v '^src/util/include/ajac/util/annotate\.hpp:' \
  | grep -v 'lint:allow-fence' || true)
if [ -n "$HITS" ]; then
  fail "raw std::atomic_thread_fence outside ajac/util/annotate.hpp (use per-element acquire/release orderings; TSan does not model fences):" "$HITS"
fi

# --- tsan-raw-ban ----------------------------------------------------------
HITS=$(grep -nE '__tsan_|__asan_|ASAN_(UN)?POISON_MEMORY_REGION|AnnotateHappensBefore|AnnotateHappensAfter|AnnotateBenignRace' \
  "${ALL_SOURCES[@]}" \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|\*)' \
  | grep -v '^src/util/include/ajac/util/annotate\.hpp:' || true)
if [ -n "$HITS" ]; then
  fail "raw sanitizer interface call outside ajac/util/annotate.hpp (use the AJAC_TSAN_* / AJAC_ASAN_* wrappers):" "$HITS"
fi

# --- pragma-once -----------------------------------------------------------
for h in "${ALL_HEADERS[@]}"; do
  if [ "$(grep -m1 '^#' "$h")" != "#pragma once" ]; then
    fail "header does not start with #pragma once: $h"
  fi
done

# --- no-using-std ----------------------------------------------------------
HITS=$(grep -n '^using namespace std' "${ALL_SOURCES[@]}" || true)
if [ -n "$HITS" ]; then
  fail "file-scope 'using namespace std':" "$HITS"
fi

# --- checked-entry ---------------------------------------------------------
# Translation units implementing public API entry points (exported solver /
# runtime / IO functions callable with externally produced data). Each must
# validate its inputs with AJAC_CHECK. Extend this list when adding an
# entry-point TU.
ENTRY_POINTS=(
  src/runtime/shared_jacobi.cpp
  src/solvers/stationary.cpp
  src/solvers/krylov.cpp
  src/distsim/dist_jacobi.cpp
  src/distsim/local_block.cpp
  src/sparse/csr.cpp
  src/sparse/coo.cpp
  src/sparse/mm_io.cpp
  src/partition/partition.cpp
  src/core/ajac.cpp
)
for tu in "${ENTRY_POINTS[@]}"; do
  if [ ! -f "$tu" ]; then
    fail "checked-entry list names a missing file (update tools/lint.sh): $tu"
  elif ! grep -qE 'AJAC_CHECK|throw std::' "$tu"; then
    fail "public entry-point TU has no input validation (AJAC_CHECK or explicit throw): $tu"
  fi
done

# --- fault-decisions -------------------------------------------------------
mapfile -t PROGRAM_SOURCES < <(find src bench examples \
  \( -name '*.cpp' -o -name '*.hpp' \) -type f | sort)
HITS=$(grep -nE 'duty_active\(|FaultClock::kBitFlip' "${PROGRAM_SOURCES[@]}" \
  | grep -vE '^src/(fault|distsim)/' || true)
if [ -n "$HITS" ]; then
  fail "fault decision outside src/fault and src/distsim (ask fault::ActorFaults instead of re-deriving it):" "$HITS"
fi

# --- concurrency-contract auditor ------------------------------------------
echo "lint: running tools/analyze/ajac_audit.py ..."
if ! python3 tools/analyze/ajac_audit.py; then
  FAILURES=$((FAILURES + 1))
fi

# --- clang-tidy ------------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  DB=""
  if [ -n "$BUILD_DIR" ] && [ -f "$BUILD_DIR/compile_commands.json" ]; then
    DB="$BUILD_DIR"
  elif [ -f build/compile_commands.json ]; then
    DB=build
  fi
  if [ -n "$DB" ]; then
    echo "lint: running clang-tidy (database: $DB) ..."
    mapfile -t TIDY_SOURCES < <(find src -name '*.cpp' -type f | sort)
    if ! clang-tidy -p "$DB" --quiet "${TIDY_SOURCES[@]}"; then
      FAILURES=$((FAILURES + 1))
    fi
  elif [ "$REQUIRE_TIDY" -eq 1 ]; then
    fail "--require-clang-tidy: no compile_commands.json (configure with cmake -DCMAKE_EXPORT_COMPILE_COMMANDS=ON first)"
  else
    echo "lint: clang-tidy found but no compile_commands.json (configure with cmake first); skipping tidy pass"
  fi
elif [ "$REQUIRE_TIDY" -eq 1 ]; then
  fail "--require-clang-tidy: clang-tidy not installed"
else
  echo "lint: clang-tidy not installed; running grep-based rules only"
fi

if [ "$FAILURES" -gt 0 ]; then
  echo "lint: FAILED ($FAILURES rule(s) violated)" >&2
  exit 1
fi
echo "lint: OK"
