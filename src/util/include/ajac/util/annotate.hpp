#pragma once
// Concurrency annotations: Clang thread-safety capabilities, ThreadSanitizer
// happens-before hooks, and spin-loop hints.
//
// The paper's shared-memory runtime deliberately relies on racy relaxed
// atomics ("writing or reading an aligned double is atomic on modern Intel
// processors", Sec. V). Those races are *intended* and must be
// distinguishable from accidental ones, so the whole suite can run under
// TSan with zero reports:
//
//  - All cross-thread data is std::atomic (TSan models C++ atomics
//    precisely; relaxed accesses are never data races).
//  - Synchronization TSan cannot see — OpenMP barriers implemented by
//    libgomp futexes, and the end-of-parallel-region join — is made
//    visible with the AJAC_TSAN_RELEASE/ACQUIRE pair below, which map to
//    the __tsan_release/__tsan_acquire runtime hooks and compile to
//    nothing otherwise.
//
// This header is also the single place allowed to touch low-level fence /
// annotation machinery: tools/lint.sh bans std::atomic_thread_fence and
// raw __tsan_* / __asan_* calls everywhere else, so every escape from the
// plain acquire/release discipline is greppable here. The AddressSanitizer
// poisoning hooks below live here for the same reason.

// TSan detection: GCC defines __SANITIZE_THREAD__; clang exposes it via
// __has_feature. AJAC_TSAN_ANNOTATE can be defined explicitly (the CMake
// AJAC_SANITIZE=thread preset does) to force the hooks on.
#if !defined(AJAC_TSAN_ANNOTATE)
#if defined(__SANITIZE_THREAD__)
#define AJAC_TSAN_ANNOTATE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AJAC_TSAN_ANNOTATE 1
#endif
#endif
#endif

#if defined(AJAC_TSAN_ANNOTATE) && AJAC_TSAN_ANNOTATE
#include <sanitizer/tsan_interface.h>

/// Publish all prior writes of this thread at `addr`. Pair with
/// AJAC_TSAN_ACQUIRE(addr) in the thread that reads them after an
/// out-of-band synchronization point (e.g. an OpenMP region join).
#define AJAC_TSAN_RELEASE(addr) __tsan_release(const_cast<void*>(static_cast<const volatile void*>(addr)))
#define AJAC_TSAN_ACQUIRE(addr) __tsan_acquire(const_cast<void*>(static_cast<const volatile void*>(addr)))

#else

#define AJAC_TSAN_RELEASE(addr) \
  do {                          \
  } while (false)
#define AJAC_TSAN_ACQUIRE(addr) \
  do {                          \
  } while (false)

#endif  // AJAC_TSAN_ANNOTATE

// ---------------------------------------------------------------------------
// AddressSanitizer poisoning. The large-block cache (ajac/util/aligned.hpp)
// keeps freed mappings mapped, so ASan would not see an access to one as
// a use after free; it poisons a block while the block sits in the cache
// and unpoisons it when it is handed out again. GCC defines
// __SANITIZE_ADDRESS__; clang exposes it via __has_feature.
#if !defined(AJAC_ASAN)
#if defined(__SANITIZE_ADDRESS__)
#define AJAC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AJAC_ASAN 1
#endif
#endif
#endif

#if defined(AJAC_ASAN) && AJAC_ASAN
#include <sanitizer/asan_interface.h>

/// Mark [addr, addr + bytes) unaddressable / addressable again.
#define AJAC_ASAN_POISON(addr, bytes) __asan_poison_memory_region((addr), (bytes))
#define AJAC_ASAN_UNPOISON(addr, bytes) \
  __asan_unpoison_memory_region((addr), (bytes))

#else

#define AJAC_ASAN_POISON(addr, bytes) \
  do {                                \
  } while (false)
#define AJAC_ASAN_UNPOISON(addr, bytes) \
  do {                                  \
  } while (false)

#endif  // AJAC_ASAN

// ---------------------------------------------------------------------------
// Clang thread-safety analysis (-Wthread-safety) attributes.
//
// The runtime's concurrency rules are ownership roles, not mutexes: each
// worker thread is the SOLE WRITER of its own rows of the shared vectors,
// of its private block mirror, and of its metrics slot, while any thread
// may read concurrently through the racy/seqlock protocols. -Wthread-safety
// cannot prove the seqlock's acquire/release choreography correct — that is
// the TSan stress suite's job — but it can prove the *role discipline*:
// every mutation flows through a path that explicitly claimed the
// sole-writer capability, so publishing outside the protocol methods or
// writing guarded state from an unclaimed context fails the dedicated CI
// build (CMake preset `thread-safety`, clang only). Roles are claimed with
// assert_held(): ownership is established by the row partition / the
// registry's threading contract, never by locking, so there is nothing to
// acquire at runtime and the assertion compiles to nothing.
//
// The macros expand to nothing outside clang, so the gcc tier-1 build is
// untouched.
#if defined(__clang__) && !defined(SWIG)
#define AJAC_TSA(x) __attribute__((x))
#else
#define AJAC_TSA(x)
#endif

/// Class attribute: instances of this type are capabilities ("role" — a
/// responsibility a thread claims, rather than a lock it takes).
#define AJAC_CAPABILITY(name) AJAC_TSA(capability(name))

/// Member attribute: reads require the capability shared, writes exclusive.
#define AJAC_GUARDED_BY(cap) AJAC_TSA(guarded_by(cap))
#define AJAC_PT_GUARDED_BY(cap) AJAC_TSA(pt_guarded_by(cap))

/// Sole-writer data: thread-private mirrors and single-writer metrics
/// slots. Alias of AJAC_GUARDED_BY, named for what the role means here.
#define AJAC_SOLE_WRITER(cap) AJAC_TSA(guarded_by(cap))

/// Function attributes: the caller must hold the capability (exclusively /
/// shared) for the duration of the call.
#define AJAC_REQUIRES(...) AJAC_TSA(requires_capability(__VA_ARGS__))
#define AJAC_REQUIRES_SHARED(...) \
  AJAC_TSA(requires_shared_capability(__VA_ARGS__))

/// Function attributes: calling acquires / releases the capability.
#define AJAC_ACQUIRE(...) AJAC_TSA(acquire_capability(__VA_ARGS__))
#define AJAC_ACQUIRE_SHARED(...) \
  AJAC_TSA(acquire_shared_capability(__VA_ARGS__))
#define AJAC_RELEASE(...) AJAC_TSA(release_capability(__VA_ARGS__))
#define AJAC_RELEASE_SHARED(...) \
  AJAC_TSA(release_shared_capability(__VA_ARGS__))

/// Function attributes: calling asserts the capability is held without
/// acquiring it — the claim step for partition-established ownership.
#define AJAC_ASSERT_CAPABILITY(...) AJAC_TSA(assert_capability(__VA_ARGS__))
#define AJAC_ASSERT_SHARED_CAPABILITY(...) \
  AJAC_TSA(assert_shared_capability(__VA_ARGS__))

/// Accessor attribute: this function returns a reference to the named
/// capability, so `obj.role()` and the member it returns unify.
#define AJAC_RETURN_CAPABILITY(cap) AJAC_TSA(lock_returned(cap))

/// Escape hatch; every use needs a comment saying why analysis is wrong.
#define AJAC_NO_THREAD_SAFETY_ANALYSIS AJAC_TSA(no_thread_safety_analysis)

namespace ajac {

/// Zero-state capability standing for "the current thread is the designated
/// sole writer of this object (or of its slice of a shared structure)".
/// Never locked: a worker claims the role with assert_held() once its
/// ownership is established out-of-band (the row partition, the metrics
/// registry's one-slot-per-worker contract), and the single-threaded setup
/// / teardown phases claim it the same way. assert_shared() is the
/// post-join read-side claim used when a single thread aggregates every
/// worker's slots.
struct AJAC_CAPABILITY("role") SoleWriterRole {
  void assert_held() const AJAC_ASSERT_CAPABILITY() {}
  void assert_shared() const AJAC_ASSERT_SHARED_CAPABILITY() {}
};

/// True when the TSan happens-before hooks are live (i.e. the build is
/// thread-sanitized or AJAC_TSAN_ANNOTATE was forced on).
#if defined(AJAC_TSAN_ANNOTATE) && AJAC_TSAN_ANNOTATE
inline constexpr bool tsan_enabled = true;
#else
inline constexpr bool tsan_enabled = false;
#endif

/// Polite busy-wait hint: tells the CPU (and SMT sibling) that this is a
/// spin loop. x86 PAUSE / ARM YIELD; no-op elsewhere.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace ajac
