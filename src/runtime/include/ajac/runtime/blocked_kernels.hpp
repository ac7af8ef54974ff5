#pragma once
// Fused relaxation kernels over the partition-aware BlockedCsr layout
// (sparse/blocked_csr.hpp) — the KernelKind::kBlocked path of solve_shared.
//
// The owning thread keeps a private mirror (OwnBlockState) of its own slice
// of the shared x: it is the only writer of those elements, so the mirror
// is exact by construction and local column reads need no atomics, no
// seqlock, and no cache-line ping-pong. Only ghost columns — values owned
// by other threads — go through the SharedVector (and the fault injector,
// which may serve frozen stale-window snapshots for exactly those columns).
//
// Bitwise contract with the reference kernels: every kernel accumulates a
// row's residual in the row's original CSR entry order (BlockedCsr
// preserves it), reads values that are bitwise those the reference path
// would read from the same vector state, evaluates the same
// `x + inv_diag * r` correction, and publishes it in ascending row order.
// The Jacobi kernels evaluate it as they relax, into the owner-only
// `next` slice, and commit_block publishes only the rows other blocks
// read (BlockedCsr::Block::export_runs); the rest of the block lives in
// the mirror until publish_private_rows writes it after the actor's
// loop. Given identical read
// values — guaranteed at num_threads=1 and in synchronous mode, where x is
// stable throughout step 1 — blocked and reference solves are bitwise
// identical. The kernel-equivalence suite (tests/runtime/kernel_equiv_*)
// holds this line.
//
// Faults template parameter: the per-thread fault context of the shared
// solver (solve_hooks.hpp): NullFaults compiles every hook away;
// ActiveFaults applies a fault::ActorFaults schedule to the vector. Bit
// flips index entries by their position within the row, which the blocked
// layout preserves, so the flip decision and the corrupted entry match the
// reference path exactly.
//
// Metrics template parameter (traced kernels only): the shared solver's
// per-thread recorder (solve_hooks.hpp), called unguarded. Without a
// registry its staleness hook returns at once and its retry_sink() is
// null, so the read loop records nothing and computes the same bits.

#include <cmath>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "ajac/model/trace.hpp"
#include "ajac/runtime/shared_vector.hpp"
#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/types.hpp"
#include "ajac/util/aligned.hpp"
#include "ajac/util/annotate.hpp"

namespace ajac::runtime {

/// A transiently corrupted matrix read: entry index within the row and the
/// value (one bit flipped) the relaxation uses instead of the stored one.
struct FlippedEntry {
  std::size_t entry = 0;
  double value = 0.0;
};

/// Thread-private mirror of the thread's own rows of the shared x. The
/// owner is the sole writer of those elements, so the mirror (and, when
/// tracing, the write-count mirror) is exact — local reads come from here.
/// The mirror arrays are guarded by the owner role: only the owning thread
/// (which claims `owner` at region entry) may touch them, and every kernel
/// below declares which roles it needs.
///
/// The arrays are UninitVectors: on staggered huge pages when large
/// (ajac/util/aligned.hpp), and sized without a fill, so the owner's first
/// write is their first touch. A large one may be a block recycled from
/// the allocator's cache, whose pages stay on the node of their first
/// toucher; one socket, one node, so on the hosts measured here that
/// does not matter. x and version are filled by refresh_own_block; every
/// Jacobi kernel stages every row of `next` before commit_block swaps it
/// in.
struct OwnBlockState {
  SoleWriterRole owner;  ///< claimed by the owning thread at region entry
  UninitVector<double> x AJAC_SOLE_WRITER(owner);  ///< x[lo..hi), kept exact
  /// The Jacobi step's corrected rows, staged during the relax pass and
  /// published (then swapped with x) by commit_block.
  UninitVector<double> next AJAC_SOLE_WRITER(owner);
  /// Commits per own row, private ones included: the version a traced
  /// read of the row records. The shared seqlock equals it on exported
  /// rows only. Empty when untraced.
  UninitVector<index_t> version AJAC_SOLE_WRITER(owner);
};

/// Load the mirror from the shared vector. Called once inside the
/// parallel region, before the first relaxation (first touch: the owning
/// thread allocates and fills its own mirror; `next` is first touched by
/// the first relax pass, on the same thread).
inline void refresh_own_block(const BlockedCsr::Block& blk,
                              const SharedVector& x, OwnBlockState& own)
    AJAC_REQUIRES(own.owner) {
  const auto rows = static_cast<std::size_t>(blk.num_rows());
  own.x.resize(rows);
  own.next.resize(rows);
  for (index_t i = blk.lo; i < blk.hi; ++i) {
    own.x[static_cast<std::size_t>(i - blk.lo)] = x.read(i);
  }
  if (x.traced()) {
    own.version.resize(rows);
    for (index_t i = blk.lo; i < blk.hi; ++i) {
      own.version[static_cast<std::size_t>(i - blk.lo)] = x.version(i);
    }
  }
}

/// Reload the mirror after a crash-with-state-reset fault wrote x0 to
/// every own row of the shared x behind the mirror's back. The values come
/// from x; each version advances by the one write the reset made. The
/// versions are not reloaded from x: the halo-only commit leaves the
/// shared seqlock of the unexported rows behind the mirror's count.
inline void reload_after_reset(const BlockedCsr::Block& blk,
                               const SharedVector& x, OwnBlockState& own)
    AJAC_REQUIRES(own.owner) {
  for (index_t i = blk.lo; i < blk.hi; ++i) {
    own.x[static_cast<std::size_t>(i - blk.lo)] = x.read(i);
  }
  for (auto& v : own.version) ++v;
}

/// Residual of interior row i — every column local, so the inner loop
/// touches only private arrays: no atomics, no seqlocks, no branches (the
/// fault hooks compile away under NullFaults), and a memory access
/// pattern the vectorizer can handle. Summation stays in CSR entry order;
/// only loads are vectorizable, never the accumulation order.
template <class Faults>
inline double interior_residual(const BlockedCsr::Block& blk,
                                const CsrMatrix& a, std::span<const double> b,
                                const OwnBlockState& own, Faults& faults,
                                index_t i) AJAC_REQUIRES_SHARED(own.owner) {
  const auto li = static_cast<std::size_t>(i - blk.lo);
  const auto begin = static_cast<std::size_t>(blk.row_ptr[li]);
  const auto end = static_cast<std::size_t>(blk.row_ptr[li + 1]);
  double acc = b[static_cast<std::size_t>(i)];
  if constexpr (Faults::enabled) {
    const auto row = a.row(i);
    FlippedEntry flipped;
    const bool has_flip = faults.flip(i, row.cols, row.vals, flipped);
    for (std::size_t p = begin; p < end; ++p) {
      double aij = blk.values[p];
      if (has_flip && p - begin == flipped.entry) aij = flipped.value;
      acc -= aij * own.x[static_cast<std::size_t>(blk.col_code[p])];
    }
  } else {
    for (std::size_t p = begin; p < end; ++p) {
      acc -= blk.values[p] * own.x[static_cast<std::size_t>(blk.col_code[p])];
    }
  }
  return acc;
}

/// Residuals of pattern run `run`'s rows, ascending, each handed to
/// `row(li, acc, inv_diag)`: row i's entries in CSR order at values[first
/// + (i - begin) * K + q] against mirror column li + offset q, and the
/// row's 1 / a_ii. No col_code or row_ptr load, and the K offsets sit in
/// registers. A uniform run's K values and 1 / a_ii sit in registers too,
/// loaded once from its first row, so a row loads only b and the mirror;
/// they are bitwise every row's own, so the products and the sum are the
/// per-row loop's. K is the run's width, a compile-time constant.
template <int K, class Row>
inline void sweep_pattern_run(const BlockedCsr::Block& blk,
                              const BlockedCsr::PatternRun& run,
                              std::span<const double> b, const double* x,
                              Row&& row) {
  BlockedCsr::code_t off[K];
  for (int q = 0; q < K; ++q) {
    off[q] = blk.pattern_offsets[static_cast<std::size_t>(run.offsets + q)];
  }
  const double* v = blk.values.data() + static_cast<std::size_t>(run.first);
  if (run.uniform) {
    double coef[K];
    for (int q = 0; q < K; ++q) coef[q] = v[q];
    const double inv =
        blk.inv_diag[static_cast<std::size_t>(run.begin - blk.lo)];
    for (index_t i = run.begin; i < run.end; ++i) {
      const auto li = static_cast<std::size_t>(i - blk.lo);
      const double* xl = x + li;
      double acc = b[static_cast<std::size_t>(i)];
      for (int q = 0; q < K; ++q) acc -= coef[q] * xl[off[q]];
      row(li, acc, inv);
    }
    return;
  }
  for (index_t i = run.begin; i < run.end; ++i, v += K) {
    const auto li = static_cast<std::size_t>(i - blk.lo);
    const double* xl = x + li;
    double acc = b[static_cast<std::size_t>(i)];
    for (int q = 0; q < K; ++q) acc -= v[q] * xl[off[q]];
    row(li, acc, blk.inv_diag[li]);
  }
}

/// Interior rows [begin, end) of the block, ascending, each residual
/// handed to `row(li, acc, inv_diag)`: rows of a pattern run of width 4
/// or 5 (the FD 5-point stencil's) through sweep_pattern_run, every other
/// row from `other(i)` with its stored 1 / a_ii. `cursor` indexes
/// blk.pattern_runs and moves past the runs swept; the runs ascend, so one
/// cursor serves a whole sweep of the block's interior runs in order.
template <class Other, class Row>
inline void sweep_interior(const BlockedCsr::Block& blk,
                           std::span<const double> b, const double* x,
                           index_t begin, index_t end, std::size_t& cursor,
                           Other&& other, Row&& row) {
  index_t i = begin;
  for (; cursor < blk.pattern_runs.size() &&
         blk.pattern_runs[cursor].begin < end;
       ++cursor) {
    const BlockedCsr::PatternRun& run = blk.pattern_runs[cursor];
    if (run.width != 4 && run.width != 5) continue;  // rows go to other()
    for (; i < run.begin; ++i) {
      const auto li = static_cast<std::size_t>(i - blk.lo);
      row(li, other(i), blk.inv_diag[li]);
    }
    if (run.width == 4) {
      sweep_pattern_run<4>(blk, run, b, x, row);
    } else {
      sweep_pattern_run<5>(blk, run, b, x, row);
    }
    i = run.end;
  }
  for (; i < end; ++i) {
    const auto li = static_cast<std::size_t>(i - blk.lo);
    row(li, other(i), blk.inv_diag[li]);
  }
}

/// Residual of own row i, interior or boundary: local entries from the
/// mirror, ghost entries through the injector (live relaxed-atomic reads,
/// or the frozen snapshot inside a stale window).
template <class Faults>
inline double own_row_residual(const BlockedCsr::Block& blk,
                               const CsrMatrix& a, std::span<const double> b,
                               const OwnBlockState& own, const SharedVector& x,
                               Faults& faults, index_t i)
    AJAC_REQUIRES_SHARED(own.owner) {
  const auto li = static_cast<std::size_t>(i - blk.lo);
  const auto begin = static_cast<std::size_t>(blk.row_ptr[li]);
  const auto end = static_cast<std::size_t>(blk.row_ptr[li + 1]);
  double acc = b[static_cast<std::size_t>(i)];
  FlippedEntry flipped;
  bool has_flip = false;
  if constexpr (Faults::enabled) {
    const auto row = a.row(i);
    has_flip = faults.flip(i, row.cols, row.vals, flipped);
  }
  for (std::size_t p = begin; p < end; ++p) {
    double aij = blk.values[p];
    if constexpr (Faults::enabled) {
      if (has_flip && p - begin == flipped.entry) aij = flipped.value;
    }
    const BlockedCsr::code_t code = blk.col_code[p];
    const double xj =
        BlockedCsr::is_ghost(code)
            ? faults.read(x, blk.ghost_cols[static_cast<std::size_t>(
                                 BlockedCsr::ghost_slot(code))])
            : own.x[static_cast<std::size_t>(code)];
    acc -= aij * xj;
  }
  return acc;
}

/// Stage own row li's Jacobi correction in the `next` slice: the
/// `x_i + inv_diag_i * r_i` of the reference step 2, with the exact mirror
/// read in place of x.read. commit_block publishes it. `inv_diag` is the
/// row's 1 / a_ii, or bitwise the same value held for a uniform run.
inline void stage_correction(OwnBlockState& own, std::size_t li,
                             double inv_diag, double acc)
    AJAC_REQUIRES(own.owner) {
  own.next[li] = own.x[li] + inv_diag * acc;
}

/// Jacobi relaxation of every row of the block: each row's residual is
/// turned into its staged correction at once, so the step streams the
/// matrix, b and 1/a_ii once and stores no residual. The rows go
/// in ascending order, one tight loop per run of one class (without bit
/// flips, one fixed-width loop per pattern run inside an interior run,
/// which streams neither values nor 1/a_ii when the run is uniform), and the
/// return value is the block's residual 1-norm summed in that order: the
/// actor's partial norm (terminator.hpp), bitwise the reference path's.
template <class Faults>
inline double relax_block(const BlockedCsr::Block& blk, const CsrMatrix& a,
                          std::span<const double> b, OwnBlockState& own,
                          const SharedVector& x, Faults& faults)
    AJAC_REQUIRES(own.owner) {
  double partial = 0.0;
  const auto stage = [&](std::size_t li, double acc, double inv_diag) {
    // Lambdas are analyzed as separate functions: re-claim the enclosing
    // kernel's role (held by its REQUIRES contract) for this body.
    own.owner.assert_held();
    stage_correction(own, li, inv_diag, acc);
    partial += std::abs(acc);
  };
  const auto interior = [&](index_t i) {
    own.owner.assert_held();
    return interior_residual(blk, a, b, own, faults, i);
  };
  std::size_t pattern = 0;  // cursor into blk.pattern_runs
  for (const BlockedCsr::RowRun& run : blk.runs) {
    if (run.boundary) {
      for (index_t i = run.begin; i < run.end; ++i) {
        const auto li = static_cast<std::size_t>(i - blk.lo);
        stage(li, own_row_residual(blk, a, b, own, x, faults, i),
              blk.inv_diag[li]);
      }
    } else if (faults.has_bit_flips()) {
      // Bit flips index a row's entries: keep the per-entry loop. Interior
      // rows read no ghost, so a plan without flips (stragglers, stale
      // windows, crashes) keeps the sweep below, bitwise the same.
      for (index_t i = run.begin; i < run.end; ++i) {
        const auto li = static_cast<std::size_t>(i - blk.lo);
        stage(li, interior(i), blk.inv_diag[li]);
      }
    } else {
      sweep_interior(blk, b, own.x.data(), run.begin, run.end, pattern,
                     interior, stage);
    }
  }
  return partial;
}

/// Commit the staged Jacobi step on the block: publish `next` to the shared
/// x on the exported rows only, ascending, make it the mirror, and count
/// the step in the version mirror. The one commit of the blocked, traced
/// and SELL Jacobi kernels. No other block reads an unexported row, so
/// those live in the mirror alone until publish_private_rows; the version
/// mirror counts every row's commits, which the shared seqlock matches on
/// the exported rows.
inline void commit_block(const BlockedCsr::Block& blk, OwnBlockState& own,
                         SharedVector& x)
    AJAC_REQUIRES(own.owner, x.writer_role()) {
  for (const BlockedCsr::RowRange& run : blk.export_runs) {
    for (index_t i = run.begin; i < run.end; ++i) {
      x.write(i, own.next[static_cast<std::size_t>(i - blk.lo)]);
    }
  }
  std::swap(own.x, own.next);
  for (auto& v : own.version) ++v;
}

/// Publish the rows commit_block keeps private (the gaps between the
/// export runs) from the mirror, once, after the actor's loop, so that
/// the shared x holds the final iterate for the epilogue. No other actor
/// reads these rows, so the late store races with nothing.
inline void publish_private_rows(const BlockedCsr::Block& blk,
                                 const OwnBlockState& own, SharedVector& x)
    AJAC_REQUIRES_SHARED(own.owner) AJAC_REQUIRES(x.writer_role()) {
  index_t i = blk.lo;
  for (const BlockedCsr::RowRange& run : blk.export_runs) {
    for (; i < run.begin; ++i) {
      x.write(i, own.x[static_cast<std::size_t>(i - blk.lo)]);
    }
    i = run.end;
  }
  for (; i < blk.hi; ++i) {
    x.write(i, own.x[static_cast<std::size_t>(i - blk.lo)]);
  }
}

/// b - A x over the block's rows, ascending, each row's entries in CSR
/// order (CsrMatrix::residual's expression, so the same x gives its bits),
/// each row's residual handed to `sink(li, acc)`: local columns from
/// `mirror` (x[lo..hi)), ghost column j from `ghost(j)`, with no fault
/// injection, and pattern runs through their fixed-width loop. The
/// prologue's r0 rows, the epilogue's final residual rows and
/// block_residual_1 all come from here.
template <class Ghost, class Sink>
inline void sweep_block_residual(const BlockedCsr::Block& blk,
                                 std::span<const double> b,
                                 const double* mirror, Ghost&& ghost,
                                 Sink&& sink) {
  const auto residual = [&](index_t i) {
    const auto li = static_cast<std::size_t>(i - blk.lo);
    double acc = b[static_cast<std::size_t>(i)];
    const auto end = static_cast<std::size_t>(blk.row_ptr[li + 1]);
    for (auto p = static_cast<std::size_t>(blk.row_ptr[li]); p < end; ++p) {
      const BlockedCsr::code_t code = blk.col_code[p];
      const double xj =
          BlockedCsr::is_ghost(code)
              ? ghost(blk.ghost_cols[static_cast<std::size_t>(
                    BlockedCsr::ghost_slot(code))])
              : mirror[code];
      acc -= blk.values[p] * xj;
    }
    return acc;
  };
  const auto row = [&](std::size_t li, double acc, double) { sink(li, acc); };
  std::size_t pattern = 0;  // cursor into blk.pattern_runs
  for (const BlockedCsr::RowRun& run : blk.runs) {
    if (run.boundary) {
      for (index_t i = run.begin; i < run.end; ++i) {
        sink(static_cast<std::size_t>(i - blk.lo), residual(i));
      }
    } else {
      sweep_interior(blk, b, mirror, run.begin, run.end, pattern, residual,
                     row);
    }
  }
}

/// ||b - A x||_1 over the block's rows, summed in ascending row order:
/// local columns from the mirror, ghosts live from x. The actor's share of
/// a verification round (terminator.hpp) on the blocked path.
inline double block_residual_1(const BlockedCsr::Block& blk,
                               std::span<const double> b,
                               const OwnBlockState& own, const SharedVector& x)
    AJAC_REQUIRES_SHARED(own.owner) {
  double norm = 0.0;
  sweep_block_residual(
      blk, b, own.x.data(), [&](index_t j) { return x.read(j); },
      [&](std::size_t, double acc) { norm += std::abs(acc); });
  return norm;
}

/// One in-place relaxation of own row i: residual from the latest
/// mirror/ghost values, then the correction committed immediately, so the
/// thread's later rows see it through the mirror and other threads through
/// x. Returns the residual. relax_block_gs applies it in ascending row
/// order.
template <class Faults>
inline double relax_row_in_place(const BlockedCsr::Block& blk,
                                 const CsrMatrix& a, std::span<const double> b,
                                 OwnBlockState& own, SharedVector& x,
                                 Faults& faults, index_t i)
    AJAC_REQUIRES(own.owner, x.writer_role()) {
  const auto li = static_cast<std::size_t>(i - blk.lo);
  const double acc = own_row_residual(blk, a, b, own, x, faults, i);
  const double nx = own.x[li] + blk.inv_diag[li] * acc;
  x.write(i, nx);
  own.x[li] = nx;
  return acc;
}

/// In-place forward Gauss-Seidel sweep over the block (ascending rows),
/// matching the reference sweep bitwise. Returns the partial norm, as
/// relax_block does.
template <class Faults>
inline double relax_block_gs(const BlockedCsr::Block& blk, const CsrMatrix& a,
                             std::span<const double> b, OwnBlockState& own,
                             SharedVector& x, Faults& faults)
    AJAC_REQUIRES(own.owner, x.writer_role()) {
  double partial = 0.0;
  for (index_t i = blk.lo; i < blk.hi; ++i) {
    partial += std::abs(relax_row_in_place(blk, a, b, own, x, faults, i));
  }
  return partial;
}

/// Traced relaxation (record_trace runs): like relax_block, but the
/// interior runs' rows first, then the boundary runs' (each class
/// ascending), pairing every off-diagonal read with its seqlock version
/// for the propagation analysis. Local reads take the
/// version from the mirror — the owner is the only writer, so the mirrored
/// count *is* the seqlock version, with none of the seqlock's retry
/// protocol. Stages each row's correction like relax_block and stores its
/// residual in `acc_out` (indexed by local row), from which the caller
/// sums the partial norm in ascending order.
template <class Faults, class Metrics>
inline void relax_traced(const BlockedCsr::Block& blk, const CsrMatrix& a,
                         std::span<const double> b, OwnBlockState& own,
                         const SharedVector& x, Faults& faults,
                         Metrics& metrics, index_t iter,
                         std::span<double> acc_out,
                         std::vector<model::RelaxationEvent>& events)
    AJAC_REQUIRES(own.owner) {
  auto relax_row = [&](index_t i) {
    // Lambdas are analyzed as separate functions: re-claim the enclosing
    // kernel's role (held by its REQUIRES contract) for this body.
    own.owner.assert_held();
    const auto li = static_cast<std::size_t>(i - blk.lo);
    const auto begin = static_cast<std::size_t>(blk.row_ptr[li]);
    const auto end = static_cast<std::size_t>(blk.row_ptr[li + 1]);
    model::RelaxationEvent event;
    event.row = i;
    event.reads.reserve(end - begin);
    double acc = b[static_cast<std::size_t>(i)];
    FlippedEntry flipped;
    bool has_flip = false;
    if constexpr (Faults::enabled) {
      const auto row = a.row(i);
      has_flip = faults.flip(i, row.cols, row.vals, flipped);
    }
    for (std::size_t p = begin; p < end; ++p) {
      double aij = blk.values[p];
      if constexpr (Faults::enabled) {
        if (has_flip && p - begin == flipped.entry) aij = flipped.value;
      }
      const BlockedCsr::code_t code = blk.col_code[p];
      if (!BlockedCsr::is_ghost(code)) {
        acc -= aij * own.x[static_cast<std::size_t>(code)];
        const index_t j = blk.lo + code;
        if (j == i) continue;
        const index_t version = own.version[static_cast<std::size_t>(code)];
        metrics.staleness(iter, version);
        event.reads.push_back({j, version});
        continue;
      }
      const index_t j =
          blk.ghost_cols[static_cast<std::size_t>(BlockedCsr::ghost_slot(code))];
      const auto [value, version] =
          faults.read_versioned(x, j, metrics.retry_sink());
      acc -= aij * value;
      metrics.staleness(iter, version);
      event.reads.push_back({j, version});
    }
    acc_out[li] = acc;
    stage_correction(own, li, blk.inv_diag[li], acc);
    events.push_back(std::move(event));
  };
  // Interior runs, then boundary runs: each class in ascending row order.
  for (const bool boundary : {false, true}) {
    for (const BlockedCsr::RowRun& run : blk.runs) {
      if (run.boundary != boundary) continue;
      for (index_t i = run.begin; i < run.end; ++i) relax_row(i);
    }
  }
}

}  // namespace ajac::runtime
