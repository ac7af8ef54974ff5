#pragma once
// Bandwidth-engineered relaxation kernels — the KernelKind::kSellCS path
// of solve_shared (the "rebuilt data plane" of the large-n experiments).
//
// Two coordinated changes over the blocked kernels, both aimed at the
// memory-bound regime (>= 10^7 unknowns, where a sweep streams the matrix
// from DRAM and the paper's async-beats-sync effect actually lives):
//
//   1. Dense ghost buffers. Instead of scattering a SharedVector (or
//      injector) read into the middle of every boundary row's gather, each
//      thread renumbers its ghost columns once (BlockedCsr::ghost_cols is
//      already the compact L2GMap-style table) and refreshes a dense
//      double buffer once per local iteration. Boundary rows then gather
//      unit-indexed from private memory; the shared cache lines are
//      touched ghost-count times per sweep, not ghost-nnz times.
//   2. SELL-C-sigma interior (sparse/sell_csr.hpp): slice-major
//      unit-stride value and index walks, no row pointers, and a software
//      prefetch of the next slice's x gathers.
//
// Bitwise contract: one thread or synchronous mode makes x stable
// throughout step 1, so the once-per-iteration ghost refresh reads
// exactly the values the blocked kernels' per-entry reads would, and
// the SELL slice accumulation visits each row's entries in CSR order (see
// sell_csr.hpp). kSellCS is then bit-identical to kBlocked — the contract
// the kernel-equivalence suite extends to this path. Asynchronously at
// multiple threads the refresh coarsens ghost staleness to iteration
// granularity, a legal asynchronous schedule (the model's staleness bound
// grows by at most one local iteration).
//
// Not composable (checked in solve_shared): fault plans, record_trace,
// local_gauss_seidel, and sampled row policies stay on the blocked path —
// their semantics are defined in terms of per-read injection/versioning,
// which the buffered data plane deliberately amortizes away.

#include <cstddef>
#include <span>

#include "ajac/runtime/blocked_kernels.hpp"
#include "ajac/runtime/shared_vector.hpp"
#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/sell_csr.hpp"
#include "ajac/sparse/types.hpp"
#include "ajac/util/annotate.hpp"

namespace ajac::runtime {

/// Portable software-prefetch hint (read, moderate temporal locality).
inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/2);
#else
  (void)p;
#endif
}

/// Refresh the dense ghost buffer from the authoritative fp64 vector: one
/// racy read per distinct ghost column per local iteration.
inline void refresh_ghosts(const BlockedCsr::Block& blk, const SharedVector& x,
                           std::span<double> ghosts) {
  for (std::size_t s = 0; s < blk.ghost_cols.size(); ++s) {
    ghosts[s] = x.read(blk.ghost_cols[s]);
  }
}

/// Residual on the SELL-packed interior rows. Slice-major: slice s of a
/// chunk streams cols/vals unit-stride and gathers from the private
/// mirror; because rows are sorted by descending length within the chunk,
/// the active rows of every slice are a prefix (`cnt`), so there are no
/// padding entries and no wasted flops. Each row's entries are consumed in
/// source CSR order (slice s == entry s), keeping the accumulation
/// bitwise the blocked kernel's. Each row's correction is staged like
/// relax_block's and its residual stored in `acc_out` (indexed by local
/// row); rows go in chunk order, so the caller sums the partial norm from
/// `acc_out` in a separate ascending pass.
inline void relax_interior_sell(const SellCsr::Block& sblk,
                                const BlockedCsr::Block& blk,
                                std::span<const double> b, OwnBlockState& own,
                                std::span<double> acc_out)
    AJAC_REQUIRES(own.owner) {
  const double* xs = own.x.data();
  const std::size_t limit = sblk.cols.size();
  const index_t packed = sblk.num_packed_rows();
  double acc[SellCsr::kChunk];
  for (index_t c = 0; c < sblk.num_chunks; ++c) {
    const index_t first = c * SellCsr::kChunk;
    const index_t nrows = std::min<index_t>(SellCsr::kChunk, packed - first);
    for (index_t rr = 0; rr < nrows; ++rr) {
      acc[rr] = b[static_cast<std::size_t>(
          sblk.rows[static_cast<std::size_t>(first + rr)])];
    }
    auto base = static_cast<std::size_t>(
        sblk.chunk_ptr[static_cast<std::size_t>(c)]);
    index_t cnt = nrows;
    const std::int32_t width =
        nrows > 0 ? sblk.row_len[static_cast<std::size_t>(first)] : 0;
    for (std::int32_t s = 0; s < width; ++s) {
      // Rows shorter than s + 1 drop off the back of the prefix.
      while (cnt > 0 &&
             sblk.row_len[static_cast<std::size_t>(first + cnt - 1)] <= s) {
        --cnt;
      }
      const std::size_t next = base + static_cast<std::size_t>(cnt);
      // Software prefetch of the next slice's x gathers: its column
      // offsets are the very next entries of the cols stream.
      if (next + static_cast<std::size_t>(cnt) <= limit) {
        for (index_t rr = 0; rr < cnt; ++rr) {
          prefetch_read(
              &xs[sblk.cols[next + static_cast<std::size_t>(rr)]]);
        }
      }
      for (index_t rr = 0; rr < cnt; ++rr) {
        const std::size_t p = base + static_cast<std::size_t>(rr);
        acc[rr] -= sblk.vals[p] * xs[sblk.cols[p]];
      }
      base = next;
    }
    for (index_t rr = 0; rr < nrows; ++rr) {
      const auto li = static_cast<std::size_t>(
          sblk.rows[static_cast<std::size_t>(first + rr)] - blk.lo);
      acc_out[li] = acc[rr];
      stage_correction(own, li, blk.inv_diag[li], acc[rr]);
    }
  }
}

/// Residual on the boundary rows with ghost entries gathered from the
/// dense per-thread ghost buffer (refreshed once per iteration) instead of
/// per-entry SharedVector reads. Local entries come from the mirror, like
/// own_row_residual; the correction and residual are kept like
/// relax_interior_sell's.
inline void relax_boundary_buffered(const BlockedCsr::Block& blk,
                                    std::span<const double> b,
                                    OwnBlockState& own,
                                    std::span<const double> ghosts,
                                    std::span<double> acc_out)
    AJAC_REQUIRES(own.owner) {
  for (const BlockedCsr::RowRun& run : blk.runs) {
    if (!run.boundary) continue;
    for (index_t i = run.begin; i < run.end; ++i) {
      const auto li = static_cast<std::size_t>(i - blk.lo);
      const auto begin = static_cast<std::size_t>(blk.row_ptr[li]);
      const auto end = static_cast<std::size_t>(blk.row_ptr[li + 1]);
      double acc = b[static_cast<std::size_t>(i)];
      for (std::size_t p = begin; p < end; ++p) {
        const BlockedCsr::code_t code = blk.col_code[p];
        const double xj =
            BlockedCsr::is_ghost(code)
                ? ghosts[static_cast<std::size_t>(
                      BlockedCsr::ghost_slot(code))]
                : own.x[static_cast<std::size_t>(code)];
        acc -= blk.values[p] * xj;
      }
      acc_out[li] = acc;
      stage_correction(own, li, blk.inv_diag[li], acc);
    }
  }
}

}  // namespace ajac::runtime
