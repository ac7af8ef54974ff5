#pragma once
// SELL-C-sigma interior layout for the bandwidth-engineered kernel path
// (KernelKind::kSellCS in the shared-memory runtime).
//
// A SellCsr repacks each BlockedCsr block's *interior* rows (all columns
// local — the SpMV-dominated bulk of a banded matrix) into sliced-ELL
// chunks of C = 8 rows. Within a sorting window of sigma rows the rows are
// ordered by descending nonzero count, so inside every chunk the rows with
// at least s + 1 entries form a prefix: slice s stores exactly those rows'
// s-th entries, contiguously, with no padding entries and no wasted
// multiply-by-zero flops (the beta = 1 packing of the SELL-C-sigma
// family). Column indices are the BlockedCsr's std::int32_t local
// offsets, copied in slice order. What the packing buys over the blocked
// CSR walk:
//
//   * values and indices are read unit-stride slice-major, a pattern the
//     vectorizer and the hardware prefetcher both handle, with an explicit
//     software prefetch of the next slice's x gathers layered on top (see
//     runtime/sell_kernels.hpp);
//   * row_ptr loads disappear — slice extents come from the sorted row
//     lengths, maintained as a running prefix count in the kernel.
//
// Bitwise contract: slice s of a row is entry s of that row in the source
// CSR order, so accumulating slice-by-slice sums each row's residual in
// exactly the order the blocked and reference kernels use. Given identical
// input values (one thread, or synchronous mode, with fp64 ghosts) the
// SELL interior produces bit-identical residuals; only the *order rows are
// visited in* changes, which step 1 of the Jacobi sweep cannot observe.
// The kernel-equivalence suite pins this down.
//
// Values are copied (reordered), unlike BlockedCsr's zero-copy aliasing:
// the permutation makes aliasing impossible. A SellCsr holds no reference
// to the source matrix or the BlockedCsr it was built from.
//
// Like BlockedCsr, construction first-touches each block's arrays from the
// OpenMP thread that will relax it (schedule(static, 1)).

#include <cstdint>
#include <vector>

#include "ajac/sparse/types.hpp"

namespace ajac {

class BlockedCsr;

class SellCsr {
 public:
  /// Rows per chunk. 8 doubles of accumulator fit one cache line / two AVX2
  /// registers; larger C wastes tail slices on the mostly-uniform FD rows.
  static constexpr index_t kChunk = 8;
  /// Default sorting window: large enough to find uniform-length runs,
  /// small enough that the row permutation stays local and the x gathers
  /// keep their banded locality.
  static constexpr index_t kDefaultSigma = 128;

  struct Block {
    index_t lo = 0;          ///< first row owned by this block
    index_t num_chunks = 0;  ///< ceil(rows.size() / kChunk)

    /// Interior rows in pack order: descending nnz within each sigma
    /// window, original order between windows. Global row ids.
    std::vector<index_t> rows;
    /// Entries of packed row p (row_len[p] == source row nnz). Within a
    /// chunk, non-increasing — the prefix property the kernel relies on.
    std::vector<std::int32_t> row_len;
    /// Entry offset of chunk c in cols/vals; chunk c occupies
    /// [chunk_ptr[c], chunk_ptr[c + 1]).
    std::vector<index_t> chunk_ptr;
    /// Local column offsets (global column - lo), slice-major within each
    /// chunk: slice s holds entry s of every chunk row with row_len > s,
    /// in pack order, prefix-packed with no padding.
    std::vector<std::int32_t> cols;
    /// Matrix values, same packing as cols (copied, reordered).
    std::vector<double> vals;

    [[nodiscard]] index_t num_packed_rows() const noexcept {
      return static_cast<index_t>(rows.size());
    }
  };

  SellCsr() = default;

  /// Repack the interior rows of every block of `blocked`. Boundary rows
  /// are untouched — the runtime keeps relaxing them through the blocked
  /// layout's ghost machinery. The int32 local offsets are BlockedCsr's
  /// own codes, whose range its construction checks.
  explicit SellCsr(const BlockedCsr& blocked,
                   index_t sigma = kDefaultSigma);

  [[nodiscard]] index_t num_blocks() const noexcept {
    return static_cast<index_t>(blocks_.size());
  }
  [[nodiscard]] const Block& block(index_t t) const {
    return blocks_[static_cast<std::size_t>(t)];
  }

 private:
  std::vector<Block> blocks_;
};

}  // namespace ajac
