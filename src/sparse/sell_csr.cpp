#include "ajac/sparse/sell_csr.hpp"

#include <algorithm>
#include <numeric>

#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/util/annotate.hpp"

namespace ajac {

namespace {

/// Repack one block's interior rows. Runs on the thread that will later
/// relax the block (first touch).
SellCsr::Block build_block(const BlockedCsr::Block& src, index_t sigma) {
  SellCsr::Block blk;
  blk.lo = src.lo;

  // The interior rows, ascending: every row of the block's interior runs.
  for (const BlockedCsr::RowRun& run : src.runs) {
    if (run.boundary) continue;
    for (index_t i = run.begin; i < run.end; ++i) blk.rows.push_back(i);
  }
  const auto num_interior = static_cast<index_t>(blk.rows.size());

  // Sort by descending nnz inside each sigma window (stable: equal-length
  // rows keep their banded order, preserving x-gather locality).
  const auto row_nnz = [&src](index_t i) {
    const auto li = static_cast<std::size_t>(i - src.lo);
    return src.row_ptr[li + 1] - src.row_ptr[li];
  };
  for (index_t w = 0; w < num_interior; w += sigma) {
    const index_t end = std::min(w + sigma, num_interior);
    std::stable_sort(blk.rows.begin() + w, blk.rows.begin() + end,
                     [&row_nnz](index_t i1, index_t i2) {
                       return row_nnz(i1) > row_nnz(i2);
                     });
  }

  blk.row_len.resize(static_cast<std::size_t>(num_interior));
  std::size_t total = 0;
  for (std::size_t p = 0; p < blk.rows.size(); ++p) {
    blk.row_len[p] = row_nnz(blk.rows[p]);
    total += static_cast<std::size_t>(blk.row_len[p]);
  }

  blk.num_chunks = (num_interior + SellCsr::kChunk - 1) / SellCsr::kChunk;
  blk.chunk_ptr.resize(static_cast<std::size_t>(blk.num_chunks) + 1, 0);
  blk.cols.resize(total);
  blk.vals.resize(total);

  // Slice-major prefix packing: within chunk c, slice s holds entry s of
  // every chunk row whose length exceeds s. Row lengths are non-increasing
  // inside the chunk (sorted above — a window never straddles a chunk
  // boundary because sigma is a multiple of kChunk; checked by the caller),
  // so those rows are a prefix and each slice is contiguous in pack order.
  std::size_t out = 0;
  for (index_t c = 0; c < blk.num_chunks; ++c) {
    blk.chunk_ptr[static_cast<std::size_t>(c)] = static_cast<index_t>(out);
    const auto first = static_cast<std::size_t>(c * SellCsr::kChunk);
    const auto rows_in_chunk = static_cast<std::size_t>(
        std::min<index_t>(SellCsr::kChunk, num_interior - c * SellCsr::kChunk));
    const std::int32_t width = blk.row_len[first];  // longest row leads
    for (std::int32_t s = 0; s < width; ++s) {
      for (std::size_t p = first; p < first + rows_in_chunk; ++p) {
        if (blk.row_len[p] <= s) break;  // prefix property: rest are shorter
        const index_t i = blk.rows[p];
        const auto li = static_cast<std::size_t>(i - src.lo);
        const auto entry =
            static_cast<std::size_t>(src.row_ptr[li]) +
            static_cast<std::size_t>(s);
        // Interior rows have no ghost entries: every code is a local offset.
        blk.cols[out] = src.col_code[entry];
        blk.vals[out] = src.values[entry];
        ++out;
      }
    }
  }
  blk.chunk_ptr[static_cast<std::size_t>(blk.num_chunks)] =
      static_cast<index_t>(out);
  return blk;
}

}  // namespace

SellCsr::SellCsr(const BlockedCsr& blocked, index_t sigma) {
  if (sigma < kChunk) sigma = kChunk;
  sigma -= sigma % kChunk;  // windows must align with chunk boundaries
  const index_t num_blocks = blocked.num_blocks();
  blocks_.resize(static_cast<std::size_t>(num_blocks));

  // Same static schedule as solve_shared's parallel region, so first touch
  // places each block's arrays near its relaxing thread; same explicit
  // TSan fork/join edges as BlockedCsr's fill.
  AJAC_TSAN_RELEASE(&blocks_);
#pragma omp parallel for schedule(static, 1)
  for (index_t t = 0; t < num_blocks; ++t) {
    AJAC_TSAN_ACQUIRE(&blocks_);
    blocks_[static_cast<std::size_t>(t)] = build_block(blocked.block(t), sigma);
    AJAC_TSAN_RELEASE(&blocks_);
  }
  AJAC_TSAN_ACQUIRE(&blocks_);
}

}  // namespace ajac
