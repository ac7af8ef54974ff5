// Property-based tests for the SELL-C-sigma interior repack (SellCsr):
// ~200 seeded random sparsity patterns x random contiguous partitions x
// random sorting windows per property. Seeds derive from
// ajac::testing::test_seed(), so AJAC_TEST_SEED explores fresh draws and
// any failure names the seed that reproduces it.
//
// The load-bearing contract (see sell_csr.hpp): slice s of a packed row is
// entry s of that row in source CSR order, rows permute only within their
// sigma window, and within every chunk the row lengths are non-increasing
// so each slice's active rows are a prefix. The kernel's correctness — and
// its bitwise equivalence to the blocked path — rests on exactly these
// invariants.

#include "ajac/sparse/sell_csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/coo.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/util/rng.hpp"
#include "test_helpers.hpp"

namespace ajac {
namespace {

constexpr int kCases = 200;

/// Random square matrix, same family as the BlockedCsr properties:
/// arbitrary sparsity, diagonal present on a random subset of rows only.
CsrMatrix random_matrix(Rng& rng) {
  const index_t n = 1 + static_cast<index_t>(rng.uniform_index(24));
  CooBuilder coo(n, n);
  const auto entries = rng.uniform_index(
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) + 1);
  for (std::uint64_t k = 0; k < entries; ++k) {
    coo.add(static_cast<index_t>(rng.uniform_index(n)),
            static_cast<index_t>(rng.uniform_index(n)),
            rng.uniform(-2.0, 2.0));
  }
  for (index_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.6) coo.add(i, i, rng.uniform(0.5, 4.0));
  }
  return coo.to_csr();
}

std::vector<index_t> random_block_starts(Rng& rng, index_t n) {
  const auto parts = 1 + rng.uniform_index(6);
  std::vector<index_t> starts{0};
  for (std::uint64_t p = 1; p < parts; ++p) {
    starts.push_back(static_cast<index_t>(
        rng.uniform_index(static_cast<std::uint64_t>(n) + 1)));
  }
  std::sort(starts.begin(), starts.end());
  starts.push_back(n);
  return starts;
}

/// Random sigma including values below kChunk and non-multiples (the
/// constructor must clamp and align them).
index_t random_sigma(Rng& rng) {
  return 1 + static_cast<index_t>(rng.uniform_index(40));
}

/// Reconstruct packed row p of `sblk` from the slice-major streams: slice
/// s of chunk c holds entry s of every chunk row with row_len > s, in pack
/// order, prefix-packed. Returns (cols, vals) in entry order.
std::pair<std::vector<std::int32_t>, std::vector<double>> unpack_row(
    const SellCsr::Block& sblk, index_t p) {
  const index_t c = p / SellCsr::kChunk;
  const index_t first = c * SellCsr::kChunk;
  const index_t rows_in_chunk =
      std::min<index_t>(SellCsr::kChunk, sblk.num_packed_rows() - first);
  std::pair<std::vector<std::int32_t>, std::vector<double>> out;
  auto pos = static_cast<std::size_t>(
      sblk.chunk_ptr[static_cast<std::size_t>(c)]);
  const std::int32_t width = sblk.row_len[static_cast<std::size_t>(first)];
  for (std::int32_t s = 0; s < width; ++s) {
    index_t cnt = 0;
    while (cnt < rows_in_chunk &&
           sblk.row_len[static_cast<std::size_t>(first + cnt)] > s) {
      ++cnt;
    }
    if (sblk.row_len[static_cast<std::size_t>(p)] > s) {
      const auto at = pos + static_cast<std::size_t>(p - first);
      out.first.push_back(sblk.cols[at]);
      out.second.push_back(sblk.vals[at]);
    }
    pos += static_cast<std::size_t>(cnt);
  }
  return out;
}

TEST(PropSellCsr, PackRoundTripReproducesEveryInteriorRow) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(9000 + static_cast<std::uint64_t>(c)));
    const CsrMatrix a = random_matrix(rng);
    const auto starts = random_block_starts(rng, a.num_rows());
    const BlockedCsr blocked(a, starts);
    const SellCsr sell(blocked, random_sigma(rng));
    ASSERT_EQ(sell.num_blocks(), blocked.num_blocks());
    for (index_t t = 0; t < sell.num_blocks(); ++t) {
      const auto& sblk = sell.block(t);
      const auto& blk = blocked.block(t);
      ASSERT_EQ(sblk.lo, blk.lo);
      ASSERT_EQ(static_cast<std::size_t>(sblk.num_packed_rows()),
                testing::rows_of_class(blk, false).size());
      for (index_t p = 0; p < sblk.num_packed_rows(); ++p) {
        const index_t i = sblk.rows[static_cast<std::size_t>(p)];
        const auto [cols, vals] = unpack_row(sblk, p);
        const auto src_cols = a.row_cols(i);
        const auto src_vals = a.row_values(i);
        ASSERT_EQ(cols.size(), src_cols.size()) << "row " << i;
        for (std::size_t e = 0; e < cols.size(); ++e) {
          // Interior rows have only local columns; the stored int32 offset
          // must decode back to the source column, in source entry order.
          ASSERT_EQ(sblk.lo + static_cast<index_t>(cols[e]), src_cols[e])
              << "row " << i << " entry " << e;
          ASSERT_EQ(vals[e], src_vals[e]) << "row " << i << " entry " << e;
        }
      }
    }
  }
}

TEST(PropSellCsr, ChunkInvariantsHold) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(10000 + static_cast<std::uint64_t>(c)));
    const CsrMatrix a = random_matrix(rng);
    const auto starts = random_block_starts(rng, a.num_rows());
    const BlockedCsr blocked(a, starts);
    const index_t sigma = random_sigma(rng);
    const SellCsr sell(blocked, sigma);
    // The constructor aligns sigma to a chunk multiple (>= one chunk).
    const index_t eff_sigma =
        std::max<index_t>(SellCsr::kChunk,
                          sigma - sigma % SellCsr::kChunk);
    for (index_t t = 0; t < sell.num_blocks(); ++t) {
      const auto& sblk = sell.block(t);
      const auto& blk = blocked.block(t);
      const index_t packed = sblk.num_packed_rows();
      ASSERT_EQ(sblk.num_chunks,
                (packed + SellCsr::kChunk - 1) / SellCsr::kChunk);
      ASSERT_EQ(sblk.chunk_ptr.size(),
                static_cast<std::size_t>(sblk.num_chunks) + 1);
      // rows is the interior runs' rows, ascending, permuted within sigma
      // windows only: each window holds the same row set, sorted by
      // non-increasing length.
      const std::vector<index_t> interior = testing::rows_of_class(blk, false);
      ASSERT_EQ(static_cast<std::size_t>(packed), interior.size());
      for (index_t w = 0; w < packed; w += eff_sigma) {
        const index_t end = std::min(w + eff_sigma, packed);
        std::vector<index_t> window(
            sblk.rows.begin() + w, sblk.rows.begin() + end);
        std::vector<index_t> source(interior.begin() + w,
                                    interior.begin() + end);
        std::sort(window.begin(), window.end());
        std::sort(source.begin(), source.end());
        ASSERT_EQ(window, source) << "window at " << w;
      }
      std::size_t total = 0;
      for (index_t p = 0; p < packed; ++p) {
        const index_t i = sblk.rows[static_cast<std::size_t>(p)];
        const auto li = static_cast<std::size_t>(i - blk.lo);
        // Stored lengths are the source row lengths...
        ASSERT_EQ(sblk.row_len[static_cast<std::size_t>(p)],
                  blk.row_ptr[li + 1] - blk.row_ptr[li]);
        total += static_cast<std::size_t>(
            sblk.row_len[static_cast<std::size_t>(p)]);
        // ...and non-increasing inside every chunk (the prefix property
        // the kernel's running count relies on).
        if (p % SellCsr::kChunk != 0) {
          ASSERT_LE(sblk.row_len[static_cast<std::size_t>(p)],
                    sblk.row_len[static_cast<std::size_t>(p - 1)])
              << "packed row " << p;
        }
      }
      // beta = 1: no padding entries anywhere.
      ASSERT_EQ(sblk.cols.size(), total);
      ASSERT_EQ(sblk.vals.size(), total);
      ASSERT_EQ(static_cast<std::size_t>(
                    sblk.chunk_ptr[static_cast<std::size_t>(sblk.num_chunks)]),
                total);
      // chunk_ptr extents equal the sum of the chunk's row lengths.
      for (index_t cc = 0; cc < sblk.num_chunks; ++cc) {
        const index_t first = cc * SellCsr::kChunk;
        const index_t last = std::min(first + SellCsr::kChunk, packed);
        std::int64_t chunk_nnz = 0;
        for (index_t p = first; p < last; ++p) {
          chunk_nnz += sblk.row_len[static_cast<std::size_t>(p)];
        }
        ASSERT_EQ(sblk.chunk_ptr[static_cast<std::size_t>(cc) + 1] -
                      sblk.chunk_ptr[static_cast<std::size_t>(cc)],
                  chunk_nnz)
            << "chunk " << cc;
      }
    }
  }
}

TEST(PropSellCsr, DegenerateShapesAreHandled) {
  {
    // Identity: every row interior, all rows length 1.
    const CsrMatrix a = csr_identity(4);
    const BlockedCsr blocked(a, std::vector<index_t>{0, 4});
    const SellCsr sell(blocked);
    ASSERT_EQ(sell.num_blocks(), 1);
    EXPECT_EQ(sell.block(0).num_packed_rows(), 4);
    EXPECT_EQ(sell.block(0).cols.size(), 4U);
  }
  {
    // One row per block on a tridiagonal matrix: no interior rows at all,
    // every SELL block is empty.
    CooBuilder coo(5, 5);
    for (index_t i = 0; i < 5; ++i) {
      coo.add(i, i, 2.0);
      if (i > 0) coo.add(i, i - 1, -1.0);
      if (i < 4) coo.add(i, i + 1, -1.0);
    }
    const BlockedCsr blocked(coo.to_csr(),
                             std::vector<index_t>{0, 1, 2, 3, 4, 5});
    const SellCsr sell(blocked);
    for (index_t t = 0; t < 5; ++t) {
      EXPECT_EQ(sell.block(t).num_packed_rows(), 0);
      EXPECT_EQ(sell.block(t).num_chunks, 0);
      EXPECT_TRUE(sell.block(t).cols.empty());
    }
  }
  {
    // Empty blocks in the partition are preserved as empty SELL blocks.
    const CsrMatrix a = csr_identity(4);
    const BlockedCsr blocked(a, std::vector<index_t>{0, 0, 4, 4, 4});
    const SellCsr sell(blocked);
    ASSERT_EQ(sell.num_blocks(), 4);
    EXPECT_EQ(sell.block(0).num_packed_rows(), 0);
    EXPECT_EQ(sell.block(1).num_packed_rows(), 4);
    EXPECT_EQ(sell.block(3).num_packed_rows(), 0);
  }
}

}  // namespace
}  // namespace ajac
