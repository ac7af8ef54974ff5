// Property-based tests for the partition-aware BlockedCsr layout:
// ~200 seeded random sparsity patterns x random (possibly degenerate)
// contiguous partitions per property. Seeds derive from
// ajac::testing::test_seed(), so AJAC_TEST_SEED explores fresh draws and
// any failure names the seed that reproduces it.

#include "ajac/sparse/blocked_csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ajac/gen/fd.hpp"
#include "ajac/gen/fe.hpp"
#include "ajac/sparse/coo.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/scaling.hpp"
#include "ajac/util/rng.hpp"
#include "test_helpers.hpp"

namespace ajac {
namespace {

constexpr int kCases = 200;

/// Random square matrix: arbitrary sparsity (duplicates summed by the
/// builder), diagonal entries present on a random subset of rows only —
/// BlockedCsr must not require a full diagonal. Sizes start at n = 1 so
/// singleton rows and 1x1 matrices are drawn regularly.
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

/// Random contiguous block starts over [0, n]: sorted cut points with
/// repeats allowed, so empty blocks occur all the time.
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

TEST(PropBlockedCsr, ReassemblyReproducesTheOriginalExactly) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(5000 + static_cast<std::uint64_t>(c)));
    const CsrMatrix a = random_matrix(rng);
    const auto starts = random_block_starts(rng, a.num_rows());
    const BlockedCsr blocked(a, starts);
    ASSERT_EQ(blocked.num_rows(), a.num_rows());
    ASSERT_EQ(blocked.num_cols(), a.num_cols());
    ASSERT_EQ(blocked.num_nonzeros(), a.num_nonzeros());
    ASSERT_EQ(blocked.num_blocks(),
              static_cast<index_t>(starts.size()) - 1);
    // The split is lossless: decoding every (block, code) pair gives back
    // the source matrix bit for bit, entry order included.
    ASSERT_EQ(blocked.reassemble(), a);
  }
}

TEST(PropBlockedCsr, InteriorRowsProvablyHaveNoGhostColumns) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(6000 + static_cast<std::uint64_t>(c)));
    const CsrMatrix a = random_matrix(rng);
    const auto starts = random_block_starts(rng, a.num_rows());
    const BlockedCsr blocked(a, starts);
    for (index_t t = 0; t < blocked.num_blocks(); ++t) {
      const auto& blk = blocked.block(t);
      // The interior and boundary runs' rows, merged, are exactly the
      // block's row range, ascending, with no row in both classes.
      const std::vector<index_t> interior = testing::rows_of_class(blk, false);
      const std::vector<index_t> boundary = testing::rows_of_class(blk, true);
      std::vector<index_t> merged;
      std::merge(interior.begin(), interior.end(), boundary.begin(),
                 boundary.end(), std::back_inserter(merged));
      ASSERT_EQ(merged.size(), static_cast<std::size_t>(blk.num_rows()));
      for (std::size_t k = 0; k < merged.size(); ++k) {
        ASSERT_EQ(merged[k], blk.lo + static_cast<index_t>(k));
      }
      const auto row_has_ghost = [&](index_t i) {
        const auto li = static_cast<std::size_t>(i - blk.lo);
        for (index_t p = blk.row_ptr[li]; p < blk.row_ptr[li + 1]; ++p) {
          if (BlockedCsr::is_ghost(blk.col_code[static_cast<std::size_t>(p)]))
            return true;
        }
        return false;
      };
      for (const index_t i : interior) {
        ASSERT_FALSE(row_has_ghost(i)) << "interior row " << i;
      }
      for (const index_t i : boundary) {
        ASSERT_TRUE(row_has_ghost(i)) << "boundary row " << i;
      }
    }
  }
}

TEST(PropBlockedCsr, CodesDecodeToTheOriginalColumns) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(7000 + static_cast<std::uint64_t>(c)));
    const CsrMatrix a = random_matrix(rng);
    const auto starts = random_block_starts(rng, a.num_rows());
    const BlockedCsr blocked(a, starts);
    index_t local_total = 0;
    index_t ghost_total = 0;
    for (index_t t = 0; t < blocked.num_blocks(); ++t) {
      const auto& blk = blocked.block(t);
      ASSERT_TRUE(std::is_sorted(blk.ghost_cols.begin(),
                                 blk.ghost_cols.end()));
      ASSERT_EQ(std::adjacent_find(blk.ghost_cols.begin(),
                                   blk.ghost_cols.end()),
                blk.ghost_cols.end());
      for (const index_t g : blk.ghost_cols) {
        ASSERT_TRUE(g < blk.lo || g >= blk.hi)
            << "ghost column " << g << " inside [" << blk.lo << ", "
            << blk.hi << ")";
      }
      for (index_t i = blk.lo; i < blk.hi; ++i) {
        const auto li = static_cast<std::size_t>(i - blk.lo);
        const auto cols = a.row_cols(i);
        const auto vals = a.row_values(i);
        ASSERT_EQ(static_cast<std::size_t>(blk.row_ptr[li + 1] -
                                           blk.row_ptr[li]),
                  cols.size());
        for (std::size_t p = 0; p < cols.size(); ++p) {
          const auto bp = static_cast<std::size_t>(blk.row_ptr[li]) + p;
          const index_t code = blk.col_code[bp];
          const index_t decoded =
              BlockedCsr::is_ghost(code)
                  ? blk.ghost_cols[static_cast<std::size_t>(
                        BlockedCsr::ghost_slot(code))]
                  : blk.lo + code;
          ASSERT_EQ(decoded, cols[p]) << "row " << i << " entry " << p;
          ASSERT_EQ(blk.values[bp], vals[p]) << "row " << i << " entry " << p;
        }
      }
      local_total += blk.local_nnz;
      ghost_total += blk.ghost_nnz;
      ASSERT_EQ(blk.local_nnz + blk.ghost_nnz,
                blk.row_ptr[static_cast<std::size_t>(blk.num_rows())]);
    }
    ASSERT_EQ(local_total + ghost_total, a.num_nonzeros());
  }
}

TEST(PropBlockedCsr, InvDiagMatchesTheStoredDiagonal) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(8000 + static_cast<std::uint64_t>(c)));
    const CsrMatrix a = random_matrix(rng);
    const auto starts = random_block_starts(rng, a.num_rows());
    const BlockedCsr blocked(a, starts);
    for (index_t t = 0; t < blocked.num_blocks(); ++t) {
      const auto& blk = blocked.block(t);
      for (index_t i = blk.lo; i < blk.hi; ++i) {
        const double d = a.at(i, i);
        const double expected = d != 0.0 ? 1.0 / d : 0.0;
        ASSERT_EQ(blk.inv_diag[static_cast<std::size_t>(i - blk.lo)],
                  expected)
            << "row " << i;
      }
    }
  }
}

TEST(PropBlockedCsr, DegenerateShapesAreHandled) {
  // Deterministic edge cases on top of the random sweeps: all-empty
  // blocks, a single all-of-the-matrix block, a 1x1 matrix, and one block
  // per row (every off-diagonal entry a ghost).
  {
    const CsrMatrix a = csr_identity(4);
    const BlockedCsr blocked(a, std::vector<index_t>{0, 0, 4, 4, 4});
    ASSERT_EQ(blocked.num_blocks(), 4);
    EXPECT_EQ(blocked.block(0).num_rows(), 0);
    EXPECT_EQ(blocked.block(1).num_rows(), 4);
    EXPECT_EQ(blocked.block(2).num_rows(), 0);
    EXPECT_EQ(blocked.block(3).num_rows(), 0);
    EXPECT_EQ(blocked.reassemble(), a);
    EXPECT_TRUE(testing::rows_of_class(blocked.block(1), true).empty());
  }
  {
    CooBuilder coo(1, 1);
    coo.add(0, 0, 2.5);
    const CsrMatrix a = coo.to_csr();
    const BlockedCsr blocked(a, std::vector<index_t>{0, 1});
    ASSERT_EQ(blocked.num_blocks(), 1);
    EXPECT_EQ(testing::rows_of_class(blocked.block(0), false),
              std::vector<index_t>{0});
    EXPECT_EQ(blocked.block(0).inv_diag[0], 1.0 / 2.5);
    EXPECT_EQ(blocked.reassemble(), a);
  }
  {
    // Tridiagonal with one row per block: both neighbors of every interior
    // row are ghosts, so every row with an off-diagonal entry is boundary.
    CooBuilder coo(5, 5);
    for (index_t i = 0; i < 5; ++i) {
      coo.add(i, i, 2.0);
      if (i > 0) coo.add(i, i - 1, -1.0);
      if (i < 4) coo.add(i, i + 1, -1.0);
    }
    const CsrMatrix a = coo.to_csr();
    const BlockedCsr blocked(a, std::vector<index_t>{0, 1, 2, 3, 4, 5});
    for (index_t t = 0; t < 5; ++t) {
      EXPECT_TRUE(testing::rows_of_class(blocked.block(t), false).empty());
      EXPECT_EQ(testing::rows_of_class(blocked.block(t), true),
                std::vector<index_t>{t});
    }
    EXPECT_EQ(blocked.reassemble(), a);
  }
}

TEST(PropBlockedCsr, RunsTileEachBlockInMaximalAlternatingRanges) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(9000 + static_cast<std::uint64_t>(c)));
    const CsrMatrix a = random_matrix(rng);
    const auto starts = random_block_starts(rng, a.num_rows());
    const BlockedCsr blocked(a, starts);
    for (index_t t = 0; t < blocked.num_blocks(); ++t) {
      SCOPED_TRACE(::testing::Message() << "block " << t);
      const auto& blk = blocked.block(t);
      if (blk.num_rows() == 0) {
        ASSERT_TRUE(blk.runs.empty());
        continue;
      }
      ASSERT_FALSE(blk.runs.empty());
      // Tiling: non-empty runs, each starting where the last one ended,
      // from lo to hi.
      index_t next = blk.lo;
      for (std::size_t k = 0; k < blk.runs.size(); ++k) {
        const auto& run = blk.runs[k];
        ASSERT_EQ(run.begin, next) << "run " << k;
        ASSERT_LT(run.begin, run.end) << "run " << k;
        // Maximal: neighbouring runs differ in class, so no two merge.
        if (k > 0) {
          ASSERT_NE(run.boundary, blk.runs[k - 1].boundary) << "run " << k;
        }
        next = run.end;
      }
      ASSERT_EQ(next, blk.hi);
    }
  }
}

/// Whether interior row i of `blk` (i > lo, row i - 1 interior too)
/// repeats row i - 1 shifted by one: same length, every code one more.
/// Brute force from the encoding, independent of the builder's chaining.
bool repeats_previous_row(const BlockedCsr::Block& blk, index_t i) {
  const auto li = static_cast<std::size_t>(i - blk.lo);
  const index_t prev = blk.row_ptr[li - 1];
  const index_t begin = blk.row_ptr[li];
  const index_t end = blk.row_ptr[li + 1];
  if (end - begin != begin - prev) return false;
  for (index_t q = 0; q < end - begin; ++q) {
    if (blk.col_code[static_cast<std::size_t>(begin + q)] !=
        blk.col_code[static_cast<std::size_t>(prev + q)] + 1) {
      return false;
    }
  }
  return true;
}

/// Check `blk`'s pattern runs against its encoding and return the number
/// of rows they cover:
///   * each run lies inside one interior RowRun; runs ascend, disjoint;
///   * each run holds >= 2 rows;
///   * for every run row, li + offset q and the value slice decode to its
///     col_code and values entries, entry for entry;
///   * the runs are exactly the maximal chains of >= 2 interior rows that
///     repeat their predecessor, so a row with no repeat falls back to
///     col_code and no repeating pair is left out.
index_t check_pattern_runs(const BlockedCsr::Block& blk) {
  std::vector<std::pair<index_t, index_t>> expected;
  for (const auto& run : blk.runs) {
    if (run.boundary) continue;
    index_t chain = run.begin;
    for (index_t i = run.begin + 1; i <= run.end; ++i) {
      if (i < run.end && repeats_previous_row(blk, i)) continue;
      if (i - chain >= 2) expected.emplace_back(chain, i);
      chain = i;
    }
  }
  std::vector<std::pair<index_t, index_t>> got;
  index_t covered = 0;
  std::size_t k = 0;  // the interior run holding pattern run r
  for (std::size_t r = 0; r < blk.pattern_runs.size(); ++r) {
    SCOPED_TRACE(::testing::Message() << "pattern run " << r);
    const auto& pr = blk.pattern_runs[r];
    got.emplace_back(pr.begin, pr.end);
    EXPECT_GE(pr.end - pr.begin, 2);
    if (r > 0) {
      EXPECT_LE(blk.pattern_runs[r - 1].end, pr.begin);
    }
    while (k < blk.runs.size() && blk.runs[k].end <= pr.begin) ++k;
    EXPECT_LT(k, blk.runs.size());
    if (k == blk.runs.size()) break;
    EXPECT_FALSE(blk.runs[k].boundary);
    EXPECT_LE(blk.runs[k].begin, pr.begin);
    EXPECT_LE(pr.end, blk.runs[k].end);
    EXPECT_LE(static_cast<std::size_t>(pr.offsets) +
                  static_cast<std::size_t>(pr.width),
              blk.pattern_offsets.size());
    for (index_t i = pr.begin; i < pr.end; ++i) {
      const auto li = static_cast<index_t>(i - blk.lo);
      const index_t entry = blk.row_ptr[static_cast<std::size_t>(li)];
      EXPECT_EQ(blk.row_ptr[static_cast<std::size_t>(li) + 1] - entry,
                pr.width)
          << "row " << i;
      EXPECT_EQ(entry, pr.first + (i - pr.begin) * pr.width) << "row " << i;
      for (index_t q = 0; q < pr.width; ++q) {
        const auto p = static_cast<std::size_t>(pr.first +
                                                (i - pr.begin) * pr.width + q);
        const index_t off =
            blk.pattern_offsets[static_cast<std::size_t>(pr.offsets + q)];
        EXPECT_EQ(li + off, blk.col_code[static_cast<std::size_t>(entry + q)])
            << "row " << i << " entry " << q;
        EXPECT_EQ(blk.values[p],
                  blk.values[static_cast<std::size_t>(entry + q)])
            << "row " << i << " entry " << q;
      }
    }
    covered += pr.end - pr.begin;
  }
  EXPECT_EQ(got, expected);
  return covered;
}

/// The matrix families the pattern runs are for (FD stencils, with values
/// that vary per row in the anisotropic and varcoef cases) and the FE
/// matrix, whose unstructured rows mostly do not repeat.
std::vector<std::pair<const char*, CsrMatrix>> structured_matrices() {
  std::vector<std::pair<const char*, CsrMatrix>> out;
  out.emplace_back("fd5pt_9x7", gen::fd_laplacian_2d(9, 7));
  out.emplace_back("fd7pt_5x4x3", gen::fd_laplacian_3d(5, 4, 3));
  out.emplace_back("fd9pt_8x6", gen::fd_laplacian_2d_9pt(8, 6));
  out.emplace_back("fd_aniso_7x9", gen::fd_anisotropic_2d(7, 9, 0.01));
  out.emplace_back("fd_varcoef_8x8",
                   gen::fd_varcoef_2d(8, 8, [](double x, double y) {
                     return 1.0 + x * x + 3.0 * y;
                   }));
  gen::FeMeshOptions fe;
  fe.nx = 7;
  fe.ny = 6;
  out.emplace_back("fe_7x6", gen::fe_laplacian_2d(fe));
  return out;
}

TEST(PropBlockedCsr, PatternRunsAreTheMaximalRepeatingInteriorChains) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(9700 + static_cast<std::uint64_t>(c)));
    const CsrMatrix a = random_matrix(rng);
    const BlockedCsr blocked(a, random_block_starts(rng, a.num_rows()));
    for (index_t t = 0; t < blocked.num_blocks(); ++t) {
      SCOPED_TRACE(::testing::Message() << "block " << t);
      (void)check_pattern_runs(blocked.block(t));
    }
  }
  for (const auto& [name, a] : structured_matrices()) {
    SCOPED_TRACE(name);
    for (int c = 0; c < 20; ++c) {
      SCOPED_TRACE(::testing::Message() << "case " << c);
      Rng rng(ajac::testing::test_seed(9800 + static_cast<std::uint64_t>(c)));
      const BlockedCsr blocked(a, random_block_starts(rng, a.num_rows()));
      for (index_t t = 0; t < blocked.num_blocks(); ++t) {
        SCOPED_TRACE(::testing::Message() << "block " << t);
        (void)check_pattern_runs(blocked.block(t));
      }
    }
  }
}

TEST(PropBlockedCsr, PatternRunsCoverTheStencilInteriorAndShareOffsets) {
  // FD 5-point 6x12 in one block: every grid line's rows x = 1..4 share
  // one pattern (width 4 on the first and last lines, 5 between); the
  // edge rows x = 0 and x = 5 repeat neither neighbour and fall back. The
  // pool holds the three distinct patterns once each.
  const CsrMatrix fd = gen::fd_laplacian_2d(6, 12);
  const index_t whole[] = {0, fd.num_rows()};
  const BlockedCsr one(fd, whole);
  const auto& blk = one.block(0);
  EXPECT_EQ(check_pattern_runs(blk), 12 * 4);
  ASSERT_EQ(blk.pattern_runs.size(), 12U);
  for (index_t y = 0; y < 12; ++y) {
    const auto& run = blk.pattern_runs[static_cast<std::size_t>(y)];
    EXPECT_EQ(run.begin, 6 * y + 1);
    EXPECT_EQ(run.end, 6 * y + 5);
    EXPECT_EQ(run.width, y == 0 || y == 11 ? 4 : 5);
  }
  EXPECT_EQ(blk.pattern_offsets,
            (std::vector<BlockedCsr::code_t>{-1, 0, 1, 6,        //
                                             -6, -1, 0, 1, 6,    //
                                             -6, -1, 0, 1}));
  // A run never crosses a block edge: split along grid lines, the lines
  // next to a neighbouring block are boundary rows.
  const index_t lines[] = {0, 24, 48, 72};
  const BlockedCsr split(fd, lines);
  EXPECT_EQ(check_pattern_runs(split.block(0)), 3 * 4);
  EXPECT_EQ(check_pattern_runs(split.block(1)), 2 * 4);
  EXPECT_EQ(check_pattern_runs(split.block(2)), 3 * 4);
  // FE rows come from an unstructured triangulation: whatever repeats is
  // found (check_pattern_runs), and most rows stay on col_code.
  gen::FeMeshOptions fe;
  fe.nx = 10;
  fe.ny = 10;
  const CsrMatrix fem = gen::fe_laplacian_2d(fe);
  const index_t fe_whole[] = {0, fem.num_rows()};
  EXPECT_LT(check_pattern_runs(BlockedCsr(fem, fe_whole).block(0)),
            fem.num_rows() / 2);
}

/// Whether every row of pattern run `pr` stores bitwise row begin's values
/// and 1 / a_ii. Brute force over the run's rows from the encoding,
/// independent of the builder's chaining.
bool bitwise_constant(const BlockedCsr::Block& blk,
                      const BlockedCsr::PatternRun& pr) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto first = static_cast<std::size_t>(pr.first);
  const auto width = static_cast<std::size_t>(pr.width);
  const double inv = blk.inv_diag[static_cast<std::size_t>(pr.begin - blk.lo)];
  for (index_t i = pr.begin; i < pr.end; ++i) {
    if (bits(blk.inv_diag[static_cast<std::size_t>(i - blk.lo)]) !=
        bits(inv)) {
      return false;
    }
    const std::size_t row = first + static_cast<std::size_t>(i - pr.begin) *
                                        width;
    for (std::size_t q = 0; q < width; ++q) {
      if (bits(blk.values[row + q]) != bits(blk.values[first + q])) {
        return false;
      }
    }
  }
  return true;
}

/// Pattern runs of a BlockedCsr, and how many of them are uniform.
struct UniformCount {
  index_t runs = 0;
  index_t uniform = 0;
};

/// Check every pattern run's uniform flag against bitwise_constant.
UniformCount check_uniform_flags(const BlockedCsr& blocked) {
  UniformCount count;
  for (index_t t = 0; t < blocked.num_blocks(); ++t) {
    const auto& blk = blocked.block(t);
    for (const auto& pr : blk.pattern_runs) {
      EXPECT_EQ(pr.uniform, bitwise_constant(blk, pr))
          << "block " << t << ", run [" << pr.begin << ", " << pr.end << ")";
      ++count.runs;
      count.uniform += pr.uniform ? 1 : 0;
    }
  }
  return count;
}

TEST(PropBlockedCsr, UniformPatternRunsAreExactlyTheBitwiseConstantRuns) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(9900 + static_cast<std::uint64_t>(c)));
    const CsrMatrix a = random_matrix(rng);
    (void)check_uniform_flags(
        BlockedCsr(a, random_block_starts(rng, a.num_rows())));
  }
  for (const auto& [name, a] : structured_matrices()) {
    SCOPED_TRACE(name);
    for (int c = 0; c < 20; ++c) {
      SCOPED_TRACE(::testing::Message() << "case " << c);
      Rng rng(ajac::testing::test_seed(9950 + static_cast<std::uint64_t>(c)));
      (void)check_uniform_flags(
          BlockedCsr(a, random_block_starts(rng, a.num_rows())));
    }
  }

  // Whole-matrix blocks: constant-coefficient stencils, scaled or not,
  // are uniform run for run (the anisotropic one with two distinct
  // off-diagonal values); variable coefficients and FE rows are not.
  const auto whole = [](const CsrMatrix& a) {
    const index_t starts[] = {0, a.num_rows()};
    return check_uniform_flags(BlockedCsr(a, starts));
  };
  const auto expect_all_uniform = [&](const char* name, const CsrMatrix& a) {
    SCOPED_TRACE(name);
    const UniformCount count = whole(a);
    EXPECT_GT(count.runs, 0);
    EXPECT_EQ(count.uniform, count.runs);
  };
  const CsrMatrix fd = scale_to_unit_diagonal(gen::fd_laplacian_2d(12, 12));
  expect_all_uniform("fd5pt scaled", fd);
  expect_all_uniform("fd5pt unscaled", gen::fd_laplacian_2d(12, 12));
  expect_all_uniform("fd7pt", gen::fd_laplacian_3d(5, 4, 6));
  expect_all_uniform("fd9pt", gen::fd_laplacian_2d_9pt(8, 6));
  expect_all_uniform(
      "fd_aniso", scale_to_unit_diagonal(gen::fd_anisotropic_2d(9, 7, 0.01)));
  {
    SCOPED_TRACE("fd_varcoef");
    const UniformCount count = whole(gen::fd_varcoef_2d(
        8, 8, [](double x, double y) { return 1.0 + x * x + 3.0 * y; }));
    EXPECT_GT(count.runs, 0);
    EXPECT_EQ(count.uniform, 0);
  }
  {
    SCOPED_TRACE("fe");
    gen::FeMeshOptions fe;
    fe.nx = 10;
    fe.ny = 10;
    const UniformCount count = whole(gen::fe_laplacian_2d(fe));
    EXPECT_LT(count.uniform, count.runs);
  }

  // Grid line 7 of the 12x12 FD matrix is run 7 of its block. One value
  // moved by one ULP, or an east entry stored as +0.0 on the line's run
  // rows but -0.0 on one (== would merge them), must break that run's
  // flag and no other.
  const auto expect_only_line_7_broken = [&](const char* name,
                                             const CsrMatrix& a) {
    SCOPED_TRACE(name);
    const index_t starts[] = {0, a.num_rows()};
    const BlockedCsr blocked(a, starts);
    (void)check_uniform_flags(blocked);
    const auto& runs = blocked.block(0).pattern_runs;
    ASSERT_EQ(runs.size(), 12U);
    for (std::size_t y = 0; y < runs.size(); ++y) {
      EXPECT_EQ(runs[y].uniform, y != 7) << "line " << y;
    }
  };
  const index_t row = 7 * 12 + 6;
  CsrMatrix ulp = fd;
  double& west = ajac::testing::stored_entry(ulp, row, row - 1);
  west = std::nextafter(west, 1.0);
  expect_only_line_7_broken("one ULP", ulp);
  CsrMatrix zeros = fd;
  ajac::testing::store_signed_zeros(zeros, 7 * 12 + 1, 7 * 12 + 11, row);
  expect_only_line_7_broken("signed zero", zeros);

  // More parts than rows: the empty blocks carry no runs, and the two
  // non-empty ones keep their uniform edge-line runs.
  const CsrMatrix small = gen::fd_laplacian_2d(4, 4);
  std::vector<index_t> many(10, 0);
  many.insert(many.end(), 8, 8);
  many.push_back(small.num_rows());
  ASSERT_GT(many.size() - 1, static_cast<std::size_t>(small.num_rows()));
  const UniformCount count = check_uniform_flags(BlockedCsr(small, many));
  EXPECT_GT(count.uniform, 0);
  EXPECT_EQ(count.uniform, count.runs);
}

/// Expand `runs` into rows, checking that they are non-empty, ascending,
/// maximal (never adjacent) and inside [lo, hi).
std::vector<index_t> expand_export_runs(const BlockedCsr::Block& blk) {
  std::vector<index_t> rows;
  for (std::size_t k = 0; k < blk.export_runs.size(); ++k) {
    const auto& run = blk.export_runs[k];
    EXPECT_LT(run.begin, run.end) << "run " << k;
    EXPECT_LE(blk.lo, run.begin) << "run " << k;
    EXPECT_LE(run.end, blk.hi) << "run " << k;
    if (k > 0) {
      EXPECT_LT(blk.export_runs[k - 1].end, run.begin) << "run " << k;
    }
    for (index_t i = run.begin; i < run.end; ++i) rows.push_back(i);
  }
  return rows;
}

TEST(PropBlockedCsr, ExportRunsAreTheRowsOtherBlocksRead) {
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << ", AJAC_TEST_SEED base "
                 << ajac::testing::test_seed());
    Rng rng(ajac::testing::test_seed(9500 + static_cast<std::uint64_t>(c)));
    const CsrMatrix a = random_matrix(rng);
    const index_t n = a.num_rows();
    auto starts = random_block_starts(rng, n);
    if (c % 4 == 0) {
      // P > n: more blocks than rows, so several are empty.
      starts.assign(static_cast<std::size_t>(n) + 3, n);
      for (index_t i = 0; i <= n; ++i) {
        starts[static_cast<std::size_t>(i)] = i;
      }
    }
    const BlockedCsr blocked(a, starts);
    // Brute force: row j is read by block u iff some row of u has an
    // entry in column j outside u's range.
    std::vector<char> read_elsewhere(static_cast<std::size_t>(n), 0);
    for (index_t u = 0; u < blocked.num_blocks(); ++u) {
      const auto& blk = blocked.block(u);
      for (index_t i = blk.lo; i < blk.hi; ++i) {
        for (const index_t j : a.row_cols(i)) {
          if (j < blk.lo || j >= blk.hi) {
            read_elsewhere[static_cast<std::size_t>(j)] = 1;
          }
        }
      }
    }
    for (index_t t = 0; t < blocked.num_blocks(); ++t) {
      SCOPED_TRACE(::testing::Message() << "block " << t);
      const auto& blk = blocked.block(t);
      std::vector<index_t> expected;
      for (index_t i = blk.lo; i < blk.hi; ++i) {
        if (read_elsewhere[static_cast<std::size_t>(i)] != 0) {
          expected.push_back(i);
        }
      }
      ASSERT_EQ(expand_export_runs(blk), expected);
    }
  }

  // One block: nobody else reads it.
  const CsrMatrix fd = gen::fd_laplacian_2d(6, 12);
  const index_t whole[] = {0, fd.num_rows()};
  EXPECT_TRUE(BlockedCsr(fd, whole).block(0).export_runs.empty());

  // FD 2D split along grid lines (6 rows a line, 4 lines a block): a
  // block exports its first and last lines, the outer blocks only the
  // line facing a neighbour.
  const index_t lines[] = {0, 24, 48, 72};
  const BlockedCsr split(fd, lines);
  using Ranges = std::vector<std::pair<index_t, index_t>>;
  const auto ranges = [](const BlockedCsr::Block& blk) {
    Ranges out;
    for (const auto& run : blk.export_runs) {
      out.emplace_back(run.begin, run.end);
    }
    return out;
  };
  EXPECT_EQ(ranges(split.block(0)), (Ranges{{18, 24}}));
  EXPECT_EQ(ranges(split.block(1)), (Ranges{{24, 30}, {42, 48}}));
  EXPECT_EQ(ranges(split.block(2)), (Ranges{{48, 54}}));
}

TEST(PropBlockedCsr, CheckedCodeNarrowsExactlyUpToInt32Max) {
  constexpr index_t kMax = std::numeric_limits<std::int32_t>::max();
  EXPECT_EQ(BlockedCsr::checked_code(kMax, 3, "row count"),
            std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(BlockedCsr::checked_code(0, 3, "row count"), 0);
  try {
    (void)BlockedCsr::checked_code(kMax + 1, 3, "entry count");
    FAIL() << "INT32_MAX + 1 narrowed without an error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("block 3"), std::string::npos) << what;
    EXPECT_NE(what.find("entry count"), std::string::npos) << what;
  }
}

TEST(PropBlockedCsr, InvalidBlockStartsAreRejected) {
  const CsrMatrix a = csr_identity(3);
  EXPECT_THROW(BlockedCsr(a, std::vector<index_t>{0}), std::logic_error);
  EXPECT_THROW(BlockedCsr(a, std::vector<index_t>{1, 3}), std::logic_error);
  EXPECT_THROW(BlockedCsr(a, std::vector<index_t>{0, 2}), std::logic_error);
  EXPECT_THROW(BlockedCsr(a, std::vector<index_t>{0, 2, 1, 3}),
               std::logic_error);
}

}  // namespace
}  // namespace ajac
