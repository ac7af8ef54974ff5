#include "ajac/gen/problem.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>

#include "ajac/gen/fd.hpp"
#include "ajac/sparse/properties.hpp"

namespace ajac {
namespace {

/// 64-bit FNV-1a over the bytes of `data`, continuing from `h`: chain the
/// calls to fingerprint several arrays bit for bit.
template <class T>
std::uint64_t fnv1a(std::span<const T> data,
                    std::uint64_t h = 14695981039346656037ULL) {
  for (const std::byte c : std::as_bytes(data)) {
    h = (h ^ std::to_integer<std::uint64_t>(c)) * 1099511628211ULL;
  }
  return h;
}

TEST(Problem, ScalesToUnitDiagonal) {
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(5, 5), 1);
  EXPECT_TRUE(has_unit_diagonal(p.a, 1e-14));
  EXPECT_EQ(p.name, "fd");
}

TEST(Problem, RandomDataInRange) {
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(8, 8), 2);
  ASSERT_EQ(p.b.size(), 64u);
  ASSERT_EQ(p.x0.size(), 64u);
  for (double v : p.b) {
    ASSERT_GE(v, -1.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Problem, SeedControlsData) {
  const auto p1 = gen::make_problem("fd", gen::fd_laplacian_2d(4, 4), 5);
  const auto p2 = gen::make_problem("fd", gen::fd_laplacian_2d(4, 4), 5);
  const auto p3 = gen::make_problem("fd", gen::fd_laplacian_2d(4, 4), 6);
  EXPECT_EQ(p1.b, p2.b);
  EXPECT_EQ(p1.x0, p2.x0);
  EXPECT_NE(p1.b, p3.b);
}

TEST(Problem, FdProblemIsBitwiseStable) {
  // The paper's set-up (scale to unit diagonal, draw b and x0) on FD 512²,
  // pinned bit for bit: a change to the generator, the scaling, the draws
  // or the arrays' storage that moves any bit of the system shows here.
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(512, 512), 1);
  std::uint64_t h = fnv1a(p.a.row_ptr());
  h = fnv1a(p.a.col_idx(), h);
  h = fnv1a(p.a.values(), h);
  h = fnv1a(std::span<const double>(p.b), h);
  h = fnv1a(std::span<const double>(p.x0), h);
  EXPECT_EQ(h, 0xbf61c9a90ff53657ULL) << std::hex << h;
}

TEST(Problem, RejectsNonSquare) {
  const CsrMatrix rect(2, 3, {0, 1, 2}, {0, 1}, {1.0, 1.0});
  EXPECT_THROW(gen::make_problem("bad", rect, 1), std::logic_error);
}

}  // namespace
}  // namespace ajac
