#include "ajac/gen/fd.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ajac/eig/lanczos.hpp"
#include "ajac/sparse/coo.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/properties.hpp"
#include "ajac/util/rng.hpp"
#include "test_helpers.hpp"

namespace ajac {
namespace {

TEST(FdLaplacian, OneDimensionalStencil) {
  const CsrMatrix a = gen::fd_laplacian_1d(4);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 2), -1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 3), 0.0);
}

TEST(FdLaplacian, TwoDimensionalStencil) {
  const CsrMatrix a = gen::fd_laplacian_2d(3, 3);
  EXPECT_DOUBLE_EQ(a.at(4, 4), 4.0);  // center
  EXPECT_DOUBLE_EQ(a.at(4, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(4, 3), -1.0);
  EXPECT_DOUBLE_EQ(a.at(4, 5), -1.0);
  EXPECT_DOUBLE_EQ(a.at(4, 7), -1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 8), 0.0);  // no wraparound
}

TEST(FdLaplacian, ThreeDimensionalStencil) {
  const CsrMatrix a = gen::fd_laplacian_3d(3, 3, 3);
  const index_t center = 13;  // (1,1,1)
  EXPECT_DOUBLE_EQ(a.at(center, center), 6.0);
  EXPECT_EQ(a.row_nnz(center), 7);
}

TEST(FdLaplacian, StructuralInvariants) {
  for (const CsrMatrix& a :
       {gen::fd_laplacian_2d(5, 7), gen::fd_laplacian_3d(3, 4, 5)}) {
    EXPECT_TRUE(a.is_symmetric());
    EXPECT_TRUE(a.has_sorted_rows());
    EXPECT_TRUE(a.has_full_diagonal());
    EXPECT_TRUE(is_weakly_diag_dominant(a));
    EXPECT_TRUE(is_irreducible(a));
  }
}

TEST(FdLaplacian, JacobiSpectralRadiusMatchesClosedForm) {
  const index_t nx = 4, ny = 17;
  const double rho = eig::jacobi_spectral_radius_spd(gen::fd_laplacian_2d(nx, ny));
  EXPECT_NEAR(rho, testing::fd2d_jacobi_rho(nx, ny), 1e-8);
}

TEST(FdLaplacian, NonzeroCountFormula) {
  const index_t nx = 6, ny = 9, nz = 4;
  const index_t edges = (nx - 1) * ny + nx * (ny - 1);
  EXPECT_EQ(gen::fd_laplacian_2d(nx, ny).num_nonzeros(), nx * ny + 2 * edges);
  // 9-point: each interior cell square adds its two diagonals as edges.
  const index_t diagonals = 2 * (nx - 1) * (ny - 1);
  EXPECT_EQ(gen::fd_laplacian_2d_9pt(nx, ny).num_nonzeros(),
            nx * ny + 2 * (edges + diagonals));
  const index_t edges3 = (nx - 1) * ny * nz + nx * (ny - 1) * nz +
                         nx * ny * (nz - 1);
  EXPECT_EQ(gen::fd_laplacian_3d(nx, ny, nz).num_nonzeros(),
            nx * ny * nz + 2 * edges3);
}

// The stencil generators write CSR rows directly. These are the COO
// assembly loops they replaced, kept as the reference: the direct writes
// must reproduce CooBuilder::to_csr's output bit for bit.
namespace coo_reference {

index_t idx2(index_t nx, index_t i, index_t j) { return j * nx + i; }
index_t idx3(index_t nx, index_t ny, index_t i, index_t j, index_t k) {
  return (k * ny + j) * nx + i;
}

CsrMatrix laplacian_1d(index_t n) {
  CooBuilder coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    if (i > 0) coo.add(i, i - 1, -1.0);
    if (i + 1 < n) coo.add(i, i + 1, -1.0);
  }
  return coo.to_csr();
}

CsrMatrix laplacian_2d(index_t nx, index_t ny) {
  CooBuilder coo(nx * ny, nx * ny);
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const index_t row = idx2(nx, i, j);
      coo.add(row, row, 4.0);
      if (i > 0) coo.add(row, idx2(nx, i - 1, j), -1.0);
      if (i + 1 < nx) coo.add(row, idx2(nx, i + 1, j), -1.0);
      if (j > 0) coo.add(row, idx2(nx, i, j - 1), -1.0);
      if (j + 1 < ny) coo.add(row, idx2(nx, i, j + 1), -1.0);
    }
  }
  return coo.to_csr();
}

CsrMatrix laplacian_3d(index_t nx, index_t ny, index_t nz) {
  CooBuilder coo(nx * ny * nz, nx * ny * nz);
  for (index_t k = 0; k < nz; ++k) {
    for (index_t j = 0; j < ny; ++j) {
      for (index_t i = 0; i < nx; ++i) {
        const index_t row = idx3(nx, ny, i, j, k);
        coo.add(row, row, 6.0);
        if (i > 0) coo.add(row, idx3(nx, ny, i - 1, j, k), -1.0);
        if (i + 1 < nx) coo.add(row, idx3(nx, ny, i + 1, j, k), -1.0);
        if (j > 0) coo.add(row, idx3(nx, ny, i, j - 1, k), -1.0);
        if (j + 1 < ny) coo.add(row, idx3(nx, ny, i, j + 1, k), -1.0);
        if (k > 0) coo.add(row, idx3(nx, ny, i, j, k - 1), -1.0);
        if (k + 1 < nz) coo.add(row, idx3(nx, ny, i, j, k + 1), -1.0);
      }
    }
  }
  return coo.to_csr();
}

CsrMatrix laplacian_2d_9pt(index_t nx, index_t ny) {
  CooBuilder coo(nx * ny, nx * ny);
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const index_t row = idx2(nx, i, j);
      coo.add(row, row, 8.0);
      for (index_t dj = -1; dj <= 1; ++dj) {
        for (index_t di = -1; di <= 1; ++di) {
          if (di == 0 && dj == 0) continue;
          const index_t ii = i + di;
          const index_t jj = j + dj;
          if (ii < 0 || ii >= nx || jj < 0 || jj >= ny) continue;
          coo.add(row, idx2(nx, ii, jj), -1.0);
        }
      }
    }
  }
  return coo.to_csr();
}

CsrMatrix anisotropic_2d(index_t nx, index_t ny, double eps) {
  CooBuilder coo(nx * ny, nx * ny);
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const index_t row = idx2(nx, i, j);
      coo.add(row, row, 2.0 * eps + 2.0);
      if (i > 0) coo.add(row, idx2(nx, i - 1, j), -eps);
      if (i + 1 < nx) coo.add(row, idx2(nx, i + 1, j), -eps);
      if (j > 0) coo.add(row, idx2(nx, i, j - 1), -1.0);
      if (j + 1 < ny) coo.add(row, idx2(nx, i, j + 1), -1.0);
    }
  }
  return coo.to_csr();
}

}  // namespace coo_reference

const std::vector<std::pair<index_t, index_t>> kShapes2d = {
    {1, 1}, {1, 7}, {7, 1}, {2, 3}, {16, 17}, {64, 64}};

TEST(FdDirectCsr, OneDimensionalMatchesCooBitwise) {
  for (index_t n : {1, 2, 7, 64}) {
    SCOPED_TRACE(n);
    testing::expect_csr_bitwise_equal(gen::fd_laplacian_1d(n),
                                      coo_reference::laplacian_1d(n));
  }
}

TEST(FdDirectCsr, TwoDimensionalStencilsMatchCooBitwise) {
  for (const auto& [nx, ny] : kShapes2d) {
    SCOPED_TRACE(::testing::Message() << nx << "x" << ny);
    testing::expect_csr_bitwise_equal(gen::fd_laplacian_2d(nx, ny),
                                      coo_reference::laplacian_2d(nx, ny));
    testing::expect_csr_bitwise_equal(
        gen::fd_laplacian_2d_9pt(nx, ny),
        coo_reference::laplacian_2d_9pt(nx, ny));
    for (double eps : {1e-3, 1.0, 7.5}) {
      SCOPED_TRACE(::testing::Message() << "eps " << eps);
      testing::expect_csr_bitwise_equal(
          gen::fd_anisotropic_2d(nx, ny, eps),
          coo_reference::anisotropic_2d(nx, ny, eps));
    }
  }
}

TEST(FdDirectCsr, ThreeDimensionalMatchesCooBitwise) {
  const std::vector<std::vector<index_t>> shapes = {
      {1, 1, 1}, {2, 3, 4}, {5, 1, 3}};
  for (const auto& s : shapes) {
    SCOPED_TRACE(::testing::Message() << s[0] << "x" << s[1] << "x" << s[2]);
    testing::expect_csr_bitwise_equal(
        gen::fd_laplacian_3d(s[0], s[1], s[2]),
        coo_reference::laplacian_3d(s[0], s[1], s[2]));
  }
}

TEST(FdVarCoef, ConstantCoefficientReducesToLaplacian) {
  // c == 1 reproduces the 5-point Laplacian exactly.
  const CsrMatrix a = gen::fd_varcoef_2d(4, 5, [](double, double) { return 1.0; });
  EXPECT_TRUE(a == gen::fd_laplacian_2d(4, 5));
}

TEST(FdVarCoef, StaysSpdLikeAndWdd) {
  const CsrMatrix a = gen::fd_varcoef_2d(6, 6, [](double x, double y) {
    return 1.0 + 10.0 * x + 5.0 * y;
  });
  EXPECT_TRUE(a.is_symmetric(1e-12));
  EXPECT_TRUE(is_weakly_diag_dominant(a));
  // Strict dominance on every row thanks to the boundary stubs.
  EXPECT_TRUE(is_irreducible(a));
}

TEST(FdVarCoef, RejectsNonPositiveCoefficient) {
  EXPECT_THROW(
      gen::fd_varcoef_2d(3, 3, [](double, double) { return 0.0; }),
      std::logic_error);
}

TEST(FdVarCoef, ThreeDConstantMatchesLaplacian) {
  const CsrMatrix a =
      gen::fd_varcoef_3d(3, 3, 3, [](double, double, double) { return 1.0; });
  EXPECT_TRUE(a == gen::fd_laplacian_3d(3, 3, 3));
}

TEST(FdRandomBlocks, DeterministicForFixedSeed) {
  Rng rng1(5);
  Rng rng2(5);
  const CsrMatrix a = gen::fd_random_blocks_2d(8, 8, 2, 2, 100.0, rng1);
  const CsrMatrix b = gen::fd_random_blocks_2d(8, 8, 2, 2, 100.0, rng2);
  EXPECT_TRUE(a == b);
}

TEST(FdRandomBlocks, PropertiesSurviveContrast) {
  Rng rng(5);
  const CsrMatrix a = gen::fd_random_blocks_2d(10, 10, 4, 4, 1000.0, rng);
  EXPECT_TRUE(a.is_symmetric(1e-10));
  EXPECT_TRUE(is_weakly_diag_dominant(a));
  Rng rng3(5);
  const CsrMatrix c = gen::fd_random_blocks_3d(5, 5, 5, 2, 50.0, rng3);
  EXPECT_TRUE(c.is_symmetric(1e-10));
  EXPECT_TRUE(is_weakly_diag_dominant(c));
}

}  // namespace
}  // namespace ajac
