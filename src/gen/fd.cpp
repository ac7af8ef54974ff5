#include "ajac/gen/fd.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ajac/sparse/coo.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/csr_writer.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/rng.hpp"

namespace ajac::gen {

// The constant-coefficient stencils below emit each row's entries in
// ascending column order straight into a CsrRowWriter. The edge-assembled
// generators (fd_varcoef_*, random_wdd_matrix) stay on CooBuilder: they sum
// several contributions into each diagonal, and the order CooBuilder sums
// them in fixes the result's bits.

namespace {

/// Grid index helpers (row-major: x fastest).
constexpr index_t idx2(index_t nx, index_t i, index_t j) { return j * nx + i; }
constexpr index_t idx3(index_t nx, index_t ny, index_t i, index_t j,
                       index_t k) {
  return (k * ny + j) * nx + i;
}

}  // namespace

CsrMatrix fd_laplacian_1d(index_t n) {
  AJAC_CHECK(n >= 1);
  CsrRowWriter w(n, n, 3 * static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    if (i > 0) w.push(i - 1, -1.0);
    w.push(i, 2.0);
    if (i + 1 < n) w.push(i + 1, -1.0);
    w.end_row();
  }
  return std::move(w).finish();
}

CsrMatrix fd_laplacian_2d(index_t nx, index_t ny) {
  return fd_anisotropic_2d(nx, ny, 1.0);
}

CsrMatrix fd_laplacian_3d(index_t nx, index_t ny, index_t nz) {
  AJAC_CHECK(nx >= 1 && ny >= 1 && nz >= 1);
  const index_t n = nx * ny * nz;
  const index_t plane = nx * ny;
  CsrRowWriter w(n, n, 7 * static_cast<std::size_t>(n));
  for (index_t k = 0; k < nz; ++k) {
    for (index_t j = 0; j < ny; ++j) {
      for (index_t i = 0; i < nx; ++i) {
        const index_t row = idx3(nx, ny, i, j, k);
        if (k > 0) w.push(row - plane, -1.0);
        if (j > 0) w.push(row - nx, -1.0);
        if (i > 0) w.push(row - 1, -1.0);
        w.push(row, 6.0);
        if (i + 1 < nx) w.push(row + 1, -1.0);
        if (j + 1 < ny) w.push(row + nx, -1.0);
        if (k + 1 < nz) w.push(row + plane, -1.0);
        w.end_row();
      }
    }
  }
  return std::move(w).finish();
}

CsrMatrix fd_varcoef_2d(
    index_t nx, index_t ny,
    const std::function<double(double, double)>& coef) {
  AJAC_CHECK(nx >= 1 && ny >= 1);
  const double hx = 1.0 / static_cast<double>(nx + 1);
  const double hy = 1.0 / static_cast<double>(ny + 1);
  auto c_at = [&](index_t i, index_t j) {
    const double c = coef(static_cast<double>(i + 1) * hx,
                          static_cast<double>(j + 1) * hy);
    AJAC_CHECK_MSG(c > 0.0, "coefficient must be positive");
    return c;
  };
  CooBuilder coo(nx * ny, nx * ny);
  // Assemble edge by edge: edge weight w contributes w to both diagonals
  // and -w to both off-diagonal positions, keeping A symmetric.
  // Dirichlet boundary edges contribute only to the diagonal, preserving
  // irreducible weak diagonal dominance.
  auto add_edge = [&](index_t r, index_t c, double w) {
    coo.add(r, r, w);
    coo.add(c, c, w);
    coo.add(r, c, -w);
    coo.add(c, r, -w);
  };
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const index_t row = idx2(nx, i, j);
      const double ci = c_at(i, j);
      if (i + 1 < nx) add_edge(row, idx2(nx, i + 1, j), 0.5 * (ci + c_at(i + 1, j)));
      if (j + 1 < ny) add_edge(row, idx2(nx, i, j + 1), 0.5 * (ci + c_at(i, j + 1)));
      // Boundary stubs (Dirichlet): west/east/south/north edges that leave
      // the grid add only to the diagonal.
      if (i == 0) coo.add(row, row, ci);
      if (i + 1 == nx) coo.add(row, row, ci);
      if (j == 0) coo.add(row, row, ci);
      if (j + 1 == ny) coo.add(row, row, ci);
    }
  }
  return coo.to_csr();
}

CsrMatrix fd_varcoef_3d(
    index_t nx, index_t ny, index_t nz,
    const std::function<double(double, double, double)>& coef) {
  AJAC_CHECK(nx >= 1 && ny >= 1 && nz >= 1);
  const double hx = 1.0 / static_cast<double>(nx + 1);
  const double hy = 1.0 / static_cast<double>(ny + 1);
  const double hz = 1.0 / static_cast<double>(nz + 1);
  auto c_at = [&](index_t i, index_t j, index_t k) {
    const double c = coef(static_cast<double>(i + 1) * hx,
                          static_cast<double>(j + 1) * hy,
                          static_cast<double>(k + 1) * hz);
    AJAC_CHECK_MSG(c > 0.0, "coefficient must be positive");
    return c;
  };
  CooBuilder coo(nx * ny * nz, nx * ny * nz);
  auto add_edge = [&](index_t r, index_t c, double w) {
    coo.add(r, r, w);
    coo.add(c, c, w);
    coo.add(r, c, -w);
    coo.add(c, r, -w);
  };
  for (index_t k = 0; k < nz; ++k) {
    for (index_t j = 0; j < ny; ++j) {
      for (index_t i = 0; i < nx; ++i) {
        const index_t row = idx3(nx, ny, i, j, k);
        const double ci = c_at(i, j, k);
        if (i + 1 < nx) {
          add_edge(row, idx3(nx, ny, i + 1, j, k), 0.5 * (ci + c_at(i + 1, j, k)));
        }
        if (j + 1 < ny) {
          add_edge(row, idx3(nx, ny, i, j + 1, k), 0.5 * (ci + c_at(i, j + 1, k)));
        }
        if (k + 1 < nz) {
          add_edge(row, idx3(nx, ny, i, j, k + 1), 0.5 * (ci + c_at(i, j, k + 1)));
        }
        if (i == 0) coo.add(row, row, ci);
        if (i + 1 == nx) coo.add(row, row, ci);
        if (j == 0) coo.add(row, row, ci);
        if (j + 1 == ny) coo.add(row, row, ci);
        if (k == 0) coo.add(row, row, ci);
        if (k + 1 == nz) coo.add(row, row, ci);
      }
    }
  }
  return coo.to_csr();
}

CsrMatrix fd_random_blocks_2d(index_t nx, index_t ny, index_t blocks_x,
                              index_t blocks_y, double contrast, Rng& rng) {
  AJAC_CHECK(blocks_x >= 1 && blocks_y >= 1 && contrast >= 1.0);
  std::vector<double> block_coef(
      static_cast<std::size_t>(blocks_x * blocks_y));
  const double log_contrast = std::log(contrast);
  for (double& c : block_coef) c = std::exp(rng.uniform() * log_contrast);
  auto coef = [&](double x, double y) {
    auto bx = static_cast<index_t>(x * static_cast<double>(blocks_x));
    auto by = static_cast<index_t>(y * static_cast<double>(blocks_y));
    bx = std::min(bx, blocks_x - 1);
    by = std::min(by, blocks_y - 1);
    return block_coef[by * blocks_x + bx];
  };
  return fd_varcoef_2d(nx, ny, coef);
}

CsrMatrix fd_random_blocks_3d(index_t nx, index_t ny, index_t nz,
                              index_t blocks, double contrast, Rng& rng) {
  AJAC_CHECK(blocks >= 1 && contrast >= 1.0);
  std::vector<double> block_coef(
      static_cast<std::size_t>(blocks * blocks * blocks));
  const double log_contrast = std::log(contrast);
  for (double& c : block_coef) c = std::exp(rng.uniform() * log_contrast);
  auto coef = [&](double x, double y, double z) {
    auto b = [&](double t) {
      auto v = static_cast<index_t>(t * static_cast<double>(blocks));
      return std::min(v, blocks - 1);
    };
    return block_coef[(b(z) * blocks + b(y)) * blocks + b(x)];
  };
  return fd_varcoef_3d(nx, ny, nz, coef);
}

CsrMatrix fd_laplacian_2d_9pt(index_t nx, index_t ny) {
  AJAC_CHECK(nx >= 1 && ny >= 1);
  const index_t n = nx * ny;
  CsrRowWriter w(n, n, 9 * static_cast<std::size_t>(n));
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      // (jj, ii) ascending visits the stencil in ascending column order,
      // the diagonal in its sorted place.
      for (index_t jj = std::max<index_t>(j - 1, 0);
           jj <= std::min(j + 1, ny - 1); ++jj) {
        for (index_t ii = std::max<index_t>(i - 1, 0);
             ii <= std::min(i + 1, nx - 1); ++ii) {
          w.push(idx2(nx, ii, jj), ii == i && jj == j ? 8.0 : -1.0);
        }
      }
      w.end_row();
    }
  }
  return std::move(w).finish();
}

CsrMatrix fd_anisotropic_2d(index_t nx, index_t ny, double eps) {
  AJAC_CHECK(nx >= 1 && ny >= 1);
  AJAC_CHECK(eps > 0.0);
  const index_t n = nx * ny;
  const double diag = 2.0 * eps + 2.0;
  CsrRowWriter w(n, n, 5 * static_cast<std::size_t>(n));
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const index_t row = idx2(nx, i, j);
      if (j > 0) w.push(row - nx, -1.0);
      if (i > 0) w.push(row - 1, -eps);
      w.push(row, diag);
      if (i + 1 < nx) w.push(row + 1, -eps);
      if (j + 1 < ny) w.push(row + nx, -1.0);
      w.end_row();
    }
  }
  return std::move(w).finish();
}

CsrMatrix random_wdd_matrix(index_t n, index_t extra_edges, Rng& rng) {
  AJAC_CHECK(n >= 2);
  CooBuilder coo(n, n);
  auto add_edge = [&](index_t u, index_t v, double w) {
    coo.add(u, u, w);
    coo.add(v, v, w);
    coo.add(u, v, -w);
    coo.add(v, u, -w);
  };
  // Ring keeps the graph connected (irreducible).
  for (index_t i = 0; i < n; ++i) {
    add_edge(i, (i + 1) % n, rng.uniform(0.5, 2.0));
  }
  for (index_t k = 0; k < extra_edges; ++k) {
    const index_t u = static_cast<index_t>(rng.uniform_index(n));
    const index_t v = static_cast<index_t>(rng.uniform_index(n));
    if (u != v) add_edge(u, v, rng.uniform(0.5, 2.0));
  }
  // Shift a few rows so the matrix is nonsingular (strictly dominant
  // there, weakly elsewhere).
  const index_t shifted = std::max<index_t>(1, n / 16);
  for (index_t k = 0; k < shifted; ++k) {
    const index_t u = static_cast<index_t>(rng.uniform_index(n));
    coo.add(u, u, rng.uniform(0.5, 1.5));
  }
  return coo.to_csr(/*drop_zeros=*/true);
}

CsrMatrix paper_fd_40() { return fd_laplacian_2d(5, 8); }
CsrMatrix paper_fd_68() { return fd_laplacian_2d(4, 17); }
CsrMatrix paper_fd_272() { return fd_laplacian_2d(16, 17); }
CsrMatrix paper_fd_4624() { return fd_laplacian_2d(68, 68); }

}  // namespace ajac::gen
