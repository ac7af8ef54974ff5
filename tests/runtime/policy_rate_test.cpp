// Empirical verification of the randomized-relaxation rate bound
// (Avron, Druinsky & Gupta, arXiv:1304.6475): for a unit-diagonal SPD
// matrix Â, uniform single-row relaxation contracts the expected A-norm
// error energy by at least (1 - lambda_min(Â)/n) per relaxation, and the
// *tail* rate approaches that factor exactly as the error concentrates on
// the minimal eigenvector. The suite measures the realized tail contraction
// of the RowSampler's own draw stream on FD, FE, and a non-W.D.D. matrix
// (where natural-order synchronous Jacobi has no classical guarantee) and
// pins it to the theoretical factor, plus a solver-level corollary on the
// simulator (the runtime that samples rows): end-to-end uniform relaxation
// counts within the bound's prediction.
//
// Everything is seeded through testing::test_seed, so the measured rates
// are deterministic for a fixed AJAC_TEST_SEED across presets.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "ajac/distsim/dist_jacobi.hpp"
#include "ajac/eig/lanczos.hpp"
#include "ajac/eig/operators.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/fe.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/runtime/row_policy.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/scaling.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/rng.hpp"
#include "test_helpers.hpp"

namespace ajac::runtime {
namespace {

using ajac::testing::test_seed;

/// lambda_min of a unit-diagonal SPD matrix (the quantity the bound is
/// stated in). Lanczos handles every size used here.
double lambda_min(const CsrMatrix& ahat) {
  const auto r = eig::lanczos_extreme(eig::make_operator(ahat));
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.lambda_min, 0.0) << "test matrix must be SPD";
  return r.lambda_min;
}

/// ||x - x*||_A^2 for unit-diagonal SPD ahat.
double energy(const CsrMatrix& ahat, const Vector& x, const Vector& xstar) {
  const auto n = x.size();
  Vector e(n);
  Vector ae(n);
  for (std::size_t i = 0; i < n; ++i) e[i] = x[i] - xstar[i];
  ahat.spmv(e, ae);
  return vec::dot(e, ae);
}

/// Realized per-relaxation tail contraction of sequential uniform
/// coordinate descent driven by the RowSampler stream: manufacture
/// x* ~ U[-1,1], b = Â x*, start from x = 0, relax `iters` sweeps of n
/// draws each, and fit the geometric rate of the A-norm energy over the
/// window after `burn_in` sweeps (the burn-in lets the fast modes die so
/// the tail is governed by lambda_min).
double measured_tail_contraction(const CsrMatrix& ahat, std::uint64_t seed,
                                 index_t iters, index_t burn_in) {
  const index_t n = ahat.num_rows();
  const auto n_sz = static_cast<std::size_t>(n);
  Vector xstar(n_sz);
  Rng rng(seed);
  vec::fill_uniform(xstar, rng);
  Vector b(n_sz);
  ahat.spmv(xstar, b);
  Vector x(n_sz, 0.0);

  RowSampler sampler(RowPolicy::kUniformRandom, seed, /*worker=*/0, 0, n);
  double e_burn = 0.0;
  for (index_t iter = 0; iter < iters; ++iter) {
    if (iter == burn_in) e_burn = energy(ahat, x, xstar);
    for (index_t slot = 0; slot < n; ++slot) {
      const index_t i = sampler.next(iter, slot);
      const double r =
          b[static_cast<std::size_t>(i)] - ahat.row_dot(i, x);
      x[static_cast<std::size_t>(i)] += r;  // unit diagonal
    }
  }
  const double e_end = energy(ahat, x, xstar);
  EXPECT_GT(e_burn, 0.0);
  EXPECT_GT(e_end, 0.0) << "window left: shrink iters or grow the matrix";
  const double relaxations =
      static_cast<double>(iters - burn_in) * static_cast<double>(n);
  return std::pow(e_end / e_burn, 1.0 / relaxations);
}

/// Measured tail rate vs rho = 1 - lambda_min/n, compared in terms of the
/// contraction *gap* (1 - rate): rates this close to 1 make direct ratio
/// comparisons meaningless. The expectation bound guarantees gap >= gap_t
/// on average. In the tail the error lies along the minimal eigenvector,
/// whose amplitude contracts by 1 - gap_t per relaxation on average, and
/// the energy is quadratic in it, so the measured energy gap sits near
/// 2 gap_t. A single realization fluctuates, so the assertion brackets
/// the measured gap in [lo_factor, hi_factor] * theoretical.
void expect_rate_matches_bound(const CsrMatrix& ahat, std::uint64_t seed,
                               index_t iters, index_t burn_in,
                               double lo_factor, double hi_factor,
                               const std::string& what) {
  const double lmin = lambda_min(ahat);
  const double n = static_cast<double>(ahat.num_rows());
  const double gap_t = lmin / n;  // 1 - rho
  const double rate = measured_tail_contraction(ahat, seed, iters, burn_in);
  const double gap_m = 1.0 - rate;
  EXPECT_GE(gap_m, lo_factor * gap_t)
      << what << ": measured rate " << rate << " is *slower* than the "
      << "theoretical bound 1 - " << gap_t << " allows";
  EXPECT_LE(gap_m, hi_factor * gap_t)
      << what << ": measured tail rate " << rate << " decays far faster "
      << "than 1 - " << gap_t << "; the tail is not tracking lambda_min";
}

TEST(PolicyRateBound, UniformMatchesAvronBoundOnFd) {
  // FD 16x16 five-point Laplacian, symmetrically scaled to unit diagonal:
  // lambda_min(Â) = 1 - rho(G) ~= 0.0171, n = 256.
  const CsrMatrix ahat =
      scale_to_unit_diagonal(gen::fd_laplacian_2d(16, 16));
  expect_rate_matches_bound(ahat, test_seed(20), /*iters=*/400,
                            /*burn_in=*/100, 0.85, 2.5, "FD 16x16");
}

TEST(PolicyRateBound, UniformMatchesAvronBoundOnFe) {
  // Unstructured FE stiffness matrix (the paper's second matrix family),
  // scaled to unit diagonal. Small mesh so lambda_min stays moderate.
  gen::FeMeshOptions mesh;
  mesh.nx = 12;
  mesh.ny = 12;
  mesh.seed = test_seed(21);
  const CsrMatrix ahat =
      scale_to_unit_diagonal(gen::fe_laplacian_2d(mesh));
  expect_rate_matches_bound(ahat, test_seed(22), /*iters=*/500,
                            /*burn_in=*/150, 0.85, 2.5, "FE 12x12");
}

TEST(PolicyRateBound, UniformMatchesAvronBoundOnNonWdd) {
  // A = I - 0.52 * path adjacency: SPD (lambda_min ~= 0.002) but not
  // weakly diagonally dominant — interior rows have off-diagonal mass
  // 1.04 > 1 — so this sits outside the classical Jacobi comfort zone.
  // The randomized bound only needs SPD and still predicts the tail.
  const CsrMatrix ahat = ajac::testing::unit_diag_path(10, 0.52);
  expect_rate_matches_bound(ahat, test_seed(23), /*iters=*/4000,
                            /*burn_in=*/1000, 0.85, 2.5, "non-WDD path");
}

TEST(PolicyRateBound, UniformEndToEndRelaxationsWithinBound) {
  // Solver-level corollary: driving solve_distributed at one rank with
  // the uniform policy (sequential uniform relaxation, the setting of the
  // bound), the relaxation count to reach tolerance tau must stay within a
  // modest constant of the bound's prediction (n / lambda_min) *
  // ln(1/tau). A broken sampler (e.g. one that kept re-drawing a subset of
  // rows) would either never converge or blow far past this budget.
  const auto p =
      gen::make_problem("fd", gen::fd_laplacian_2d(16, 16), test_seed(24));
  const CsrMatrix ahat = scale_to_unit_diagonal(p.a);
  const double lmin = lambda_min(ahat);
  const double n = static_cast<double>(p.a.num_rows());
  const double tau = 1e-8;

  distsim::DistOptions o;
  o.num_processes = 1;
  o.tolerance = tau;
  o.max_iterations = 50000;
  o.policy = RowPolicy::kUniformRandom;
  o.seed = test_seed(25);
  const distsim::DistResult r = distsim::solve_distributed(
      p.a, p.b, p.x0, partition::contiguous_partition(p.a.num_rows(), 1), o);
  ASSERT_TRUE(r.reached_tolerance);

  // ln(1/tau) iterations of energy halving-lives, times a factor-3 cushion
  // for the residual-norm / energy-norm conversion and the stopping check
  // granularity.
  const double budget = 3.0 * (n / lmin) * std::log(1.0 / tau);
  EXPECT_LE(static_cast<double>(r.total_relaxations), budget)
      << "uniform policy needed " << r.total_relaxations
      << " relaxations; the rate bound predicts ~"
      << (n / lmin) * std::log(1.0 / tau);
}

}  // namespace
}  // namespace ajac::runtime
