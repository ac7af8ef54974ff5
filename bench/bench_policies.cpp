// Empirical check of the randomized rate bound for uniform row sampling.
//
// Measures the realized tail contraction of uniform single-row relaxation
// on unit-diagonal SPD matrices and compares the contraction *gap*
// (1 - rate) against the Avron/Druinsky/Gupta (arXiv:1304.6475)
// prediction lambda_min(A-hat)/n — the same measurement the tier-1 suite
// pins (tests/runtime/policy_rate_test.cpp), here over larger windows and
// emitted as a machine-checkable table (tools/check_policy_rates.py gates
// the ratio in CI). Uniform sampling is a check of that bound, not a speed
// option: it runs on the simulator (distsim::DistOptions::policy), and the
// shared runtime's in-place schedule is local Gauss-Seidel (DESIGN.md §5e).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ajac/eig/lanczos.hpp"
#include "ajac/eig/operators.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/fe.hpp"
#include "ajac/runtime/row_policy.hpp"
#include "ajac/sparse/scaling.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/rng.hpp"
#include "bench_common.hpp"

using namespace ajac;

namespace {

double energy(const CsrMatrix& ahat, const Vector& x, const Vector& xstar) {
  const auto n = x.size();
  Vector e(n);
  Vector ae(n);
  for (std::size_t i = 0; i < n; ++i) e[i] = x[i] - xstar[i];
  ahat.spmv(e, ae);
  return vec::dot(e, ae);
}

/// Geometric per-relaxation contraction of the A-norm error energy over
/// the window after `burn_in` sweeps, driving sequential coordinate
/// descent with the RowSampler's own uniform stream.
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

  runtime::RowSampler sampler(runtime::RowPolicy::kUniformRandom, seed,
                              /*worker=*/0, 0, n);
  double e_burn = 0.0;
  for (index_t iter = 0; iter < iters; ++iter) {
    if (iter == burn_in) e_burn = energy(ahat, x, xstar);
    for (index_t slot = 0; slot < n; ++slot) {
      const index_t i = sampler.next(iter, slot);
      const double r = b[static_cast<std::size_t>(i)] - ahat.row_dot(i, x);
      x[static_cast<std::size_t>(i)] += r;  // unit diagonal
    }
  }
  const double e_end = energy(ahat, x, xstar);
  const double relaxations =
      static_cast<double>(iters - burn_in) * static_cast<double>(n);
  return std::pow(e_end / e_burn, 1.0 / relaxations);
}

void run_rates(std::uint64_t seed, index_t grid, const CliParser& cli) {
  std::printf("== uniform-random tail rate vs the randomized bound ==\n");
  struct RateCase {
    std::string name;
    CsrMatrix ahat;
    index_t iters;
    index_t burn_in;
  };
  std::vector<RateCase> cases;
  cases.push_back({"fd" + std::to_string(grid * grid),
                   scale_to_unit_diagonal(gen::fd_laplacian_2d(grid, grid)),
                   400, 100});
  gen::FeMeshOptions mesh;
  mesh.nx = 12;
  mesh.ny = 12;
  mesh.seed = seed;
  cases.push_back({"fe144",
                   scale_to_unit_diagonal(gen::fe_laplacian_2d(mesh)), 500,
                   150});

  Table table({"matrix", "n", "lambda_min", "gap theory", "gap measured",
               "gap ratio"});
  table.set_double_format("%.4e");
  for (const RateCase& c : cases) {
    const auto eig_r = eig::lanczos_extreme(eig::make_operator(c.ahat));
    const double n = static_cast<double>(c.ahat.num_rows());
    const double gap_t = eig_r.lambda_min / n;
    const double rate =
        measured_tail_contraction(c.ahat, seed, c.iters, c.burn_in);
    const double gap_m = 1.0 - rate;
    table.add_row({c.name, c.ahat.num_rows(), eig_r.lambda_min, gap_t, gap_m,
                   gap_m / gap_t});
  }
  bench::emit(table, cli, "policy_rates");
  std::printf(
      "\nThe expectation bound guarantees an energy gap >= lambda_min/n per\n"
      "uniform relaxation. In the tail the error lies along the minimal\n"
      "eigenvector, whose amplitude the mean step I - A-hat/n shrinks by\n"
      "1 - lambda_min/n per relaxation; the A-norm energy is quadratic in\n"
      "that amplitude, so it contracts by about 1 - 2 lambda_min/n. (The\n"
      "bound counts the energy a step moves from the slow mode into fast\n"
      "modes as kept; the tail dissipates it.) So the ratio sits near 2\n"
      "(CI brackets it via tools/check_policy_rates.py).\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_policies",
                "Uniform row sampling: randomized rate-bound check");
  bench::add_common_options(cli);
  cli.add_option("grid", "16", "FD grid side (n = grid^2 rows)");
  if (!cli.parse(argc, argv)) return 0;
  const auto grid = cli.get_int("grid");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  run_rates(seed, grid, cli);
  return 0;
}
