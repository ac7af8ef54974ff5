// Row-selection policy comparison (natural sweep vs uniform-random) plus an
// empirical check of the randomized rate bound.
//
// Part A measures the realized tail contraction of uniform single-row
// relaxation on unit-diagonal SPD matrices and compares the contraction
// *gap* (1 - rate) against the Avron/Druinsky/Gupta (arXiv:1304.6475)
// prediction lambda_min(A-hat)/n — the same measurement the tier-1 suite
// pins (tests/runtime/policy_rate_test.cpp), here over larger windows and
// emitted as a machine-checkable table (tools/check_policy_rates.py gates
// the ratio in CI).
//
// Part B races the two policies end to end through solve_shared, to a
// verified tolerance, on a well-conditioned FD Laplacian and on a skewed
// two-rate fixture (a slow near-indefinite block buried in a fast
// diagonally dominant one, where most of a natural sweep is wasted work).
// Repetitions interleave the policies, and wall time is reported as the
// median with its quartiles so a difference can be read against the noise.

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "ajac/eig/lanczos.hpp"
#include "ajac/eig/operators.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/fe.hpp"
#include "ajac/runtime/row_policy.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/sparse/scaling.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/rng.hpp"
#include "bench_common.hpp"

using namespace ajac;

namespace {

// ---- Part A: uniform tail rate vs the randomized bound -------------------

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
      "\nThe expectation bound guarantees gap >= lambda_min/n per uniform\n"
      "relaxation; concentration on the minimal eigenvector drives the tail\n"
      "gap down to it from above, so the ratio sits in a narrow band just\n"
      "above 1 (CI gates it via tools/check_policy_rates.py).\n\n");
}

// ---- Part B: end-to-end policy race ---------------------------------------

/// Two-rate block-diagonal fixture: rows [0, n_slow) form a slow, nearly
/// indefinite tridiagonal block (off-diagonal -0.499), the rest a strongly
/// diagonally dominant one (-0.2). The residual stays skewed onto the slow
/// block, so a natural sweep spends most of its relaxations on rows that
/// have long converged.
CsrMatrix make_skewed(index_t n, index_t n_slow) {
  std::vector<index_t> row_ptr{0};
  std::vector<index_t> col_idx;
  std::vector<double> values;
  for (index_t i = 0; i < n; ++i) {
    const index_t block_lo = i < n_slow ? 0 : n_slow;
    const index_t block_hi = i < n_slow ? n_slow : n;
    const double off = i < n_slow ? -0.499 : -0.2;
    if (i > block_lo) {
      col_idx.push_back(i - 1);
      values.push_back(off);
    }
    col_idx.push_back(i);
    values.push_back(1.0);
    if (i + 1 < block_hi) {
      col_idx.push_back(i + 1);
      values.push_back(off);
    }
    row_ptr.push_back(static_cast<index_t>(col_idx.size()));
  }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

/// Timed repetitions per policy in the race: enough for a median and
/// quartiles of wall time.
constexpr index_t kReps = 7;

/// Quantile q of `v` by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void run_solve(std::uint64_t seed, index_t grid, index_t threads,
               const CliParser& cli) {
  std::printf(
      "== time to tolerance by policy (%lld threads, %lld reps each) ==\n",
      static_cast<long long>(threads), static_cast<long long>(kReps));
  struct Problem {
    std::string name;
    CsrMatrix a;
  };
  std::vector<Problem> problems;
  problems.push_back(
      {"fd" + std::to_string(grid * grid), gen::fd_laplacian_2d(grid, grid)});
  problems.push_back({"skewed", make_skewed(256, 16)});
  const runtime::RowPolicy policies[] = {runtime::RowPolicy::kNaturalOrder,
                                         runtime::RowPolicy::kUniformRandom};
  constexpr std::size_t kPolicies = std::size(policies);

  Table table({"problem", "policy", "converged", "relaxations",
               "wall ms median", "wall ms q1", "wall ms q3"});
  table.set_double_format("%.3e");
  for (const Problem& p : problems) {
    Vector b(static_cast<std::size_t>(p.a.num_rows()));
    Rng rng(seed + 1);
    vec::fill_uniform(b, rng);
    const Vector x0(static_cast<std::size_t>(p.a.num_rows()), 0.0);
    const auto options = [&](runtime::RowPolicy policy) {
      runtime::SharedOptions o;
      o.num_threads = threads;
      o.tolerance = 1e-8;
      o.max_iterations = 200000;
      o.record_history = false;
      o.final_polish = false;
      o.yield = true;
      o.policy = policy;
      o.policy_seed = seed;
      return o;
    };
    std::vector<double> ms[kPolicies];
    std::vector<double> relaxations[kPolicies];
    index_t failed[kPolicies] = {};
    // Interleaved repetitions, alternating which policy runs first, so
    // drift on the host hits both rows alike.
    for (index_t rep = 0; rep < kReps; ++rep) {
      for (std::size_t k = 0; k < kPolicies; ++k) {
        const std::size_t j = rep % 2 == 0 ? k : kPolicies - 1 - k;
        const runtime::SharedOptions o = options(policies[j]);
        const double t0 = omp_get_wtime();
        const auto r = runtime::solve_shared(p.a, b, x0, o);
        ms[j].push_back((omp_get_wtime() - t0) * 1e3);
        relaxations[j].push_back(static_cast<double>(r.total_relaxations));
        if (!r.converged) ++failed[j];
      }
    }
    for (std::size_t j = 0; j < kPolicies; ++j) {
      // One untimed instrumented solve per row feeds the report's policy
      // counters; the timed solves run without a registry.
      runtime::SharedOptions o = options(policies[j]);
      obs::MetricsRegistry reg;
      o.metrics = &reg;
      (void)runtime::solve_shared(p.a, b, x0, o);
      bench::record_policy_counters(reg);
      table.add_row({p.name, std::string(runtime::policy_name(policies[j])),
                     failed[j] == 0 ? std::string("yes")
                                    : "no (" + std::to_string(failed[j]) +
                                          " of " + std::to_string(kReps) + ")",
                     static_cast<std::int64_t>(
                         std::llround(quantile(relaxations[j], 0.5))),
                     quantile(ms[j], 0.5),
                     quantile(ms[j], 0.25), quantile(ms[j], 0.75)});
    }
  }
  bench::emit(table, cli, "policy_solve");
  std::printf(
      "\nUniform draws lose to the natural sweep on wall time on both\n"
      "fixtures: a draw costs a counter hash and an in-place relaxation\n"
      "through the shared x, where the sweep streams its block. Compare\n"
      "the medians against the quartile spread. Uniform stays as the\n"
      "executable check of the rate bound above, not as a speed option;\n"
      "this race is reported, not gated.\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_policies",
                "Row-selection policies: rate-bound check and policy race");
  bench::add_common_options(cli);
  cli.add_option("threads", "1",
                 "worker threads for the end-to-end race (1 = deterministic)");
  cli.add_option("grid", "16", "FD grid side (n = grid^2 rows)");
  if (!cli.parse(argc, argv)) return 0;
  const auto threads = cli.get_int("threads");
  const auto grid = cli.get_int("grid");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  run_rates(seed, grid, cli);
  run_solve(seed, grid, threads, cli);
  return 0;
}
