// perfbench: the repository benchmark (workloads and metrics are declared
// in BENCHMARK.json at the repository root; perfbench/run.py builds this
// program and runs it).
//
//   perfbench --workload fd2d-tol|fd2d-large|fe-distsim --seed N
//             --seconds S --trace 0|1 [--git-sha SHA]
//
// One process runs one workload as a closed loop: each solve runs to
// completion before the next starts, with at most min(4, nproc) solver
// threads (1 on fd2d-tol, see kFdTol). The inputs are generated here, from
// --seed and fixed seeds (see kPoolSeed and kProblemSeed), and the library
// receives only those inputs; every answer is checked here (check.hpp),
// never taken from the solver's own report. Times are wall seconds around
// calls into the library's public functions; no library code is changed or
// hooked.
//
// --trace 0 reports the end-to-end metrics: medians over solves repeated
// for --seconds, after one untimed warm-up solve per configuration.
// --trace 1 reports the per-layer metrics: the same calls split into
// their public steps and timed from outside, fixed-sweep kernel runs, the
// reference floors of refs.hpp, and counters from an obs::MetricsRegistry
// attached through the options' existing `metrics` field. A layer that a
// workload does not exercise reports 0.
//
// Output: a "# stamp" line (host, build, inputs), a "# detail" line (sample
// counts, self-checks, failure reasons) and, last, the result object
// {"correct", "attempted", "failed", "metrics"}.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "ajac/core/ajac.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/fe.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/sell_csr.hpp"
#include "ajac/util/rng.hpp"
#include "check.hpp"
#include "refs.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ajac;
using perfbench::Expect;
using perfbench::median;
using perfbench::seconds_since;
using perfbench::verify;
using Clock = std::chrono::steady_clock;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed names and units).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"async_tts_s", "s"},
    {"sync_tts_s", "s"},
    {"async_relax_per_n", "relax/n"},
    {"sync_relax_per_n", "relax/n"},
};

constexpr MetricDef kPerLayer[] = {
    {"gen.problem_s", "s"},
    {"partition.nnz_balanced_s", "s"},
    {"partition.graph_growing_s", "s"},
    {"partition.nnz_imbalance", "ratio"},
    {"sparse.blocked_build_s", "s"},
    {"sparse.sell_build_s", "s"},
    {"sparse.residual_s", "s"},
    {"runtime.parallel_s", "s"},
    {"runtime.outside_parallel_s", "s"},
    {"runtime.relax_mrows_per_s", "Mrows/s"},
    {"runtime.residual_scan_share", "ratio"},
    {"runtime.iteration_us.p50", "us"},
    {"runtime.iteration_us.p99", "us"},
    {"runtime.blocked_mrows_per_s", "Mrows/s"},
    {"runtime.sellcs_mrows_per_s", "Mrows/s"},
    {"runtime.bytes_per_relax", "B/relax"},
    {"runtime.bw_fraction", "ratio"},
    {"runtime.iter_spread", "ratio"},
    {"runtime.ghost_read_share", "ratio"},
    {"runtime.flag_raises", "count"},
    {"runtime.polish_sweeps", "count"},
    {"runtime.cold_start_s", "s"},
    {"batch8_s_per_rhs", "s"},
    {"runtime.batch_lane_useful", "ratio"},
    {"mesh_tts_s", "s"},
    {"mesh.parallel_s", "s"},
    {"mesh.residual_scan_share", "ratio"},
    {"mesh.messages_per_relax", "msg/relax"},
    {"mesh.queue_full_drops", "count"},
    {"sim_host_s", "s"},
    {"distsim.host_us_per_relax", "us"},
    {"distsim.messages", "count"},
    {"distsim.stale_ghost_share", "ratio"},
    {"analysis_s", "s"},
    {"model.analyze_s", "s"},
    {"model.propagated_fraction", "ratio"},
    {"obs.overhead", "ratio"},
    {"ref.triad_gbps", "GB/s"},
    {"ref.spmv_mrows_per_s", "Mrows/s"},
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      args.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(val);
    } else if (key == "--seconds") {
      args.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = val == "1";
    } else if (key == "--git-sha") {
      args.git_sha = val;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// Everything one run reports: metric values (keyed by the tables above),
/// free-form detail, stamp fields, and the solve ledger.
struct Run {
  Args args;
  index_t threads = 1;
  double triad_array_bytes = 0.0;  ///< 0: no triad in this run
  perfbench::Ledger ledger;
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> detail;  // key, JSON
  std::vector<std::pair<std::string, std::string>> stamp;   // key, JSON

  void set(const std::string& name, double value) {
    if (!std::isfinite(value)) {
      ledger.record_check("metric " + name + " is not finite", false);
      value = 0.0;
    }
    metrics[name] = value;
  }
  void note(const std::string& key, double value) {
    detail.emplace_back(key, std::isfinite(value) ? json_number(value)
                                                  : std::string("null"));
  }
  void note_count(const std::string& key, std::size_t count) {
    detail.emplace_back(key, std::to_string(count));
  }
};

template <class F>
auto timed(double& seconds, F&& f) {
  const auto t0 = Clock::now();
  auto result = f();
  seconds = seconds_since(t0);
  return result;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Most threads or agents any solve uses: nproc, at most 4.
index_t thread_cap() {
  return static_cast<index_t>(
      std::clamp<long>(sysconf(_SC_NPROCESSORS_ONLN), 1, 4));
}

std::uint64_t counter(const obs::MetricsSnapshot& s, obs::Counter c) {
  return s.totals[static_cast<std::size_t>(c)];
}

// ---------------------------------------------------------------------------
// Checker self-test: a scratch ledger must pass a converged x and count as
// failed a perturbed x, a NaN x, a "synchronous FE" result that converged
// instead of diverging, and a good x whose repeated output changed.

void checker_self_test(Run& run) {
  const gen::LinearProblem p =
      gen::make_problem("fd12", gen::fd_laplacian_2d(12, 12), 7);
  SolveConfig c;
  c.backend = Backend::kSequential;
  c.tolerance = 1e-10;
  c.max_iterations = 100000;
  const Solution s = solve(p.a, p.b, p.x0, c);
  const double tol = 1e-6;
  Vector perturbed = s.x;
  perturbed[perturbed.size() / 2] += 1e-2;
  Vector nan_x = s.x;
  nan_x[0] = std::numeric_limits<double>::quiet_NaN();

  perfbench::Ledger scratch;
  scratch.record("good", verify(p.a, p.b, p.x0, s.x, tol, Expect::kConverged));
  const bool good_passed = scratch.failed() == 0;
  scratch.record("perturbed",
                 verify(p.a, p.b, p.x0, perturbed, tol, Expect::kConverged));
  scratch.record("nan", verify(p.a, p.b, p.x0, nan_x, tol, Expect::kConverged));
  scratch.record("converging sync FE",
                 verify(p.a, p.b, p.x0, s.x, tol, Expect::kDiverged));
  scratch.record("changed repeat",
                 verify(p.a, p.b, p.x0, s.x, tol, Expect::kConverged), false);
  const bool ok = good_passed && scratch.attempted() == 5 &&
                  scratch.failed() == 4;
  run.ledger.record_check("checker self-test", ok);
  run.detail.emplace_back("checker_self_test", ok ? "true" : "false");
}

// ---------------------------------------------------------------------------
// Shared-memory FD workloads (fd2d-tol, fd2d-large).

struct FdSpec {
  index_t edge;
  double tol;
  index_t max_threads;    ///< solver threads, further capped at nproc
  index_t mesh_agents;    ///< mesh agents (trace), further capped at nproc
  int pool;               ///< timed systems, each solved equally often
  index_t kernel_sweeps;  ///< fixed-sweep kernel runs (trace)
  int layer_reps;         ///< repetitions of each traced measurement
  bool with_mesh_batch;   ///< mesh and solve_batch (trace)
  bool with_triad;        ///< STREAM triad reference (trace)
};

// fd2d-tol runs 1 solver thread on FD 64x64 (in cache; the thread relaxes
// all n rows and scans all n residuals per iteration). Its synchronous
// solve crosses three barriers per iteration, ~20 us apart, so with more
// than one thread its time is mostly barrier wake-up latency, and on a busy
// host every delayed thread stalls all of them: run medians of the same
// code spread 16-44% (IQR/median, ten runs) with 4 threads on FD 96x96,
// and 16-44% again with 2 threads on FD 64x64 on a host where the solve
// took 3x its quiet time. One thread leaves only compute, which a busy
// host slows in proportion. The mesh layers still need two agents to
// exchange messages; they are per-layer metrics only.
constexpr FdSpec kFdTol{64, 1e-6, 1, 2, 4, 2000, 3, true, false};
constexpr FdSpec kFdLarge{2048, 1e-1, 4, 4, 1, 10, 3, false, true};

struct SetupTimes {
  std::vector<double> total;
  std::vector<double> gen;
  std::vector<double> graph_growing;
  double spent = 0.0;  ///< sum of `total`

  void add_total(double seconds) {
    total.push_back(seconds);
    spent += seconds;
  }
  double mean() const { return spent / static_cast<double>(total.size()); }
};

// Set-up runs at least three times before the first solve, and then up to
// 401 times and a quarter of the run's seconds (the traced run) or half of
// that (the end-to-end run); the problem of the last repetition is kept.
// The end-to-end run repeats set-up as often again after its timed solves
// (finish_setup), within the quarter, and setup_s is the mean over both
// windows. One FD 64x64
// set-up takes 0.73 or 1.1 ms in phases tens of repetitions long, so a
// median jumps between the two as their shares in a window move around a
// half, where the mean moves with the shares; two windows 30 s apart
// average over more of the host's slower drifts. Set-up between the timed
// solves would be steadier still, but it slowed the solves after it by
// ~10% on fd2d-tol.
constexpr std::size_t kMaxSetupReps = 401;

double setup_budget(const Args& args) { return 0.25 * args.seconds; }

bool more_setup(const SetupTimes& t, double budget_s) {
  return t.total.size() < 3 ||
         (t.spent < budget_s && t.total.size() < kMaxSetupReps);
}

/// The end-to-end run's second set-up window: repeats set-up, discarding
/// its result, up to as many times as the first window did and while one
/// more repetition of the mean length keeps all set-up within `budget_s`.
void finish_setup(SetupTimes& t, double budget_s,
                  const std::function<void()>& setup_once) {
  const std::size_t first = t.total.size();
  while (t.total.size() - first < first && t.spent + t.mean() <= budget_s) {
    setup_once();
  }
}

gen::LinearProblem setup_fd_once(const FdSpec& spec, std::uint64_t seed,
                                 SetupTimes& times) {
  const auto t0 = Clock::now();
  const CsrMatrix raw = gen::fd_laplacian_2d(spec.edge, spec.edge);
  times.gen.push_back(seconds_since(t0));
  gen::LinearProblem p = gen::make_problem("fd2d", raw, seed);
  times.add_total(seconds_since(t0));
  return p;
}

gen::LinearProblem setup_fd(const FdSpec& spec, std::uint64_t seed,
                            double budget_s, SetupTimes& times) {
  gen::LinearProblem p;
  while (more_setup(times, budget_s)) {
    p = gen::LinearProblem{};  // free the previous repetition first
    p = setup_fd_once(spec, seed, times);
  }
  return p;
}

SolveConfig shared_config(bool synchronous, double tol, index_t threads,
                          std::uint64_t seed) {
  SolveConfig c;
  c.backend = Backend::kSharedMemory;
  c.synchronous = synchronous;
  c.parallelism = threads;
  c.tolerance = tol;
  c.max_iterations = 1000000;
  c.seed = seed;
  return c;
}

/// The SharedOptions ajac::solve builds from `c` (ajac.cpp), so the
/// facade call can be split into its public steps.
runtime::SharedOptions facade_options(const SolveConfig& c) {
  runtime::SharedOptions o;
  o.num_threads = c.parallelism;
  o.synchronous = c.synchronous;
  o.tolerance = c.tolerance;
  o.max_iterations = c.max_iterations;
  o.record_history = false;
  o.kernel = c.shared_kernel;
  o.policy_seed = c.seed;
  return o;
}

struct TimedSolve {
  Solution sol;
  double wall = 0.0;
};

TimedSolve solve_checked(Run& run, const CsrMatrix& a, const Vector& b,
                         const Vector& x0, const SolveConfig& c,
                         const char* what) {
  TimedSolve t;
  t.sol = timed(t.wall, [&] { return solve(a, b, x0, c); });
  run.ledger.record(what,
                    verify(a, b, x0, t.sol.x, c.tolerance, Expect::kConverged));
  return t;
}

TimedSolve solve_checked(Run& run, const gen::LinearProblem& p,
                         const SolveConfig& c, const char* what) {
  return solve_checked(run, p.a, p.b, p.x0, c, what);
}

double relax_per_n(index_t relaxations, index_t n) {
  return static_cast<double>(relaxations) / static_cast<double>(n);
}

/// Sample quantiles for the detail line: how a median was spread.
void note_samples(Run& run, const std::string& key, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::string out = "[";
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    if (out.size() > 1) out += ", ";
    out += json_number(v[static_cast<std::size_t>(q * (v.size() - 1))]);
  }
  run.detail.emplace_back(key + "_min_q1_med_q3_max", out + "]");
}

/// Right-hand side and start vector of one timed system, uniform in
/// [-1, 1] like gen::make_problem's.
struct System {
  Vector b;
  Vector x0;
};

// The timed systems come from a fixed pool (FdSpec::pool), the same for
// every --seed; --seed sets the set-up problem (solved in the warm-up), the
// solver's seed and where in the pool a run starts. The relaxations to a
// tolerance depend on the system (sync counts differ by ~10% between
// systems), and drawing every timed system from --seed moved the run
// median of sync_relax_per_n on FD 96x96 by 4.6% (IQR/median, ten seeds).
// A run solves the pool in whole rounds, so every run weighs each system
// alike and the sync count median is the same for every seed.
constexpr std::uint64_t kPoolSeed = 0x5eed5eedULL;

System draw_system(const gen::LinearProblem& p, int pool_index) {
  Rng rng(kPoolSeed ^
          (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(pool_index + 1)));
  System s{Vector(p.b.size()), Vector(p.x0.size())};
  for (double& v : s.b) v = rng.uniform(-1.0, 1.0);
  for (double& v : s.x0) v = rng.uniform(-1.0, 1.0);
  return s;
}

// Each timed async/sync pair solves the next pool system. A time metric is
// the median over pool systems of each system's fastest solve: the work of
// one system is fixed, and a busy host only ever slows it. On a 4-vCPU
// guest with no CPU steal, one thread's solve of one system took 0.21 s in
// one run and a median of 0.46 s in another (CPU time = wall time, so the
// thread ran slower, not less); run medians of the same code spread past
// 25% (IQR/median) while the fastest solves stayed within ~10%.
void fd_end_to_end(Run& run, const FdSpec& spec, const gen::LinearProblem& p,
                   SetupTimes& times) {
  const index_t n = p.a.num_rows();
  const SolveConfig async_c =
      shared_config(false, spec.tol, run.threads, run.args.seed);
  const SolveConfig sync_c =
      shared_config(true, spec.tol, run.threads, run.args.seed);

  const TimedSolve cold = solve_checked(run, p, async_c, "async warm-up");
  (void)solve_checked(run, p, sync_c, "sync warm-up");
  run.note("cold_async_s", cold.wall);

  std::vector<double> async_s, sync_s, async_relax, sync_relax;
  std::map<int, index_t> sync_count;  // pool index -> first sync count
  std::map<int, double> async_best, sync_best;  // pool index -> fastest
  auto keep_fastest = [](std::map<int, double>& best, int j, double wall) {
    const auto [it, fresh] = best.emplace(j, wall);
    if (!fresh) it->second = std::min(it->second, wall);
  };
  const auto t0 = Clock::now();
  for (int k = 0; k < spec.pool || k % spec.pool != 0 ||
                  seconds_since(t0) < run.args.seconds;
       ++k) {
    const int j = static_cast<int>((run.args.seed + k) % spec.pool);
    const System sys = draw_system(p, j);
    const TimedSolve a =
        solve_checked(run, p.a, sys.b, sys.x0, async_c, "async");
    async_s.push_back(a.wall);
    keep_fastest(async_best, j, a.wall);
    async_relax.push_back(relax_per_n(a.sol.relaxations, n));
    TimedSolve s;
    s.sol = timed(s.wall, [&] { return solve(p.a, sys.b, sys.x0, sync_c); });
    // A pool system solved again must repeat its sync count exactly.
    const auto first = sync_count.emplace(j, s.sol.relaxations).first;
    run.ledger.record("sync",
                      verify(p.a, sys.b, sys.x0, s.sol.x, spec.tol,
                             Expect::kConverged),
                      s.sol.relaxations == first->second);
    sync_s.push_back(s.wall);
    keep_fastest(sync_best, j, s.wall);
    sync_relax.push_back(relax_per_n(s.sol.relaxations, n));
  }
  finish_setup(times, setup_budget(run.args), [&] {
    (void)setup_fd_once(spec, run.args.seed, times);
  });
  auto median_of = [](const std::map<int, double>& best) {
    std::vector<double> v;
    for (const auto& [j, wall] : best) v.push_back(wall);
    return median(v);
  };
  run.set("async_tts_s", median_of(async_best));
  run.set("sync_tts_s", median_of(sync_best));
  run.set("async_relax_per_n", median(async_relax));
  run.set("sync_relax_per_n", median(sync_relax));
  run.note_count("systems", async_s.size());
  note_samples(run, "async_tts_s", async_s);
  note_samples(run, "sync_tts_s", sync_s);
  note_samples(run, "async_relax_per_n", async_relax);
  note_samples(run, "sync_relax_per_n", sync_relax);
}

/// Seconds for one uncontended relaxed scan of an n-entry atomic board:
/// the O(n) convergence-norm read each mesh agent does per iteration.
double board_scan_seconds(index_t n) {
  std::vector<std::atomic<double>> board(static_cast<std::size_t>(n));
  for (auto& v : board) v.store(1.0, std::memory_order_relaxed);
  const int reps = static_cast<int>(std::max<index_t>(8, 20000000 / n));
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    double norm = 0.0;
    for (const auto& v : board) norm += std::abs(v.load(std::memory_order_relaxed));
    sink += norm;
  }
  const double per_scan = seconds_since(t0) / reps;
  volatile double keep = sink;
  (void)keep;
  return per_scan;
}

void fd_mesh_layers(Run& run, const FdSpec& spec, const gen::LinearProblem& p) {
  const index_t agents = std::min(spec.mesh_agents, thread_cap());
  run.stamp.emplace_back("mesh_agents", std::to_string(agents));
  SolveConfig c = shared_config(false, spec.tol, agents, run.args.seed);
  c.backend = Backend::kMesh;
  (void)solve_checked(run, p, c, "mesh warm-up");
  std::vector<double> wall, parallel;
  for (int rep = 0; rep < spec.layer_reps; ++rep) {
    const TimedSolve t = solve_checked(run, p, c, "mesh");
    wall.push_back(t.wall);
    parallel.push_back(t.sol.seconds);
  }
  run.set("mesh_tts_s", median(wall));
  run.set("mesh.parallel_s", median(parallel));

  mesh::MeshOptions o;
  o.num_agents = agents;
  o.tolerance = spec.tol;
  o.max_iterations = c.max_iterations;
  o.record_history = false;
  obs::MetricsRegistry reg(obs::MetricsConfig{false, 0});
  o.metrics = &reg;
  const mesh::MeshResult r = mesh::solve_mesh(p.a, p.b, p.x0, o);
  run.ledger.record("mesh traced", verify(p.a, p.b, p.x0, r.x, spec.tol,
                                          Expect::kConverged));
  index_t iterations = 0;
  for (index_t it : r.iterations_per_agent) iterations += it;
  // Computed: the board scan is not timed inside the mesh, so its share is
  // iterations x an uncontended scan's time over the agents' busy time.
  const double scan_s = board_scan_seconds(p.a.num_rows());
  run.set("mesh.residual_scan_share",
          ratio(static_cast<double>(iterations) * scan_s,
                static_cast<double>(agents) * r.seconds));
  run.set("mesh.messages_per_relax",
          ratio(static_cast<double>(r.messages_sent),
                static_cast<double>(r.total_relaxations)));
  run.set("mesh.queue_full_drops", static_cast<double>(r.queue_full_drops));
  run.note("mesh_board_scan_us", scan_s * 1e6);
}

void fd_batch_layers(Run& run, const FdSpec& spec,
                     const gen::LinearProblem& p) {
  constexpr index_t k = 8;
  const index_t n = p.a.num_rows();
  MultiVector b(n, k);
  MultiVector x0(n, k);
  Rng rng(run.args.seed ^ 0xba7c8ULL);
  for (index_t i = 0; i < n; ++i) {
    for (index_t col = 0; col < k; ++col) b(i, col) = rng.uniform(-1.0, 1.0);
    for (index_t col = 0; col < k; ++col) x0(i, col) = rng.uniform(-1.0, 1.0);
  }
  SolveConfig c = shared_config(false, spec.tol, run.threads, run.args.seed);
  c.num_rhs = k;
  auto check_columns = [&](const MultiVector& x, const char* what) {
    for (index_t col = 0; col < k; ++col) {
      run.ledger.record(what, verify(p.a, b.column(col), x0.column(col),
                                     x.column(col), spec.tol,
                                     Expect::kConverged));
    }
  };
  check_columns(solve_batch(p.a, b, x0, c).x, "batch warm-up");
  std::vector<double> per_rhs;
  for (int rep = 0; rep < spec.layer_reps; ++rep) {
    double wall = 0.0;
    const BatchSolution s =
        timed(wall, [&] { return solve_batch(p.a, b, x0, c); });
    check_columns(s.x, "batch");
    per_rhs.push_back(wall / static_cast<double>(k));
  }
  run.set("batch8_s_per_rhs", median(per_rhs));

  runtime::SharedOptions o = facade_options(c);
  o.partition = partition::nnz_balanced_partition(p.a, run.threads);
  obs::MetricsRegistry reg(obs::MetricsConfig{false, 0});
  o.metrics = &reg;
  const runtime::SharedBatchResult r =
      runtime::solve_shared_batch(p.a, b, x0, o);
  check_columns(r.x, "batch traced");
  const obs::MetricsSnapshot snap = reg.snapshot();
  index_t useful = 0;
  for (index_t v : r.relaxations_per_column) useful += v;
  run.set("runtime.batch_lane_useful",
          ratio(static_cast<double>(useful),
                static_cast<double>(k) * static_cast<double>(counter(
                                             snap, obs::Counter::kRelaxations))));
}

double block_nnz_imbalance(const CsrMatrix& a, const partition::Partition& p) {
  const auto rp = a.row_ptr();
  double max_nnz = 0.0;
  for (index_t t = 0; t < p.num_parts(); ++t) {
    max_nnz = std::max(
        max_nnz, static_cast<double>(rp[p.part_end(t)] - rp[p.part_begin(t)]));
  }
  const double mean = static_cast<double>(a.num_nonzeros()) /
                      static_cast<double>(p.num_parts());
  return ratio(max_nnz, mean);
}

void fd_layers(Run& run, const FdSpec& spec, const gen::LinearProblem& p,
               double triad_gbps) {
  const index_t n = p.a.num_rows();
  const index_t nnz = p.a.num_nonzeros();
  const SolveConfig c = shared_config(false, spec.tol, run.threads,
                                      run.args.seed);
  const TimedSolve cold = solve_checked(run, p, c, "async cold");

  // Each repetition runs the facade call, the same call split into its
  // public steps, and the split call with a MetricsRegistry attached,
  // interleaved so drift on the host hits all three alike.
  std::vector<double> facade_s, part_s, parallel_s, outside_s, untraced_s,
      traced_s, mrows, spread;
  double polish = 0.0;
  obs::Histogram iter_us;
  std::uint64_t scan_ns = 0, local_reads = 0, ghost_reads = 0, flags = 0;
  partition::Partition part;
  for (int rep = 0; rep < spec.layer_reps; ++rep) {
    facade_s.push_back(solve_checked(run, p, c, "async").wall);

    runtime::SharedOptions o = facade_options(c);
    double t_part = 0.0;
    part = timed(t_part, [&] {
      return partition::nnz_balanced_partition(p.a, run.threads);
    });
    o.partition = part;
    double t_call = 0.0;
    const runtime::SharedResult r =
        timed(t_call, [&] { return runtime::solve_shared(p.a, p.b, p.x0, o); });
    run.ledger.record("async split", verify(p.a, p.b, p.x0, r.x, spec.tol,
                                            Expect::kConverged));
    part_s.push_back(t_part);
    parallel_s.push_back(r.seconds);
    outside_s.push_back(t_call - r.seconds);
    untraced_s.push_back(t_part + t_call);
    mrows.push_back(static_cast<double>(r.total_relaxations) / r.seconds / 1e6);
    const auto [lo, hi] = std::minmax_element(r.iterations_per_thread.begin(),
                                              r.iterations_per_thread.end());
    spread.push_back(ratio(static_cast<double>(*hi), static_cast<double>(*lo)));
    polish += static_cast<double>(r.polish_sweeps);

    obs::MetricsRegistry reg(obs::MetricsConfig{false, 0});
    double t_traced = 0.0;
    const runtime::SharedResult tr = timed(t_traced, [&] {
      runtime::SharedOptions to = facade_options(c);
      to.partition = partition::nnz_balanced_partition(p.a, run.threads);
      to.metrics = &reg;
      return runtime::solve_shared(p.a, p.b, p.x0, to);
    });
    run.ledger.record("async traced", verify(p.a, p.b, p.x0, tr.x, spec.tol,
                                             Expect::kConverged));
    traced_s.push_back(t_traced);
    const obs::MetricsSnapshot snap = reg.snapshot();
    scan_ns += counter(snap, obs::Counter::kResidualCheckNs);
    local_reads += counter(snap, obs::Counter::kLocalReads);
    ghost_reads += counter(snap, obs::Counter::kGhostReads);
    flags += counter(snap, obs::Counter::kFlagRaises);
    iter_us.merge(
        snap.histograms[static_cast<std::size_t>(obs::Hist::kIterationUs)]);
  }
  const double reps = static_cast<double>(spec.layer_reps);
  run.set("runtime.cold_start_s", cold.wall - median(facade_s));
  run.set("partition.nnz_balanced_s", median(part_s));
  run.set("partition.nnz_imbalance", block_nnz_imbalance(p.a, part));
  run.set("runtime.parallel_s", median(parallel_s));
  run.set("runtime.outside_parallel_s", median(outside_s));
  run.set("runtime.relax_mrows_per_s", median(mrows));
  run.set("runtime.iter_spread", median(spread));
  run.set("runtime.polish_sweeps", polish / reps);
  run.set("runtime.residual_scan_share",
          ratio(static_cast<double>(scan_ns),
                1e3 * static_cast<double>(iter_us.sum())));
  run.set("runtime.iteration_us.p50",
          static_cast<double>(iter_us.percentile(0.50)));
  run.set("runtime.iteration_us.p99",
          static_cast<double>(iter_us.percentile(0.99)));
  run.set("runtime.ghost_read_share",
          ratio(static_cast<double>(ghost_reads),
                static_cast<double>(ghost_reads + local_reads)));
  run.set("runtime.flag_raises", static_cast<double>(flags) / reps);
  run.set("obs.overhead", median(traced_s) / median(untraced_s) - 1.0);
  const double layer_sum =
      median(part_s) + median(parallel_s) + median(outside_s);
  run.note("layer_sum_s", layer_sum);
  run.note("facade_async_s", median(facade_s));
  run.note("layer_sum_gap", layer_sum / median(facade_s) - 1.0);

  // Layout builds and the serial residual the solve call performs.
  std::vector<double> blocked_s, sell_s, residual_s;
  for (int rep = 0; rep < 3; ++rep) {
    double tb = 0.0, ts = 0.0, tr = 0.0;
    const BlockedCsr blocked =
        timed(tb, [&] { return partition::blocked_csr(p.a, part); });
    const SellCsr sell = timed(ts, [&] { return SellCsr(blocked); });
    Vector r(static_cast<std::size_t>(n));
    (void)timed(tr, [&] {
      p.a.residual(p.x0, p.b, r);
      return r[0];
    });
    blocked_s.push_back(tb);
    sell_s.push_back(ts);
    residual_s.push_back(tr);
  }
  run.set("sparse.blocked_build_s", median(blocked_s));
  run.set("sparse.sell_build_s", median(sell_s));
  run.set("sparse.residual_s", median(residual_s));

  // Fixed-sweep kernel runs: every kernel does identical work.
  auto kernel_rate = [&](runtime::KernelKind kind) {
    runtime::SharedOptions o;
    o.num_threads = run.threads;
    o.kernel = kind;
    o.tolerance = 0.0;
    o.max_iterations = spec.kernel_sweeps;
    o.record_history = false;
    o.final_polish = false;
    o.partition = part;
    std::vector<double> rates;
    for (int rep = 0; rep < 3; ++rep) {
      const runtime::SharedResult r = runtime::solve_shared(p.a, p.b, p.x0, o);
      rates.push_back(static_cast<double>(r.total_relaxations) / r.seconds /
                      1e6);
    }
    return median(rates);
  };
  const double blocked_rate = kernel_rate(runtime::KernelKind::kBlocked);
  run.set("runtime.blocked_mrows_per_s", blocked_rate);
  run.set("runtime.sellcs_mrows_per_s",
          kernel_rate(runtime::KernelKind::kSellCS));

  // Computed traffic (bench_scale's model for the blocked kernel): matrix
  // stream 16 B/nnz, 8 B row pointer, 32 B of vector streams per row, and
  // the residual scan's 8 B x n per thread.
  const double bytes_per_relax =
      (16.0 * static_cast<double>(nnz) + 40.0 * static_cast<double>(n) +
       8.0 * static_cast<double>(n) * static_cast<double>(run.threads)) /
      static_cast<double>(n);
  run.set("runtime.bytes_per_relax", bytes_per_relax);
  run.set("runtime.bw_fraction",
          ratio(blocked_rate * 1e6 * bytes_per_relax, triad_gbps * 1e9));
  run.set("ref.spmv_mrows_per_s",
          perfbench::spmv_mrows_per_s(p.a, static_cast<int>(run.threads), 5));

  if (spec.with_mesh_batch) {
    fd_batch_layers(run, spec, p);
    fd_mesh_layers(run, spec, p);
  }
}

/// STREAM triad with each array at least four times the reported
/// last-level cache. If three such arrays would take more than half the
/// free memory, the arrays shrink to fit and the stamp says so.
double run_triad(Run& run) {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const double want = llc > 0 ? 4.0 * static_cast<double>(llc) : 256.0 * (1 << 20);
  const double free_bytes = static_cast<double>(sysconf(_SC_AVPHYS_PAGES)) *
                            static_cast<double>(sysconf(_SC_PAGESIZE));
  const double bytes = std::min(want, free_bytes / 6.0);
  const auto elems = static_cast<std::size_t>(bytes / 8.0);
  const double gbps =
      perfbench::triad_gbps(elems, static_cast<int>(run.threads), 5);
  run.triad_array_bytes = static_cast<double>(elems) * 8.0;
  run.stamp.emplace_back("triad_below_4x_llc",
                         run.triad_array_bytes < want ? "true" : "false");
  return gbps;
}

void run_fd(Run& run, const FdSpec& spec) {
  run.threads = std::min(run.threads, spec.max_threads);
  const double triad = run.args.trace && spec.with_triad ? run_triad(run) : 0.0;
  SetupTimes times;
  const gen::LinearProblem p =
      setup_fd(spec, run.args.seed,
               run.args.trace ? setup_budget(run.args)
                              : 0.5 * setup_budget(run.args),
               times);
  run.stamp.emplace_back("n", std::to_string(p.a.num_rows()));
  run.stamp.emplace_back("nnz", std::to_string(p.a.num_nonzeros()));
  if (run.args.trace) {
    run.set("gen.problem_s", median(times.gen));
    run.set("ref.triad_gbps", triad);
    fd_layers(run, spec, p, triad);
  } else {
    fd_end_to_end(run, spec, p, times);
    run.set("setup_s", times.mean());
  }
  run.note_count("setup_reps", times.total.size());
  note_samples(run, "setup_s", times.total);
}

// ---------------------------------------------------------------------------
// fe-distsim: the paper's FE 3081 matrix (rho(G) > 1) on the discrete-event
// simulator, plus the Fig. 2 trace analysis on FD 272.

constexpr index_t kFeWorkers = 272;
constexpr index_t kFeCores = 68;
constexpr double kFeTol = 1e-4;
constexpr index_t kFeSyncIterations = 600;
constexpr index_t kFig2Workers = 34;
constexpr index_t kFig2Iterations = 100;
// The system (b, x0) and the partitions are fixed; --seed drives the
// simulated machine's speed and latency noise. (Drawing b and x0 from
// --seed moves the asynchronous FE count by +-30% between seeds.)
constexpr std::uint64_t kProblemSeed = 1;

struct Partitioned {
  CsrMatrix a;
  Vector b;
  Vector x0;
  partition::Partition part;
};

Partitioned partition_problem(const gen::LinearProblem& p, index_t parts,
                              std::uint64_t seed, double* graph_growing_s) {
  Partitioned out;
  const partition::PartitionedSystem sys = timed(*graph_growing_s, [&] {
    return partition::graph_growing_partition(p.a, parts, seed);
  });
  out.a = sys.perm.apply_symmetric(p.a);
  out.b = sys.perm.apply(p.b);
  out.x0 = sys.perm.apply(p.x0);
  out.part = sys.partition;
  return out;
}

struct FeInputs {
  Partitioned fe;
  Partitioned fd272;
};

FeInputs setup_fe_once(SetupTimes& times) {
  FeInputs in;
  const auto t0 = Clock::now();
  const CsrMatrix fe_raw = gen::paper_fe_3081();
  const CsrMatrix fd_raw = gen::paper_fd_272();
  times.gen.push_back(seconds_since(t0));
  const gen::LinearProblem fe =
      gen::make_problem("fe3081", fe_raw, kProblemSeed);
  const gen::LinearProblem fd =
      gen::make_problem("fd272", fd_raw, kProblemSeed);
  double gg = 0.0, unused = 0.0;
  in.fe = partition_problem(fe, kFeWorkers, kProblemSeed, &gg);
  in.fd272 = partition_problem(fd, kFig2Workers, kProblemSeed, &unused);
  times.graph_growing.push_back(gg);
  times.add_total(seconds_since(t0));
  return in;
}

FeInputs setup_fe(double budget_s, SetupTimes& times) {
  FeInputs in;
  while (more_setup(times, budget_s)) in = setup_fe_once(times);
  return in;
}

distsim::DistOptions fe_options(bool synchronous, index_t n,
                                std::uint64_t seed) {
  distsim::DistOptions o;
  o.num_processes = kFeWorkers;
  o.synchronous = synchronous;
  o.cost = distsim::CostModel::shared_memory_like(n);
  o.cost.cores = kFeCores;
  o.seed = seed;
  if (synchronous) {
    o.max_iterations = kFeSyncIterations;
  } else {
    o.max_iterations = 100000;
    o.tolerance = kFeTol;
  }
  return o;
}

struct DistRun {
  distsim::DistResult r;
  double wall = 0.0;
};

/// Outputs of the simulator that must repeat exactly for one seed.
bool same_simulation(const distsim::DistResult& a,
                     const distsim::DistResult& b) {
  return a.sim_seconds == b.sim_seconds &&
         a.total_relaxations == b.total_relaxations &&
         a.total_messages == b.total_messages && a.x == b.x;
}

DistRun fe_solve(Run& run, const Partitioned& fe, bool synchronous,
                 const char* what, const distsim::DistResult* reference,
                 obs::MetricsRegistry* metrics = nullptr) {
  distsim::DistOptions o =
      fe_options(synchronous, fe.a.num_rows(), run.args.seed);
  o.metrics = metrics;
  DistRun d;
  d.r = timed(d.wall, [&] {
    return distsim::solve_distributed(fe.a, fe.b, fe.x0, fe.part, o);
  });
  const perfbench::Verdict v =
      synchronous ? verify(fe.a, fe.b, fe.x0, d.r.x, 0.0, Expect::kDiverged)
                  : verify(fe.a, fe.b, fe.x0, d.r.x, kFeTol,
                           Expect::kConverged);
  run.ledger.record(what, v,
                    reference == nullptr || same_simulation(d.r, *reference));
  return d;
}

// On this workload the times to tolerance are the simulated machine's
// seconds, the paper's Fig. 6 axis: they repeat exactly for one seed. The
// simulator's host wall time is noisy between runs on a shared host (the
// same simulation took 1.6 s in one run and 2.3 s in another), so it is
// the per-layer sim_host_s; the repeated solves here check determinism.
void fe_end_to_end(Run& run, const FeInputs& in, SetupTimes& times) {
  const double n = static_cast<double>(in.fe.a.num_rows());
  const DistRun async_ref =
      fe_solve(run, in.fe, false, "fe async warm-up", nullptr);
  const DistRun sync_ref =
      fe_solve(run, in.fe, true, "fe sync warm-up", nullptr);
  std::vector<double> host_s;
  const auto t0 = Clock::now();
  while (host_s.size() < 3 || seconds_since(t0) < run.args.seconds) {
    host_s.push_back(
        fe_solve(run, in.fe, false, "fe async", &async_ref.r).wall);
    (void)fe_solve(run, in.fe, true, "fe sync", &sync_ref.r);
  }
  finish_setup(times, setup_budget(run.args),
               [&] { (void)setup_fe_once(times); });
  run.set("async_tts_s", async_ref.r.sim_seconds);
  run.set("sync_tts_s", sync_ref.r.sim_seconds);
  run.set("async_relax_per_n",
          static_cast<double>(async_ref.r.total_relaxations) / n);
  run.set("sync_relax_per_n",
          static_cast<double>(sync_ref.r.total_relaxations) / n);
  run.note_count("repetitions", host_s.size());
  note_samples(run, "async_host_s", host_s);
  run.note("sync_final_rel_residual", sync_ref.r.final_rel_residual_1);
}

void fe_layers(Run& run, const FeInputs& in) {
  constexpr int kReps = 5;
  const DistRun cold = fe_solve(run, in.fe, false, "fe async cold", nullptr);
  std::vector<double> untraced_s, traced_s;
  for (int rep = 0; rep < kReps; ++rep) {
    untraced_s.push_back(
        fe_solve(run, in.fe, false, "fe async", &cold.r).wall);
    obs::MetricsRegistry reg(obs::MetricsConfig{false, 0});
    traced_s.push_back(
        fe_solve(run, in.fe, false, "fe async traced", &cold.r, &reg).wall);
  }
  (void)fe_solve(run, in.fe, true, "fe sync", nullptr);
  const distsim::DistResult& r = cold.r;
  run.set("runtime.cold_start_s", cold.wall - median(untraced_s));
  run.set("obs.overhead", median(traced_s) / median(untraced_s) - 1.0);
  run.set("partition.nnz_imbalance",
          block_nnz_imbalance(in.fe.a, in.fe.part));
  run.set("sim_host_s", median(untraced_s));
  run.set("distsim.host_us_per_relax",
          1e6 * median(untraced_s) / static_cast<double>(r.total_relaxations));
  run.set("distsim.messages", static_cast<double>(r.total_messages));
  run.set("distsim.stale_ghost_share",
          ratio(static_cast<double>(r.stale_ghost_reads),
                static_cast<double>(r.total_ghost_reads)));

  // Fig. 2: record an asynchronous trace on FD 272 at 34 workers and count
  // the relaxations expressible as propagation matrices.
  const Partitioned& fd = in.fd272;
  distsim::DistOptions o;
  o.num_processes = kFig2Workers;
  o.max_iterations = kFig2Iterations;
  o.record_trace = true;
  o.seed = run.args.seed;
  o.cost = distsim::CostModel::shared_memory_like(fd.a.num_rows());
  std::vector<double> analysis_s, analyze_s;
  double fraction = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    const distsim::DistResult tr =
        distsim::solve_distributed(fd.a, fd.b, fd.x0, fd.part, o);
    double t_analyze = 0.0;
    const model::PropagationAnalysis an =
        timed(t_analyze, [&] { return model::analyze_trace(*tr.trace); });
    analysis_s.push_back(seconds_since(t0));
    analyze_s.push_back(t_analyze);
    // 100 asynchronous iterations on a rho(G) < 1 matrix must reduce the
    // residual, and the fraction must repeat exactly for one seed.
    run.ledger.record("fig2 trace",
                      verify(fd.a, fd.b, fd.x0, tr.x, 1.0, Expect::kConverged),
                      rep == 0 || an.fraction == fraction);
    fraction = an.fraction;
  }
  run.set("analysis_s", median(analysis_s));
  run.set("model.analyze_s", median(analyze_s));
  run.set("model.propagated_fraction", fraction);
}

void run_fe(Run& run) {
  SetupTimes times;
  const FeInputs in = setup_fe(
      run.args.trace ? setup_budget(run.args) : 0.5 * setup_budget(run.args),
      times);
  run.stamp.emplace_back("n", std::to_string(in.fe.a.num_rows()));
  run.stamp.emplace_back("nnz", std::to_string(in.fe.a.num_nonzeros()));
  if (run.args.trace) {
    run.set("gen.problem_s", median(times.gen));
    run.set("partition.graph_growing_s", median(times.graph_growing));
    fe_layers(run, in);
  } else {
    fe_end_to_end(run, in, times);
    run.set("setup_s", times.mean());
  }
  run.note_count("setup_reps", times.total.size());
  note_samples(run, "setup_s", times.total);
}

// ---------------------------------------------------------------------------

void print_object(const char* prefix,
                  const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string line = prefix;
  line += "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(kv[i].first) + ": " + kv[i].second;
  }
  std::printf("%s}\n", line.c_str());
}

void print_report(Run& run) {
  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  std::vector<std::pair<std::string, std::string>> stamp = {
      {"workload", json_string(run.args.workload)},
      {"seed", std::to_string(run.args.seed)},
      {"seconds", json_number(run.args.seconds)},
      {"trace", run.args.trace ? "1" : "0"},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"solver_threads", std::to_string(run.threads)},
      {"build_type", json_string(PERFBENCH_BUILD_TYPE)},
      {"usable_for_comparison", release && ndebug ? "true" : "false"},
      {"compiler", json_string(__VERSION__)},
      {"git_sha", json_string(run.args.git_sha)},
      {"llc_bytes", std::to_string(llc)},
      {"triad_array_bytes", json_number(run.triad_array_bytes)},
  };
  stamp.insert(stamp.end(), run.stamp.begin(), run.stamp.end());
  print_object("# stamp ", stamp);
  if (!(release && ndebug)) {
    std::fprintf(stderr,
                 "warning: %s build; numbers are not usable for comparisons\n",
                 PERFBENCH_BUILD_TYPE);
  }

  std::vector<std::pair<std::string, std::string>> detail = run.detail;
  detail.emplace_back("fail_rate",
                      json_number(ratio(static_cast<double>(run.ledger.failed()),
                                        static_cast<double>(
                                            run.ledger.attempted()))));
  std::string failures = "[";
  for (std::size_t i = 0; i < run.ledger.failures().size(); ++i) {
    if (i > 0) failures += ", ";
    failures += json_string(run.ledger.failures()[i]);
  }
  detail.emplace_back("failures", failures + "]");
  print_object("# detail ", detail);

  std::string metrics;
  bool complete = true;
  auto emit = [&](const MetricDef& m) {
    const auto it = run.metrics.find(m.name);
    // A layer this workload does not exercise reports 0.
    const double v = it == run.metrics.end() ? 0.0 : it->second;
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + json_number(v) +
               ", \"unit\": " + json_string(m.unit) + "}";
  };
  if (run.args.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) {
      complete = complete && run.metrics.count(m.name) == 1;
      emit(m);
    }
  }
  const bool correct = complete && run.ledger.failed() == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", run.ledger.attempted(), run.ledger.failed(),
      metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Run run;
    run.args = parse_args(argc, argv);
    run.threads = thread_cap();
    checker_self_test(run);
    if (run.args.workload == "fd2d-tol") {
      run_fd(run, kFdTol);
    } else if (run.args.workload == "fd2d-large") {
      run_fd(run, kFdLarge);
    } else if (run.args.workload == "fe-distsim") {
      run_fe(run);
    } else {
      throw std::invalid_argument("unknown workload " + run.args.workload);
    }
    print_report(run);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
