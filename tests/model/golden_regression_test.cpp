// Golden regression tests for the propagation-matrix model: committed
// relaxation traces of the FD 5-point 16x16 problem are replayed through
// analyze_trace + the model executor, and the reconstructed residual
// history must match the committed values digit for digit (Release builds
// compare bitwise; debug builds allow last-ulp slack in case flag
// differences perturb libm).
//
// The traces were recorded from the distributed simulator (deterministic
// by construction) at a fixed problem seed. To regenerate after an
// *intentional* change to the analysis or the executor:
//
//   AJAC_REGEN_GOLDEN=1 ./ajac_test_model --gtest_filter='GoldenPropagation.*'
//
// which rewrites the files under tests/model/golden/ in the source tree
// (the test still asserts afterwards, so a regen run is self-checking).
// Commit the diff deliberately — these files are the record of what the
// model computes.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ajac/distsim/dist_jacobi.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/model/executor.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/runtime/row_policy.hpp"
#include "ajac/sparse/csr.hpp"

namespace ajac::model {
namespace {

// Fixed on purpose: goldens pin one exact execution, AJAC_TEST_SEED must
// not move them.
constexpr std::uint64_t kGoldenSeed = 4242;

gen::LinearProblem golden_problem() {
  return gen::make_problem("fd16", gen::fd_laplacian_2d(16, 16), kGoldenSeed);
}

std::string golden_path(const std::string& name) {
  return std::string(AJAC_GOLDEN_DIR) + "/" + name;
}

bool regen_requested() {
  const char* env = std::getenv("AJAC_REGEN_GOLDEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with AJAC_REGEN_GOLDEN=1)";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write golden file " << path;
  out << content;
}

/// %.17g round-trips doubles exactly, so the history file is bit-stable.
std::string format_history(const TraceReplay& replay) {
  char buf[64];
  std::string out;
  out += "steps " + std::to_string(replay.analysis.parallel_steps);
  out += " propagated " + std::to_string(replay.analysis.propagated_relaxations);
  out += " total " + std::to_string(replay.analysis.total_relaxations);
  out += " orphaned " + std::to_string(replay.analysis.orphaned);
  out += "\n";
  for (const HistoryPoint& pt : replay.result.history) {
    std::snprintf(buf, sizeof(buf), "%.17g\n", pt.rel_residual_1);
    out += buf;
  }
  return out;
}

RelaxationTrace record_trace(
    index_t procs, index_t iterations,
    runtime::RowPolicy policy = runtime::RowPolicy::kNaturalOrder) {
  const auto p = golden_problem();
  distsim::DistOptions o;
  o.num_processes = procs;
  o.max_iterations = iterations;
  o.tolerance = 0.0;
  o.seed = kGoldenSeed;
  o.record_trace = true;
  o.policy = policy;
  const auto part = partition::contiguous_partition(p.a.num_rows(), procs);
  const auto r = distsim::solve_distributed(p.a, p.b, p.x0, part, o);
  return *r.trace;
}

void run_case(
    const std::string& name, index_t procs, index_t iterations,
    runtime::RowPolicy policy = runtime::RowPolicy::kNaturalOrder) {
  const std::string trace_file = golden_path(name + "_trace.json");
  const std::string history_file = golden_path(name + "_history.txt");
  const auto p = golden_problem();
  ExecutorOptions opts;
  opts.tolerance = 0.0;

  if (regen_requested()) {
    const RelaxationTrace trace = record_trace(procs, iterations, policy);
    write_file(trace_file, to_json(trace) + "\n");
    const TraceReplay replay = replay_trace(p.a, p.b, p.x0, trace, opts);
    write_file(history_file, format_history(replay));
  }

  const RelaxationTrace trace = trace_from_json(read_file(trace_file));
  ASSERT_EQ(trace.num_rows(), p.a.num_rows());
  const TraceReplay replay = replay_trace(p.a, p.b, p.x0, trace, opts);

  std::istringstream golden(read_file(history_file));
  std::string key;
  index_t steps = 0;
  index_t propagated = 0;
  index_t total = 0;
  index_t orphaned = 0;
  golden >> key >> steps;
  ASSERT_EQ(key, "steps");
  golden >> key >> propagated;
  ASSERT_EQ(key, "propagated");
  golden >> key >> total;
  ASSERT_EQ(key, "total");
  golden >> key >> orphaned;
  ASSERT_EQ(key, "orphaned");
  EXPECT_EQ(replay.analysis.parallel_steps, steps);
  EXPECT_EQ(replay.analysis.propagated_relaxations, propagated);
  EXPECT_EQ(replay.analysis.total_relaxations, total);
  EXPECT_EQ(replay.analysis.orphaned, orphaned);

  std::vector<double> residuals;
  double value = 0.0;
  while (golden >> value) residuals.push_back(value);
  ASSERT_EQ(replay.result.history.size(), residuals.size());
  for (std::size_t k = 0; k < residuals.size(); ++k) {
#ifdef NDEBUG
    // Release: the committed history is bit-stable.
    EXPECT_EQ(replay.result.history[k].rel_residual_1, residuals[k])
        << "history point " << k;
#else
    EXPECT_NEAR(replay.result.history[k].rel_residual_1, residuals[k],
                1e-14 * (1.0 + residuals[k]))
        << "history point " << k;
#endif
  }
}

TEST(GoldenPropagation, Fd16x16EightRanks) { run_case("fd16_p8", 8, 6); }

TEST(GoldenPropagation, Fd16x16FourRanks) { run_case("fd16_p4", 4, 10); }

// Sampled row policies: the recorded (row, read-version) streams — per-row
// relaxation counters under repeated draws — must replay through the Φ(l)
// analysis and the model executor to the committed histories bitwise.
TEST(GoldenPropagation, Fd16x16FourRanksUniform) {
  run_case("fd16_uniform_p4", 4, 10, runtime::RowPolicy::kUniformRandom);
}

// The paper's Fig. 1 traces as micro-goldens: their analyses are fully
// determined by Sec. IV-A and must never drift.
TEST(GoldenPropagation, Figure1Analyses) {
  const auto a = analyze_trace(figure1a_trace());
  EXPECT_EQ(a.total_relaxations, 4);
  EXPECT_EQ(a.propagated_relaxations, 4);
  EXPECT_DOUBLE_EQ(a.fraction, 1.0);
  const auto b = analyze_trace(figure1b_trace());
  EXPECT_EQ(b.total_relaxations, 4);
  EXPECT_EQ(b.propagated_relaxations, 3);
  EXPECT_DOUBLE_EQ(b.fraction, 0.75);
}

// The JSON codec itself: committed traces must survive a round trip, and
// parsing must reject malformed input instead of guessing.
TEST(GoldenPropagation, TraceJsonRoundTrip) {
  const RelaxationTrace trace = figure1b_trace();
  const RelaxationTrace back = trace_from_json(to_json(trace));
  ASSERT_EQ(back.num_rows(), trace.num_rows());
  ASSERT_EQ(back.events().size(), trace.events().size());
  for (std::size_t k = 0; k < trace.events().size(); ++k) {
    EXPECT_EQ(back.events()[k].row, trace.events()[k].row);
    ASSERT_EQ(back.events()[k].reads.size(), trace.events()[k].reads.size());
    for (std::size_t r = 0; r < trace.events()[k].reads.size(); ++r) {
      EXPECT_EQ(back.events()[k].reads[r].source_row,
                trace.events()[k].reads[r].source_row);
      EXPECT_EQ(back.events()[k].reads[r].version,
                trace.events()[k].reads[r].version);
    }
  }
  EXPECT_EQ(to_json(back), to_json(trace));
  EXPECT_THROW(trace_from_json("{\"num_rows\": 2}"), std::logic_error);
  EXPECT_THROW(trace_from_json("{\"num_rows\": 2, \"events\": ["), std::logic_error);
  EXPECT_THROW(trace_from_json("[]"), std::logic_error);
  EXPECT_THROW(trace_from_json(""), std::logic_error);
}

}  // namespace
}  // namespace ajac::model
