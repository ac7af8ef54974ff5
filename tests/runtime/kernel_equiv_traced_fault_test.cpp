// Kernel equivalence of traced runs under faults: the blocked kernel's
// read-version trace must match the reference kernel's read for read.
//
// This pins a hazard of the halo-only commit. The blocked commit writes
// only the rows other blocks read to the shared x, so the shared seqlock
// of the other rows lags the thread-private version mirror. A crash with
// state reset rewrites the own rows of the shared x, and the mirror must
// then advance its versions by that one write rather than reload them
// from the lagging seqlock; at one thread every row is unexported, so a
// reload would restart every version the trace records.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "test_helpers.hpp"

namespace ajac::runtime {
namespace {

using PerRow = std::map<index_t, std::vector<model::RelaxationRead>>;

PerRow reads_by_row(const model::RelaxationTrace& trace) {
  PerRow rows;
  for (const auto& e : trace.events()) {
    auto& seq = rows[e.row];
    seq.insert(seq.end(), e.reads.begin(), e.reads.end());
  }
  return rows;
}

TEST(KernelEquiv, SingleThreadTracedFaultPathsMatchPerRow) {
  // The plan of KernelEquiv.SingleThreadFaultPathsBitwiseIdentical: bit
  // flips, a crash with state reset at iteration 6 and stale windows.
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(10, 10),
                                   ajac::testing::test_seed(81));
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->seed = ajac::testing::test_seed(83);
  plan->bit_flips.push_back({.actor = -1, .probability = 0.02, .bit = 12});
  plan->crashes.push_back({.actor = 0,
                           .crash_iteration = 6,
                           .dead_seconds = 1e-6,
                           .reset_state_on_recovery = true});
  plan->stale_reads.push_back({.actor = -1, .period = 8, .duty = 0.5});

  SharedOptions opts;
  opts.num_threads = 1;
  opts.tolerance = 0.0;
  opts.max_iterations = 60;
  opts.record_history = false;
  opts.record_trace = true;
  opts.fault_plan = plan;

  opts.kernel = KernelKind::kBlocked;
  const SharedResult blocked = solve_shared(p.a, p.b, p.x0, opts);
  opts.kernel = KernelKind::kReference;
  const SharedResult reference = solve_shared(p.a, p.b, p.x0, opts);

  ASSERT_EQ(blocked.x.size(), reference.x.size());
  for (std::size_t i = 0; i < blocked.x.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(blocked.x[i]),
              std::bit_cast<std::uint64_t>(reference.x[i]))
        << "row " << i;
  }
  ASSERT_EQ(blocked.fault_events, reference.fault_events);
  ASSERT_TRUE(blocked.trace.has_value());
  ASSERT_TRUE(reference.trace.has_value());
  ASSERT_EQ(blocked.trace->events().size(), reference.trace->events().size());

  const PerRow blocked_rows = reads_by_row(*blocked.trace);
  const PerRow reference_rows = reads_by_row(*reference.trace);
  ASSERT_EQ(blocked_rows.size(), reference_rows.size());
  for (const auto& [row, reads] : reference_rows) {
    const auto it = blocked_rows.find(row);
    ASSERT_NE(it, blocked_rows.end()) << "row " << row << " missing";
    ASSERT_EQ(it->second.size(), reads.size()) << "row " << row;
    for (std::size_t k = 0; k < reads.size(); ++k) {
      EXPECT_EQ(it->second[k].source_row, reads[k].source_row)
          << "row " << row << " read " << k;
      EXPECT_EQ(it->second[k].version, reads[k].version)
          << "row " << row << " read " << k;
    }
  }
}

}  // namespace
}  // namespace ajac::runtime
