// One verified stop, one kStop instant: every in-process runtime records
// the stop decision exactly once per solve, on whichever actor's poll set
// the global stop — never once per actor that passed verification. Every
// runtime records its flag raises the same way too: one kFlagRaise instant
// on the timeline per kFlagRaises count.

#include <gtest/gtest.h>

#include <cstdint>

#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/mesh/mesh_jacobi.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/sparse/multi_vector.hpp"
#include "test_helpers.hpp"

namespace ajac {
namespace {

int stop_instants(const obs::MetricsRegistry& reg) {
  int count = 0;
  for (index_t t = 0; t < reg.num_actors(); ++t) {
    for (const obs::TraceEvent& e : reg.actor(t).events) {
      count += e.kind == obs::TraceKind::kStop ? 1 : 0;
    }
  }
  return count;
}

void expect_one_instant_per_flag_raise(const obs::MetricsRegistry& reg,
                                       const char* runtime) {
  std::uint64_t instants = 0;
  for (index_t t = 0; t < reg.num_actors(); ++t) {
    for (const obs::TraceEvent& e : reg.actor(t).events) {
      instants += e.kind == obs::TraceKind::kFlagRaise ? 1 : 0;
    }
  }
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.dropped_trace_events, 0u) << runtime;
  EXPECT_EQ(instants, snap.totals[static_cast<std::size_t>(
                          obs::Counter::kFlagRaises)])
      << runtime;
  EXPECT_GT(instants, 0u) << runtime;
}

TEST(TerminatorStop, OneInstantPerSolveOnEveryRuntime) {
  const auto p = gen::make_problem("fd16", gen::fd_laplacian_2d(16, 16),
                                   ajac::testing::test_seed(/*salt=*/302));
  const index_t n = p.a.num_rows();
  MultiVector b1(n, 1);
  MultiVector x01(n, 1);
  b1.set_column(0, p.b);
  x01.set_column(0, p.x0);

  for (const bool synchronous : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "synchronous=" << synchronous);
    obs::MetricsRegistry reg;

    runtime::SharedOptions so;
    so.num_threads = 4;
    so.synchronous = synchronous;
    so.tolerance = 1e-6;
    so.record_history = false;
    so.yield = !synchronous;
    so.metrics = &reg;
    EXPECT_GT(runtime::solve_shared(p.a, p.b, p.x0, so).total_relaxations, 0);
    EXPECT_EQ(stop_instants(reg), 1) << "solve_shared";
    expect_one_instant_per_flag_raise(reg, "solve_shared");

    EXPECT_GT(runtime::solve_shared_batch(p.a, b1, x01, so).total_relaxations,
              0);
    EXPECT_EQ(stop_instants(reg), 1) << "solve_shared_batch, k = 1";
    expect_one_instant_per_flag_raise(reg, "solve_shared_batch, k = 1");

    mesh::MeshOptions mo;
    mo.num_agents = 4;
    mo.synchronous = synchronous;
    mo.tolerance = 1e-6;
    mo.record_history = false;
    mo.yield = !synchronous;
    mo.metrics = &reg;
    EXPECT_GT(mesh::solve_mesh(p.a, p.b, p.x0, mo).total_relaxations, 0);
    EXPECT_EQ(stop_instants(reg), 1) << "solve_mesh";
    expect_one_instant_per_flag_raise(reg, "solve_mesh");
  }
}

}  // namespace
}  // namespace ajac
