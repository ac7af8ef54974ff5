// Each runtime rejects a plan naming a fault kind it does not inject,
// instead of running it and reporting zero events (a "tested" scenario
// that tested nothing). fault::require_honoured holds the one table.

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "ajac/distsim/dist_jacobi.hpp"
#include "ajac/fault/fault_plan.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/mesh/mesh_jacobi.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/multi_vector.hpp"
#include "test_helpers.hpp"

namespace ajac {
namespace {

constexpr index_t kActors = 2;

gen::LinearProblem problem() {
  return gen::make_problem("fd", gen::fd_laplacian_2d(6, 6),
                           ajac::testing::test_seed());
}

std::shared_ptr<fault::FaultPlan> message_plan() {
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->message_faults.push_back(
      {.drop_probability = 1.0, .duplicate_probability = 1.0});
  return plan;
}

std::shared_ptr<fault::FaultPlan> bit_flip_plan() {
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->bit_flips.push_back({.actor = -1, .probability = 0.01});
  return plan;
}

std::shared_ptr<fault::FaultPlan> reorder_plan() {
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->message_faults.push_back({.reorder_probability = 0.2});
  return plan;
}

/// Runs `solve` and expects a std::logic_error whose message contains
/// every needle.
template <class Fn>
void expect_rejected(Fn&& solve, std::initializer_list<const char*> needles) {
  try {
    solve();
    ADD_FAILURE() << "plan was accepted";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    for (const char* needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "missing \"" << needle << "\" in: " << what;
    }
  }
}

runtime::SharedOptions shared_options(
    std::shared_ptr<fault::FaultPlan> plan) {
  runtime::SharedOptions o;
  o.num_threads = kActors;
  o.max_iterations = 10;
  o.record_history = false;  // single-RHS only: the batch would reject it
  o.fault_plan = std::move(plan);
  return o;
}

TEST(FaultHonoured, SharedRejectsMessageFaults) {
  const auto p = problem();
  const auto o = shared_options(message_plan());
  expect_rejected([&] { (void)runtime::solve_shared(p.a, p.b, p.x0, o); },
                  {"solve_shared", "messages"});
}

TEST(FaultHonoured, BatchRejectsMessageFaults) {
  const auto p = problem();
  const index_t n = p.a.num_rows();
  MultiVector b(n, 2);
  MultiVector x0(n, 2);
  for (index_t c = 0; c < 2; ++c) {
    b.set_column(c, p.b);
    x0.set_column(c, p.x0);
  }
  const auto o = shared_options(message_plan());
  expect_rejected(
      [&] { (void)runtime::solve_shared_batch(p.a, b, x0, o); },
      {"solve_shared_batch", "messages"});
}

TEST(FaultHonoured, MeshRejectsBitFlipsAndReordering) {
  const auto p = problem();
  mesh::MeshOptions o;
  o.num_agents = kActors;
  o.max_iterations = 10;
  o.fault_plan = bit_flip_plan();
  expect_rejected([&] { (void)mesh::solve_mesh(p.a, p.b, p.x0, o); },
                  {"solve_mesh", "bit flips"});
  o.fault_plan = reorder_plan();
  expect_rejected([&] { (void)mesh::solve_mesh(p.a, p.b, p.x0, o); },
                  {"solve_mesh", "reordering"});
  // Drop and duplicate are the mesh's own message faults.
  o.fault_plan = message_plan();
  EXPECT_NO_THROW((void)mesh::solve_mesh(p.a, p.b, p.x0, o));
}

TEST(FaultHonoured, DistsimRejectsBitFlips) {
  const auto p = problem();
  const auto part = partition::contiguous_partition(p.a.num_rows(), kActors);
  distsim::DistOptions o;
  o.num_processes = kActors;
  o.max_iterations = 10;
  o.fault_plan = bit_flip_plan();
  expect_rejected(
      [&] { (void)distsim::solve_distributed(p.a, p.b, p.x0, part, o); },
      {"solve_distributed", "bit flips"});
  // Reordering is a distsim fault.
  o.fault_plan = reorder_plan();
  EXPECT_NO_THROW(
      (void)distsim::solve_distributed(p.a, p.b, p.x0, part, o));
}

}  // namespace
}  // namespace ajac
