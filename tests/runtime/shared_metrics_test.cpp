// Observability contract of solve_shared: a null registry leaves the
// solver's results bitwise untouched, a live registry's counters agree
// with the SharedResult, and the exported timeline is valid Chrome
// trace-event JSON.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/obs/json.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/obs/trace_sink.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/aligned.hpp"
#include "ajac/util/annotate.hpp"

namespace ajac::runtime {
namespace {

gen::LinearProblem fd_problem(index_t nx, index_t ny, std::uint64_t seed) {
  return gen::make_problem("fd", gen::fd_laplacian_2d(nx, ny), seed);
}

std::uint64_t total(const obs::MetricsSnapshot& snap, obs::Counter c) {
  return snap.totals[static_cast<std::size_t>(c)];
}

#if defined(AJAC_ASAN) && AJAC_ASAN
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = tsan_enabled;
#endif

const obs::Histogram& hist(const obs::MetricsSnapshot& snap, obs::Hist h) {
  return snap.histograms[static_cast<std::size_t>(h)];
}

TEST(SharedMetrics, NullRegistryResultIsBitwiseIdentical) {
  // Synchronous mode is deterministic, so instrumented and uninstrumented
  // runs must agree bit for bit — the metrics hooks may not perturb the
  // arithmetic. Covers both kernel families and the traced read loops,
  // where the recorder is called per read (staleness, retry sink).
  const auto p = fd_problem(10, 10, 3);
  for (const KernelKind kernel :
       {KernelKind::kBlocked, KernelKind::kReference}) {
    for (const bool traced : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "reference=" << (kernel == KernelKind::kReference)
                   << " traced=" << traced);
      SharedOptions base;
      base.num_threads = 4;
      base.synchronous = true;
      base.tolerance = 0.0;
      base.max_iterations = 40;
      base.kernel = kernel;
      base.record_trace = traced;
      const SharedResult plain = solve_shared(p.a, p.b, p.x0, base);

      SharedOptions instrumented = base;
      obs::MetricsRegistry reg;
      instrumented.metrics = &reg;
      const SharedResult observed =
          solve_shared(p.a, p.b, p.x0, instrumented);

      EXPECT_DOUBLE_EQ(vec::max_abs_diff(plain.x, observed.x), 0.0);
      EXPECT_EQ(plain.total_relaxations, observed.total_relaxations);
      EXPECT_EQ(plain.iterations_per_thread, observed.iterations_per_thread);
      EXPECT_EQ(plain.polish_sweeps, observed.polish_sweeps);
      ASSERT_EQ(plain.trace.has_value(), traced);
      ASSERT_EQ(observed.trace.has_value(), traced);
      if (traced) {
        // Lockstep reads are deterministic, so the traces match read for
        // read (thread-order merge of per-thread execution order).
        const auto& want = plain.trace->events();
        const auto& got = observed.trace->events();
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t e = 0; e < want.size(); ++e) {
          ASSERT_EQ(want[e].row, got[e].row) << "event " << e;
          ASSERT_EQ(want[e].reads.size(), got[e].reads.size()) << "event " << e;
          for (std::size_t k = 0; k < want[e].reads.size(); ++k) {
            EXPECT_EQ(want[e].reads[k].source_row, got[e].reads[k].source_row);
            EXPECT_EQ(want[e].reads[k].version, got[e].reads[k].version);
          }
        }
      }
    }
  }
}

TEST(SharedMetrics, CountersAgreeWithSharedResult) {
  const auto p = fd_problem(12, 12, 5);
  SharedOptions so;
  so.num_threads = 3;
  so.tolerance = 0.0;
  so.max_iterations = 60;
  so.record_history = false;
  so.final_polish = false;
  so.yield = true;
  obs::MetricsRegistry reg;
  so.metrics = &reg;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.num_actors, 3);
  std::uint64_t iter_sum = 0;
  for (index_t it : r.iterations_per_thread) {
    iter_sum += static_cast<std::uint64_t>(it);
  }
  EXPECT_EQ(total(snap, obs::Counter::kIterations), iter_sum);
  EXPECT_EQ(total(snap, obs::Counter::kRelaxations),
            static_cast<std::uint64_t>(r.total_relaxations));
  // Per-actor iteration counts mirror iterations_per_thread exactly.
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(
        snap.per_actor[t][static_cast<std::size_t>(obs::Counter::kIterations)],
        static_cast<std::uint64_t>(r.iterations_per_thread[t]));
  }
  // Every thread finishes by raising its flag at least once.
  EXPECT_GE(total(snap, obs::Counter::kFlagRaises), 3u);
  // The iteration histogram saw every local iteration.
  EXPECT_EQ(hist(snap, obs::Hist::kIterationUs).count(), iter_sum);
}

TEST(SharedMetrics, RecordTracePopulatesStalenessHistogram) {
  const auto p = fd_problem(8, 8, 7);
  SharedOptions so;
  so.num_threads = 2;
  so.tolerance = 0.0;
  so.max_iterations = 30;
  so.record_history = false;
  so.record_trace = true;  // staleness needs the seqlock versions
  so.final_polish = false;
  so.yield = true;
  obs::MetricsRegistry reg;
  so.metrics = &reg;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  ASSERT_TRUE(r.trace.has_value());

  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::Histogram& staleness = hist(snap, obs::Hist::kReadStaleness);
  // One sample per cross-row read of a traced relaxation.
  EXPECT_GT(staleness.count(), 0u);
  // Staleness is measured in iterations; it can never exceed the cap.
  EXPECT_LE(staleness.max(), static_cast<std::uint64_t>(so.max_iterations));
}

TEST(SharedMetrics, TimelineExportsAsValidTraceJson) {
  const auto p = fd_problem(8, 8, 9);
  SharedOptions so;
  so.num_threads = 2;
  so.tolerance = 1e-5;
  so.max_iterations = 20000;
  so.record_history = false;
  so.yield = true;
  obs::MetricsRegistry reg;
  so.metrics = &reg;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, so);
  EXPECT_TRUE(r.converged);

  obs::TraceEventSink sink;
  sink.add_registry(reg, "solve_shared");
  EXPECT_GT(sink.num_events(), 0u);
  const obs::JsonValue doc = obs::parse_json(sink.to_json());
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  // The timeline must contain iteration spans, a flag raise per thread,
  // and the whole-solve span.
  std::size_t iteration_spans = 0;
  std::size_t flag_raises = 0;
  std::size_t solve_spans = 0;
  for (const obs::JsonValue& e : events->array) {
    const std::string& name = e.find("name")->string;
    if (name == "iteration") ++iteration_spans;
    if (name == "flag_raise") ++flag_raises;
    if (name == "solve") ++solve_spans;
  }
  EXPECT_GT(iteration_spans, 0u);
  EXPECT_GE(flag_raises, 2u);
  EXPECT_EQ(solve_spans, 1u);
}

TEST(SharedMetrics, RegistryIsResetBetweenRuns) {
  // Synchronous mode: deterministic, so both runs do identical work.
  const auto p = fd_problem(6, 6, 11);
  SharedOptions so;
  so.num_threads = 2;
  so.synchronous = true;
  so.tolerance = 0.0;
  so.max_iterations = 10;
  so.record_history = false;
  so.final_polish = false;
  obs::MetricsRegistry reg;
  so.metrics = &reg;
  (void)solve_shared(p.a, p.b, p.x0, so);
  const std::uint64_t first =
      total(reg.snapshot(), obs::Counter::kIterations);
  (void)solve_shared(p.a, p.b, p.x0, so);
  const std::uint64_t second =
      total(reg.snapshot(), obs::Counter::kIterations);
  // Counts from the first run do not leak into the second.
  EXPECT_EQ(first, second);
}

TEST(SharedMetrics, MinorFaultsAreCountedOnActorZero) {
  // FD 512²: the shared x and the residual are 2 MiB each, so each gets
  // a fresh mapping whose first touch faults at least once, whatever page
  // size the kernel grants. The count is process-wide, so it is recorded
  // once, on actor 0.
  const auto p = fd_problem(512, 512, 13);
  SharedOptions so;
  so.num_threads = 2;
  so.synchronous = true;
  so.tolerance = 0.0;
  so.max_iterations = 2;
  so.final_polish = false;
  obs::MetricsRegistry reg;
  so.metrics = &reg;
  (void)solve_shared(p.a, p.b, p.x0, so);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto faults = static_cast<std::size_t>(obs::Counter::kMinorFaults);
  EXPECT_GE(snap.per_actor[0][faults], 1u);
  EXPECT_EQ(snap.per_actor[1][faults], 0u);
}

TEST(SharedMetrics, WarmSolveReusesTheLargeArraysOfTheSolveBefore) {
  // A second identical solve gets the blocks the first one freed back
  // from the allocator's cache (ajac/util/aligned.hpp): it maps nothing
  // fresh, and so faults fewer times than its large arrays span 2 MiB
  // pages. Counted are the shared x, result.x and each block's mirror,
  // `next` slice and 1/a_ii (n doubles each in all), and each block's
  // 32-bit row pointers and column codes. Fresh, they fault at least once
  // per huge page, and 512 times per page on 4 KiB pages.
  const auto p = fd_problem(1024, 1024, 17);
  const auto n = static_cast<std::size_t>(p.a.num_rows());
  const auto nnz = static_cast<std::size_t>(p.a.num_nonzeros());
  const std::size_t large_pages =
      (5 * n * sizeof(double) + (n + nnz) * sizeof(std::int32_t)) /
      kHugePageBytes;
  SharedOptions so;
  so.num_threads = 2;
  so.synchronous = true;
  so.tolerance = 0.0;
  so.max_iterations = 2;
  so.final_polish = false;
  const auto fresh_maps = [] {
    return detail::LargeBlockCache::instance().stats().fresh_maps;
  };
  std::uint64_t faults[2] = {};
  std::size_t maps[2] = {};
  for (int k = 0; k < 2; ++k) {
    obs::MetricsRegistry reg;
    so.metrics = &reg;
    const std::size_t maps_before = fresh_maps();
    (void)solve_shared(p.a, p.b, p.x0, so);
    maps[k] = fresh_maps() - maps_before;
    faults[k] = total(reg.snapshot(), obs::Counter::kMinorFaults);
  }
  EXPECT_GT(maps[0], 0u);
  EXPECT_EQ(maps[1], 0u);
  // A sanitizer's own allocator faults for its bookkeeping on every solve
  // (~45 times here under ASan, whatever its quarantine), as many times as
  // the large arrays have pages, so the count is compared in plain builds.
  if (!kSanitized) {
    EXPECT_LT(faults[1], large_pages) << "first solve: " << faults[0];
  }
}

}  // namespace
}  // namespace ajac::runtime
