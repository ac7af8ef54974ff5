// Kernel microbenchmarks (google-benchmark): the primitives underneath
// every experiment — SpMV, residual, masked propagation step, norms,
// coloring, partitioning, the trace analysis, and the shared-memory solve
// with metrics off vs. on (the observability overhead gate in CI compares
// the last two).
//
// Custom main: `--json <path>` is translated to google-benchmark's
// --benchmark_out/--benchmark_out_format=json pair, and run metadata (git
// sha, compiler, OpenMP width) is stamped into the report context.

#include <benchmark/benchmark.h>
#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/model/propagation.hpp"
#include "ajac/model/schedule.hpp"
#include "ajac/model/trace.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/obs/monitor.hpp"
#include "ajac/obs/stream.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/mm_io.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/rng.hpp"

#ifndef AJAC_GIT_SHA
#define AJAC_GIT_SHA "unknown"
#endif

namespace {

using namespace ajac;

CsrMatrix grid(index_t edge) { return gen::fd_laplacian_2d(edge, edge); }

void BM_SpmvSerial(benchmark::State& state) {
  const CsrMatrix a = grid(state.range(0));
  Rng rng(1);
  Vector x(static_cast<std::size_t>(a.num_rows()));
  Vector y(x.size());
  vec::fill_uniform(x, rng);
  for (auto _ : state) {
    a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.num_nonzeros());
}
BENCHMARK(BM_SpmvSerial)->Arg(64)->Arg(256);

void BM_SpmvOpenMP(benchmark::State& state) {
  const CsrMatrix a = grid(state.range(0));
  Rng rng(1);
  Vector x(static_cast<std::size_t>(a.num_rows()));
  Vector y(x.size());
  vec::fill_uniform(x, rng);
  for (auto _ : state) {
    a.spmv_omp(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.num_nonzeros());
}
BENCHMARK(BM_SpmvOpenMP)->Arg(64)->Arg(256);

void BM_Residual(benchmark::State& state) {
  const auto p = gen::make_problem("fd", grid(state.range(0)), 1);
  Vector r(p.b.size());
  for (auto _ : state) {
    p.a.residual(p.x0, p.b, r);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * p.a.num_nonzeros());
}
BENCHMARK(BM_Residual)->Arg(64)->Arg(256);

void BM_MaskedStep(benchmark::State& state) {
  const auto p = gen::make_problem("fd", grid(128), 1);
  const index_t n = p.a.num_rows();
  // Activate the requested percentage of rows.
  std::vector<index_t> rows;
  for (index_t i = 0; i < n; ++i) {
    if (i % 100 < state.range(0)) rows.push_back(i);
  }
  const auto active = model::ActiveSet::from_indices(n, rows);
  Vector inv_diag(static_cast<std::size_t>(n), 1.0);
  Vector x = p.x0;
  Vector scratch(static_cast<std::size_t>(n));
  for (auto _ : state) {
    model::apply_step_inplace(p.a, inv_diag, p.b, active, x, scratch);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * active.count());
}
BENCHMARK(BM_MaskedStep)->Arg(10)->Arg(50)->Arg(100);

void BM_Norm1(benchmark::State& state) {
  Rng rng(1);
  Vector x(static_cast<std::size_t>(state.range(0)));
  vec::fill_uniform(x, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::norm1(x));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Norm1)->Arg(4624)->Arg(100000);

void BM_GreedyColoring(benchmark::State& state) {
  const CsrMatrix a = grid(state.range(0));
  for (auto _ : state) {
    index_t num = 0;
    benchmark::DoNotOptimize(model::greedy_coloring(a, &num));
  }
}
BENCHMARK(BM_GreedyColoring)->Arg(64)->Arg(128);

void BM_GraphGrowingPartition(benchmark::State& state) {
  const CsrMatrix a = grid(96);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        partition::graph_growing_partition(a, state.range(0), 1));
  }
}
BENCHMARK(BM_GraphGrowingPartition)->Arg(16)->Arg(64);

void BM_TraceAnalysis(benchmark::State& state) {
  // Synthetic synchronous trace: n rows, `sweeps` sweeps.
  const index_t n = state.range(0);
  model::RelaxationTrace trace(n);
  for (index_t sweep = 0; sweep < 50; ++sweep) {
    for (index_t i = 0; i < n; ++i) {
      model::RelaxationEvent e;
      e.row = i;
      if (i > 0) e.reads.push_back({i - 1, sweep});
      if (i + 1 < n) e.reads.push_back({i + 1, sweep});
      trace.add_event(e);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::analyze_trace(trace));
  }
  state.SetItemsProcessed(state.iterations() * 50 * n);
}
BENCHMARK(BM_TraceAnalysis)->Arg(68)->Arg(272);

// Fixed-length asynchronous solves on a grid(edge) FD Laplacian at the
// machine's full OpenMP width (minimum 2, so the async interleaving is
// real even on single-core hosts). Three variants:
//   BM_SolveSharedAsync         reference kernels, no registry
//   BM_SolveSharedAsyncMetrics  reference kernels, live MetricsRegistry
//     (the pair is CI's observability overhead gate, <= 5%)
//   BM_SolveSharedBlocked       partition-aware blocked kernels
//     (vs BM_SolveSharedAsync at 256: CI's kernel speedup gate,
//      tools/check_kernel_speedup.py asserts Blocked >= Reference)
// and the Async/Blocked pair again on a variable-coefficient grid (see
// BM_SolveSharedAsyncVarcoef).
runtime::SharedOptions solve_opts(runtime::KernelKind kernel) {
  runtime::SharedOptions o;
  o.num_threads =
      std::max<index_t>(2, static_cast<index_t>(omp_get_max_threads()));
  o.kernel = kernel;
  o.tolerance = 0.0;  // fixed iteration count: all variants do equal work
  o.max_iterations = 50;
  o.record_history = false;
  o.final_polish = false;
  o.yield = true;
  return o;
}

/// The timed loop of the metrics-free solve benches: solve_opts(kernel)
/// solves of `p`, 50 sweeps of n rows each counted as items.
void run_solves(benchmark::State& state, const gen::LinearProblem& p,
                runtime::KernelKind kernel) {
  const runtime::SharedOptions o = solve_opts(kernel);
  for (auto _ : state) {
    const auto r = runtime::solve_shared(p.a, p.b, p.x0, o);
    benchmark::DoNotOptimize(r.total_relaxations);
  }
  state.SetItemsProcessed(state.iterations() * 50 * p.a.num_rows());
}

void BM_SolveSharedAsync(benchmark::State& state) {
  run_solves(state, gen::make_problem("fd", grid(state.range(0)), 1),
             runtime::KernelKind::kReference);
}
BENCHMARK(BM_SolveSharedAsync)->Arg(32)->Arg(256)->UseRealTime();

void BM_SolveSharedAsyncMetrics(benchmark::State& state) {
  const auto p = gen::make_problem("fd", grid(state.range(0)), 1);
  runtime::SharedOptions o = solve_opts(runtime::KernelKind::kReference);
  obs::MetricsRegistry reg;
  o.metrics = &reg;
  for (auto _ : state) {
    const auto r = runtime::solve_shared(p.a, p.b, p.x0, o);
    benchmark::DoNotOptimize(r.total_relaxations);
  }
  state.SetItemsProcessed(state.iterations() * 50 * p.a.num_rows());
}
BENCHMARK(BM_SolveSharedAsyncMetrics)->Arg(32)->UseRealTime();

// Live-telemetry twin of BM_SolveSharedAsync: hub attached, monitor
// draining on its background thread while the solve runs — the worst
// realistic streaming configuration. The pair is CI's streaming overhead
// gate (tools/check_metrics_overhead.py, <= 5%).
void BM_SolveSharedAsyncStreaming(benchmark::State& state) {
  const auto p = gen::make_problem("fd", grid(state.range(0)), 1);
  runtime::SharedOptions o = solve_opts(runtime::KernelKind::kReference);
  obs::TelemetryOptions topts;
  topts.max_actors = o.num_threads;
  obs::TelemetryHub hub(topts);
  obs::ConvergenceMonitor monitor(hub);
  o.stream = &hub;
  monitor.start();
  for (auto _ : state) {
    const auto r = runtime::solve_shared(p.a, p.b, p.x0, o);
    benchmark::DoNotOptimize(r.total_relaxations);
  }
  monitor.stop();
  benchmark::DoNotOptimize(monitor.estimates().beacons);
  state.SetItemsProcessed(state.iterations() * 50 * p.a.num_rows());
}
BENCHMARK(BM_SolveSharedAsyncStreaming)->Arg(32)->UseRealTime();

void BM_SolveSharedBlocked(benchmark::State& state) {
  run_solves(state, gen::make_problem("fd", grid(state.range(0)), 1),
             runtime::KernelKind::kBlocked);
}
BENCHMARK(BM_SolveSharedBlocked)->Arg(32)->Arg(256)->UseRealTime();

// The blocked-vs-reference pair on a variable-coefficient grid (scaled
// fd_varcoef_2d). Every constant-coefficient FD matrix's pattern runs are
// uniform, so the blocked solves above hold each run's coefficients in
// registers; these rows differ in value, so the blocked solve streams
// them per row. tools/check_kernel_speedup.py gates this pair with the
// same floor, so the per-row-value path stays covered.
gen::LinearProblem varcoef_problem(index_t edge) {
  const auto coef = [](double x, double y) { return 1.0 + x * x + 3.0 * y; };
  return gen::make_problem("fd_varcoef", gen::fd_varcoef_2d(edge, edge, coef),
                           1);
}

void BM_SolveSharedAsyncVarcoef(benchmark::State& state) {
  run_solves(state, varcoef_problem(state.range(0)),
             runtime::KernelKind::kReference);
}
BENCHMARK(BM_SolveSharedAsyncVarcoef)->Arg(256)->UseRealTime();

void BM_SolveSharedBlockedVarcoef(benchmark::State& state) {
  run_solves(state, varcoef_problem(state.range(0)),
             runtime::KernelKind::kBlocked);
}
BENCHMARK(BM_SolveSharedBlockedVarcoef)->Arg(256)->UseRealTime();

// Bandwidth-engineered kernels (SELL-C-sigma interior + dense ghost
// buffers). The micro sizes here are a smoke-level comparison point; the
// large-n story this path exists for is measured by bench_scale, whose
// report CI gates with tools/check_kernel_speedup.py --scale.
void BM_SolveSharedSellCS(benchmark::State& state) {
  run_solves(state, gen::make_problem("fd", grid(state.range(0)), 1),
             runtime::KernelKind::kSellCS);
}
BENCHMARK(BM_SolveSharedSellCS)->Arg(32)->Arg(256)->UseRealTime();

// Problem behind the --n / --matrix dynamic registrations; owned here so
// the registered lambdas (which may run long after main's locals would
// have died in a refactor) capture a stable pointer.
std::shared_ptr<const gen::LinearProblem> custom_problem;

void register_custom_solves(const std::string& label) {
  struct NamedKernel {
    const char* name;
    runtime::KernelKind kind;
  };
  static constexpr NamedKernel kKernels[] = {
      {"BM_SolveSharedAsync", runtime::KernelKind::kReference},
      {"BM_SolveSharedBlocked", runtime::KernelKind::kBlocked},
      {"BM_SolveSharedSellCS", runtime::KernelKind::kSellCS},
  };
  for (const NamedKernel& k : kKernels) {
    benchmark::RegisterBenchmark(
        (std::string(k.name) + "/" + label).c_str(),
        [kind = k.kind](benchmark::State& state) {
          run_solves(state, *custom_problem, kind);
        })
        ->UseRealTime();
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string custom_edge;
  std::string custom_mtx;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      continue;
    }
    // --n EDGE: additionally run the three shared-solve kernels on an
    // fd:EDGExEDGE Laplacian (sizes beyond the wired-in Arg list).
    if (arg == "--n" && i + 1 < argc) {
      custom_edge = argv[++i];
      continue;
    }
    if (arg.rfind("--n=", 0) == 0) {
      custom_edge = arg.substr(4);
      continue;
    }
    // --matrix FILE.mtx: same three kernels on an imported Matrix Market
    // matrix (scaled to unit diagonal like every other problem here).
    if (arg == "--matrix" && i + 1 < argc) {
      custom_mtx = argv[++i];
      continue;
    }
    if (arg.rfind("--matrix=", 0) == 0) {
      custom_mtx = arg.substr(9);
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!custom_edge.empty() && !custom_mtx.empty()) {
    std::fprintf(stderr, "bench_kernels: pass --n or --matrix, not both\n");
    return 1;
  }
  try {
    if (!custom_edge.empty()) {
      const auto edge = static_cast<ajac::index_t>(std::stoll(custom_edge));
      custom_problem = std::make_shared<gen::LinearProblem>(
          gen::make_problem("fd", grid(edge), 1));
      register_custom_solves("n=" + custom_edge);
    } else if (!custom_mtx.empty()) {
      custom_problem = std::make_shared<gen::LinearProblem>(gen::make_problem(
          custom_mtx, ajac::read_matrix_market(custom_mtx), 1));
      register_custom_solves("mtx");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_kernels: cannot set up custom problem: %s\n",
                 e.what());
    return 1;
  }
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!json_path.empty()) {
    out_flag = "--benchmark_out=" + json_path;
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  benchmark::AddCustomContext("git_sha", AJAC_GIT_SHA);
  benchmark::AddCustomContext("compiler", __VERSION__);
  // The stock "library_build_type" field describes how the *benchmark
  // library* was compiled (often debug for distro packages); this one
  // describes the code actually under test.
  benchmark::AddCustomContext("ajac_build_type",
#ifdef NDEBUG
                              "release"
#else
                              "debug"
#endif
  );
  benchmark::AddCustomContext("omp_max_threads",
                              std::to_string(omp_get_max_threads()));
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
