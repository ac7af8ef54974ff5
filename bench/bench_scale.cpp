// bench_scale: memory-bandwidth study of the shared-memory kernels at
// large n — the regime the kSellCS data plane was built for (>= 4096^2
// unknowns by default; CI runs --edge 2048 to fit its runner).
//
// For each problem (large 2D FD Laplacian, optionally 3D FD, a Matrix
// Market import via --matrix, and a self-contained Matrix Market
// round-trip that writes a generated grid with write_matrix_market and
// benches the re-read copy) and each kernel configuration (reference,
// blocked, sellcs), this runs fixed-sweep solves
// (tolerance 0, no polish — every variant does identical work) and
// reports the median wall time, relaxation throughput, and effective
// bandwidth from an explicit traffic model.
//
// The traffic model counts the streams a sweep must move at minimum:
//   matrix stream   nnz x (8B value + idx-bytes index), idx = 8 for the
//                   reference CSR kernel, 4 for the blocked and SELL
//                   layouts (int32 block-local codes), plus the per-row
//                   stream (8B row_ptr for CSR, 4B block row_ptr for
//                   blocked, 4B row_len for SELL);
//   vector streams  32B x n per sweep for the reference kernel (b read,
//                   the residual, x read+commit); 24B x n for the blocked
//                   and SELL kernels, whose commit stores to the shared x
//                   only the rows other blocks read (O(edge) per block),
//                   so they move b, the staged correction and the mirror.
// The convergence check sums one partial norm per thread, O(threads), so
// it adds no per-row term. x gathers and ghost traffic are deliberately
// excluded: gathers mostly hit cache on banded problems and ghost volume
// is O(edge), noise at these sizes. The model is for comparing kernels on
// one host, not for quoting absolute DRAM rates.
//
// CI gates the resulting table with tools/check_kernel_speedup.py --scale
// (blocked >= reference and sellcs >= blocked at the largest FD
// problem) and diffs it against BENCH_scale_baseline.json with
// tools/compare_bench.py.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

#include "ajac/gen/fd.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/sparse/mm_io.hpp"

namespace {

using namespace ajac;

struct KernelConfig {
  const char* label;
  runtime::KernelKind kind;
};

constexpr KernelConfig kKernels[] = {
    {"reference", runtime::KernelKind::kReference},
    {"blocked", runtime::KernelKind::kBlocked},
    {"sellcs", runtime::KernelKind::kSellCS},
};

struct NamedProblem {
  std::string label;
  gen::LinearProblem problem;
};

double model_bytes_per_sweep(const KernelConfig& k, double n, double nnz) {
  const bool csr = k.kind == runtime::KernelKind::kReference;
  const double idx_bytes = csr ? 8.0 : 4.0;
  const double row_bytes = csr ? 8.0 : 4.0;
  const double vector_bytes = csr ? 32.0 : 24.0;
  return nnz * (8.0 + idx_bytes) + n * row_bytes + vector_bytes * n;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_scale",
                "large-n bandwidth comparison of the shared-memory kernels");
  bench::add_common_options(cli);
  cli.add_option("edge", "4096",
                 "2D FD grid edge (edge^2 unknowns; 4096 -> 16.8M)");
  cli.add_option("fd3-edge", "0",
                 "additionally bench a 3D FD grid of this edge (0 = off)");
  cli.add_option("matrix", "",
                 "additionally bench this Matrix Market file (scaled to "
                 "unit diagonal; empty = off)");
  cli.add_option("mtx-edge", "512",
                 "grid edge for the --mtx-roundtrip problem");
  cli.add_option("sweeps", "20", "local iterations per thread per solve");
  cli.add_option("reps", "3", "repetitions per configuration (median wins)");
  cli.add_option("threads", "0", "solver threads (0 = max(2, OpenMP width))");
  cli.add_option("balance", "nnz",
                 "partition balance for the blocked/sellcs kernels: "
                 "nnz | rows");
  cli.add_flag("mtx-roundtrip",
               "write an fd:mtx-edge grid with write_matrix_market, read it "
               "back, and bench the re-read copy (exercises the Matrix "
               "Market ingest path end to end)");
  if (!cli.parse(argc, argv)) return 0;

  const auto edge = static_cast<index_t>(cli.get_int("edge"));
  const auto fd3_edge = static_cast<index_t>(cli.get_int("fd3-edge"));
  const auto sweeps = static_cast<index_t>(cli.get_int("sweeps"));
  const auto reps = std::max<std::int64_t>(1, cli.get_int("reps"));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::string balance = cli.get_string("balance");
  if (balance != "nnz" && balance != "rows") {
    std::fprintf(stderr, "error: --balance must be nnz or rows\n");
    return 1;
  }
  index_t threads = static_cast<index_t>(cli.get_int("threads"));
  if (threads <= 0) {
    threads = std::max<index_t>(
        2, static_cast<index_t>(omp_get_max_threads()));
  }

  std::vector<NamedProblem> problems;
  problems.push_back({"fd2-" + std::to_string(edge),
                      gen::make_problem("fd2", gen::fd_laplacian_2d(edge, edge),
                                        seed)});
  if (fd3_edge > 0) {
    problems.push_back(
        {"fd3-" + std::to_string(fd3_edge),
         gen::make_problem(
             "fd3", gen::fd_laplacian_3d(fd3_edge, fd3_edge, fd3_edge),
             seed)});
  }
  const std::string mtx_path = cli.get_string("matrix");
  if (!mtx_path.empty()) {
    try {
      problems.push_back(
          {"mtx",
           gen::make_problem("mtx", read_matrix_market(mtx_path), seed)});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: cannot load %s: %s\n", mtx_path.c_str(),
                   e.what());
      return 1;
    }
  }
  if (cli.get_bool("mtx-roundtrip")) {
    const auto mtx_edge = static_cast<index_t>(cli.get_int("mtx-edge"));
    const std::string dir = cli.get_string("csv-dir");
    const std::string path =
        (dir.empty() ? std::string(".") : dir) + "/scale_roundtrip.mtx";
    const CsrMatrix generated = gen::fd_laplacian_2d(mtx_edge, mtx_edge);
    write_matrix_market(generated, path);
    CsrMatrix reread = read_matrix_market(path);
    std::remove(path.c_str());
    if (reread.num_rows() != generated.num_rows() ||
        reread.num_nonzeros() != generated.num_nonzeros()) {
      std::fprintf(stderr,
                   "error: Matrix Market round-trip mismatch "
                   "(%lld/%lld rows, %lld/%lld nnz)\n",
                   static_cast<long long>(reread.num_rows()),
                   static_cast<long long>(generated.num_rows()),
                   static_cast<long long>(reread.num_nonzeros()),
                   static_cast<long long>(generated.num_nonzeros()));
      return 1;
    }
    problems.push_back({"mtxrt-" + std::to_string(mtx_edge),
                        gen::make_problem("mtxrt", std::move(reread), seed)});
  }

  Table table({"problem/kernel", "n", "nnz", "threads", "sweeps", "seconds",
               "mrows_per_s", "gb_per_s"});
  table.set_double_format("%.4g");

  for (const NamedProblem& np : problems) {
    const gen::LinearProblem& p = np.problem;
    const auto n = static_cast<double>(p.a.num_rows());
    const auto nnz = static_cast<double>(p.a.num_nonzeros());
    for (const KernelConfig& k : kKernels) {
      runtime::SharedOptions opts;
      opts.num_threads = threads;
      opts.kernel = k.kind;
      opts.tolerance = 0.0;  // fixed sweep count: equal work per variant
      opts.max_iterations = sweeps;
      opts.record_history = false;
      opts.final_polish = false;
      opts.yield = true;  // fair interleaving on oversubscribed hosts
      if (balance == "nnz" && k.kind != runtime::KernelKind::kReference &&
          threads > 1) {
        opts.partition = partition::nnz_balanced_partition(p.a, threads);
      }

      std::vector<double> seconds;
      index_t relaxations = 0;
      for (std::int64_t rep = 0; rep < reps; ++rep) {
        const runtime::SharedResult r =
            runtime::solve_shared(p.a, p.b, p.x0, opts);
        seconds.push_back(r.seconds);
        relaxations = r.total_relaxations;
      }
      std::sort(seconds.begin(), seconds.end());
      const double med = seconds[seconds.size() / 2];
      const double mrows = static_cast<double>(relaxations) / med / 1e6;
      const double bytes =
          static_cast<double>(sweeps) * model_bytes_per_sweep(k, n, nnz);
      table.add_row({np.label + "/" + k.label,
                     static_cast<std::int64_t>(p.a.num_rows()),
                     static_cast<std::int64_t>(p.a.num_nonzeros()),
                     static_cast<std::int64_t>(threads),
                     static_cast<std::int64_t>(sweeps), med, mrows,
                     bytes / med / 1e9});
      std::printf("done %s/%s: %.3fs median of %lld\n", np.label.c_str(),
                  k.label, med, static_cast<long long>(reps));
      std::fflush(stdout);
    }
  }

  bench::emit(table, cli, "scale");
  return 0;
}
