// solver_cli: a command-line driver over the full public API.
//
//   ./examples/solver_cli --matrix fd:128x128 --backend distsim
//       --parallelism 64 --tolerance 1e-8 --history out.csv
//
// Matrices come from a Matrix Market file (`--matrix path.mtx`), the
// built-in generators (`fd:NXxNY`, `fd3:NXxNYxNZ`, `fe:NXxNY`), or a
// Table-I analogue by name (`analogue:thermal2`).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "ajac/core/ajac.hpp"
#include "ajac/gen/analogues.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/fe.hpp"
#include "ajac/obs/monitor.hpp"
#include "ajac/obs/stream.hpp"
#include "ajac/obs/trace_sink.hpp"
#include "ajac/sparse/mm_io.hpp"
#include "ajac/sparse/stats.hpp"
#include "ajac/util/cli.hpp"
#include "ajac/util/rng.hpp"
#include "ajac/util/table.hpp"

using namespace ajac;

namespace {

CsrMatrix load_matrix(const std::string& spec) {
  auto parse_dims = [](const std::string& s) {
    std::vector<index_t> dims;
    std::size_t pos = 0;
    while (pos < s.size()) {
      std::size_t next = s.find('x', pos);
      if (next == std::string::npos) next = s.size();
      dims.push_back(std::stoll(s.substr(pos, next - pos)));
      pos = next + 1;
    }
    return dims;
  };
  if (spec.rfind("fd3:", 0) == 0) {
    const auto d = parse_dims(spec.substr(4));
    if (d.size() != 3) throw std::invalid_argument("fd3 needs NXxNYxNZ");
    return gen::fd_laplacian_3d(d[0], d[1], d[2]);
  }
  if (spec.rfind("fd:", 0) == 0) {
    const auto d = parse_dims(spec.substr(3));
    if (d.size() != 2) throw std::invalid_argument("fd needs NXxNY");
    return gen::fd_laplacian_2d(d[0], d[1]);
  }
  if (spec.rfind("fe:", 0) == 0) {
    const auto d = parse_dims(spec.substr(3));
    if (d.size() != 2) throw std::invalid_argument("fe needs NXxNY");
    gen::FeMeshOptions opts;
    opts.nx = d[0];
    opts.ny = d[1];
    return gen::fe_laplacian_2d(opts);
  }
  if (spec.rfind("analogue:", 0) == 0) {
    return gen::make_analogue(spec.substr(9));
  }
  return read_matrix_market(spec);
}

Backend parse_backend(const std::string& name) {
  if (name == "sequential") return Backend::kSequential;
  if (name == "model") return Backend::kModel;
  if (name == "shared") return Backend::kSharedMemory;
  if (name == "distsim") return Backend::kDistributedSim;
  if (name == "mesh") return Backend::kMesh;
  throw std::invalid_argument(
      "unknown backend '" + name +
      "' (sequential | model | shared | distsim | mesh)");
}

runtime::KernelKind parse_kernel(const std::string& name) {
  if (name == "blocked") return runtime::KernelKind::kBlocked;
  if (name == "reference") return runtime::KernelKind::kReference;
  if (name == "sellcs") return runtime::KernelKind::kSellCS;
  throw std::invalid_argument("unknown kernel '" + name +
                              "' (blocked | reference | sellcs)");
}

bool parse_balance(const std::string& name) {
  if (name == "nnz") return true;
  if (name == "rows") return false;
  throw std::invalid_argument("unknown balance '" + name + "' (rows | nnz)");
}

runtime::RowPolicy parse_policy(const std::string& name) {
  if (name == "natural") return runtime::RowPolicy::kNaturalOrder;
  if (name == "uniform") return runtime::RowPolicy::kUniformRandom;
  throw std::invalid_argument("unknown policy '" + name +
                              "' (natural | uniform)");
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("solver_cli", "solve SPD systems with (a)synchronous Jacobi");
  cli.add_option("matrix", "fd:64x64",
                 "matrix spec: fd:NXxNY | fd3:NXxNYxNZ | fe:NXxNY | "
                 "analogue:<name> | path.mtx");
  cli.add_option("backend", "shared",
                 "sequential | model | shared | distsim | mesh");
  cli.add_option("parallelism", "8", "threads / simulated ranks");
  cli.add_option("agents", "0",
                 "mesh backend: number of message-passing agents "
                 "(0 = use --parallelism)");
  cli.add_option("tolerance", "1e-8", "relative residual 1-norm target");
  cli.add_option("max-iterations", "1000000", "iteration cap");
  cli.add_option("seed", "1", "random seed (b, x0, partitioner, noise)");
  cli.add_option("kernel", "blocked",
                 "shared backend kernels: blocked | reference | sellcs "
                 "(sellcs = SELL-C-sigma interior + dense ghost buffers, "
                 "for large problems)");
  cli.add_option("balance", "nnz",
                 "shared backend partition balance: nnz (contiguous blocks "
                 "equalized by nonzero count; default) | rows (equal row "
                 "counts; reference kernel always uses rows)");
  cli.add_option("policy", "natural",
                 "async row-selection policy: natural | uniform "
                 "(uniform: distsim backend only; every other backend "
                 "rejects it)");
  cli.add_option("nrhs", "1",
                 "right-hand sides (shared backend; > 1 solves that many "
                 "seeded random columns, one after another)");
  cli.add_option("telemetry-ndjson", "",
                 "stream live telemetry (beacons + estimates) as NDJSON to "
                 "this path; tail it with tools/ajac_top.py (empty = off)");
  cli.add_option("telemetry-perfetto", "",
                 "write telemetry counter tracks as a Perfetto trace to "
                 "this path after the solve (empty = off)");
  cli.add_option("telemetry-stride", "8",
                 "iterations between telemetry beacons per actor");
  cli.add_option("telemetry-window-us", "0",
                 "straggler-detector window width in beacon-time us "
                 "(0 = auto: 100000 wall-clock us for shared, 1000 "
                 "simulated us for distsim; threads oversubscribing "
                 "physical cores need windows well above an OS "
                 "scheduling quantum or every thread reads as stalled)");
  cli.add_flag("sync", "run the synchronous variant");
  cli.add_flag("stats", "print matrix statistics before solving");
  if (!cli.parse(argc, argv)) return 0;

  try {
    const CsrMatrix a = load_matrix(cli.get_string("matrix"));
    std::printf("matrix %s: %lld rows, %lld nonzeros\n",
                cli.get_string("matrix").c_str(),
                static_cast<long long>(a.num_rows()),
                static_cast<long long>(a.num_nonzeros()));
    if (cli.get_bool("stats")) {
      const MatrixStats s = compute_stats(a);
      std::printf(
          "  bandwidth %lld, rows nnz [%lld..%lld] avg %.2f, min diag "
          "dominance %.3f, positive offdiag %.1f%%, struct. symmetric: %s\n",
          static_cast<long long>(s.bandwidth),
          static_cast<long long>(s.min_row_nnz),
          static_cast<long long>(s.max_row_nnz), s.avg_row_nnz,
          s.diag_dominance_min, 100.0 * s.positive_offdiag_fraction,
          s.structurally_symmetric ? "yes" : "no");
    }

    Vector b(static_cast<std::size_t>(a.num_rows()), 1.0);
    SolveConfig cfg;
    cfg.backend = parse_backend(cli.get_string("backend"));
    cfg.parallelism = cli.get_int("parallelism");
    if (cfg.backend == Backend::kMesh && cli.get_int("agents") > 0) {
      cfg.parallelism = cli.get_int("agents");
    }
    cfg.synchronous = cli.get_bool("sync");
    cfg.tolerance = cli.get_double("tolerance");
    cfg.max_iterations = cli.get_int("max-iterations");
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    cfg.shared_kernel = parse_kernel(cli.get_string("kernel"));
    cfg.balance_by_nnz = parse_balance(cli.get_string("balance"));
    cfg.num_rhs = cli.get_int("nrhs");
    cfg.policy = parse_policy(cli.get_string("policy"));

    // Live telemetry: a hub the solver publishes beacons into and a
    // monitor draining it on a background thread while the solve runs.
    const std::string ndjson_path = cli.get_string("telemetry-ndjson");
    const std::string perfetto_path = cli.get_string("telemetry-perfetto");
    std::unique_ptr<obs::TelemetryHub> hub;
    std::unique_ptr<obs::ConvergenceMonitor> monitor;
    std::ofstream ndjson_out;
    std::unique_ptr<obs::NdjsonSink> ndjson_sink;
    std::unique_ptr<obs::TraceEventSink> trace;
    std::unique_ptr<obs::TraceCounterSink> counter_sink;
    if (!ndjson_path.empty() || !perfetto_path.empty()) {
      obs::TelemetryOptions topts;
      topts.beacon_stride = cli.get_int("telemetry-stride");
      topts.max_actors = std::max<index_t>(cfg.parallelism, 1);
      hub = std::make_unique<obs::TelemetryHub>(topts);
      obs::ConvergenceMonitor::Options mopts;
      const double window_us = cli.get_double("telemetry-window-us");
      mopts.window_us =
          window_us > 0.0
              ? window_us
              : (cfg.backend == Backend::kDistributedSim ? 1000.0 : 100000.0);
      monitor = std::make_unique<obs::ConvergenceMonitor>(*hub, mopts);
      if (!ndjson_path.empty()) {
        ndjson_out.open(ndjson_path);
        if (!ndjson_out) {
          throw std::runtime_error("cannot open " + ndjson_path);
        }
        ndjson_sink = std::make_unique<obs::NdjsonSink>(ndjson_out);
        monitor->add_sink(ndjson_sink.get());
      }
      if (!perfetto_path.empty()) {
        trace = std::make_unique<obs::TraceEventSink>();
        counter_sink = std::make_unique<obs::TraceCounterSink>(*trace);
        monitor->add_sink(counter_sink.get());
      }
      cfg.stream = hub.get();
      monitor->start();
    }
    auto finish_telemetry = [&] {
      if (monitor == nullptr) return;
      monitor->stop();  // joins the drainer and flushes trailing beacons
      const obs::MonitorEstimates est = monitor->estimates();
      std::printf(
          "telemetry: %llu beacons (%llu dropped), rho-hat=%.4f, "
          "iter-imbalance=%.3f, stragglers=%zu\n",
          static_cast<unsigned long long>(est.beacons),
          static_cast<unsigned long long>(est.dropped), est.rho_hat,
          est.iteration_imbalance, est.stragglers.size());
      for (const obs::StragglerFlag& s : est.stragglers) {
        std::printf(
            "  straggler: actor %lld at %.0f us (rate %.3g vs median "
            "%.3g relaxations/us)\n",
            static_cast<long long>(s.actor), s.detected_ts_us, s.rate,
            s.median_rate);
      }
      if (trace != nullptr) {
        trace->write(perfetto_path);
        std::printf("telemetry: wrote Perfetto trace %s (%zu events)\n",
                    perfetto_path.c_str(), trace->num_events());
      }
    };

    if (cfg.num_rhs > 1) {
      const index_t n = a.num_rows();
      const index_t k = cfg.num_rhs;
      MultiVector bk(n, k);
      Rng rng(cfg.seed);
      for (index_t i = 0; i < n; ++i) {
        double* row = bk.row(i);
        for (index_t c = 0; c < k; ++c) row[c] = rng.uniform(-1.0, 1.0);
      }
      const BatchSolution sol = solve_spd_batch(a, bk, cfg);
      finish_telemetry();
      bool all_converged = true;
      index_t total_relax = 0;
      for (index_t c = 0; c < k; ++c) {
        all_converged = all_converged && sol.converged[c];
        total_relax += sol.relaxations[c];
        std::printf(
            "  column %lld: converged=%s rel.residual=%.3e "
            "stop-iteration=%lld\n",
            static_cast<long long>(c), sol.converged[c] ? "yes" : "no",
            sol.rel_residual_1[c], static_cast<long long>(sol.iterations[c]));
      }
      std::printf(
          "shared %s batch k=%lld: converged=%s relaxations/n=%.1f "
          "throughput=%.3g row-updates/s wall-time=%.4gs\n",
          cfg.synchronous ? "sync" : "async", static_cast<long long>(k),
          all_converged ? "yes" : "no",
          static_cast<double>(total_relax) / static_cast<double>(n),
          static_cast<double>(total_relax) / sol.seconds, sol.seconds);
      return all_converged ? 0 : 2;
    }

    const Solution sol = solve_spd(a, b, cfg);
    finish_telemetry();
    std::printf(
        "%s %s: converged=%s rel.residual=%.3e iterations=%lld "
        "relaxations/n=%.1f %s=%.4gs\n",
        cli.get_string("backend").c_str(), cfg.synchronous ? "sync" : "async",
        sol.converged ? "yes" : "no", sol.rel_residual_1,
        static_cast<long long>(sol.iterations),
        static_cast<double>(sol.relaxations) /
            static_cast<double>(a.num_rows()),
        cfg.backend == Backend::kDistributedSim ? "sim-time" : "wall-time",
        sol.seconds);
    return sol.converged ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
