#pragma once
// Shared helpers for the figure/table reproduction harness.

#include <omp.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ajac/distsim/dist_jacobi.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/obs/json.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/util/cli.hpp"
#include "ajac/util/table.hpp"

// Injected by bench/CMakeLists.txt from `git rev-parse`; "unknown" when the
// source tree is not a git checkout (e.g. a release tarball).
#ifndef AJAC_GIT_SHA
#define AJAC_GIT_SHA "unknown"
#endif

namespace ajac::bench {

/// Schema version of the --json bench report ("ajac-bench-report").
inline constexpr int kBenchReportSchemaVersion = 1;

/// Simulated seconds at which the relative residual first reaches
/// `threshold`, interpolating linearly on log10 of the residual between
/// snapshots — the paper's measurement method ("linear interpolation on
/// the log10 of the relative residual norm was used", Sec. VII-C).
/// Returns a negative value if the threshold is never reached.
inline double time_to_threshold(
    const std::vector<distsim::DistHistoryPoint>& history, double threshold) {
  for (std::size_t k = 1; k < history.size(); ++k) {
    const double r_prev = history[k - 1].rel_residual_1;
    const double r_cur = history[k].rel_residual_1;
    if (r_cur <= threshold && r_prev > threshold) {
      const double l_prev = std::log10(r_prev);
      const double l_cur = std::log10(r_cur);
      const double w = (l_prev - std::log10(threshold)) / (l_prev - l_cur);
      return history[k - 1].sim_seconds +
             w * (history[k].sim_seconds - history[k - 1].sim_seconds);
    }
  }
  return -1.0;
}

/// Same interpolation, but returning cumulative relaxations.
inline double relaxations_to_threshold(
    const std::vector<distsim::DistHistoryPoint>& history, double threshold) {
  for (std::size_t k = 1; k < history.size(); ++k) {
    const double r_prev = history[k - 1].rel_residual_1;
    const double r_cur = history[k].rel_residual_1;
    if (r_cur <= threshold && r_prev > threshold) {
      const double l_prev = std::log10(r_prev);
      const double l_cur = std::log10(r_cur);
      const double w = (l_prev - std::log10(threshold)) / (l_prev - l_cur);
      return static_cast<double>(history[k - 1].relaxations) +
             w * static_cast<double>(history[k].relaxations -
                                     history[k - 1].relaxations);
    }
  }
  return -1.0;
}

/// Partition + permute a problem for `procs` ranks; returns the permuted
/// system ready for solve_distributed.
struct PartitionedProblem {
  CsrMatrix a;
  Vector b;
  Vector x0;
  partition::Partition part;
};

inline PartitionedProblem partition_problem(const gen::LinearProblem& p,
                                            index_t procs,
                                            std::uint64_t seed = 1) {
  PartitionedProblem out;
  if (procs <= 1) {
    out.a = p.a;
    out.b = p.b;
    out.x0 = p.x0;
    out.part = partition::contiguous_partition(p.a.num_rows(), 1);
    return out;
  }
  const auto sys = partition::graph_growing_partition(p.a, procs, seed);
  out.a = sys.perm.apply_symmetric(p.a);
  out.b = sys.perm.apply(p.b);
  out.x0 = sys.perm.apply(p.x0);
  out.part = sys.partition;
  return out;
}

namespace detail {

/// Tables accumulated for the --json report, in emission order. Function-
/// local static so the header stays include-anywhere.
inline std::vector<std::pair<std::string, Table>>& report_tables() {
  static std::vector<std::pair<std::string, Table>> tables;
  return tables;
}

}  // namespace detail

/// Write the full JSON report (run metadata + every table emitted so far)
/// to `path`. emit() calls this after each table, so the file on disk is
/// always complete — a bench killed halfway still leaves a valid report.
inline void write_json_report(const std::string& path, const CliParser& cli) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema_version").value(kBenchReportSchemaVersion);
  w.key("kind").value("ajac-bench-report");
  w.key("metadata").begin_object();
  w.key("git_sha").value(AJAC_GIT_SHA);
  w.key("compiler").value(__VERSION__);
  w.key("omp_max_threads").value(omp_get_max_threads());
  w.key("options").begin_object();
  for (const auto& [key, value] : cli.dump()) {
    w.key(key).value(value);
  }
  w.end_object();
  w.end_object();
  w.key("tables").begin_object();
  for (const auto& [name, table] : detail::report_tables()) {
    w.key(name).begin_object();
    w.key("columns").begin_array();
    for (const std::string& c : table.column_names()) w.value(c);
    w.end_array();
    w.key("rows").begin_array();
    for (const auto& row : table.rows()) {
      w.begin_array();
      for (const TableCell& cell : row) {
        if (const auto* s = std::get_if<std::string>(&cell)) {
          w.value(*s);
        } else if (const auto* i = std::get_if<std::int64_t>(&cell)) {
          w.value(*i);
        } else {
          w.value(std::get<double>(cell));
        }
      }
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  obs::write_file(path, w.str());
}

/// Emit a table to stdout and optionally to CSV (--csv-dir) and the
/// accumulating JSON report (--json).
inline void emit(const Table& table, const CliParser& cli,
                 const std::string& name) {
  std::fputs(table.to_string().c_str(), stdout);
  const std::string dir = cli.get_string("csv-dir");
  if (!dir.empty()) {
    table.write_csv(dir + "/" + name + ".csv");
    std::printf("(csv written to %s/%s.csv)\n", dir.c_str(), name.c_str());
  }
  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    detail::report_tables().emplace_back(name, table);
    write_json_report(json_path, cli);
    std::printf("(json report updated at %s)\n", json_path.c_str());
  }
  std::fflush(stdout);
}

inline void add_common_options(CliParser& cli) {
  cli.add_option("csv-dir", "", "directory to write CSV outputs into");
  cli.add_option("seed", "7", "base random seed");
  cli.add_option("json", "",
                 "path to write a JSON report (tables + run metadata: git "
                 "sha, compiler, thread count, options)");
}

}  // namespace ajac::bench
