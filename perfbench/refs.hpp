#pragma once
// In-run reference floors, measured on the same host in the same process
// as the solves they are compared with:
//  * a STREAM triad a[i] = b[i] + s * c[i], the sustainable memory
//    bandwidth the relaxation kernels are placed against;
//  * a plain OpenMP CSR SpMV y = A x with no asynchronous machinery (no
//    atomics, flags or residual scans), the floor a Jacobi sweep over the
//    same matrix cannot beat by much.
// Both touch their arrays first from the threads that later stream them,
// with the same static schedule.

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "ajac/sparse/csr.hpp"

namespace perfbench {

[[nodiscard]] inline double seconds_since(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Median triad bandwidth in GB/s over `reps` passes of three arrays of
/// `n` doubles each, counting 24 bytes per element (two reads, one write;
/// write-allocate traffic is not counted, as in STREAM).
[[nodiscard]] inline double triad_gbps(std::size_t n, int threads, int reps) {
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  const auto len = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for schedule(static) num_threads(threads)
  for (std::ptrdiff_t i = 0; i < len; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  const double s = 3.0;
  std::vector<double> rates;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
#pragma omp parallel for schedule(static) num_threads(threads)
    for (std::ptrdiff_t i = 0; i < len; ++i) a[i] = b[i] + s * c[i];
    rates.push_back(24.0 * static_cast<double>(n) / seconds_since(t0) / 1e9);
  }
  // Keep the stores observable.
  volatile double sink = a[n / 2];
  (void)sink;
  return median(rates);
}

/// Median SpMV rate in millions of rows per second over `reps` products,
/// on a private first-touched copy of `m`'s CSR arrays.
[[nodiscard]] inline double spmv_mrows_per_s(const ajac::CsrMatrix& m,
                                             int threads, int reps) {
  const auto n = static_cast<std::ptrdiff_t>(m.num_rows());
  const auto nnz = static_cast<std::size_t>(m.num_nonzeros());
  std::vector<ajac::index_t> rp(static_cast<std::size_t>(n) + 1);
  std::vector<ajac::index_t> ci(nnz);
  std::vector<double> va(nnz);
  std::vector<double> x(static_cast<std::size_t>(n));
  std::vector<double> y(static_cast<std::size_t>(n));
  const auto src_rp = m.row_ptr();
  const auto src_ci = m.col_idx();
  const auto src_va = m.values();
  rp[0] = 0;
#pragma omp parallel for schedule(static) num_threads(threads)
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    rp[i + 1] = src_rp[i + 1];
    for (ajac::index_t k = src_rp[i]; k < src_rp[i + 1]; ++k) {
      ci[k] = src_ci[k];
      va[k] = src_va[k];
    }
    x[i] = 1.0;
    y[i] = 0.0;
  }
  std::vector<double> rates;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
#pragma omp parallel for schedule(static) num_threads(threads)
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (ajac::index_t k = rp[i]; k < rp[i + 1]; ++k) sum += va[k] * x[ci[k]];
      y[i] = sum;
    }
    rates.push_back(static_cast<double>(n) / seconds_since(t0) / 1e6);
  }
  volatile double sink = y[static_cast<std::size_t>(n / 2)];
  (void)sink;
  return median(rates);
}

}  // namespace perfbench
