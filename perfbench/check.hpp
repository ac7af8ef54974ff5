#pragma once
// Independent answer checking for the benchmark.
//
// Every solve's x is judged here, not by the number the solver reports:
// the relative residual ||b - A x||_1 / ||b - A x0||_1 is recomputed with a
// plain serial loop over the CSR arrays. A Ledger counts attempted and
// failed solves; a solve fails when its x is non-finite, when the
// recomputed residual is above tolerance, when a run that must diverge
// (synchronous Jacobi on the rho(G) > 1 FE matrix, paper Fig. 6a) does
// not, or when an output that must repeat exactly within a run does not.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "ajac/sparse/csr.hpp"

namespace perfbench {

using ajac::CsrMatrix;
using ajac::index_t;
using ajac::Vector;

[[nodiscard]] inline double residual_norm1(const CsrMatrix& a, const Vector& b,
                                           const Vector& x) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.values();
  double sum = 0.0;
  for (index_t i = 0; i < a.num_rows(); ++i) {
    double r = b[static_cast<std::size_t>(i)];
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      r -= v[k] * x[static_cast<std::size_t>(ci[k])];
    }
    sum += std::abs(r);
  }
  return sum;
}

enum class Expect { kConverged, kDiverged };

struct Verdict {
  bool ok = false;
  double rel_residual = 0.0;
  std::string why;
};

/// Judge x for A x = b started from x0. kConverged passes when x is finite
/// and the recomputed relative residual is at most `tol` (plus a 1e-9
/// relative allowance: the solver stops on its own residual, whose
/// summation may round differently in the last bit). kDiverged passes when
/// x is finite and the residual grew above its initial value.
[[nodiscard]] inline Verdict verify(const CsrMatrix& a, const Vector& b,
                                   const Vector& x0, const Vector& x,
                                   double tol, Expect expect) {
  if (x.size() != b.size()) {
    return {false, std::numeric_limits<double>::quiet_NaN(), "wrong size"};
  }
  for (double v : x) {
    if (!std::isfinite(v)) {
      return {false, std::numeric_limits<double>::infinity(), "non-finite x"};
    }
  }
  const double r0 = residual_norm1(a, b, x0);
  const double rel = residual_norm1(a, b, x) / (r0 > 0.0 ? r0 : 1.0);
  if (expect == Expect::kConverged) {
    if (rel <= tol * (1.0 + 1e-9)) return {true, rel, ""};
    return {false, rel, "residual above tolerance"};
  }
  if (rel > 1.0) return {true, rel, ""};
  return {false, rel, "synchronous run did not diverge"};
}

/// Attempted/failed solve counts plus the reason for each failure.
class Ledger {
 public:
  /// One solve: fails if the verdict fails or `repeats` is false (an
  /// output that must be identical across repetitions changed).
  void record(const std::string& what, const Verdict& v, bool repeats = true) {
    ++attempted_;
    if (!v.ok) {
      fail(what + ": " + v.why);
    } else if (!repeats) {
      fail(what + ": output differs from the first repetition");
    }
  }
  /// A check that is not a solve (the checker self-test).
  void record_check(const std::string& what, bool ok) {
    ++attempted_;
    if (!ok) fail(what);
  }

  [[nodiscard]] long attempted() const noexcept { return attempted_; }
  [[nodiscard]] long failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  void fail(std::string why) {
    ++failed_;
    failures_.push_back(std::move(why));
  }

  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
