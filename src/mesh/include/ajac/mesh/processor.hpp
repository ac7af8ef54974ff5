#pragma once
// The generic iterative-processor seam of the mesh runtime.
//
// The mesh driver owns everything concurrent — row ownership, ghost
// exchange through the SPSC queues, termination, fault injection — and
// delegates the per-row numerics to a processor with two pure methods:
//
//   stage(i, read) -> staged   compute row i's update quantity from the
//                              current local view (read(j) returns the
//                              agent's value of column j);
//   apply(i, x_i, staged)      fold the staged quantity into x_i.
//
// The driver stages ALL owned rows before applying any of them (Jacobi
// discipline), sums `staged` into the agent's partial norm (for Jacobi
// and Richardson the staged quantity IS the row residual, which is what
// the paper's racy termination norm sums), and ships the applied
// values to the subscribers. The split is exactly what asynchronous
// Richardson (arXiv:2009.02015) and the power method need:
//
//   Richardson:    stage = r_i = b_i - (A x)_i,  apply = x_i + omega * r_i
//   power method:  stage = (A x)_i,              apply = staged / shift
//
// so those processors slot into the same driver with no mesh changes.

#include <concepts>
#include <cstddef>
#include <span>

#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/types.hpp"

namespace ajac::mesh {

/// What the mesh driver requires of a processor, given the reader functor
/// type it will pass to stage(). Reads must go exclusively through
/// `read` — that is how the driver virtualizes locality (local vs ghost
/// values) and trace recording underneath the numerics.
template <class P, class Reader>
concept IterativeProcessorFor =
    std::invocable<const Reader&, index_t> &&
    requires(const P& p, index_t i, double xi, double staged,
             const Reader& read) {
      { p.stage(i, read) } -> std::same_as<double>;
      { p.apply(i, xi, staged) } -> std::same_as<double>;
    };

/// Jacobi in residual-correction form, bitwise the reference kernel of
/// solve_shared: stage accumulates b_i minus the full stencil product in
/// CSR order (diagonal handled inside the loop, no special casing), and
/// apply adds D^{-1} r. Keeping the floating-point operation order
/// identical to shared_jacobi.cpp is what makes the sync-mode mesh
/// bitwise-equal to solve_shared.
class JacobiProcessor {
 public:
  JacobiProcessor(const CsrMatrix& a, const Vector& b,
                  std::span<const double> inv_diag)
      : a_(&a), b_(&b), inv_diag_(inv_diag) {}

  template <class Reader>
  [[nodiscard]] double stage(index_t i, const Reader& read) const {
    double acc = (*b_)[i];
    const auto [cols, vals] = a_->row(i);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      acc -= vals[p] * read(cols[p]);
    }
    return acc;
  }

  [[nodiscard]] double apply(index_t i, double xi, double staged) const {
    return xi + inv_diag_[static_cast<std::size_t>(i)] * staged;
  }

 private:
  const CsrMatrix* a_;
  const Vector* b_;
  std::span<const double> inv_diag_;
};

}  // namespace ajac::mesh
