#pragma once
// Dense multi-vector: a batch of k right-hand sides or iterates, the
// container of ajac::solve_batch and runtime::solve_shared_batch.
//
// Layout is row-major n x k with stride k: element (i, c) lives at
// data[i * k + c], so row(i + 1) == row(i) + k and a row's k values are
// contiguous. The batch solvers run one scalar solve per column; the
// container only moves columns in and out.

#include <span>
#include <vector>

#include "ajac/sparse/types.hpp"
#include "ajac/util/check.hpp"

namespace ajac {

class MultiVector {
 public:
  MultiVector() = default;
  MultiVector(index_t n, index_t k)
      : n_(n), k_(k),
        data_(static_cast<std::size_t>(n) * static_cast<std::size_t>(k),
              0.0) {
    AJAC_CHECK(n >= 0 && k >= 1);
  }

  [[nodiscard]] index_t num_rows() const noexcept { return n_; }
  [[nodiscard]] index_t num_cols() const noexcept { return k_; }

  [[nodiscard]] double& operator()(index_t i, index_t c) {
    AJAC_DBG_CHECK(in_range(i, c));
    return data_[slot(i, c)];
  }
  [[nodiscard]] double operator()(index_t i, index_t c) const {
    AJAC_DBG_CHECK(in_range(i, c));
    return data_[slot(i, c)];
  }

  /// Pointer to row i's k contiguous values.
  [[nodiscard]] double* row(index_t i) {
    AJAC_DBG_CHECK(i >= 0 && i < n_);
    return data_.data() + slot(i, 0);
  }
  [[nodiscard]] const double* row(index_t i) const {
    AJAC_DBG_CHECK(i >= 0 && i < n_);
    return data_.data() + slot(i, 0);
  }

  /// Copy column c out to a contiguous Vector.
  [[nodiscard]] Vector column(index_t c) const {
    AJAC_CHECK(c >= 0 && c < k_);
    Vector out(static_cast<std::size_t>(n_));
    for (index_t i = 0; i < n_; ++i) out[static_cast<std::size_t>(i)] = (*this)(i, c);
    return out;
  }

  void set_column(index_t c, std::span<const double> v) {
    AJAC_CHECK(c >= 0 && c < k_);
    AJAC_CHECK(v.size() == static_cast<std::size_t>(n_));
    for (index_t i = 0; i < n_; ++i) (*this)(i, c) = v[static_cast<std::size_t>(i)];
  }

  /// n x k multi-vector whose every column is `v` (broadcast).
  [[nodiscard]] static MultiVector broadcast(std::span<const double> v,
                                             index_t k) {
    MultiVector out(static_cast<index_t>(v.size()), k);
    for (index_t i = 0; i < out.n_; ++i) {
      double* r = out.row(i);
      for (index_t c = 0; c < k; ++c) r[c] = v[static_cast<std::size_t>(i)];
    }
    return out;
  }

 private:
  [[nodiscard]] bool in_range(index_t i, index_t c) const noexcept {
    return i >= 0 && i < n_ && c >= 0 && c < k_;
  }
  [[nodiscard]] std::size_t slot(index_t i, index_t c) const noexcept {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(k_) +
           static_cast<std::size_t>(c);
  }

  index_t n_ = 0;
  index_t k_ = 1;
  std::vector<double> data_;
};

}  // namespace ajac
