#pragma once
// Compressed-sparse-row matrix: the storage format used throughout the
// library (the paper stores its matrices in CSR as well, Sec. VII-A).
// Its three arrays are HugePageVectors: on staggered huge pages when at
// least kHugePageBytes (ajac/util/aligned.hpp), on the plain heap below.

#include <span>

#include "ajac/sparse/types.hpp"

namespace ajac {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Takes ownership of fully-formed CSR arrays. row_ptr must have
  /// num_rows+1 entries, be non-decreasing, start at 0, and end at
  /// col_idx.size(); column indices must lie in [0, num_cols).
  CsrMatrix(index_t num_rows, index_t num_cols,
            HugePageVector<index_t> row_ptr, HugePageVector<index_t> col_idx,
            HugePageVector<double> values);

  /// Copies each array with one memcpy (see HugePageVector).
  CsrMatrix(const CsrMatrix& other);
  CsrMatrix& operator=(const CsrMatrix& other);
  CsrMatrix(CsrMatrix&&) = default;
  CsrMatrix& operator=(CsrMatrix&&) = default;

  [[nodiscard]] index_t num_rows() const noexcept { return num_rows_; }
  [[nodiscard]] index_t num_cols() const noexcept { return num_cols_; }
  [[nodiscard]] index_t num_nonzeros() const noexcept {
    return static_cast<index_t>(values_.size());
  }

  [[nodiscard]] std::span<const index_t> row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] std::span<const index_t> col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] std::span<const double> values() const noexcept {
    return values_;
  }
  [[nodiscard]] std::span<double> mutable_values() noexcept { return values_; }

  /// Columns and values of row i, fetched with a single pair of row_ptr
  /// loads. Hot loops that need both spans should call row(i) once rather
  /// than row_cols(i) + row_values(i), which reads row_ptr twice each.
  struct RowView {
    std::span<const index_t> cols;
    std::span<const double> vals;
    [[nodiscard]] std::size_t size() const noexcept { return cols.size(); }
  };
  [[nodiscard]] RowView row(index_t i) const {
    const auto begin = static_cast<std::size_t>(row_ptr_[i]);
    const auto len = static_cast<std::size_t>(row_ptr_[i + 1]) - begin;
    return {{col_idx_.data() + begin, len}, {values_.data() + begin, len}};
  }

  /// Column indices / values of row i.
  [[nodiscard]] std::span<const index_t> row_cols(index_t i) const {
    return {col_idx_.data() + row_ptr_[i],
            static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }
  [[nodiscard]] std::span<const double> row_values(index_t i) const {
    return {values_.data() + row_ptr_[i],
            static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }
  [[nodiscard]] index_t row_nnz(index_t i) const {
    return row_ptr_[i + 1] - row_ptr_[i];
  }

  /// Value at (i, j); 0 if not stored. O(log nnz(i)) via binary search
  /// (columns are sorted within each row).
  [[nodiscard]] double at(index_t i, index_t j) const;

  /// y = A x (serial).
  void spmv(std::span<const double> x, std::span<double> y) const;

  /// y = A x with OpenMP row parallelism.
  void spmv_omp(std::span<const double> x, std::span<double> y) const;

  /// Dot product of row i with x: (A x)_i.
  [[nodiscard]] double row_dot(index_t i, std::span<const double> x) const;

  /// r = b - A x.
  void residual(std::span<const double> x, std::span<const double> b,
                std::span<double> r) const;

  /// Extract the diagonal; missing diagonal entries yield 0.
  [[nodiscard]] Vector diagonal() const;

  /// A^T as a new CSR matrix.
  [[nodiscard]] CsrMatrix transpose() const;

  /// Structural + numerical symmetry check: |a_ij - a_ji| <= tol for all
  /// stored entries (and entries stored on only one side compare to 0).
  [[nodiscard]] bool is_symmetric(double tol = 0.0) const;

  /// True if every column index within every row is strictly increasing.
  [[nodiscard]] bool has_sorted_rows() const;

  /// True if entry (i,i) is stored for all i (square matrices only).
  [[nodiscard]] bool has_full_diagonal() const;

  [[nodiscard]] bool operator==(const CsrMatrix& other) const = default;

 private:
  index_t num_rows_ = 0;
  index_t num_cols_ = 0;
  HugePageVector<index_t> row_ptr_{0};
  HugePageVector<index_t> col_idx_;
  HugePageVector<double> values_;
};

/// n x n identity in CSR.
[[nodiscard]] CsrMatrix csr_identity(index_t n);

}  // namespace ajac
