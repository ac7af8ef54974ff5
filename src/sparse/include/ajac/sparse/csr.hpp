#pragma once
// Compressed-sparse-row matrix: the storage format used throughout the
// library (the paper stores its matrices in CSR as well, Sec. VII-A).
// Its three arrays are HugePageVectors: on staggered huge pages when at
// least kHugePageBytes (ajac/util/aligned.hpp), on the plain heap below.
// The set-up loops over arrays of that size (from_rows, validation, copy,
// diagonal, scaling) run on the OpenMP team; below it, on the caller.

#include <functional>
#include <span>

#include "ajac/sparse/types.hpp"

namespace ajac {

class CsrMatrix;

/// Writes a range of rows for CsrMatrix::from_rows: push() each entry of
/// the current row in strictly ascending column order, then end_row().
/// from_rows runs a fill twice per row, once counting and once writing,
/// so a fill must push the same entries both times.
class CsrRowWriter {
 public:
  void push(index_t col, double value) {
    if (col <= last_col_ || pos_ == row_end_) [[unlikely]] {
      reject_push(col, last_col_, row_);
    }
    if (col_idx_ != nullptr) {
      col_idx_[pos_] = col;
      values_[pos_] = value;
    }
    ++pos_;
    last_col_ = col;
  }

  /// Close the current row; the next push() starts the following row.
  void end_row() {
    if (row_ == end_ || (col_idx_ != nullptr && pos_ != row_end_))
        [[unlikely]] {
      reject_end_row(row_, begin_, end_, pos_, row_end_, row_ptr_);
    }
    if (col_idx_ == nullptr) row_ptr_[row_ + 1] = pos_;
    ++row_;
    last_col_ = -1;
    if (col_idx_ != nullptr && row_ < end_) row_end_ = row_ptr_[row_ + 1];
  }

 private:
  friend class CsrMatrix;

  /// Counting pass over rows [begin, end): each end_row() stores the
  /// entries pushed since `begin` at row_ptr[row + 1].
  CsrRowWriter(index_t begin, index_t end, index_t* row_ptr)
      : row_(begin), begin_(begin), end_(end), row_ptr_(row_ptr) {}
  /// Writing pass over rows [begin, end) of a finished row_ptr.
  CsrRowWriter(index_t begin, index_t end, index_t* row_ptr,
               index_t* col_idx, double* values)
      : row_(begin),
        begin_(begin),
        end_(end),
        pos_(row_ptr[begin]),
        row_end_(row_ptr[begin + 1]),
        row_ptr_(row_ptr),
        col_idx_(col_idx),
        values_(values) {}

  /// Throws unless exactly the range's rows were closed and nothing was
  /// pushed after the last of them.
  void finish() const;
  /// Cold paths of push() and end_row(): throw the fault's message. They
  /// take values, not `this`, so a writer local to a fill stays in
  /// registers.
  static void reject_push(index_t col, index_t last_col, index_t row);
  static void reject_end_row(index_t row, index_t begin, index_t end,
                             index_t pos, index_t row_end,
                             const index_t* row_ptr);

  index_t row_;
  index_t begin_;
  index_t end_;
  index_t pos_ = 0;
  index_t row_end_ = -1;  // the current row's end; -1 while counting
  index_t last_col_ = -1;
  index_t* row_ptr_;
  index_t* col_idx_ = nullptr;
  double* values_ = nullptr;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Takes ownership of fully-formed CSR arrays. row_ptr must have
  /// num_rows+1 entries, be non-decreasing, start at 0, and end at
  /// col_idx.size(); column indices must lie in [0, num_cols).
  CsrMatrix(index_t num_rows, index_t num_cols,
            HugePageVector<index_t> row_ptr, HugePageVector<index_t> col_idx,
            HugePageVector<double> values);

  /// Writes rows [begin, end) in order through the writer.
  using RowFill =
      std::function<void(index_t begin, index_t end, CsrRowWriter& out)>;

  /// Builds a matrix row range by row range: a counting pass fixes
  /// row_ptr, then a writing pass stores each entry once, where the fill
  /// put it. Ranges run concurrently on the OpenMP team when the array a
  /// pass walks is at least kHugePageBytes (row_ptr for counting, values
  /// for writing), so `fill(begin, end, out)` must be safe to call from
  /// several threads. A fault throws the message of its lowest row.
  template <class Fill>
  [[nodiscard]] static CsrMatrix from_rows(index_t num_rows, index_t num_cols,
                                           const Fill& fill) {
    // The fill writes through a copy of the range's writer: stores to
    // col_idx and row_ptr cannot alias a local, so its state stays in
    // registers instead of going back to memory after every entry.
    return fill_rows(num_rows, num_cols,
                     [&fill](index_t begin, index_t end, CsrRowWriter& out) {
                       CsrRowWriter local = out;
                       fill(begin, end, local);
                       out = local;
                     });
  }

  /// Copies each array with memcpy (see HugePageVector), in 2 MiB pieces
  /// spread over the OpenMP team once it is at least kHugePageBytes.
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

  /// D^{-1/2}: 1/sqrt(a_ii) for each row of a square matrix. Throws
  /// naming the lowest row whose diagonal entry is not positive.
  [[nodiscard]] Vector inverse_sqrt_diagonal() const;

  /// a_ij *= s_i * s_j for every stored entry of a square matrix.
  void scale_symmetric(std::span<const double> s);

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
  static CsrMatrix fill_rows(index_t num_rows, index_t num_cols,
                             const RowFill& fill);

  index_t num_rows_ = 0;
  index_t num_cols_ = 0;
  HugePageVector<index_t> row_ptr_{0};
  HugePageVector<index_t> col_idx_;
  HugePageVector<double> values_;
};

/// n x n identity in CSR.
[[nodiscard]] CsrMatrix csr_identity(index_t n);

}  // namespace ajac
