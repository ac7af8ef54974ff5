#pragma once
// Append-only CSR row writer for generators that produce each row's
// entries already in ascending column order (structured stencils).
//
// Rows are written in order: push() each entry of the current row, then
// end_row(). finish() hands the arrays to the validating CsrMatrix
// constructor. Unlike CooBuilder there is no triplet staging, no per-row
// sort and no duplicate summation: a column that is not strictly greater
// than the previous one in its row is rejected, so the output is exactly
// the entries pushed, bit for bit.

#include <cstddef>

#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/types.hpp"

namespace ajac {

class CsrRowWriter {
 public:
  /// Reserves room for `max_nnz` entries once; a stencil generator passes
  /// (rows x stencil width) as the bound.
  CsrRowWriter(index_t num_rows, index_t num_cols, std::size_t max_nnz);

  /// Append (current row, col) = value. col must exceed the previous
  /// column pushed in this row.
  void push(index_t col, double value) {
    if (col <= last_col_) [[unlikely]] reject_column(col);
    col_idx_.push_back(col);
    values_.push_back(value);
    last_col_ = col;
  }

  /// Close the current row; the next push() starts the following row.
  void end_row();

  /// The finished matrix. Requires exactly num_rows rows to have been
  /// closed and no entry pushed after the last of them.
  [[nodiscard]] CsrMatrix finish() &&;

 private:
  [[nodiscard]] index_t rows_written() const noexcept {
    return static_cast<index_t>(row_ptr_.size()) - 1;
  }
  /// Cold path of push(): throws the out-of-order message.
  void reject_column(index_t col) const;

  index_t num_rows_;
  index_t num_cols_;
  index_t last_col_ = -1;
  HugePageVector<index_t> row_ptr_;
  HugePageVector<index_t> col_idx_;
  HugePageVector<double> values_;
};

}  // namespace ajac
