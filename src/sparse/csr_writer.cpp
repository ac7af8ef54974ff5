#include "ajac/sparse/csr_writer.hpp"

#include "ajac/util/check.hpp"

namespace ajac {

CsrRowWriter::CsrRowWriter(index_t num_rows, index_t num_cols,
                           std::size_t max_nnz)
    : num_rows_(num_rows), num_cols_(num_cols) {
  AJAC_CHECK(num_rows >= 0 && num_cols >= 0);
  row_ptr_.reserve(static_cast<std::size_t>(num_rows) + 1);
  row_ptr_.push_back(0);
  col_idx_.reserve(max_nnz);
  values_.reserve(max_nnz);
}

void CsrRowWriter::end_row() {
  AJAC_CHECK_MSG(rows_written() < num_rows_,
                 "end_row() past the last of " << num_rows_ << " rows");
  row_ptr_.push_back(static_cast<index_t>(col_idx_.size()));
  last_col_ = -1;
}

CsrMatrix CsrRowWriter::finish() && {
  AJAC_CHECK_MSG(rows_written() == num_rows_,
                 "finished after " << rows_written() << " rows, expected "
                                   << num_rows_);
  AJAC_CHECK_MSG(row_ptr_.back() == static_cast<index_t>(col_idx_.size()),
                 col_idx_.size() - static_cast<std::size_t>(row_ptr_.back())
                     << " entries pushed after the last end_row()");
  return CsrMatrix(num_rows_, num_cols_, std::move(row_ptr_),
                   std::move(col_idx_), std::move(values_));
}

void CsrRowWriter::reject_column(index_t col) const {
  AJAC_CHECK_MSG(col > last_col_, "column " << col << " in row "
                                             << rows_written()
                                             << " does not exceed the "
                                                "previous column "
                                             << last_col_);
}

}  // namespace ajac
