#include "ajac/sparse/coo.hpp"

#include <algorithm>
#include <numeric>

#include "ajac/sparse/csr.hpp"
#include "ajac/util/check.hpp"

namespace ajac {

CooBuilder::CooBuilder(index_t num_rows, index_t num_cols)
    : num_rows_(num_rows), num_cols_(num_cols) {
  AJAC_CHECK(num_rows >= 0 && num_cols >= 0);
}

void CooBuilder::add(index_t row, index_t col, double value) {
  AJAC_DCHECK(row >= 0 && row < num_rows_);
  AJAC_DCHECK(col >= 0 && col < num_cols_);
  rows_.push_back(row);
  cols_.push_back(col);
  values_.push_back(value);
}

void CooBuilder::add_symmetric(index_t row, index_t col, double value) {
  add(row, col, value);
  if (row != col) add(col, row, value);
}

CsrMatrix CooBuilder::to_csr(bool drop_zeros) const {
  const std::size_t nnz = rows_.size();
  // Counting sort by (row, col): first bucket entries by row, then sort
  // each row's slice by column and merge duplicates.
  std::vector<index_t> row_count(static_cast<std::size_t>(num_rows_) + 1, 0);
  for (index_t r : rows_) ++row_count[r + 1];
  for (index_t i = 0; i < num_rows_; ++i) row_count[i + 1] += row_count[i];

  std::vector<std::size_t> order(nnz);
  {
    std::vector<index_t> cursor(row_count.begin(), row_count.end() - 1);
    for (std::size_t k = 0; k < nnz; ++k) {
      order[cursor[rows_[k]]++] = k;
    }
  }

  HugePageVector<index_t> row_ptr(static_cast<std::size_t>(num_rows_) + 1, 0);
  HugePageVector<index_t> col_idx;
  HugePageVector<double> values;
  col_idx.reserve(nnz);
  values.reserve(nnz);

  for (index_t i = 0; i < num_rows_; ++i) {
    const index_t begin = row_count[i];
    const index_t end = row_count[i + 1];
    // Sort this row's entry indices by column, ties by entry index:
    // duplicates must be summed in insertion order, so that the result is
    // deterministic and add_symmetric yields bitwise-symmetric matrices
    // ((i,j) and (j,i) see their duplicates in the same order). The
    // tie-break makes the order total, so an in-place std::sort gives
    // std::stable_sort's order without its per-call buffer.
    std::sort(order.begin() + begin, order.begin() + end,
              [&](std::size_t a, std::size_t b) {
                return cols_[a] != cols_[b] ? cols_[a] < cols_[b] : a < b;
              });
    index_t p = begin;
    while (p < end) {
      const index_t col = cols_[order[p]];
      double sum = 0.0;
      while (p < end && cols_[order[p]] == col) {
        sum += values_[order[p]];
        ++p;
      }
      if (drop_zeros && sum == 0.0) continue;
      col_idx.push_back(col);
      values.push_back(sum);
    }
    row_ptr[i + 1] = static_cast<index_t>(col_idx.size());
  }

  return CsrMatrix(num_rows_, num_cols_, std::move(row_ptr),
                   std::move(col_idx), std::move(values));
}

}  // namespace ajac
