#include "ajac/sparse/permute.hpp"

#include <algorithm>
#include <numeric>

#include "ajac/sparse/csr.hpp"
#include "ajac/util/check.hpp"

namespace ajac {

Permutation::Permutation(std::vector<index_t> new_to_old)
    : new_to_old_(std::move(new_to_old)),
      old_to_new_(new_to_old_.size(), index_t{-1}) {
  const index_t n = static_cast<index_t>(new_to_old_.size());
  for (index_t i = 0; i < n; ++i) {
    const index_t o = new_to_old_[i];
    AJAC_CHECK_MSG(o >= 0 && o < n, "permutation value out of range");
    AJAC_CHECK_MSG(old_to_new_[o] == -1, "permutation is not a bijection");
    old_to_new_[o] = i;
  }
}

Permutation Permutation::identity(index_t n) {
  std::vector<index_t> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), index_t{0});
  return Permutation(std::move(p));
}

Permutation Permutation::inverse() const {
  return Permutation(old_to_new_);
}

CsrMatrix Permutation::apply_symmetric(const CsrMatrix& a) const {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  AJAC_CHECK(a.num_rows() == size());
  const index_t n = size();
  HugePageVector<index_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (index_t i = 0; i < n; ++i) {
    row_ptr[i + 1] = row_ptr[i] + a.row_nnz(new_to_old_[i]);
  }
  HugePageVector<index_t> col_idx(static_cast<std::size_t>(a.num_nonzeros()));
  HugePageVector<double> values(static_cast<std::size_t>(a.num_nonzeros()));
  for (index_t i = 0; i < n; ++i) {
    const index_t old_row = new_to_old_[i];
    const auto cols = a.row_cols(old_row);
    const auto vals = a.row_values(old_row);
    const index_t base = row_ptr[i];
    // Map columns through the permutation, then sort the row.
    std::vector<std::pair<index_t, double>> entries(cols.size());
    for (std::size_t k = 0; k < cols.size(); ++k) {
      entries[k] = {old_to_new_[cols[k]], vals[k]};
    }
    std::sort(entries.begin(), entries.end());
    for (std::size_t k = 0; k < entries.size(); ++k) {
      col_idx[base + static_cast<index_t>(k)] = entries[k].first;
      values[base + static_cast<index_t>(k)] = entries[k].second;
    }
  }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

Vector Permutation::apply(const Vector& x) const {
  AJAC_CHECK(x.size() == new_to_old_.size());
  Vector y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[new_to_old_[i]];
  return y;
}

Vector Permutation::apply_inverse(const Vector& y) const {
  AJAC_CHECK(y.size() == new_to_old_.size());
  Vector x(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) x[new_to_old_[i]] = y[i];
  return x;
}

}  // namespace ajac
