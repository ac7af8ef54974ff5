#include "ajac/sparse/scaling.hpp"

#include <cmath>
#include <utility>

#include "ajac/sparse/csr.hpp"
#include "ajac/util/check.hpp"

namespace ajac {

CsrMatrix scale_to_unit_diagonal(const CsrMatrix& a, Vector* b) {
  return scale_to_unit_diagonal(CsrMatrix(a), b);
}

CsrMatrix scale_to_unit_diagonal(CsrMatrix&& a, Vector* b) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  const index_t n = a.num_rows();
  const Vector d = a.inverse_sqrt_diagonal();
  a.scale_symmetric(d);
  if (b != nullptr) {
    AJAC_CHECK(b->size() == static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) (*b)[i] *= d[i];
  }
  return std::move(a);
}

CsrMatrix scale_rows_by_diagonal(const CsrMatrix& a, Vector* b) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  const index_t n = a.num_rows();
  Vector d = a.diagonal();
  CsrMatrix out = a;
  const auto row_ptr = out.row_ptr();
  const auto values = out.mutable_values();
  for (index_t i = 0; i < n; ++i) {
    AJAC_CHECK_MSG(d[i] != 0.0, "zero diagonal entry at row " << i);
    const double inv = 1.0 / d[i];
    for (index_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) values[p] *= inv;
  }
  if (b != nullptr) {
    AJAC_CHECK(b->size() == static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) (*b)[i] /= d[i];
  }
  return out;
}

CsrMatrix jacobi_iteration_matrix(const CsrMatrix& a) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  const index_t n = a.num_rows();
  Vector d = a.diagonal();
  HugePageVector<index_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  HugePageVector<index_t> col_idx;
  HugePageVector<double> values;
  col_idx.reserve(static_cast<std::size_t>(a.num_nonzeros()));
  values.reserve(static_cast<std::size_t>(a.num_nonzeros()));
  for (index_t i = 0; i < n; ++i) {
    AJAC_CHECK_MSG(d[i] != 0.0, "zero diagonal entry at row " << i);
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == i) continue;  // G_ii = 0, drop it
      col_idx.push_back(cols[k]);
      values.push_back(-vals[k] / d[i]);
    }
    row_ptr[i + 1] = static_cast<index_t>(col_idx.size());
  }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix entrywise_abs(const CsrMatrix& a) {
  CsrMatrix out = a;
  for (double& v : out.mutable_values()) v = std::abs(v);
  return out;
}

}  // namespace ajac
