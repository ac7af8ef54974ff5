#include "ajac/sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "ajac/util/annotate.hpp"
#include "ajac/util/check.hpp"

namespace ajac {

namespace {

/// `src` copied with one memcpy into a vector sized without a fill.
template <class T>
HugePageVector<T> copy_of(const HugePageVector<T>& src) {
  HugePageVector<T> out(src.size());
  if (!src.empty()) {
    std::memcpy(out.data(), src.data(), src.size() * sizeof(T));
  }
  return out;
}

}  // namespace

CsrMatrix::CsrMatrix(index_t num_rows, index_t num_cols,
                     HugePageVector<index_t> row_ptr,
                     HugePageVector<index_t> col_idx,
                     HugePageVector<double> values)
    : num_rows_(num_rows),
      num_cols_(num_cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  AJAC_CHECK(num_rows_ >= 0 && num_cols_ >= 0);
  AJAC_CHECK_MSG(row_ptr_.size() == static_cast<std::size_t>(num_rows_) + 1,
                 "row_ptr size " << row_ptr_.size() << " != num_rows+1");
  AJAC_CHECK(col_idx_.size() == values_.size());
  AJAC_CHECK(row_ptr_.front() == 0);
  AJAC_CHECK(row_ptr_.back() == static_cast<index_t>(col_idx_.size()));
  for (index_t i = 0; i < num_rows_; ++i) {
    AJAC_CHECK_MSG(row_ptr_[i] <= row_ptr_[i + 1],
                   "row_ptr not monotone at row " << i);
  }
  for (index_t c : col_idx_) {
    AJAC_CHECK_MSG(c >= 0 && c < num_cols_, "column index " << c
                                                << " out of range [0,"
                                                << num_cols_ << ")");
  }
}

CsrMatrix::CsrMatrix(const CsrMatrix& other)
    : num_rows_(other.num_rows_),
      num_cols_(other.num_cols_),
      row_ptr_(copy_of(other.row_ptr_)),
      col_idx_(copy_of(other.col_idx_)),
      values_(copy_of(other.values_)) {}

CsrMatrix& CsrMatrix::operator=(const CsrMatrix& other) {
  if (this != &other) *this = CsrMatrix(other);
  return *this;
}

double CsrMatrix::at(index_t i, index_t j) const {
  AJAC_DCHECK(i >= 0 && i < num_rows_);
  const auto cols = row_cols(i);
  const auto it = std::lower_bound(cols.begin(), cols.end(), j);
  if (it == cols.end() || *it != j) return 0.0;
  return values_[row_ptr_[i] + (it - cols.begin())];
}

void CsrMatrix::spmv(std::span<const double> x, std::span<double> y) const {
  AJAC_DCHECK(x.size() == static_cast<std::size_t>(num_cols_));
  AJAC_DCHECK(y.size() == static_cast<std::size_t>(num_rows_));
  for (index_t i = 0; i < num_rows_; ++i) {
    double acc = 0.0;
    for (index_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      acc += values_[p] * x[col_idx_[p]];
    }
    y[i] = acc;
  }
}

void CsrMatrix::spmv_omp(std::span<const double> x, std::span<double> y) const {
  AJAC_DCHECK(x.size() == static_cast<std::size_t>(num_cols_));
  AJAC_DCHECK(y.size() == static_cast<std::size_t>(num_rows_));
  const double* xv = x.data();
  double* yv = y.data();
  // The fork/join edges live in libgomp futexes TSan cannot see: release
  // the caller's writes of x/y to the workers on entry, and publish each
  // worker's slice of y back to the caller on exit (no-ops outside TSan).
  AJAC_TSAN_RELEASE(this);
#pragma omp parallel
  {
    AJAC_TSAN_ACQUIRE(this);
#pragma omp for schedule(static)
    for (index_t i = 0; i < num_rows_; ++i) {
      double acc = 0.0;
      for (index_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
        acc += values_[p] * xv[col_idx_[p]];
      }
      yv[i] = acc;
    }
    AJAC_TSAN_RELEASE(this);
  }
  AJAC_TSAN_ACQUIRE(this);
}

double CsrMatrix::row_dot(index_t i, std::span<const double> x) const {
  AJAC_DCHECK(i >= 0 && i < num_rows_);
  double acc = 0.0;
  for (index_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
    acc += values_[p] * x[col_idx_[p]];
  }
  return acc;
}

void CsrMatrix::residual(std::span<const double> x, std::span<const double> b,
                         std::span<double> r) const {
  AJAC_DCHECK(b.size() == static_cast<std::size_t>(num_rows_));
  AJAC_DCHECK(r.size() == static_cast<std::size_t>(num_rows_));
  // Accumulate as ((b - a_1 x_1) - a_2 x_2) - ...: the same association
  // the parallel runtimes use, so synchronous runs agree bitwise with the
  // sequential reference across all backends.
  for (index_t i = 0; i < num_rows_; ++i) {
    double acc = b[i];
    for (index_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      acc -= values_[p] * x[col_idx_[p]];
    }
    r[i] = acc;
  }
}

Vector CsrMatrix::diagonal() const {
  Vector d(static_cast<std::size_t>(std::min(num_rows_, num_cols_)), 0.0);
  for (index_t i = 0; i < static_cast<index_t>(d.size()); ++i) {
    d[i] = at(i, i);
  }
  return d;
}

CsrMatrix CsrMatrix::transpose() const {
  HugePageVector<index_t> t_row_ptr(static_cast<std::size_t>(num_cols_) + 1,
                                    0);
  for (index_t c : col_idx_) ++t_row_ptr[c + 1];
  for (index_t j = 0; j < num_cols_; ++j) t_row_ptr[j + 1] += t_row_ptr[j];

  HugePageVector<index_t> t_col_idx(col_idx_.size());
  HugePageVector<double> t_values(values_.size());
  std::vector<index_t> cursor(t_row_ptr.begin(), t_row_ptr.end() - 1);
  for (index_t i = 0; i < num_rows_; ++i) {
    for (index_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      const index_t dst = cursor[col_idx_[p]]++;
      t_col_idx[dst] = i;
      t_values[dst] = values_[p];
    }
  }
  // Rows of the transpose are filled in increasing source-row order, so
  // columns are already sorted.
  return CsrMatrix(num_cols_, num_rows_, std::move(t_row_ptr),
                   std::move(t_col_idx), std::move(t_values));
}

bool CsrMatrix::is_symmetric(double tol) const {
  if (num_rows_ != num_cols_) return false;
  for (index_t i = 0; i < num_rows_; ++i) {
    const auto cols = row_cols(i);
    const auto vals = row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (std::abs(vals[k] - at(cols[k], i)) > tol) return false;
    }
  }
  return true;
}

bool CsrMatrix::has_sorted_rows() const {
  for (index_t i = 0; i < num_rows_; ++i) {
    const auto cols = row_cols(i);
    for (std::size_t k = 1; k < cols.size(); ++k) {
      if (cols[k - 1] >= cols[k]) return false;
    }
  }
  return true;
}

bool CsrMatrix::has_full_diagonal() const {
  if (num_rows_ != num_cols_) return false;
  for (index_t i = 0; i < num_rows_; ++i) {
    const auto cols = row_cols(i);
    if (!std::binary_search(cols.begin(), cols.end(), i)) return false;
  }
  return true;
}

CsrMatrix csr_identity(index_t n) {
  HugePageVector<index_t> row_ptr(static_cast<std::size_t>(n) + 1);
  HugePageVector<index_t> col_idx(static_cast<std::size_t>(n));
  HugePageVector<double> values(static_cast<std::size_t>(n), 1.0);
  for (index_t i = 0; i <= n; ++i) row_ptr[i] = i;
  for (index_t i = 0; i < n; ++i) col_idx[i] = i;
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace ajac
