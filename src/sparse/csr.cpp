#include "ajac/sparse/csr.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <vector>

#include "ajac/util/annotate.hpp"
#include "ajac/util/check.hpp"

namespace ajac {

namespace {

/// Consecutive pieces of [0, n) for a loop over an array of `bytes`: one
/// per thread of the OpenMP team (at most n) once the array is on the
/// huge-page path (kHugePageBytes, ajac/util/aligned.hpp), else one.
struct Chunks {
  index_t n = 0;
  index_t count = 1;
  [[nodiscard]] index_t begin(index_t c) const { return n * c / count; }
};

Chunks chunks_for(index_t n, std::size_t bytes) {
  const index_t team =
      bytes >= kHugePageBytes ? static_cast<index_t>(omp_get_max_threads()) : 1;
  return {n, std::clamp<index_t>(team, 1, std::max<index_t>(n, 1))};
}

/// body(lo, hi) for each chunk [lo, hi): on the caller when there is one,
/// else on the team. A chunk walks its piece in order and throws at its
/// first fault, so rethrowing the lowest chunk's exception after the join
/// reports what the serial walk would have. The fork/join edges live in
/// libgomp futexes TSan cannot see, so they are handed to it as in
/// spmv_omp.
template <class Body>
void for_chunks(const Chunks& chunks, Body&& body) {
  if (chunks.count == 1) {
    body(index_t{0}, chunks.n);
    return;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(chunks.count));
  AJAC_TSAN_RELEASE(&errors);
#pragma omp parallel num_threads(static_cast<int>(chunks.count))
  {
    AJAC_TSAN_ACQUIRE(&errors);
#pragma omp for schedule(static, 1)
    for (index_t c = 0; c < chunks.count; ++c) {
      try {
        body(chunks.begin(c), chunks.begin(c + 1));
      } catch (...) {
        errors[static_cast<std::size_t>(c)] = std::current_exception();
      }
    }
    AJAC_TSAN_RELEASE(&errors);
  }
  AJAC_TSAN_ACQUIRE(&errors);
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// `src` copied by memcpy into a vector sized without a fill, whole 2 MiB
/// pieces to a chunk.
template <class T>
HugePageVector<T> copy_of(const HugePageVector<T>& src) {
  HugePageVector<T> out(src.size());
  if (src.empty()) return out;
  const std::size_t bytes = src.size() * sizeof(T);
  const auto* from = reinterpret_cast<const char*>(src.data());
  auto* to = reinterpret_cast<char*>(out.data());
  const Chunks pieces = chunks_for(
      static_cast<index_t>((bytes + kHugePageBytes - 1) / kHugePageBytes),
      bytes);
  for_chunks(pieces, [&](index_t lo, index_t hi) {
    const auto first = static_cast<std::size_t>(lo) * kHugePageBytes;
    const std::size_t last =
        std::min(bytes, static_cast<std::size_t>(hi) * kHugePageBytes);
    std::memcpy(to + first, from + first, last - first);
  });
  return out;
}

}  // namespace

void CsrRowWriter::finish() const {
  AJAC_CHECK_MSG(row_ == end_, "fill of rows [" << begin_ << ", " << end_
                                                << ") closed "
                                                << row_ - begin_ << " rows");
  AJAC_CHECK_MSG(last_col_ == -1, "entries pushed after the last end_row() "
                                  "of rows ["
                                      << begin_ << ", " << end_ << ")");
}

void CsrRowWriter::reject_push(index_t col, index_t last_col, index_t row) {
  AJAC_CHECK_MSG(col >= 0,
                 "column index " << col << " out of range in row " << row);
  AJAC_CHECK_MSG(col > last_col, "column " << col << " in row " << row
                                           << " does not exceed the "
                                              "previous column "
                                           << last_col);
  AJAC_CHECK_MSG(false,
                 "row " << row << " has more entries than its counting pass");
}

void CsrRowWriter::reject_end_row(index_t row, index_t begin, index_t end,
                                  index_t pos, index_t row_end,
                                  const index_t* row_ptr) {
  AJAC_CHECK_MSG(row < end, "end_row() past the last of rows ["
                                << begin << ", " << end << ")");
  AJAC_CHECK_MSG(false, "row " << row << " ended after " << pos - row_ptr[row]
                               << " entries, its counting pass gave "
                               << row_end - row_ptr[row]);
}

CsrMatrix CsrMatrix::fill_rows(index_t num_rows, index_t num_cols,
                               const RowFill& fill) {
  AJAC_CHECK(num_rows >= 0 && num_cols >= 0);
  HugePageVector<index_t> row_ptr(static_cast<std::size_t>(num_rows) + 1);
  row_ptr[0] = 0;
  // Counting pass: each chunk stores its rows' ends relative to its own
  // first row. The chunks' last ends are then summed in order, which
  // makes every chunk's first row_ptr entry final, and each chunk adds
  // its first entry to the rest of its own.
  const Chunks rows = chunks_for(num_rows, row_ptr.size() * sizeof(index_t));
  for_chunks(rows, [&](index_t lo, index_t hi) {
    if (lo == hi) return;
    CsrRowWriter out(lo, hi, row_ptr.data());
    fill(lo, hi, out);
    out.finish();
  });
  if (rows.count > 1) {
    for (index_t c = 2; c <= rows.count; ++c) {
      row_ptr[rows.begin(c)] += row_ptr[rows.begin(c - 1)];
    }
    for_chunks(rows, [&](index_t lo, index_t hi) {
      const index_t shift = row_ptr[lo];
      for (index_t i = lo + 1; i < hi; ++i) row_ptr[i] += shift;
    });
  }

  const auto nnz = static_cast<std::size_t>(row_ptr.back());
  HugePageVector<index_t> col_idx(nnz);
  HugePageVector<double> values(nnz);
  const Chunks writes = chunks_for(num_rows, nnz * sizeof(double));
  for_chunks(writes, [&](index_t lo, index_t hi) {
    if (lo == hi) return;
    CsrRowWriter out(lo, hi, row_ptr.data(), col_idx.data(), values.data());
    fill(lo, hi, out);
    out.finish();
  });
  return CsrMatrix(num_rows, num_cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

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
  const Chunks rows = chunks_for(num_rows_, row_ptr_.size() * sizeof(index_t));
  for_chunks(rows, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      AJAC_CHECK_MSG(row_ptr_[i] <= row_ptr_[i + 1],
                     "row_ptr not monotone at row " << i);
    }
  });
  const Chunks entries = chunks_for(static_cast<index_t>(col_idx_.size()),
                                    col_idx_.size() * sizeof(index_t));
  for_chunks(entries, [&](index_t lo, index_t hi) {
    for (index_t p = lo; p < hi; ++p) {
      const index_t col = col_idx_[p];
      AJAC_CHECK_MSG(col >= 0 && col < num_cols_,
                     "column index " << col << " out of range [0,"
                                     << num_cols_ << ")");
    }
  });
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
  const Chunks rows =
      chunks_for(static_cast<index_t>(d.size()), d.size() * sizeof(double));
  for_chunks(rows, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      d[i] = at(i, i);
    }
  });
  return d;
}

Vector CsrMatrix::inverse_sqrt_diagonal() const {
  AJAC_CHECK(num_rows_ == num_cols_);
  Vector d(static_cast<std::size_t>(num_rows_), 0.0);
  const Chunks rows = chunks_for(num_rows_, d.size() * sizeof(double));
  for_chunks(rows, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      const double a_ii = at(i, i);
      AJAC_CHECK_MSG(a_ii > 0.0, "diagonal entry " << i << " = " << a_ii
                                                   << " is not positive");
      d[i] = 1.0 / std::sqrt(a_ii);
    }
  });
  return d;
}

void CsrMatrix::scale_symmetric(std::span<const double> s) {
  AJAC_CHECK(num_rows_ == num_cols_);
  AJAC_CHECK(s.size() == static_cast<std::size_t>(num_rows_));
  const Chunks rows = chunks_for(num_rows_, values_.size() * sizeof(double));
  for_chunks(rows, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      for (index_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
        values_[p] *= s[i] * s[col_idx_[p]];
      }
    }
  });
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
