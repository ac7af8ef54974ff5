#include "ajac/sparse/submatrix.hpp"

#include <algorithm>
#include <queue>

#include "ajac/sparse/csr.hpp"
#include "ajac/util/check.hpp"

namespace ajac {

CsrMatrix principal_submatrix(const CsrMatrix& a,
                              const std::vector<index_t>& keep) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  const index_t n = a.num_rows();
  const index_t m = static_cast<index_t>(keep.size());
  std::vector<index_t> old_to_new(static_cast<std::size_t>(n), index_t{-1});
  for (index_t k = 0; k < m; ++k) {
    AJAC_CHECK(keep[k] >= 0 && keep[k] < n);
    if (k > 0) AJAC_CHECK_MSG(keep[k - 1] < keep[k], "keep not increasing");
    old_to_new[keep[k]] = k;
  }
  HugePageVector<index_t> row_ptr(static_cast<std::size_t>(m) + 1, 0);
  HugePageVector<index_t> col_idx;
  HugePageVector<double> values;
  for (index_t k = 0; k < m; ++k) {
    const auto cols = a.row_cols(keep[k]);
    const auto vals = a.row_values(keep[k]);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      const index_t nc = old_to_new[cols[p]];
      if (nc >= 0) {
        col_idx.push_back(nc);
        values.push_back(vals[p]);
      }
    }
    row_ptr[k + 1] = static_cast<index_t>(col_idx.size());
  }
  // Columns within a row stay sorted because keep is increasing and
  // old_to_new is monotone on kept indices.
  return CsrMatrix(m, m, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

std::vector<index_t> connected_components(const CsrMatrix& a,
                                          index_t* num_components) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  const index_t n = a.num_rows();
  std::vector<index_t> comp(static_cast<std::size_t>(n), index_t{-1});
  index_t next = 0;
  std::queue<index_t> frontier;
  for (index_t s = 0; s < n; ++s) {
    if (comp[s] != -1) continue;
    comp[s] = next;
    frontier.push(s);
    while (!frontier.empty()) {
      const index_t u = frontier.front();
      frontier.pop();
      for (index_t v : a.row_cols(u)) {
        if (comp[v] == -1) {
          comp[v] = next;
          frontier.push(v);
        }
      }
    }
    ++next;
  }
  if (num_components != nullptr) *num_components = next;
  return comp;
}

std::vector<index_t> complement_rows(index_t n,
                                     const std::vector<index_t>& removed) {
  std::vector<char> is_removed(static_cast<std::size_t>(n), 0);
  for (index_t r : removed) {
    AJAC_CHECK(r >= 0 && r < n);
    is_removed[r] = 1;
  }
  std::vector<index_t> keep;
  keep.reserve(static_cast<std::size_t>(n) - removed.size());
  for (index_t i = 0; i < n; ++i) {
    if (!is_removed[i]) keep.push_back(i);
  }
  return keep;
}

}  // namespace ajac
