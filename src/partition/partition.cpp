#include "ajac/partition/partition.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <span>

#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/rng.hpp"

namespace ajac::partition {

index_t Partition::owner(index_t row) const {
  AJAC_DCHECK(row >= 0 && row < num_rows());
  const auto it =
      std::upper_bound(block_starts.begin(), block_starts.end(), row);
  return static_cast<index_t>(it - block_starts.begin()) - 1;
}

Partition contiguous_partition(index_t n, index_t num_parts) {
  AJAC_CHECK(n >= 0 && num_parts >= 1);
  Partition p;
  p.block_starts.resize(static_cast<std::size_t>(num_parts) + 1);
  const index_t base = n / num_parts;
  const index_t extra = n % num_parts;
  p.block_starts[0] = 0;
  for (index_t k = 0; k < num_parts; ++k) {
    p.block_starts[k + 1] = p.block_starts[k] + base + (k < extra ? 1 : 0);
  }
  return p;
}

Partition nnz_balanced_partition(const CsrMatrix& a, index_t num_parts) {
  AJAC_CHECK(num_parts >= 1);
  const index_t n = a.num_rows();
  // The CSR row pointer is the prefix sum of row nnz; boundary k sits at
  // the prefix entry nearest to k/num_parts of the total (binary search),
  // clamped so no part is empty while rows remain and the tail parts can
  // still each get one row. Each cut lands within one row's nonzeros of
  // its target, so no part exceeds the ideal share by more than ~two
  // maximal rows.
  const std::span<const index_t> prefix = a.row_ptr();
  const index_t total = prefix[static_cast<std::size_t>(n)];
  Partition p;
  p.block_starts.resize(static_cast<std::size_t>(num_parts) + 1);
  p.block_starts[0] = 0;
  for (index_t k = 1; k < num_parts; ++k) {
    const index_t target =
        static_cast<index_t>((static_cast<double>(total) * k) / num_parts);
    const auto it =
        std::lower_bound(prefix.begin() + 1, prefix.end(), target);
    auto cut = it == prefix.end()
                   ? n
                   : static_cast<index_t>(it - prefix.begin());
    if (cut > 0 && it != prefix.end() &&
        target - prefix[static_cast<std::size_t>(cut) - 1] <
            prefix[static_cast<std::size_t>(cut)] - target) {
      --cut;  // the previous row boundary is closer to the target
    }
    const index_t prev = p.block_starts[static_cast<std::size_t>(k) - 1];
    const index_t parts_left = num_parts - k;  // parts after this boundary
    cut = std::max(cut, std::min(prev + 1, n - parts_left));
    cut = std::min(cut, std::max(prev, n - parts_left));
    p.block_starts[static_cast<std::size_t>(k)] = std::max(cut, prev);
  }
  p.block_starts[static_cast<std::size_t>(num_parts)] = n;
  return p;
}

void validate(const Partition& p, index_t num_rows) {
  AJAC_CHECK_MSG(p.block_starts.size() >= 2,
                 "partition needs at least one part (block_starts size "
                     << p.block_starts.size() << ")");
  AJAC_CHECK_MSG(p.block_starts.front() == 0,
                 "partition must start at row 0, got "
                     << p.block_starts.front());
  for (std::size_t k = 1; k < p.block_starts.size(); ++k) {
    AJAC_CHECK_MSG(p.block_starts[k - 1] <= p.block_starts[k],
                   "partition block_starts not monotone at part " << k - 1
                       << ": " << p.block_starts[k - 1] << " > "
                       << p.block_starts[k]);
  }
  AJAC_CHECK_MSG(p.block_starts.back() == num_rows,
                 "partition covers rows [0," << p.block_starts.back()
                     << ") but the system has " << num_rows << " rows");
}

namespace {

/// BFS from `start`, returning the vertex order and the last level set.
/// Ties broken by ascending degree (Cuthill–McKee style).
std::vector<index_t> bfs_order(const CsrMatrix& a, index_t start,
                               const std::vector<index_t>& degree) {
  const index_t n = a.num_rows();
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::queue<index_t> frontier;
  auto visit_component = [&](index_t s) {
    seen[s] = 1;
    frontier.push(s);
    while (!frontier.empty()) {
      const index_t u = frontier.front();
      frontier.pop();
      order.push_back(u);
      std::vector<index_t> nbrs;
      for (index_t v : a.row_cols(u)) {
        if (v != u && !seen[v]) {
          seen[v] = 1;
          nbrs.push_back(v);
        }
      }
      std::sort(nbrs.begin(), nbrs.end(), [&](index_t x, index_t y) {
        return degree[x] < degree[y] || (degree[x] == degree[y] && x < y);
      });
      for (index_t v : nbrs) frontier.push(v);
    }
  };
  visit_component(start);
  for (index_t s = 0; s < n; ++s) {
    if (!seen[s]) visit_component(s);
  }
  return order;
}

/// Pseudo-peripheral vertex: repeat BFS from the farthest minimum-degree
/// vertex of the last level until the eccentricity stops growing.
index_t pseudo_peripheral(const CsrMatrix& a,
                          const std::vector<index_t>& degree) {
  const index_t n = a.num_rows();
  if (n == 0) return 0;
  index_t start = 0;
  for (index_t i = 1; i < n; ++i) {
    if (degree[i] < degree[start]) start = i;
  }
  index_t prev_depth = -1;
  for (int pass = 0; pass < 8; ++pass) {
    std::vector<index_t> level(static_cast<std::size_t>(n), index_t{-1});
    std::queue<index_t> frontier;
    level[start] = 0;
    frontier.push(start);
    index_t depth = 0;
    index_t farthest = start;
    while (!frontier.empty()) {
      const index_t u = frontier.front();
      frontier.pop();
      for (index_t v : a.row_cols(u)) {
        if (v != u && level[v] < 0) {
          level[v] = level[u] + 1;
          if (level[v] > depth ||
              (level[v] == depth && degree[v] < degree[farthest])) {
            depth = level[v];
            farthest = v;
          }
          frontier.push(v);
        }
      }
    }
    if (depth <= prev_depth) break;
    prev_depth = depth;
    start = farthest;
  }
  return start;
}

}  // namespace

Permutation cuthill_mckee(const CsrMatrix& a, bool reverse) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  const index_t n = a.num_rows();
  std::vector<index_t> degree(static_cast<std::size_t>(n), 0);
  for (index_t i = 0; i < n; ++i) degree[i] = a.row_nnz(i);
  std::vector<index_t> order =
      bfs_order(a, n > 0 ? pseudo_peripheral(a, degree) : 0, degree);
  if (reverse) std::reverse(order.begin(), order.end());
  return Permutation(std::move(order));
}

PartitionedSystem graph_growing_partition(const CsrMatrix& a,
                                          index_t num_parts,
                                          std::uint64_t seed,
                                          bool balance_by_nnz) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  AJAC_CHECK(num_parts >= 1);
  const index_t n = a.num_rows();
  AJAC_CHECK_MSG(num_parts <= std::max<index_t>(n, 1),
                 "more parts than rows");

  std::vector<index_t> degree(static_cast<std::size_t>(n), 0);
  for (index_t i = 0; i < n; ++i) degree[i] = a.row_nnz(i);
  // Row weight: 1 for row balancing, nnz for work balancing.
  auto weight = [&](index_t i) {
    return balance_by_nnz ? a.row_nnz(i) : index_t{1};
  };
  index_t total_weight = 0;
  for (index_t i = 0; i < n; ++i) total_weight += weight(i);

  // Grow parts one after another along a global Cuthill–McKee-ish BFS
  // order: take the next `target` unassigned vertices in BFS-from-frontier
  // order, which keeps each part connected (within a component) and the
  // boundary short.
  const std::vector<index_t> global_order =
      bfs_order(a, n > 0 ? pseudo_peripheral(a, degree) : 0, degree);

  std::vector<index_t> part(static_cast<std::size_t>(n), index_t{-1});
  std::vector<std::vector<index_t>> members(
      static_cast<std::size_t>(num_parts));
  std::vector<index_t> part_weight(static_cast<std::size_t>(num_parts), 0);
  {
    std::size_t cursor = 0;
    for (index_t p = 0; p < num_parts; ++p) {
      // Even split of the REMAINING weight over the remaining parts, so
      // rounding never starves the last parts.
      index_t remaining_weight = total_weight;
      for (index_t q = 0; q < p; ++q) remaining_weight -= part_weight[q];
      const index_t target =
          std::max<index_t>(1, remaining_weight / (num_parts - p));
      // Region-grow from the first unassigned vertex in global order.
      std::queue<index_t> frontier;
      while (part_weight[p] < target) {
        if (frontier.empty()) {
          while (cursor < global_order.size() &&
                 part[global_order[cursor]] != -1) {
            ++cursor;
          }
          if (cursor >= global_order.size()) break;
          const index_t s = global_order[cursor];
          part[s] = p;
          members[p].push_back(s);
          part_weight[p] += weight(s);
          frontier.push(s);
          continue;
        }
        const index_t u = frontier.front();
        frontier.pop();
        for (index_t v : a.row_cols(u)) {
          if (v == u || part[v] != -1) continue;
          if (part_weight[p] >= target) break;
          part[v] = p;
          members[p].push_back(v);
          part_weight[p] += weight(v);
          frontier.push(v);
        }
      }
    }
    // Any stragglers (disconnected leftovers) go to the lightest parts.
    for (index_t i : global_order) {
      if (part[i] != -1) continue;
      index_t lightest = 0;
      for (index_t p = 1; p < num_parts; ++p) {
        if (part_weight[p] < part_weight[lightest]) lightest = p;
      }
      part[i] = lightest;
      members[lightest].push_back(i);
      part_weight[lightest] += weight(i);
    }
    // Guarantee non-empty parts: steal one row from the heaviest
    // multi-row part for each empty one.
    for (index_t p = 0; p < num_parts; ++p) {
      if (!members[p].empty()) continue;
      index_t donor = 0;
      for (index_t q = 1; q < num_parts; ++q) {
        if (members[q].size() > members[donor].size()) donor = q;
      }
      AJAC_CHECK(members[donor].size() > 1);
      const index_t row = members[donor].back();
      members[donor].pop_back();
      part_weight[donor] -= weight(row);
      members[p].push_back(row);
      part_weight[p] += weight(row);
      part[row] = p;
    }
  }

  // Boundary refinement: move a boundary vertex to the neighboring part
  // where most of its edges live, if that strictly reduces the cut and
  // keeps balance within 10%.
  {
    Rng rng(seed);
    const double max_size =
        1.1 * static_cast<double>(total_weight) /
            static_cast<double>(num_parts) +
        static_cast<double>(balance_by_nnz ? a.num_nonzeros() / n : 1);
    for (int pass = 0; pass < 4; ++pass) {
      index_t moves = 0;
      for (index_t i = 0; i < n; ++i) {
        const index_t home = part[i];
        // Count edges to each adjacent part.
        index_t best_part = home;
        index_t home_edges = 0;
        index_t best_edges = 0;
        std::vector<std::pair<index_t, index_t>> counts;
        for (index_t v : a.row_cols(i)) {
          if (v == i) continue;
          const index_t p = part[v];
          bool found = false;
          for (auto& [cp, cnt] : counts) {
            if (cp == p) {
              ++cnt;
              found = true;
              break;
            }
          }
          if (!found) counts.emplace_back(p, 1);
        }
        for (const auto& [cp, cnt] : counts) {
          if (cp == home) home_edges = cnt;
        }
        for (const auto& [cp, cnt] : counts) {
          if (cp != home && cnt > best_edges) {
            best_edges = cnt;
            best_part = cp;
          }
        }
        if (best_part != home && best_edges > home_edges &&
            static_cast<double>(part_weight[best_part] + weight(i)) <=
                max_size &&
            members[home].size() > 1) {
          // Move i.
          auto& src = members[home];
          src.erase(std::find(src.begin(), src.end(), i));
          members[best_part].push_back(i);
          part_weight[home] -= weight(i);
          part_weight[best_part] += weight(i);
          part[i] = best_part;
          ++moves;
        }
      }
      if (moves == 0) break;
    }
  }

  // Build the part-major permutation and the contiguous partition.
  PartitionedSystem out{Permutation::identity(std::max<index_t>(n, 0)),
                        Partition{}};
  std::vector<index_t> new_to_old;
  new_to_old.reserve(static_cast<std::size_t>(n));
  out.partition.block_starts.assign(1, 0);
  for (index_t p = 0; p < num_parts; ++p) {
    // Keep BFS discovery order within the part for locality.
    for (index_t i : members[p]) new_to_old.push_back(i);
    out.partition.block_starts.push_back(
        static_cast<index_t>(new_to_old.size()));
  }
  out.perm = Permutation(std::move(new_to_old));
  return out;
}

PartitionStats compute_stats(const CsrMatrix& a, const Partition& p) {
  AJAC_CHECK(a.num_rows() == p.num_rows());
  PartitionStats stats;
  stats.min_part = a.num_rows();
  for (index_t k = 0; k < p.num_parts(); ++k) {
    stats.max_part = std::max(stats.max_part, p.part_size(k));
    stats.min_part = std::min(stats.min_part, p.part_size(k));
  }
  for (index_t k = 0; k < p.num_parts(); ++k) {
    for (index_t i = p.part_begin(k); i < p.part_end(k); ++i) {
      bool boundary = false;
      for (index_t j : a.row_cols(i)) {
        if (j < p.part_begin(k) || j >= p.part_end(k)) {
          ++stats.edge_cut;
          boundary = true;
        }
      }
      if (boundary) ++stats.boundary_rows;
    }
  }
  const double ideal = static_cast<double>(a.num_rows()) /
                       static_cast<double>(p.num_parts());
  stats.imbalance =
      ideal > 0.0 ? static_cast<double>(stats.max_part) / ideal - 1.0 : 0.0;
  return stats;
}

BlockedCsr blocked_csr(const CsrMatrix& a, const Partition& p) {
  validate(p, a.num_rows());
  return BlockedCsr(a, p.block_starts);
}

}  // namespace ajac::partition
