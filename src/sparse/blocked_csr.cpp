#include "ajac/sparse/blocked_csr.hpp"

#include <omp.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ajac/sparse/csr.hpp"
#include "ajac/util/annotate.hpp"

namespace ajac {

namespace {

void validate_block_starts(std::span<const index_t> block_starts,
                           index_t num_rows) {
  if (block_starts.size() < 2) {
    throw std::logic_error("BlockedCsr: block_starts needs >= 2 entries");
  }
  if (block_starts.front() != 0) {
    throw std::logic_error("BlockedCsr: block_starts must begin at 0");
  }
  if (block_starts.back() != num_rows) {
    throw std::logic_error("BlockedCsr: block_starts must end at num_rows");
  }
  for (std::size_t t = 1; t < block_starts.size(); ++t) {
    if (block_starts[t] < block_starts[t - 1]) {
      throw std::logic_error("BlockedCsr: block_starts must be non-decreasing");
    }
  }
}

/// How encoded local row li (li >= 1, both rows interior) repeats row
/// li - 1.
enum class Repeat {
  kNone,     ///< different length, or some column code not one more
  kPattern,  ///< the same length, and every column code one more
  kValues,   ///< kPattern, and bitwise the same values and 1 / a_ii
};

/// Compare row li with row li - 1: the pattern entry by entry, and their
/// values and 1 / a_ii as bit patterns, not with ==, so +0.0 and -0.0 (or
/// two NaNs) never compare equal.
Repeat repeat_of_previous_row(const BlockedCsr::Block& blk, index_t li) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto r = static_cast<std::size_t>(li);
  const auto prev = static_cast<std::size_t>(blk.row_ptr[r - 1]);
  const auto begin = static_cast<std::size_t>(blk.row_ptr[r]);
  const auto end = static_cast<std::size_t>(blk.row_ptr[r + 1]);
  if (end - begin != begin - prev) return Repeat::kNone;
  std::uint64_t diff = bits(blk.inv_diag[r]) ^ bits(blk.inv_diag[r - 1]);
  for (std::size_t q = 0; q < end - begin; ++q) {
    if (blk.col_code[begin + q] != blk.col_code[prev + q] + 1) {
      return Repeat::kNone;
    }
    diff |= bits(blk.values[begin + q]) ^ bits(blk.values[prev + q]);
  }
  return diff == 0 ? Repeat::kValues : Repeat::kPattern;
}

/// Record the chain of same-pattern interior rows [begin, end) as a
/// pattern run when it holds at least two rows. Its offsets come from its
/// first row and share the previous run's pool slice when equal; `uniform`
/// says every row repeats the first row's values and 1 / a_ii bitwise.
void close_pattern_chain(BlockedCsr::Block& blk, index_t begin, index_t end,
                         bool uniform) {
  using code_t = BlockedCsr::code_t;
  if (end - begin < 2) return;
  const auto li = static_cast<std::size_t>(begin - blk.lo);
  const code_t first = blk.row_ptr[li];
  const code_t width = blk.row_ptr[li + 1] - first;
  const auto row = std::span(blk.col_code).subspan(
      static_cast<std::size_t>(first), static_cast<std::size_t>(width));
  const auto shift = static_cast<code_t>(li);
  const auto pool = std::span(blk.pattern_offsets);
  if (!blk.pattern_runs.empty()) {
    const BlockedCsr::PatternRun& last = blk.pattern_runs.back();
    const auto prev = pool.subspan(static_cast<std::size_t>(last.offsets),
                                   static_cast<std::size_t>(last.width));
    if (last.width == width &&
        std::equal(row.begin(), row.end(), prev.begin(),
                   [&](code_t c, code_t off) { return c - shift == off; })) {
      blk.pattern_runs.push_back(
          {begin, end, first, width, last.offsets, uniform});
      return;
    }
  }
  const auto offsets = static_cast<code_t>(pool.size());
  for (const code_t c : row) blk.pattern_offsets.push_back(c - shift);
  blk.pattern_runs.push_back({begin, end, first, width, offsets, uniform});
}

/// Fill block `t` from its rows of `a`. Runs on the thread that will later
/// relax the block (first touch).
BlockedCsr::Block build_block(const CsrMatrix& a, index_t t, index_t lo,
                              index_t hi) {
  using code_t = BlockedCsr::code_t;
  BlockedCsr::Block blk;
  blk.lo = lo;
  blk.hi = hi;
  const index_t rows = hi - lo;
  const auto src_ptr = a.row_ptr();
  const index_t base = src_ptr[static_cast<std::size_t>(lo)];
  const index_t nnz = src_ptr[static_cast<std::size_t>(hi)] - base;
  // Local offsets are < rows, row_ptr values <= nnz and ghost slots <
  // the slot count, so these checks and the slot check below make every
  // narrowing in this function exact.
  (void)BlockedCsr::checked_code(rows, t, "row count");
  (void)BlockedCsr::checked_code(nnz, t, "entry count");

  blk.row_ptr.resize(static_cast<std::size_t>(rows) + 1, 0);
  for (index_t i = lo; i < hi; ++i) {
    blk.row_ptr[static_cast<std::size_t>(i - lo) + 1] =
        static_cast<code_t>(src_ptr[static_cast<std::size_t>(i) + 1] - base);
  }

  // Pass 1: collect the block's ghost columns (sorted, unique) so ghost
  // slots are independent of entry order within rows. They are gathered
  // in a per-thread scratch and copied out at their exact size: grown by
  // doubling in the block itself, a list just past a power of two (4,097
  // entries for an nnz-balanced FD 2048² block) took a 64 KiB chunk from
  // this thread's malloc arena, and freeing it with the layout trimmed
  // the arena, so every warm solve faulted those 16 pages back in. The
  // scratch keeps the largest list this thread has built, at most 8 bytes
  // per ghost entry of one block.
  thread_local std::vector<index_t> ghosts;
  ghosts.clear();
  for (index_t i = lo; i < hi; ++i) {
    for (const index_t j : a.row_cols(i)) {
      if (j < lo || j >= hi) ghosts.push_back(j);
    }
  }
  std::sort(ghosts.begin(), ghosts.end());
  blk.ghost_cols.assign(ghosts.begin(),
                        std::unique(ghosts.begin(), ghosts.end()));
  (void)BlockedCsr::checked_code(
      static_cast<index_t>(blk.ghost_cols.size()), t, "ghost-slot count");

  // The block's rows are contiguous in the parent CSR, so the value slice
  // is a zero-copy view (row_values of an empty row still points at the
  // right offset).
  if (rows > 0) {
    blk.values = {a.row_values(lo).data(), static_cast<std::size_t>(nnz)};
  }

  // Pass 2: encode entries in their original order, record 1 / a_ii and
  // the first zero diagonal, merge consecutive rows of one class, interior
  // (no ghost entries) or boundary, into runs, and consecutive interior
  // rows of one pattern into pattern runs.
  // Interior rows [chain, i) repeat one pattern, and, while `uniform`
  // holds, the chain's first row's values and 1 / a_ii too.
  blk.col_code.reserve(static_cast<std::size_t>(nnz));
  blk.inv_diag.resize(static_cast<std::size_t>(rows), 0.0);
  index_t chain = lo;
  bool uniform = true;
  for (index_t i = lo; i < hi; ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    bool has_ghost = false;
    bool has_diag = false;
    double diag = 0.0;  // the row's first diagonal entry, as a.at(i, i)
    for (std::size_t p = 0; p < cols.size(); ++p) {
      const index_t j = cols[p];
      if (j == i) {
        if (!has_diag) diag = vals[p];
        has_diag = true;
        if (vals[p] != 0.0) {
          blk.inv_diag[static_cast<std::size_t>(i - lo)] = 1.0 / vals[p];
        }
      }
      if (j >= lo && j < hi) {
        blk.col_code.push_back(static_cast<code_t>(j - lo));
        ++blk.local_nnz;
      } else {
        const auto it = std::lower_bound(blk.ghost_cols.begin(),
                                         blk.ghost_cols.end(), j);
        const auto slot = static_cast<code_t>(it - blk.ghost_cols.begin());
        blk.col_code.push_back(BlockedCsr::ghost_code(slot));
        ++blk.ghost_nnz;
        has_ghost = true;
      }
    }
    if (diag == 0.0 && blk.zero_diag_row < 0) blk.zero_diag_row = i;
    if (blk.runs.empty() || blk.runs.back().boundary != has_ghost) {
      blk.runs.push_back({i, i + 1, has_ghost});
    } else {
      blk.runs.back().end = i + 1;
    }
    // Extend the current chain of same-pattern interior rows, or close it
    // (a pattern run if it holds >= 2 rows) and start a new one here.
    const Repeat repeat = !has_ghost && chain < i
                              ? repeat_of_previous_row(blk, i - lo)
                              : Repeat::kNone;
    if (repeat != Repeat::kNone) {
      uniform = uniform && repeat == Repeat::kValues;
    } else {
      close_pattern_chain(blk, chain, i, uniform);
      chain = has_ghost ? i + 1 : i;
      uniform = true;
    }
  }
  close_pattern_chain(blk, chain, hi, uniform);
  return blk;
}

/// The rows of block `t` that other blocks read: each other block's
/// sorted ghost_cols contribute their slice inside [lo, hi), and the
/// merged rows collapse into maximal ascending ranges. Runs on the thread
/// that owns block t, after every block is built.
std::vector<BlockedCsr::RowRange> export_runs_of(
    std::span<const BlockedCsr::Block> blocks, index_t t) {
  const BlockedCsr::Block& own = blocks[static_cast<std::size_t>(t)];
  std::vector<index_t> rows;
  for (std::size_t u = 0; u < blocks.size(); ++u) {
    if (u == static_cast<std::size_t>(t)) continue;
    const std::vector<index_t>& ghosts = blocks[u].ghost_cols;
    const auto first =
        std::lower_bound(ghosts.begin(), ghosts.end(), own.lo);
    const auto last = std::lower_bound(first, ghosts.end(), own.hi);
    rows.insert(rows.end(), first, last);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  std::vector<BlockedCsr::RowRange> out;
  for (const index_t i : rows) {
    if (out.empty() || out.back().end != i) {
      out.push_back({i, i + 1});
    } else {
      out.back().end = i + 1;
    }
  }
  return out;
}

}  // namespace

BlockedCsr::code_t BlockedCsr::checked_code(index_t value, index_t block,
                                            const char* what) {
  if (value < std::numeric_limits<code_t>::min() ||
      value > std::numeric_limits<code_t>::max()) {
    throw std::logic_error("BlockedCsr: block " + std::to_string(block) +
                           " " + what + " " + std::to_string(value) +
                           " does not fit a 32-bit block index");
  }
  return static_cast<code_t>(value);
}

BlockedCsr::BlockedCsr(const CsrMatrix& a,
                       std::span<const index_t> block_starts) {
  validate_block_starts(block_starts, a.num_rows());
  num_rows_ = a.num_rows();
  num_cols_ = a.num_cols();
  nnz_ = a.num_nonzeros();
  const auto num_blocks = static_cast<index_t>(block_starts.size()) - 1;
  blocks_.resize(static_cast<std::size_t>(num_blocks));

  // One thread per block, up to the OpenMP width, and schedule(static,1):
  // block t goes to thread t, the assignment solve_shared's parallel
  // region uses, so first touch places each block's arrays near its
  // relaxing thread. A team no wider than the block count also leaves no
  // idle workers spinning beside a solve on fewer threads than cores.
  // The export runs need every block's ghost table, so each owner builds
  // its block's after the first loop's barrier, in the same region. The
  // fork/join and barrier edges live in uninstrumented libgomp, so hand
  // them to TSan explicitly (the same pattern solve_shared uses around its
  // parallel region). An exception must not leave the region, so each
  // block's is carried out and the first one rethrown after the join.
  const int team = static_cast<int>(std::clamp<index_t>(
      num_blocks, 1, static_cast<index_t>(omp_get_max_threads())));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(num_blocks));
  AJAC_TSAN_RELEASE(&blocks_);
#pragma omp parallel num_threads(team)
  {
#pragma omp for schedule(static, 1)
    for (index_t t = 0; t < num_blocks; ++t) {
      AJAC_TSAN_ACQUIRE(&blocks_);
      try {
        blocks_[static_cast<std::size_t>(t)] =
            build_block(a, t, block_starts[t], block_starts[t + 1]);
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
      AJAC_TSAN_RELEASE(&blocks_);
    }
#pragma omp for schedule(static, 1)
    for (index_t t = 0; t < num_blocks; ++t) {
      AJAC_TSAN_ACQUIRE(&blocks_);
      blocks_[static_cast<std::size_t>(t)].export_runs =
          export_runs_of(blocks_, t);
      AJAC_TSAN_RELEASE(&blocks_);
    }
  }
  AJAC_TSAN_ACQUIRE(&blocks_);
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

CsrMatrix BlockedCsr::reassemble() const {
  HugePageVector<index_t> row_ptr;
  HugePageVector<index_t> col_idx;
  HugePageVector<double> values;
  row_ptr.reserve(static_cast<std::size_t>(num_rows_) + 1);
  col_idx.reserve(static_cast<std::size_t>(nnz_));
  values.reserve(static_cast<std::size_t>(nnz_));
  row_ptr.push_back(0);
  for (const Block& blk : blocks_) {
    for (index_t r = 0; r < blk.num_rows(); ++r) {
      const auto begin = static_cast<std::size_t>(blk.row_ptr[r]);
      const auto end = static_cast<std::size_t>(blk.row_ptr[r + 1]);
      for (std::size_t p = begin; p < end; ++p) {
        const code_t code = blk.col_code[p];
        col_idx.push_back(is_ghost(code)
                              ? blk.ghost_cols[static_cast<std::size_t>(
                                    ghost_slot(code))]
                              : blk.lo + code);
        values.push_back(blk.values[p]);
      }
      row_ptr.push_back(static_cast<index_t>(col_idx.size()));
    }
  }
  return CsrMatrix(num_rows_, num_cols_, std::move(row_ptr),
                   std::move(col_idx), std::move(values));
}

}  // namespace ajac
