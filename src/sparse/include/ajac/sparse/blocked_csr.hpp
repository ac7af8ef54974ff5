#pragma once
// Partition-aware CSR layout for the shared-memory runtime.
//
// A BlockedCsr reshapes a CsrMatrix along a contiguous row partition
// (partition::Partition::block_starts) into per-owner blocks whose column
// indices are classified once, up front, by who owns them:
//
//   * local  — the column falls inside the block's own row range, so the
//     owning thread also owns the value it reads. Those reads never race:
//     the reader wrote the value itself, in program order, and can serve
//     them from a plain thread-private array with no atomics or seqlocks.
//   * ghost  — the column belongs to another block. Only these reads need
//     the SharedVector machinery (relaxed atomic loads, or versioned
//     seqlock reads in traced runs).
//
// Rows whose columns are all local are *interior*; rows touching at least
// one ghost column are *boundary*. The split is the shared-memory analogue
// of the local/ghost column maps distributed SpMV codes build (L2GMap) and
// of Skywing's interior/boundary actor decomposition: the expensive
// synchronized reads are confined to the boundary, which for banded
// matrices is a vanishing fraction of the block.
//
// Entry order within each row is preserved exactly, so a relaxation that
// walks a blocked row accumulates in the same order as one walking the
// original CSR row — blocked and reference kernels produce bitwise
// identical sums from identical inputs (the contract the differential
// kernel-equivalence suite pins down).
//
// Construction touches each block's arrays from an OpenMP thread chosen by
// the same static schedule the solver's parallel region uses, so on NUMA
// machines first-touch places a block's rows on the socket of the thread
// that will relax them. A large array recycled from the allocator's cache
// (ajac/util/aligned.hpp) keeps the pages, and so the node, of whoever
// first touched its block; on a one-socket host, where every measurement
// in DESIGN.md was taken, there is one node and that costs nothing.

#include <cstdint>
#include <span>
#include <vector>

#include "ajac/sparse/types.hpp"
#include "ajac/util/aligned.hpp"

namespace ajac {

class CsrMatrix;

class BlockedCsr {
 public:
  /// Block-local index type of row_ptr and col_code. 32 bits halve the
  /// index stream of a sweep against index_t; construction rejects any
  /// block whose row, entry or ghost-slot count does not fit.
  using code_t = std::int32_t;

  /// Column codes: non-negative codes are local column offsets (global
  /// column j owned by a block starting at lo is stored as j - lo);
  /// negative codes address the block's ghost table (slot s stored as ~s).
  [[nodiscard]] static constexpr bool is_ghost(code_t code) noexcept {
    return code < 0;
  }
  [[nodiscard]] static constexpr code_t ghost_slot(code_t code) noexcept {
    return ~code;
  }
  [[nodiscard]] static constexpr code_t ghost_code(code_t slot) noexcept {
    return ~slot;
  }

  /// Narrow a block-local count to code_t. Throws std::logic_error naming
  /// the block and the quantity (`what`) when `value` does not fit.
  [[nodiscard]] static code_t checked_code(index_t value, index_t block,
                                           const char* what);

  /// A maximal ascending range [begin, end) of global rows of one class.
  struct RowRun {
    index_t begin = 0;
    index_t end = 0;
    bool boundary = false;  ///< true: every row has >= 1 ghost entry
  };

  /// A maximal ascending range [begin, end) of global rows.
  struct RowRange {
    index_t begin = 0;
    index_t end = 0;
  };

  /// A maximal ascending range [begin, end) of at least two interior rows
  /// that share a row length `width` and their column offsets relative to
  /// their own local index (col_code[p] - li, the same for every row). Row
  /// i's entry q is values[first + (i - begin) * width + q] in local column
  /// (i - lo) + Block::pattern_offsets[offsets + q], in CSR entry order, so
  /// a sweep needs neither col_code nor row_ptr for these rows.
  ///
  /// A run is *uniform* when every row also repeats row begin's `width`
  /// values and its inv_diag, compared as bit patterns (so +0.0 and -0.0
  /// never merge): a constant-coefficient stencil, such as the unit-
  /// diagonal FD matrices. A sweep may then hold the first row's values
  /// and 1 / a_ii in registers and load neither per row; each product
  /// still uses the same value bits against the same x element, in entry
  /// order, so the sums are bitwise those of the per-row loads.
  struct PatternRun {
    index_t begin = 0;
    index_t end = 0;
    code_t first = 0;    ///< row_ptr of row begin: its first entry
    code_t width = 0;    ///< entries per row
    code_t offsets = 0;  ///< start of the run's slice of pattern_offsets
    bool uniform = false;  ///< rows repeat row begin's values and inv_diag
  };

  struct Block {
    index_t lo = 0;  ///< first row owned by this block
    index_t hi = 0;  ///< one past the last row owned by this block

    /// CSR over the block's rows in their original order: entries of local
    /// row r (global row lo + r) are [row_ptr[r], row_ptr[r + 1]).
    /// row_ptr, col_code and inv_diag are the block's O(rows) and O(nnz)
    /// arrays, so they live on staggered huge pages when large
    /// (ajac/util/aligned.hpp).
    AlignedVector<code_t> row_ptr;
    /// Per entry: local offset or ~(ghost slot); see is_ghost/ghost_slot.
    /// Entry order within a row matches the source CSR row exactly.
    AlignedVector<code_t> col_code;
    /// The block's value slice, aliasing the source matrix's value array
    /// (the block's rows are contiguous in the parent CSR, so this is
    /// zero-copy). The BlockedCsr is a *view* in this one respect: it must
    /// not outlive the CsrMatrix it was built from.
    std::span<const double> values;

    /// Ghost slot -> global column, sorted ascending, unique per block.
    std::vector<index_t> ghost_cols;

    /// The block's rows split by class into maximal ascending runs that
    /// tile [lo, hi), alternating in class, so a sweep walks rows in order
    /// with one class test per run. Interior rows have no ghost entries
    /// (provable from col_code); boundary rows have >= 1. Walking the
    /// interior runs and then the boundary runs visits each class in row
    /// order. Empty for an empty block.
    std::vector<RowRun> runs;
    /// The interior rows that repeat the row before them shifted by one,
    /// as ascending, disjoint pattern runs, each inside one interior run.
    /// Interior rows in no pattern run (grid edges, unstructured rows)
    /// keep to col_code. Empty when no two adjacent interior rows match.
    std::vector<PatternRun> pattern_runs;
    /// The offset pool pattern runs slice; a run whose offsets equal the
    /// previous run's shares its slice.
    std::vector<code_t> pattern_offsets;
    /// The block's exported rows as maximal ascending ranges: exactly the
    /// own rows that appear in some other block's ghost_cols, so the only
    /// rows another block's relaxation reads. The Jacobi commit publishes
    /// these alone. Empty when no other block reads this one.
    std::vector<RowRange> export_runs;

    /// 1 / a_ii per owned row; 0.0 where the diagonal entry is missing or
    /// stored as zero (callers that relax must reject such matrices — the
    /// runtime rejects any block with a zero_diag_row).
    AlignedVector<double> inv_diag;
    /// The first owned row whose diagonal is missing or whose first stored
    /// diagonal entry is 0.0 (either sign), or -1: on sorted rows exactly
    /// the first row with a.at(i, i) == 0.0.
    index_t zero_diag_row = -1;

    index_t local_nnz = 0;  ///< entries with local codes
    index_t ghost_nnz = 0;  ///< entries with ghost codes

    [[nodiscard]] index_t num_rows() const noexcept { return hi - lo; }
  };

  BlockedCsr() = default;

  /// Split `a` along contiguous row blocks [block_starts[t],
  /// block_starts[t+1]). Requires block_starts to describe a valid
  /// partition of a.num_rows() (starts at 0, non-decreasing, ends at
  /// num_rows); empty blocks are allowed. Throws std::logic_error
  /// otherwise, or when a block's row, entry or ghost-slot count does not
  /// fit code_t. Each block's `values` aliases `a`'s value array, so the
  /// BlockedCsr must not outlive `a`.
  BlockedCsr(const CsrMatrix& a, std::span<const index_t> block_starts);

  [[nodiscard]] index_t num_blocks() const noexcept {
    return static_cast<index_t>(blocks_.size());
  }
  [[nodiscard]] index_t num_rows() const noexcept { return num_rows_; }
  [[nodiscard]] index_t num_cols() const noexcept { return num_cols_; }
  [[nodiscard]] index_t num_nonzeros() const noexcept { return nnz_; }

  [[nodiscard]] const Block& block(index_t t) const {
    return blocks_[static_cast<std::size_t>(t)];
  }

  /// Decode the blocked form back into a CsrMatrix. Exact inverse of
  /// construction: compares equal (operator==) to the source matrix —
  /// the reassembly property the prop_blocked_csr suite checks.
  [[nodiscard]] CsrMatrix reassemble() const;

 private:
  index_t num_rows_ = 0;
  index_t num_cols_ = 0;
  index_t nnz_ = 0;
  std::vector<Block> blocks_;
};

}  // namespace ajac
