#pragma once
// Diagonal scalings. The paper assumes A is symmetric and "scaled to have
// unit diagonal values" (Sec. II-A), so that the Jacobi iteration matrix is
// G = I - A and B = C. For SPD A we use the symmetric two-sided scaling
// D^{-1/2} A D^{-1/2}, which preserves symmetry and positive definiteness.

#include "ajac/sparse/types.hpp"

namespace ajac {

class CsrMatrix;

/// Returns D^{-1/2} A D^{-1/2}. Requires a strictly positive stored
/// diagonal. If `b` is non-null, it is transformed consistently
/// (b <- D^{-1/2} b) so that the scaled system has solution D^{1/2} x.
/// The rvalue overload scales a's values in place and returns a with its
/// row_ptr and col_idx moved, not copied; the const& overload copies a
/// first. Both give bitwise-equal results.
[[nodiscard]] CsrMatrix scale_to_unit_diagonal(const CsrMatrix& a,
                                               Vector* b = nullptr);
[[nodiscard]] CsrMatrix scale_to_unit_diagonal(CsrMatrix&& a,
                                               Vector* b = nullptr);

/// Returns D^{-1} A (row scaling). Requires a nonzero stored diagonal.
/// If `b` is non-null, b <- D^{-1} b (solution unchanged).
[[nodiscard]] CsrMatrix scale_rows_by_diagonal(const CsrMatrix& a,
                                               Vector* b = nullptr);

/// The Jacobi iteration matrix G = I - D^{-1} A as an explicit CSR matrix
/// (diagonal entries of the result are 1 - a_ii/a_ii = 0 and are dropped).
[[nodiscard]] CsrMatrix jacobi_iteration_matrix(const CsrMatrix& a);

/// Entrywise absolute value |A|.
[[nodiscard]] CsrMatrix entrywise_abs(const CsrMatrix& a);

}  // namespace ajac
