#pragma once
// Common scalar/index types for the sparse substrate.

#include <cstdint>

#include "ajac/util/aligned.hpp"

namespace ajac {

/// Index type used for matrix dimensions and nonzero counts. 64-bit so the
/// Table-I-scale problems (millions of nonzeros) never overflow, even when
/// products of dimensions are formed.
using index_t = std::int64_t;

/// Dense vectors are contiguous arrays of doubles; the library operates on
/// them through std::span-like views in the kernels. They start on a cache
/// line, and those of at least kHugePageBytes sit on staggered huge pages
/// (ajac/util/aligned.hpp). Sizing value-initializes, so Vector(n) reads
/// zeros.
using Vector = AlignedVector<double>;

}  // namespace ajac
