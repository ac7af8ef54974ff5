#pragma once
// Linear-problem setup following the paper's protocol (Sec. VII-A):
// symmetric A scaled to unit diagonal, random right-hand side b and random
// initial approximation x0, both uniform in [-1, 1].

#include <string>

#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/types.hpp"

namespace ajac::gen {

struct LinearProblem {
  std::string name;
  CsrMatrix a;  ///< unit-diagonal symmetric matrix
  Vector b;     ///< right-hand side, uniform in [-1, 1]
  Vector x0;    ///< initial approximation, uniform in [-1, 1]
};

/// Build a LinearProblem from a raw SPD matrix: applies the symmetric
/// scaling D^{-1/2} A D^{-1/2}, then draws b and x0 from `seed`. Pass a
/// temporary (or std::move) to scale the matrix in place without a copy.
[[nodiscard]] LinearProblem make_problem(std::string name, CsrMatrix a,
                                         std::uint64_t seed);

}  // namespace ajac::gen
