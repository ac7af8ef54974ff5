#include "ajac/gen/problem.hpp"

#include <utility>

#include "ajac/sparse/scaling.hpp"
#include "ajac/sparse/vector_ops.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/rng.hpp"

namespace ajac::gen {

LinearProblem make_problem(std::string name, CsrMatrix a,
                           std::uint64_t seed) {
  AJAC_CHECK(a.num_rows() == a.num_cols());
  const auto n = static_cast<std::size_t>(a.num_rows());
  LinearProblem p;
  p.name = std::move(name);
  p.a = scale_to_unit_diagonal(std::move(a));
  p.b.resize(n);
  p.x0.resize(n);
  Rng rng(seed);
  vec::fill_uniform(p.b, rng);
  vec::fill_uniform(p.x0, rng);
  return p;
}

}  // namespace ajac::gen
