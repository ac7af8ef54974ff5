#include "ajac/gen/analogues.hpp"

#include <cmath>
#include <stdexcept>

#include "ajac/gen/fd.hpp"
#include "ajac/gen/fe.hpp"
#include "ajac/sparse/coo.hpp"
#include "ajac/sparse/csr.hpp"
#include "ajac/util/check.hpp"
#include "ajac/util/rng.hpp"

namespace ajac::gen {

namespace {

index_t scaled(index_t base, double scale) {
  return std::max<index_t>(2, static_cast<index_t>(std::lround(
                                  static_cast<double>(base) * scale)));
}

/// 2D grid Laplacian plus `extra_links` random long-range "resistor"
/// edges, mimicking the power-grid structure of G3_circuit: mostly local
/// connectivity with sparse long wires. Edge weights in [0.5, 2].
CsrMatrix circuit_graph(index_t nx, index_t ny, index_t extra_links,
                        Rng& rng) {
  const index_t n = nx * ny;
  CooBuilder coo(n, n);
  auto add_edge = [&](index_t u, index_t v, double w) {
    coo.add(u, u, w);
    coo.add(v, v, w);
    coo.add(u, v, -w);
    coo.add(v, u, -w);
  };
  auto id = [&](index_t i, index_t j) { return j * nx + i; };
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const double w1 = rng.uniform(0.5, 2.0);
      const double w2 = rng.uniform(0.5, 2.0);
      if (i + 1 < nx) add_edge(id(i, j), id(i + 1, j), w1);
      if (j + 1 < ny) add_edge(id(i, j), id(i, j + 1), w2);
    }
  }
  for (index_t k = 0; k < extra_links; ++k) {
    const index_t u = static_cast<index_t>(rng.uniform_index(n));
    const index_t v = static_cast<index_t>(rng.uniform_index(n));
    if (u != v) add_edge(u, v, rng.uniform(0.5, 2.0));
  }
  // Ground a sparse subset of nodes (diagonal shift) so the Laplacian is
  // nonsingular, like a circuit with voltage sources / pad connections.
  const index_t grounded = std::max<index_t>(1, n / 100);
  for (index_t k = 0; k < grounded; ++k) {
    const index_t u = static_cast<index_t>(rng.uniform_index(n));
    coo.add(u, u, rng.uniform(0.5, 2.0));
  }
  return coo.to_csr();
}

/// I + tau * L: one implicit-Euler step of a parabolic (heat) problem, the
/// structure of parabolic_fem. Strictly diagonally dominant SPD.
CsrMatrix parabolic_step(index_t nx, index_t ny, double tau) {
  CsrMatrix a = fd_laplacian_2d(nx, ny);
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.mutable_values();
  for (index_t i = 0; i < a.num_rows(); ++i) {
    for (index_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      values[p] *= tau;
      if (col_idx[p] == i) values[p] += 1.0;
    }
  }
  return a;
}

}  // namespace

const std::vector<AnalogueInfo>& table1_catalogue() {
  static const std::vector<AnalogueInfo> catalogue = {
      {"thermal2", 1227087, 8579355, true,
       "3D 7-pt FD, random-block coefficient, contrast 1e2"},
      {"G3_circuit", 1585478, 7660826, true,
       "2D grid Laplacian + random long-range resistor links"},
      {"ecology2", 999999, 4995991, true, "heterogeneous 2D 5-pt FD"},
      {"apache2", 715176, 4817870, true, "structured 3D 7-pt FD"},
      {"parabolic_fem", 525825, 3674625, true,
       "implicit-Euler step I + tau*L on a 2D grid"},
      {"thermomech_dm", 204316, 1423116, true,
       "small 3D variable-coefficient FD"},
      {"Dubcova2", 65025, 1030225, false,
       "P1 FE stiffness on distorted mesh, rho(G) > 1"},
  };
  return catalogue;
}

CsrMatrix make_analogue(const std::string& name, double scale,
                        std::uint64_t seed) {
  Rng rng(seed);
  if (name == "thermal2") {
    const index_t m = scaled(44, std::cbrt(scale));
    return fd_random_blocks_3d(m, m, m, /*blocks=*/4, /*contrast=*/100.0, rng);
  }
  if (name == "G3_circuit") {
    const index_t m = scaled(310, std::sqrt(scale));
    return circuit_graph(m, m, /*extra_links=*/m * m / 25, rng);
  }
  if (name == "ecology2") {
    const index_t m = scaled(280, std::sqrt(scale));
    return fd_random_blocks_2d(m, m, /*blocks_x=*/8, /*blocks_y=*/8,
                               /*contrast=*/30.0, rng);
  }
  if (name == "apache2") {
    const index_t m = scaled(40, std::cbrt(scale));
    return fd_laplacian_3d(m, m, m);
  }
  if (name == "parabolic_fem") {
    const index_t m = scaled(230, std::sqrt(scale));
    return parabolic_step(m, m, /*tau=*/5.0);
  }
  if (name == "thermomech_dm") {
    const index_t m = scaled(30, std::cbrt(scale));
    return fd_random_blocks_3d(m, m, m, /*blocks=*/3, /*contrast=*/10.0, rng);
  }
  if (name == "Dubcova2") {
    const index_t m = scaled(255, std::sqrt(scale));
    return dubcova2_analogue(m);
  }
  throw std::invalid_argument("unknown Table-I matrix name: " + name);
}

std::vector<LinearProblem> make_table1_problems(double scale,
                                                std::uint64_t seed,
                                                bool skip_divergent) {
  std::vector<LinearProblem> problems;
  for (const AnalogueInfo& info : table1_catalogue()) {
    if (skip_divergent && !info.jacobi_converges) continue;
    problems.push_back(
        make_problem(info.name, make_analogue(info.name, scale, seed), seed));
  }
  return problems;
}

}  // namespace ajac::gen
