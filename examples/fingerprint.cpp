// Bitwise fingerprint of one shared-memory solve: the 64-bit FNV-1a of the
// bytes of x and the bits of final_rel_residual_1.
//
//   $ ./examples/fingerprint --n 64 --threads 1 --tolerance 1e-6 --mode sync
//   x 33d9b05a775ee93a residual 3eb0bee2a030a479
//
// The problem is make_problem("fd", fd_laplacian_2d(n, n), seed), the
// paper's protocol (Sec. VII-A), solved by runtime::solve_shared with the
// runtime's default row partition. A change that claims to move no bit of
// a solve prints the same line before and after; the Fingerprint.* tests
// pin the FD 64² one-thread lines. Asynchronous solves are reproducible at one thread
// only: with more, the interleaving moves the bits.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>

#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/util/cli.hpp"

namespace {

using namespace ajac;

std::uint64_t fnv1a(std::span<const double> x) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::byte c : std::as_bytes(x)) {
    h = (h ^ std::to_integer<std::uint64_t>(c)) * 1099511628211ULL;
  }
  return h;
}

runtime::KernelKind parse_kernel(const std::string& name) {
  if (name == "blocked") return runtime::KernelKind::kBlocked;
  if (name == "reference") return runtime::KernelKind::kReference;
  if (name == "sellcs") return runtime::KernelKind::kSellCS;
  throw std::invalid_argument("unknown kernel '" + name +
                              "' (blocked | reference | sellcs)");
}

bool parse_sync(const std::string& mode) {
  if (mode == "sync") return true;
  if (mode == "async") return false;
  throw std::invalid_argument("unknown mode '" + mode + "' (sync | async)");
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("fingerprint",
                "print the FNV-1a of x and the bits of the final residual "
                "of one solve_shared call on the FD n x n problem");
  cli.add_option("n", "64", "grid edge: the problem is FD n x n");
  cli.add_option("seed", "1", "make_problem seed (b and x0)");
  cli.add_option("threads", "1", "solver threads");
  cli.add_option("tolerance", "1e-6", "relative residual 1-norm target");
  cli.add_option("mode", "sync", "sync | async");
  cli.add_option("kernel", "blocked", "blocked | reference | sellcs");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const index_t n = cli.get_int("n");
    const gen::LinearProblem p = gen::make_problem(
        "fd", gen::fd_laplacian_2d(n, n),
        static_cast<std::uint64_t>(cli.get_int("seed")));
    runtime::SharedOptions opts;
    opts.num_threads = cli.get_int("threads");
    opts.synchronous = parse_sync(cli.get_string("mode"));
    opts.tolerance = cli.get_double("tolerance");
    opts.record_history = false;
    opts.kernel = parse_kernel(cli.get_string("kernel"));
    const runtime::SharedResult r =
        runtime::solve_shared(p.a, p.b, p.x0, opts);
    std::printf("x %016llx residual %016llx\n",
                static_cast<unsigned long long>(fnv1a(r.x)),
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(r.final_rel_residual_1)));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fingerprint: %s\n", e.what());
    return 1;
  }
  return 0;
}
