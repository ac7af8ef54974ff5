// audit-as: src/mesh/mesh_jacobi.cpp
// Golden fixture: an agent loop that yields after every iteration instead
// of through the actor step's rule, which starves a lagging actor. The
// sched_yield( in this comment must not fire.
// Expected findings: yield-site (the sched_yield call).
#include <sched.h>

void agent_loop(int iterations) {
  for (int i = 0; i < iterations; ++i) {
    sched_yield();
  }
}
