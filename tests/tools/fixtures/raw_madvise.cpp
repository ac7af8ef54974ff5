// audit-as: src/runtime/pinned_buffer.cpp
// Golden fixture: a buffer mapped and advised outside aligned.hpp, which
// skips the allocator's 2 MiB alignment and start-offset stagger. The
// mmap( in this comment must not fire.
// Expected findings: mmap-ban (the mmap call), mmap-ban (the madvise call).
#include <sys/mman.h>

#include <cstddef>

void* map_buffer(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ::madvise(p, bytes, MADV_HUGEPAGE);
  return p;
}
