// A counting global operator new for allocation tests, toggled by AllocationScope so gtest's
// own bookkeeping stays invisible. It replaces the global allocator of the binary that
// includes it, so include it from exactly one source file of a test binary.
#ifndef DISTSERVE_TESTS_ALLOCATION_COUNTER_H_
#define DISTSERVE_TESTS_ALLOCATION_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace alloc_counter {

inline std::atomic<bool> g_counting{false};
inline std::atomic<uint64_t> g_allocations{0};

// Counts the allocations made while it is alive.
struct AllocationScope {
  AllocationScope() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationScope() { g_counting.store(false, std::memory_order_relaxed); }
  uint64_t count() const { return g_allocations.load(std::memory_order_relaxed); }
};

}  // namespace alloc_counter

void* operator new(std::size_t size) {
  if (alloc_counter::g_counting.load(std::memory_order_relaxed)) {
    alloc_counter::g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#endif  // DISTSERVE_TESTS_ALLOCATION_COUNTER_H_
