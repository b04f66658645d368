// Proves the event queue's allocation diet: after warm-up, a steady-state schedule→fire
// cycle performs ZERO heap allocations. Node slabs and the heap vector are reused through
// the free list, and callbacks small enough for InlineFunction's inline storage never box.
//
// The proof is a counting global operator new/delete (allocation_counter.h) compiled into
// this test binary only.
#include <gtest/gtest.h>

#include <vector>

#include "allocation_counter.h"
#include "simcore/event_queue.h"
#include "simcore/simulator.h"

namespace distserve::simcore {
namespace {

using alloc_counter::AllocationScope;

TEST(EventQueueAllocTest, SteadyStateScheduleFireAllocatesNothing) {
  EventQueue queue;
  int fired = 0;
  // Warm-up: grow the node slab and heap storage to their steady-state footprint.
  for (int i = 0; i < 64; ++i) {
    queue.Schedule(static_cast<SimTime>(i), [&fired] { ++fired; });
  }
  while (!queue.empty()) {
    queue.Pop().fn();
  }
  ASSERT_EQ(fired, 64);

  constexpr int kEvents = 10000;
  AllocationScope scope;
  for (int i = 0; i < kEvents; ++i) {
    queue.Schedule(static_cast<SimTime>(i), [&fired] { ++fired; });
    auto event = queue.Pop();
    event.fn();
  }
  EXPECT_EQ(scope.count(), 0u) << "steady-state events must reuse slab nodes";
  EXPECT_EQ(fired, 64 + kEvents);
}

TEST(EventQueueAllocTest, SteadyStateCancelChurnAllocatesNothing) {
  EventQueue queue;
  std::vector<EventHandle> window;
  window.reserve(256);
  // Warm-up with the exact churn shape of the measured loop: dead entries from one round
  // coexist with the next round's pushes until compaction triggers, so the heap's
  // steady-state capacity is larger than a single window.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 256; ++i) {
      window.push_back(queue.Schedule(static_cast<SimTime>(i), [] {}));
    }
    for (EventHandle& h : window) {
      h.Cancel();
    }
    window.clear();
  }

  AllocationScope scope;
  for (int round = 0; round < 64; ++round) {
    for (int i = 0; i < 256; ++i) {
      window.push_back(
          queue.Schedule(static_cast<SimTime>(round * 256 + i), [] {}));
    }
    for (EventHandle& h : window) {
      h.Cancel();  // cancellation releases the node straight back to the free list
    }
    window.clear();
  }
  EXPECT_EQ(scope.count(), 0u) << "cancel churn must not touch the heap allocator";
  EXPECT_TRUE(queue.empty()) << "every scheduled event was cancelled";
}

TEST(EventQueueAllocTest, SimulatorRunLoopIsAllocationFreePerEvent) {
  // The full Run() path — Pop, advance time, invoke — through the Simulator facade.
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 64; ++i) {
    sim.ScheduleAfter(1.0, [&fired] { ++fired; });
  }
  sim.Run();
  ASSERT_EQ(fired, 64);

  constexpr int kEvents = 4096;
  int chained = 0;
  AllocationScope scope;
  // A self-rescheduling chain: the canonical engine pattern (step end schedules next step).
  struct Chain {
    Simulator* sim;
    int* count;
    void operator()() const {
      if (++*count < kEvents) {
        sim->ScheduleAfter(0.5, Chain{sim, count});
      }
    }
  };
  sim.ScheduleAfter(0.5, Chain{&sim, &chained});
  sim.Run();
  EXPECT_EQ(scope.count(), 0u) << "self-rescheduling steps must be allocation-free";
  EXPECT_EQ(chained, kEvents);
}

TEST(EventQueueAllocTest, ArrivalStreamAllocatesNothingPerArrival) {
  // A sorted 10,000-arrival stream: setup allocates the stream state and the queue's first
  // slab node, then every arrival recycles the node its predecessor fired from.
  constexpr size_t kArrivals = 10000;
  std::vector<SimTime> times(kArrivals);
  for (size_t k = 0; k < kArrivals; ++k) {
    times[k] = 0.1 * static_cast<double>(k / 2);  // pairs of equal times
  }
  Simulator sim;
  size_t fired = 0;
  uint64_t setup_allocations = 0;
  {
    AllocationScope scope;
    sim.ScheduleStream(
        kArrivals, [&times](size_t k) { return times[k]; }, [&fired](size_t) { ++fired; });
    setup_allocations = scope.count();
  }
  EXPECT_LE(setup_allocations, 3u) << "stream setup must not scale with the arrival count";

  AllocationScope scope;
  sim.Run();
  EXPECT_EQ(scope.count(), 0u) << "firing an arrival must not allocate";
  EXPECT_EQ(fired, kArrivals);
}

}  // namespace
}  // namespace distserve::simcore
