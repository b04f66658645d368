#include "simcore/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "simcore/sharded_simulator.h"

namespace distserve::simcore {
namespace {

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<double> times;
  sim.ScheduleAt(2.0, [&] { times.push_back(sim.now()); });
  sim.ScheduleAt(1.0, [&] { times.push_back(sim.now()); });
  const int64_t processed = sim.Run();
  EXPECT_EQ(processed, 2);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorTest, ScheduleAfterUsesRelativeDelay) {
  Simulator sim;
  double fired_at = -1.0;
  sim.ScheduleAt(5.0, [&] {
    sim.ScheduleAfter(2.5, [&] { fired_at = sim.now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1.0, [&] { ++fired; });
  sim.ScheduleAt(10.0, [&] { ++fired; });
  sim.Run(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // advances to the horizon when events remain beyond it
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(SimulatorTest, EventAtHorizonFires) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(5.0, [&] { ++fired; });
  sim.Run(5.0);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CascadedSchedulingDeterministic) {
  // Two identically-seeded simulations must produce identical event orders.
  auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.ScheduleAt(static_cast<double>(i % 7), [&order, i] { order.push_back(i); });
    }
    sim.Run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimulatorTest, EventsProcessedCounter) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAfter(static_cast<double>(i), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 10);
}

TEST(SimulatorTest, CancelledEventNotProcessed) {
  Simulator sim;
  int fired = 0;
  EventHandle handle = sim.ScheduleAt(1.0, [&] { ++fired; });
  sim.ScheduleAt(0.5, [&] { handle.Cancel(); });
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_processed(), 1);
}

// --- Arrival streams (Simulator::ScheduleStream) fire in exactly the up-front order. ---

using EventLog = std::vector<std::pair<SimTime, std::string>>;

// A seeded arrival pattern. Times sit on a coarse 0.25 s grid so equal arrival times are
// common, and every delay is a grid multiple, so follow-up events land exactly on later
// arrivals' times. All values are exact binary fractions: no rounding hides a tie.
struct ArrivalPlan {
  std::vector<SimTime> times;
  std::vector<int> zero_delay_children;  // per arrival: events scheduled at now()
  std::vector<SimTime> fixed_delay;      // per arrival: one more event this far out (<0: none)
  std::vector<SimTime> late_events;      // scheduled after the arrivals (the fault-plan case)
};

ArrivalPlan MakePlan(uint64_t seed, size_t count, bool sorted) {
  Rng rng(seed);
  ArrivalPlan plan;
  for (size_t k = 0; k < count; ++k) {
    plan.times.push_back(0.25 * static_cast<double>(rng.UniformInt(0, 24)));
    plan.zero_delay_children.push_back(static_cast<int>(rng.UniformInt(0, 2)));
    plan.fixed_delay.push_back(rng.UniformInt(0, 2) == 0
                                   ? -1.0
                                   : 0.25 * static_cast<double>(rng.UniformInt(0, 4)));
  }
  if (sorted) {
    std::sort(plan.times.begin(), plan.times.end());
  }
  const int late = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < late; ++i) {
    // At an arrival's own time when there is one: the tie must still go arrival-first.
    plan.late_events.push_back(
        count == 0 ? 1.0
                   : plan.times[static_cast<size_t>(
                         rng.UniformInt(0, static_cast<int64_t>(count) - 1))]);
  }
  return plan;
}

void Arrive(Simulator* sim, const ArrivalPlan& plan, size_t k, EventLog* log) {
  const std::string id = std::to_string(k);
  log->emplace_back(sim->now(), "arrival " + id);
  for (int c = 0; c < plan.zero_delay_children[k]; ++c) {
    sim->ScheduleAfter(0.0, [sim, log, id, c] {
      log->emplace_back(sim->now(), "child " + id + "." + std::to_string(c));
      sim->ScheduleAfter(0.0,
                         [sim, log, id] { log->emplace_back(sim->now(), "grandchild " + id); });
    });
  }
  if (plan.fixed_delay[k] >= 0.0) {
    sim->ScheduleAfter(plan.fixed_delay[k],
                       [sim, log, id] { log->emplace_back(sim->now(), "delayed " + id); });
  }
}

EventLog RunPlan(const ArrivalPlan& plan, bool streamed) {
  Simulator sim;
  EventLog log;
  if (streamed) {
    sim.ScheduleStream(
        plan.times.size(), [&plan](size_t k) { return plan.times[k]; },
        [&](size_t k) { Arrive(&sim, plan, k, &log); });
  } else {
    for (size_t k = 0; k < plan.times.size(); ++k) {
      sim.ScheduleAt(plan.times[k], [&, k] { Arrive(&sim, plan, k, &log); });
    }
  }
  for (size_t i = 0; i < plan.late_events.size(); ++i) {
    sim.ScheduleAt(plan.late_events[i],
                   [&, i] { log.emplace_back(sim.now(), "late " + std::to_string(i)); });
  }
  sim.Run();
  return log;
}

TEST(ArrivalStreamTest, FiresInExactlyTheUpFrontOrder) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    for (const bool sorted : {true, false}) {
      const size_t count = seed <= 2 ? seed - 1 : 1 + seed % 60;  // covers 0 and 1
      const ArrivalPlan plan = MakePlan(seed, count, sorted);
      const EventLog upfront = RunPlan(plan, /*streamed=*/false);
      ASSERT_EQ(RunPlan(plan, /*streamed=*/true), upfront)
          << "seed " << seed << (sorted ? " sorted" : " unsorted") << ", " << count
          << " arrivals";
      size_t arrivals = 0;
      for (const auto& [time, label] : upfront) {
        arrivals += label.rfind("arrival", 0) == 0 ? 1 : 0;
      }
      EXPECT_EQ(arrivals, count);
    }
  }
}

TEST(ArrivalStreamTest, QueueHoldsOnlyTheNextArrival) {
  Simulator sim;
  size_t max_pending = 0;
  sim.ScheduleStream(
      1000, [](size_t k) { return static_cast<double>(k * 7919 % 1000); },  // unsorted
      [&sim, &max_pending](size_t) {
        max_pending = std::max(max_pending, sim.pending_events());
      });
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 1000);
  EXPECT_EQ(max_pending, 1u) << "the firing arrival queues its successor, nothing more";
  EXPECT_EQ(sim.pending_events(), 0u);
}

// One stream on shard 0 of a sharded simulator, Posting each arrival to another shard.
std::vector<EventLog> RunShardedPlan(const ArrivalPlan& plan, bool streamed) {
  constexpr int kShards = 3;
  constexpr SimTime kLookahead = 0.25;
  ShardedSimulator::Options options;
  options.num_shards = kShards;
  options.lookahead = kLookahead;
  ShardedSimulator sharded(options);
  const int router = sharded.AddSender(0);
  std::vector<EventLog> logs(kShards);
  Simulator* source = sharded.shard(0);
  auto arrive = [&](size_t k) {
    logs[0].emplace_back(source->now(), "arrival " + std::to_string(k));
    const int dst = static_cast<int>(k % kShards);
    sharded.Post(router, dst, source->now() + kLookahead, [&, dst, k] {
      Simulator* local = sharded.shard(dst);
      logs[static_cast<size_t>(dst)].emplace_back(local->now(), "recv " + std::to_string(k));
      local->ScheduleAfter(0.0, [&, local, dst, k] {
        logs[static_cast<size_t>(dst)].emplace_back(local->now(), "work " + std::to_string(k));
      });
    });
    if (plan.fixed_delay[k] >= 0.0) {
      source->ScheduleAfter(plan.fixed_delay[k], [&, k] {
        logs[0].emplace_back(source->now(), "delayed " + std::to_string(k));
      });
    }
  };
  if (streamed) {
    source->ScheduleStream(
        plan.times.size(), [&plan](size_t k) { return plan.times[k]; }, arrive);
  } else {
    for (size_t k = 0; k < plan.times.size(); ++k) {
      source->ScheduleAt(plan.times[k], [&arrive, k] { arrive(k); });
    }
  }
  for (size_t i = 0; i < plan.late_events.size(); ++i) {
    source->ScheduleAt(plan.late_events[i], [&, i] {
      logs[0].emplace_back(source->now(), "late " + std::to_string(i));
    });
  }
  sharded.Run();
  return logs;
}

TEST(ArrivalStreamTest, ShardedStreamPostingAcrossShardsMatchesUpFront) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    for (const bool sorted : {true, false}) {
      const ArrivalPlan plan = MakePlan(seed, seed <= 2 ? seed - 1 : 1 + seed % 40, sorted);
      ASSERT_EQ(RunShardedPlan(plan, /*streamed=*/true),
                RunShardedPlan(plan, /*streamed=*/false))
          << "seed " << seed << (sorted ? " sorted" : " unsorted");
    }
  }
}

}  // namespace
}  // namespace distserve::simcore
