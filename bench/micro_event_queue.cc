// Microbenchmarks of the DES core: event scheduling/firing throughput and an end-to-end
// engine-step rate. A full Figure-8 sweep executes tens of millions of events; the DES core
// must stay in the tens-of-nanoseconds-per-event range.
#include <benchmark/benchmark.h>

#include "cluster/gpu_spec.h"
#include "common/rng.h"
#include "engine/decode_instance.h"
#include "simcore/simulator.h"
#include "workload/generator.h"

namespace distserve {
namespace {

void BM_ScheduleAndFire(benchmark::State& state) {
  for (auto _ : state) {
    simcore::Simulator sim;
    for (int i = 0; i < 1024; ++i) {
      sim.ScheduleAt(static_cast<double>((i * 7919) % 1000), [] {});
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ScheduleAndFire);

void BM_CancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    simcore::Simulator sim;
    std::vector<simcore::EventHandle> handles;
    handles.reserve(1024);
    for (int i = 0; i < 1024; ++i) {
      handles.push_back(sim.ScheduleAt(static_cast<double>(i), [] {}));
    }
    for (size_t i = 0; i < handles.size(); i += 2) {
      handles[i].Cancel();
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CancelHeavy);

// The compaction stress case: a rolling window of speculative deadlines where almost every
// scheduled event is cancelled before it can fire (the pattern that motivated heap
// compaction — with lazy deletion alone the heap holds the whole history).
void BM_CancelChurn(benchmark::State& state) {
  constexpr int kWindow = 256;
  constexpr int kRounds = 4096;
  for (auto _ : state) {
    simcore::Simulator sim;
    std::vector<simcore::EventHandle> window;
    window.reserve(kWindow);
    for (int i = 0; i < kRounds; ++i) {
      if (window.size() == kWindow) {
        // Cancel the oldest deadline, as a request that completed in time would.
        window.front().Cancel();
        window.erase(window.begin());
      }
      window.push_back(sim.ScheduleAt(static_cast<double>(i) + 1000.0, [] {}));
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}
BENCHMARK(BM_CancelChurn);

void BM_DecodeInstanceSteps(benchmark::State& state) {
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, 1},
                               cluster::GpuSpec::A100_80GB());
  for (auto _ : state) {
    simcore::Simulator sim;
    engine::DecodeInstance instance(&sim, lm, 1 << 20, {}, 0);
    std::vector<std::unique_ptr<engine::RequestState>> states;
    for (int i = 0; i < 64; ++i) {
      workload::Request req;
      req.id = i;
      req.input_len = 128;
      req.output_len = 32;
      states.push_back(std::make_unique<engine::RequestState>(req));
      instance.Submit(states.back().get());
    }
    sim.Run();
    benchmark::DoNotOptimize(instance.tokens_generated());
  }
  state.SetItemsProcessed(state.iterations() * 64 * 31);
}
BENCHMARK(BM_DecodeInstanceSteps);

// Trace replay's event-queue shape: 50,000 Poisson arrivals at 10 req/s, each starting a
// 20-step self-rescheduling chain 50 ms apart (a short decode), so ~10 chains are in flight.
// streamed:0 schedules every arrival up front, as the serving systems once did, and each
// push and pop sifts through a 50,000-entry heap; streamed:1 uses Simulator::ScheduleStream,
// which keeps only the next arrival queued. Both fire the same events in the same order.
void BM_ArrivalStream(benchmark::State& state) {
  constexpr size_t kArrivals = 50000;
  constexpr int kChainSteps = 20;
  constexpr double kStepSeconds = 0.05;
  const bool streamed = state.range(0) != 0;
  std::vector<double> times(kArrivals);
  Rng rng(1);
  double t = 0.0;
  for (double& time : times) {
    t += rng.Exponential(10.0);
    time = t;
  }
  struct Chain {
    simcore::Simulator* sim;
    int steps_left;
    void operator()() const {
      if (steps_left > 0) {
        sim->ScheduleAfter(kStepSeconds, Chain{sim, steps_left - 1});
      }
    }
  };
  for (auto _ : state) {
    simcore::Simulator sim;
    if (streamed) {
      sim.ScheduleStream(
          kArrivals, [&times](size_t k) { return times[k]; },
          [&sim](size_t) { Chain{&sim, kChainSteps}(); });
    } else {
      for (const double time : times) {
        sim.ScheduleAt(time, [&sim] { Chain{&sim, kChainSteps}(); });
      }
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kArrivals) *
                          (kChainSteps + 1));
}
BENCHMARK(BM_ArrivalStream)->Arg(0)->Arg(1)->ArgName("streamed")->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace distserve

BENCHMARK_MAIN();
