#include "baselines/vllm_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "simcore/simulator.h"
#include "workload/generator.h"

namespace distserve::baselines {
namespace {

VllmConfig BasicConfig(int tp = 1, int instances = 1) {
  VllmConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.par = {tp, 1};
  config.num_instances = instances;
  return config;
}

workload::Trace MakeTrace(double rate, int n, uint64_t seed = 1) {
  workload::FixedDataset dataset(256, 32);
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = n;
  spec.seed = seed;
  return workload::GenerateTrace(spec, dataset);
}

TEST(VllmSystemTest, CompletesAllRequests) {
  VllmSystem system(BasicConfig());
  const metrics::Collector results = system.Run(MakeTrace(2.0, 200));
  ASSERT_EQ(results.count(), 200u);
  for (const metrics::RequestRecord& r : results.records()) {
    EXPECT_GE(r.first_token, r.arrival);
    EXPECT_GE(r.completion, r.first_token);
    // Colocated: no transfer stage.
    EXPECT_DOUBLE_EQ(r.TransferTime(), 0.0);
  }
}

TEST(VllmSystemTest, DeterministicReplay) {
  const workload::Trace trace = MakeTrace(4.0, 300, 9);
  VllmSystem a(BasicConfig());
  VllmSystem b(BasicConfig());
  const metrics::Collector ra = a.Run(trace);
  const metrics::Collector rb = b.Run(trace);
  for (size_t i = 0; i < ra.count(); ++i) {
    EXPECT_DOUBLE_EQ(ra.records()[i].completion, rb.records()[i].completion);
  }
}

TEST(VllmSystemTest, ReplicasImproveAttainment) {
  const workload::Trace trace = MakeTrace(12.0, 400, 5);
  VllmSystem one(BasicConfig(1, 1));
  VllmSystem four(BasicConfig(1, 4));
  const metrics::SloSpec slo{0.2, 0.1};
  const double a1 = one.Run(trace).ComputeAttainment(slo).both;
  const double a4 = four.Run(trace).ComputeAttainment(slo).both;
  EXPECT_GT(a4, a1);
  EXPECT_EQ(four.total_gpus(), 4);
}

TEST(VllmSystemTest, InterferenceShowsInTpotUnderLoad) {
  // At moderate load the colocated system's TPOT degrades much more than its TTFT — the
  // signature of prefill-decoding interference (paper Figure 1/8 behaviour).
  VllmSystem system(BasicConfig());
  const metrics::Collector idle = VllmSystem(BasicConfig()).Run(MakeTrace(0.2, 100, 3));
  const metrics::Collector loaded = system.Run(MakeTrace(6.0, 400, 3));
  EXPECT_GT(loaded.TpotPercentile(90), 2.0 * idle.TpotPercentile(90));
}

TEST(ColocatedGoodputTest, SearchPrefersSomeConfig) {
  const auto dataset = workload::MakeShareGptLike();
  placement::PlannerInputs inputs;
  inputs.model = model::ModelSpec::Opt13B();
  inputs.cluster = cluster::ClusterSpec::PaperTestbed();
  inputs.dataset = dataset.get();
  inputs.slo = {0.2, 0.1};
  inputs.search.num_requests = 150;
  inputs.search.min_trace_duration = 20.0;
  inputs.search.max_requests = 1000;
  inputs.search.bisection_iters = 5;
  const ColocatedSearchResult best = FindBestColocatedConfig(inputs);
  EXPECT_GT(best.goodput, 0.0);
  EXPECT_GT(best.per_gpu, 0.0);
  EXPECT_EQ(best.par.pp, 1);
  // And the goodput of the chosen tp is at least that of tp=1 per GPU.
  const double tp1 = SimulateColocatedGoodput(inputs, {1, 1});
  EXPECT_GE(best.per_gpu, tp1 * 0.999);
}

TEST(ColocatedGoodputTest, UnfittableConfigScoresZero) {
  const auto dataset = workload::MakeShareGptLike();
  placement::PlannerInputs inputs;
  inputs.model = model::ModelSpec::Opt175B();
  inputs.cluster = cluster::ClusterSpec::PaperTestbed();
  inputs.dataset = dataset.get();
  inputs.slo = {4.0, 0.2};
  EXPECT_DOUBLE_EQ(SimulateColocatedGoodput(inputs, {1, 1}), 0.0);
}

TEST(VllmSystemTest, EventQueueHoldsInFlightWorkNotTheTrace) {
  // Arrivals are streamed (Simulator::ScheduleStream): the queue holds the next arrival plus
  // in-flight engine work, never one entry per request of the trace.
  constexpr int kRequests = 20000;
  constexpr size_t kBound = kRequests / 20;
  simcore::Simulator sim;
  VllmConfig config = BasicConfig();
  config.sim = &sim;
  VllmSystem system(config);
  size_t max_pending = 0;
  int64_t samples = 0;
  system.set_on_request_done([&](const engine::RequestState&) {
    max_pending = std::max(max_pending, sim.pending_events());
    ++samples;
  });
  const metrics::Collector results = system.Run(MakeTrace(6.0, kRequests));
  ASSERT_EQ(results.count(), static_cast<size_t>(kRequests));
  EXPECT_EQ(samples, kRequests);
  EXPECT_LT(max_pending, kBound);
}

// Runs `trace` on a two-replica system over an external simulator; returns the events fired
// and the final clock.
std::pair<int64_t, double> RunCounted(const workload::Trace& trace, metrics::Collector* out) {
  simcore::Simulator sim;
  VllmConfig config = BasicConfig(1, 2);
  config.sim = &sim;
  VllmSystem system(config);
  *out = system.Run(trace);
  return {sim.events_processed(), sim.now()};
}

TEST(VllmSystemTest, AbandonmentTimersEndWithTheirRequests) {
  // Every request completes long before its cancel or deadline could fire. A completion
  // cancels its request's timer, so arming them costs the stream a constant number of
  // events (the run still ends at the latest abandonment time), not one per request.
  const workload::Trace plain = MakeTrace(2.0, 200);
  workload::Trace timed = plain;
  for (size_t i = 0; i < timed.size(); ++i) {
    timed[i].deadline = timed[i].arrival_time + 1000.0;
    if (i % 3 == 0) {
      timed[i].cancel_at = timed[i].arrival_time + 900.0 + static_cast<double>(i % 7);
    }
  }
  metrics::Collector plain_results;
  metrics::Collector timed_results;
  const auto [plain_events, plain_end] = RunCounted(plain, &plain_results);
  const auto [timed_events, timed_end] = RunCounted(timed, &timed_results);
  ASSERT_EQ(timed_results.count(), timed.size());
  ASSERT_EQ(plain_results.records().size(), timed_results.records().size());
  for (size_t i = 0; i < plain_results.records().size(); ++i) {
    EXPECT_EQ(plain_results.records()[i].completion, timed_results.records()[i].completion);
  }
  EXPECT_LE(timed_events - plain_events, 2);
  EXPECT_LT(plain_end, 1000.0);
  EXPECT_EQ(timed_end, timed.back().arrival_time + 1000.0);
}

TEST(VllmSystemTest, EarlierAbandonmentWinsAndCancelWinsTies) {
  // Three long decodes, each abandoned mid-run by the earlier of its two timers.
  workload::Trace trace;
  auto add = [&trace](double cancel_at, double deadline) {
    workload::Request req;
    req.id = static_cast<workload::RequestId>(trace.size());
    req.input_len = 128;
    req.output_len = 400;
    req.cancel_at = cancel_at;
    req.deadline = deadline;
    trace.push_back(req);
  };
  add(0.5, 0.5);  // a tie: the client's cancel wins
  add(0.6, 0.4);  // the deadline comes first
  add(0.3, 0.7);  // the cancel comes first
  VllmSystem system(BasicConfig());
  const metrics::Collector results = system.Run(trace);
  ASSERT_EQ(results.cancelled_count(), 2u);
  ASSERT_EQ(results.timed_out_count(), 1u);
  EXPECT_EQ(results.timed_out_records()[0].id, 1);
  EXPECT_EQ(results.scenario_stats().requests_cancelled, 2);
  EXPECT_EQ(results.scenario_stats().requests_timed_out, 1);
}

TEST(VllmSystemDeathTest, PipelineParallelRejected) {
  VllmConfig config = BasicConfig();
  config.par = {1, 2};
  EXPECT_DEATH(VllmSystem{std::move(config)}, "intra-op");
}

}  // namespace
}  // namespace distserve::baselines
