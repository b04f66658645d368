#include "serving/serving_system.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "simcore/simulator.h"
#include "workload/generator.h"

namespace distserve::serving {
namespace {

ServingConfig BasicConfig(int num_prefill = 1, int num_decode = 1,
                          bool intra_node = true) {
  ServingConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.plan.prefill_par = {1, 1};
  config.plan.decode_par = {1, 1};
  config.plan.num_prefill = num_prefill;
  config.plan.num_decode = num_decode;
  config.plan.intra_node_transfers = intra_node;
  return config;
}

workload::Trace MakeTrace(double rate, int n, uint64_t seed = 1,
                          int input_len = 256, int output_len = 32) {
  workload::FixedDataset dataset(input_len, output_len);
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = n;
  spec.seed = seed;
  return workload::GenerateTrace(spec, dataset);
}

TEST(ServingSystemTest, AllRequestsCompleteWithValidTimestamps) {
  ServingSystem system(BasicConfig());
  const workload::Trace trace = MakeTrace(2.0, 200);
  const metrics::Collector results = system.Run(trace);
  ASSERT_EQ(results.count(), 200u);
  for (const metrics::RequestRecord& r : results.records()) {
    EXPECT_GE(r.prefill_start, r.arrival);
    EXPECT_GT(r.first_token, r.prefill_start);
    EXPECT_GE(r.transfer_start, r.first_token);
    EXPECT_GE(r.transfer_end, r.transfer_start);
    EXPECT_GE(r.decode_start, r.transfer_end);
    EXPECT_GT(r.completion, r.decode_start);
    EXPECT_GT(r.Tpot(), 0.0);
  }
}

TEST(ServingSystemTest, DeterministicAcrossRuns) {
  const workload::Trace trace = MakeTrace(4.0, 300, 7);
  ServingSystem a(BasicConfig());
  ServingSystem b(BasicConfig());
  const metrics::Collector ra = a.Run(trace);
  const metrics::Collector rb = b.Run(trace);
  ASSERT_EQ(ra.count(), rb.count());
  for (size_t i = 0; i < ra.count(); ++i) {
    EXPECT_DOUBLE_EQ(ra.records()[i].first_token, rb.records()[i].first_token);
    EXPECT_DOUBLE_EQ(ra.records()[i].completion, rb.records()[i].completion);
  }
}

TEST(ServingSystemTest, SingleTokenOutputsBypassDecode) {
  ServingSystem system(BasicConfig());
  const workload::Trace trace = MakeTrace(1.0, 50, 3, 256, /*output_len=*/1);
  const metrics::Collector results = system.Run(trace);
  ASSERT_EQ(results.count(), 50u);
  for (const metrics::RequestRecord& r : results.records()) {
    EXPECT_DOUBLE_EQ(r.completion, r.first_token);
    EXPECT_DOUBLE_EQ(r.Tpot(), 0.0);
  }
  // No decode instance ever saw them.
  EXPECT_EQ(system.decode_instances()[0]->tokens_generated(), 0);
}

TEST(ServingSystemTest, PrefillKvReleasedAfterPull) {
  ServingSystem system(BasicConfig());
  const workload::Trace trace = MakeTrace(2.0, 100);
  system.Run(trace);
  EXPECT_EQ(system.prefill_instances()[0]->kv().used_blocks(), 0);
  EXPECT_EQ(system.decode_instances()[0]->kv().used_blocks(), 0);
}

TEST(ServingSystemTest, ReplicasShareLoad) {
  ServingSystem system(BasicConfig(/*num_prefill=*/2, /*num_decode=*/2));
  const workload::Trace trace = MakeTrace(8.0, 400);
  system.Run(trace);
  // Shortest-queue / least-loaded dispatch keeps both replicas busy.
  EXPECT_GT(system.prefill_instances()[0]->batches_launched(), 30);
  EXPECT_GT(system.prefill_instances()[1]->batches_launched(), 30);
  EXPECT_GT(system.decode_instances()[0]->tokens_generated(), 2000);
  EXPECT_GT(system.decode_instances()[1]->tokens_generated(), 2000);
}

TEST(ServingSystemTest, CrossNodeTransfersAreSlower) {
  const workload::Trace trace = MakeTrace(1.0, 100, 5, 512, 16);
  ServingSystem intra(BasicConfig(1, 1, /*intra_node=*/true));
  ServingSystem cross(BasicConfig(1, 1, /*intra_node=*/false));
  const metrics::Collector ri = intra.Run(trace);
  const metrics::Collector rc = cross.Run(trace);
  const double intra_transfer = ri.ComputeBreakdown().transfer;
  const double cross_transfer = rc.ComputeBreakdown().transfer;
  // 25 Gbps NIC vs 300 GB/s NVLink: ~100x slower.
  EXPECT_GT(cross_transfer, 50.0 * intra_transfer);
}

TEST(ServingSystemTest, TransfersRecordedOnLinks) {
  ServingSystem system(BasicConfig());
  const workload::Trace trace = MakeTrace(2.0, 100);
  system.Run(trace);
  const auto& link = system.ingress_links()[0];
  EXPECT_EQ(link->transfers(), 100);
  const int64_t expected_bytes =
      100LL * 256 * model::ModelSpec::Opt13B().kv_bytes_per_token();
  EXPECT_EQ(link->bytes_transferred(), expected_bytes);
}

TEST(ServingSystemTest, HigherRateDegradesTtft) {
  const int n = 400;
  ServingSystem slow(BasicConfig());
  ServingSystem fast(BasicConfig());
  const metrics::Collector rs = slow.Run(MakeTrace(1.0, n, 9));
  const metrics::Collector rf = fast.Run(MakeTrace(30.0, n, 9));
  EXPECT_GT(rf.TtftPercentile(90), rs.TtftPercentile(90));
}

TEST(ServingSystemTest, AutoTokenTargetAtLeast512) {
  ServingSystem system(BasicConfig());
  EXPECT_GE(system.prefill_token_target(), 512);
}

TEST(ServingSystemTest, EventQueueHoldsInFlightWorkNotTheTrace) {
  // Arrivals are streamed (Simulator::ScheduleStream): the queue holds the next arrival plus
  // in-flight engine work, never one entry per request of the trace.
  constexpr int kRequests = 20000;
  constexpr size_t kBound = kRequests / 20;
  simcore::Simulator sim;
  ServingConfig config = BasicConfig();
  config.sim = &sim;
  ServingSystem system(config);
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

TEST(ServingSystemDeathTest, OversizedModelRejected) {
  ServingConfig config;
  config.model = model::ModelSpec::Opt175B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.plan.prefill_par = {1, 1};  // 350 GB on one 80 GB GPU
  config.plan.decode_par = {1, 1};
  EXPECT_DEATH(ServingSystem{std::move(config)}, "does not fit");
}

}  // namespace
}  // namespace distserve::serving
