// Golden digests of fleet runs (DESIGN.md §17): a router in front of independent instance
// groups, every dispatch, completion and fault notification one control-plane latency away.
// The values below were pinned from the fleet that delivered those messages through a
// conservative-lookahead window core; the fleet now schedules them on one Simulator and must
// reproduce every value bit for bit.
//
// Each case pins the Collector digest (every record, every outcome list, the fault and
// scenario counters, downtime closed at the run's end), the event and router-message counts,
// the router-parked count, the summed fault downtime, and for the traced case a digest of
// every group's Chrome trace JSON.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "collector_digest.h"
#include "serving/fleet.h"
#include "trace/recorder.h"
#include "workload/generator.h"

namespace distserve {
namespace {

struct Golden {
  uint64_t digest = 0;
  int64_t events = 0;
  int64_t messages = 0;
  int64_t parked = 0;
  uint64_t downtime_bits = 0;
};

workload::Trace FleetTrace(int n, double rate, uint64_t seed = 7) {
  workload::FixedDataset dataset(128, 16);
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = n;
  spec.seed = seed;
  return workload::GenerateTrace(spec, dataset);
}

serving::FleetConfig DisaggFleet(int groups) {
  serving::FleetConfig fc;
  fc.num_groups = groups;
  fc.group_config.model = model::ModelSpec::Opt13B();
  fc.group_config.cluster = cluster::ClusterSpec::PaperTestbed();
  fc.group_config.plan.prefill_par = {1, 1};
  fc.group_config.plan.decode_par = {1, 1};
  fc.group_config.plan.num_prefill = 1;
  fc.group_config.plan.num_decode = 1;
  fc.group_config.plan.intra_node_transfers = true;
  return fc;
}

serving::FleetConfig ColocatedFleet(int groups) {
  serving::FleetConfig fc;
  fc.num_groups = groups;
  fc.colocated = true;
  fc.colocated_config.model = model::ModelSpec::Opt13B();
  fc.colocated_config.cluster = cluster::ClusterSpec::PaperTestbed();
  fc.colocated_config.num_instances = 1;
  return fc;
}

std::vector<serving::FaultPlan> GroupFaults(int groups) {
  // Group 1 loses its prefill instance mid-run and recovers; group 2 (when present) loses
  // its decode permanently — exercises parking, re-routing and the router's stale view of
  // group serviceability.
  std::vector<serving::FaultPlan> faults(static_cast<size_t>(groups));
  if (groups > 1) {
    faults[1].events = {
        {5.0, serving::FaultDomain::kPrefill, serving::FaultAction::kFail, 0},
        {20.0, serving::FaultDomain::kPrefill, serving::FaultAction::kRecover, 0}};
  }
  if (groups > 2) {
    faults[2].events = {{8.0, serving::FaultDomain::kDecode, serving::FaultAction::kFail, 0}};
  }
  return faults;
}

serving::FleetResult RunFleet(serving::FleetConfig config, const workload::Trace& trace) {
  serving::FleetSystem fleet(std::move(config));
  return fleet.Run(trace);
}

Golden GoldenOf(const serving::FleetResult& r) {
  Golden g;
  g.digest = golden::CollectorDigest(r.collector);
  g.events = r.events;
  g.messages = r.sim_stats.messages;
  g.parked = r.router_parked_lost;
  g.downtime_bits = std::bit_cast<uint64_t>(r.collector.fault_stats().downtime_seconds);
  return g;
}

void ExpectGolden(const serving::FleetResult& r, const Golden& want) {
  const Golden got = GoldenOf(r);
  EXPECT_EQ(got.digest, want.digest) << std::hex << "0x" << got.digest;
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.parked, want.parked);
  EXPECT_EQ(got.downtime_bits, want.downtime_bits) << std::hex << "0x" << got.downtime_bits;
}

TEST(FleetTest, DisaggregatedGolden) {
  const workload::Trace trace = FleetTrace(300, 8.0);
  const serving::FleetResult r = RunFleet(DisaggFleet(4), trace);
  EXPECT_EQ(r.collector.count() + r.collector.lost_count(), trace.size());
  ExpectGolden(r, {0xb791fea1bad4b160ull, 2181, 600, 0, 0x0ull});
}

TEST(FleetTest, ColocatedGolden) {
  const workload::Trace trace = FleetTrace(300, 8.0);
  const serving::FleetResult r = RunFleet(ColocatedFleet(4), trace);
  EXPECT_EQ(r.collector.count(), trace.size());
  ExpectGolden(r, {0x705e3ce56218e7d6ull, 1583, 600, 0, 0x0ull});
}

TEST(FleetTest, FaultedGolden) {
  const workload::Trace trace = FleetTrace(400, 8.0);
  serving::FleetConfig fc = DisaggFleet(3);
  fc.group_faults = GroupFaults(3);
  const serving::FleetResult r = RunFleet(std::move(fc), trace);
  EXPECT_GT(r.collector.fault_stats().instance_failures, 0);
  ExpectGolden(r, {0xa392815fba32f9dbull, 3042, 802, 0, 0x404d348f93766aeaull});
}

TEST(FleetTest, RouterParksWhenNoGroupServiceable) {
  const workload::Trace trace = FleetTrace(100, 10.0);
  serving::FleetConfig fc = DisaggFleet(1);
  fc.group_faults.resize(1);
  // The only group loses prefill at t=1 and never recovers: everything after the router
  // learns of it parks at the router and is recorded lost.
  fc.group_faults[0].events = {
      {1.0, serving::FaultDomain::kPrefill, serving::FaultAction::kFail, 0}};
  const serving::FleetResult r = RunFleet(std::move(fc), trace);
  EXPECT_GT(r.router_parked_lost, 0);
  EXPECT_EQ(r.collector.count() + r.collector.lost_count(), trace.size());
  ExpectGolden(r, {0xa738202d394053b2ull, 153, 16, 92, 0x4026f1c7b326f928ull});
}

TEST(FleetTest, TracedGolden) {
  const workload::Trace trace = FleetTrace(120, 8.0);
  std::vector<std::unique_ptr<trace::Recorder>> recorders;
  serving::FleetConfig fc = DisaggFleet(2);
  for (int g = 0; g < fc.num_groups; ++g) {
    recorders.push_back(std::make_unique<trace::Recorder>());
    fc.group_recorders.push_back(recorders.back().get());
  }
  const serving::FleetResult r = RunFleet(std::move(fc), trace);
  ExpectGolden(r, {0xa2426d4f9e5957f9ull, 905, 240, 0, 0x0ull});
  golden::Fnv json;
  for (const auto& rec : recorders) {
    const std::string s = rec->ChromeJson();
    json.Add(static_cast<uint64_t>(s.size()));
    for (const char c : s) {
      json.Add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  EXPECT_EQ(json.value(), 0x6dba0dd543ffceb2ull) << std::hex << "0x" << json.value();
}

}  // namespace
}  // namespace distserve
