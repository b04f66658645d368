// Golden digests of the prefill -> KV pull -> decode handoff under faults, pinned from the
// handoff that armed a watchdog on every pull and paired it with std::function callbacks. The
// handoff now arms a watchdog only where one can fire; every value below must still match.
//
// Each case runs one ServingSystem over a ShareGPT trace and pins the Collector digest (every
// record, every outcome list, the fault and scenario counters, downtime closed at the run's
// end), the final clock, the decode instances' summed steps and tokens, and the links'
// transfer counters. The cases cover every way a pull can fail to complete on time:
//   * a link that dies while a pull is in flight (the fail time is the midpoint of a pull
//     taken from the same run without faults), then recovers;
//   * pulls issued on a dead link (both links down, so dispatch falls back to dead-link
//     instances), retried with backoff until the links recover;
//   * retries exhausted, then a route-around to the other decode instance;
//   * retries exhausted with no live route (fail-fast);
//   * prefill and decode failures with no link fault (squashed pulls, no watchdog firing),
//     one decode instance staying dead so downtime reads the run's end;
//   * live-link pulls completing after their watchdog (a tiny transfer_timeout on a queued
//     cross-node link), which retry and route around without any fault;
//   * client cancels and deadlines, with and without a decode instance that stays dead.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "collector_digest.h"
#include "serving/serving_system.h"
#include "workload/dataset.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace distserve {
namespace {

using serving::FaultAction;
using serving::FaultDomain;

enum class Kind {
  kLinkMidPull,
  kDeadLinkBackoff,
  kRouteAround,
  kFailFast,
  kInstanceFaults,
  kLateCompletion,
  kAbandon,
  kAbandonDeadDecode,
};

struct Case {
  Kind kind;
  uint64_t seed;
};

struct Golden {
  uint64_t digest = 0;
  uint64_t end_bits = 0;  // the final clock, bit for bit
  int64_t steps = 0;
  int64_t tokens = 0;
  int64_t transfers = 0;
  int64_t dropped = 0;
};

std::string Name(const Case& c) {
  static const char* const kNames[] = {"link-mid-pull",  "dead-link-backoff", "route-around",
                                       "fail-fast",      "instance-faults",   "late-completion",
                                       "abandon",        "abandon-dead-decode"};
  return std::string(kNames[static_cast<int>(c.kind)]) + " seed " + std::to_string(c.seed);
}

workload::Trace TraceFor(const Case& c) {
  const auto dataset = workload::MakeDatasetByName("sharegpt");
  workload::TraceSpec spec;
  spec.rate = c.kind == Kind::kLateCompletion ? 12.0 : 8.0;
  spec.num_requests = 240;
  spec.seed = c.seed;
  workload::Trace trace = workload::GenerateTrace(spec, *dataset);
  if (c.kind == Kind::kAbandon || c.kind == Kind::kAbandonDeadDecode) {
    workload::CancellationSpec cancels;
    cancels.cancel_rate = 0.25;
    cancels.cancel_after_mean = 1.5;
    cancels.timeout = 12.0;
    cancels.seed = c.seed;
    workload::ApplyCancellations(&trace, cancels);
  }
  return trace;
}

serving::ServingConfig BaseConfig(int num_decode, bool cross_node) {
  serving::ServingConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.plan.prefill_par = {1, 1};
  config.plan.decode_par = {1, 1};
  config.plan.num_prefill = 2;
  config.plan.num_decode = num_decode;
  config.plan.intra_node_transfers = !cross_node;
  return config;
}

// Midpoint of the first pull issued after `after` in a fault-free run of `config`: a link
// failing then finds that pull in flight.
double MidPullTime(serving::ServingConfig config, const workload::Trace& trace, double after) {
  config.faults.events.clear();
  serving::ServingSystem system(std::move(config));
  const metrics::Collector results = system.Run(trace);
  double best_start = 0.0;
  double mid = 0.0;
  for (const metrics::RequestRecord& r : results.records()) {
    if (r.transfer_start > after && r.transfer_end > r.transfer_start &&
        (mid == 0.0 || r.transfer_start < best_start)) {
      best_start = r.transfer_start;
      mid = 0.5 * (r.transfer_start + r.transfer_end);
    }
  }
  return mid;
}

serving::ServingConfig ConfigFor(const Case& c, const workload::Trace& trace) {
  switch (c.kind) {
    case Kind::kLinkMidPull: {
      // One decode instance, so every pull rides link 0.
      serving::ServingConfig config = BaseConfig(/*num_decode=*/1, /*cross_node=*/true);
      const double t = MidPullTime(config, trace, 2.0);
      config.faults.events = {{t, FaultDomain::kLink, FaultAction::kFail, 0},
                              {t + 0.6, FaultDomain::kLink, FaultAction::kRecover, 0}};
      return config;
    }
    case Kind::kDeadLinkBackoff: {
      serving::ServingConfig config = BaseConfig(2, /*cross_node=*/false);
      config.faults.events = {{3.0, FaultDomain::kLink, FaultAction::kFail, 0},
                              {3.0, FaultDomain::kLink, FaultAction::kFail, 1},
                              {4.5, FaultDomain::kLink, FaultAction::kRecover, 0},
                              {5.0, FaultDomain::kLink, FaultAction::kRecover, 1}};
      return config;
    }
    case Kind::kRouteAround: {
      // Both links die under a pull in flight; link 1 comes back soon, link 0 outlasts the
      // retry budget, so its pulls route around to decode 1.
      serving::ServingConfig config = BaseConfig(2, /*cross_node=*/true);
      const double t = MidPullTime(config, trace, 2.0);
      config.faults.events = {{t, FaultDomain::kLink, FaultAction::kFail, 0},
                              {t, FaultDomain::kLink, FaultAction::kFail, 1},
                              {t + 0.5, FaultDomain::kLink, FaultAction::kRecover, 1},
                              {t + 12.0, FaultDomain::kLink, FaultAction::kRecover, 0}};
      return config;
    }
    case Kind::kFailFast: {
      serving::ServingConfig config = BaseConfig(1, /*cross_node=*/false);
      config.faults.events = {{4.0, FaultDomain::kLink, FaultAction::kFail, 0},
                              {12.0, FaultDomain::kLink, FaultAction::kRecover, 0}};
      return config;
    }
    case Kind::kInstanceFaults: {
      // Both decode instances die under a pull in flight, so that pull is squashed whichever
      // one it targets; decode 1 never comes back, so downtime closes at the run's end.
      serving::ServingConfig config = BaseConfig(2, /*cross_node=*/true);
      const double t = MidPullTime(config, trace, 6.0);
      config.faults.events = {{3.0, FaultDomain::kPrefill, FaultAction::kFail, 0},
                              {5.0, FaultDomain::kPrefill, FaultAction::kRecover, 0},
                              {t, FaultDomain::kDecode, FaultAction::kFail, 0},
                              {t, FaultDomain::kDecode, FaultAction::kFail, 1},
                              {t + 2.0, FaultDomain::kDecode, FaultAction::kRecover, 0}};
      return config;
    }
    case Kind::kLateCompletion: {
      serving::ServingConfig config = BaseConfig(2, /*cross_node=*/true);
      config.fault_options.transfer_timeout = 1e-4;
      return config;
    }
    case Kind::kAbandon:
      return BaseConfig(2, /*cross_node=*/true);
    case Kind::kAbandonDeadDecode: {
      serving::ServingConfig config = BaseConfig(2, /*cross_node=*/true);
      config.faults.events = {{5.0, FaultDomain::kDecode, FaultAction::kFail, 0}};
      return config;
    }
  }
  return BaseConfig(2, false);
}

struct CaseRun {
  Golden golden;
  metrics::FaultStats faults;
  metrics::ScenarioOutcomeStats scenarios;
};

CaseRun RunCase(const Case& c) {
  const workload::Trace trace = TraceFor(c);
  serving::ServingSystem system(ConfigFor(c, trace));
  const metrics::Collector results = system.Run(trace);
  CaseRun run;
  run.golden.digest = golden::CollectorDigest(results);
  run.golden.end_bits = std::bit_cast<uint64_t>(system.simulator().now());
  for (const auto& d : system.decode_instances()) {
    run.golden.steps += d->steps_executed();
    run.golden.tokens += d->tokens_generated();
  }
  for (const auto& link : system.ingress_links()) {
    run.golden.transfers += link->transfers();
    run.golden.dropped += link->transfers_dropped();
  }
  run.faults = results.fault_stats();
  run.scenarios = results.scenario_stats();
  return run;
}

std::vector<Case> Grid() {
  std::vector<Case> grid;
  for (uint64_t seed : {5u, 23u}) {
    for (Kind kind : {Kind::kLinkMidPull, Kind::kDeadLinkBackoff, Kind::kRouteAround,
                      Kind::kFailFast, Kind::kInstanceFaults, Kind::kLateCompletion,
                      Kind::kAbandon, Kind::kAbandonDeadDecode}) {
      grid.push_back(Case{kind, seed});
    }
  }
  return grid;
}

// In Grid() order.
constexpr Golden kGolden[] = {
    {0xc41ca872e194a2a5ull, 0x404882a3465d25cfull, 1331, 44754, 243, 8},
    {0x2937d3e68fb57d66ull, 0x40462585872c3578ull, 3001, 44754, 240, 21},
    {0x5cccf4b2fddd9fbeull, 0x4046abe83e23bce5ull, 2620, 44754, 242, 17},
    {0xbc62fcb881c5764bull, 0x4047c83ce8f190baull, 1463, 34882, 191, 234},
    {0x35d2e09756b7a6d6ull, 0x40499479e9cbbbd8ull, 1517, 47873, 320, 0},
    {0x7f1d6bc00e48dc85ull, 0x4042be66149b4867ull, 2168, 44754, 242, 0},
    {0x4905289eb6aec541ull, 0x404418a3c709f6dfull, 2562, 33788, 240, 0},
    {0x2293352472dc70e7ull, 0x404418a3c709f6dfull, 1427, 32081, 252, 0},
    {0x02a459a572b0979eull, 0x40499d882be6ff8full, 1360, 45581, 242, 6},
    {0xf67ba261d19ea424ull, 0x4046bd64109b14c7ull, 3092, 45581, 240, 38},
    {0x310a72f486c0ee2bull, 0x4046df45b315a1d8ull, 2969, 45581, 242, 10},
    {0x15b41afcdc1076bbull, 0x4048b301d140e90dull, 1509, 34636, 189, 230},
    {0xea00dc0eaf1e986cull, 0x404afbbd9066988aull, 1563, 48032, 358, 0},
    {0x55b3fbb70269dde4ull, 0x40434266d8b00447ull, 2445, 45581, 242, 0},
    {0x3197a9cb03092086ull, 0x40453b3ae7336363ull, 3014, 32182, 236, 0},
    {0xd1a7d604aeda77d9ull, 0x40453b3ae7336363ull, 1520, 30748, 245, 0},
};

// The path a case names must actually run, or its pin covers less than it claims.
void ExpectCovers(const Case& c, const CaseRun& run) {
  const metrics::FaultStats& f = run.faults;
  switch (c.kind) {
    case Kind::kLinkMidPull:
      EXPECT_GT(f.transfer_retries, 0);
      EXPECT_EQ(f.requests_lost, 0);
      break;
    case Kind::kDeadLinkBackoff:
      EXPECT_GT(run.golden.dropped, 0);
      EXPECT_EQ(f.requests_lost, 0);
      break;
    case Kind::kRouteAround:
      EXPECT_GT(f.transfer_retries, 3);
      EXPECT_GT(f.decode_redispatches, 0);
      EXPECT_EQ(f.requests_lost, 0);
      break;
    case Kind::kFailFast:
      EXPECT_GT(f.requests_lost, 0);
      break;
    case Kind::kInstanceFaults:
      EXPECT_EQ(f.link_failures, 0);
      EXPECT_GT(f.prefill_restarts + f.kv_reprefills, 0);
      EXPECT_GT(f.decode_redispatches, 0);
      break;
    case Kind::kLateCompletion:
      EXPECT_EQ(f.link_failures, 0);
      EXPECT_GT(f.transfer_retries, 0);
      break;
    case Kind::kAbandon:
      EXPECT_FALSE(f.any());
      EXPECT_GT(run.scenarios.requests_cancelled, 0);
      EXPECT_GT(run.scenarios.requests_timed_out, 0);
      break;
    case Kind::kAbandonDeadDecode:
      EXPECT_GT(f.decode_redispatches + f.kv_reprefills, 0);
      EXPECT_GT(run.scenarios.requests_cancelled, 0);
      break;
  }
}

TEST(KvHandoffGoldenTest, FaultedHandoffsMatchPinnedDigests) {
  const std::vector<Case> grid = Grid();
  ASSERT_EQ(grid.size(), std::size(kGolden));
  for (size_t i = 0; i < grid.size(); ++i) {
    const Case& c = grid[i];
    SCOPED_TRACE(Name(c));
    const CaseRun run = RunCase(c);
    ExpectCovers(c, run);
    const Golden& got = run.golden;
    EXPECT_EQ(got.digest, kGolden[i].digest);
    EXPECT_EQ(got.end_bits, kGolden[i].end_bits);
    EXPECT_EQ(got.steps, kGolden[i].steps);
    EXPECT_EQ(got.tokens, kGolden[i].tokens);
    EXPECT_EQ(got.transfers, kGolden[i].transfers);
    EXPECT_EQ(got.dropped, kGolden[i].dropped);
  }
}

}  // namespace
}  // namespace distserve
