// Golden digests of the disaggregated decode path, pinned from the one-event-per-step decode
// lanes the step-indexed, run-length lanes replaced. Every value below was recorded from
// that loop; the lanes must reproduce them bit for bit.
//
//   * Serving grid: a 2P+2D OPT-13B system at decode pp {1, 2, 4} (KV pulls over real links)
//     with and without a fault plan, and with and without the scenario axes (tenant
//     priorities under a tight decode watermark, so tenants preempt; client cancels and
//     deadlines), over two trace seeds. Pinned: the Collector digest (every record, every
//     outcome list, the fault and scenario counters) and the decode instances' summed
//     steps_executed / tokens_generated.
//   * Instance scripts: decode_lane_script.h runs at pp {1, 2, 4} with instant (null) and
//     delayed KV pulls, tenant priorities and fail/recover windows. Pinned: the script
//     outcome digest (per-request timestamps, progress, completion order and the counters at
//     every Run(until) checkpoint).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "collector_digest.h"
#include "decode_lane_script.h"
#include "serving/serving_system.h"
#include "workload/dataset.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace distserve {
namespace {

using golden::CollectorDigest;

struct ServingCase {
  uint64_t seed;
  int pp;
  bool faults;
  bool scenarios;
};

struct ServingGolden {
  uint64_t digest = 0;
  int64_t steps = 0;
  int64_t tokens = 0;
};

std::vector<ServingCase> ServingGrid() {
  std::vector<ServingCase> grid;
  for (uint64_t seed : {3u, 17u}) {
    for (int pp : {1, 2, 4}) {
      for (bool faults : {false, true}) {
        for (bool scenarios : {false, true}) {
          grid.push_back(ServingCase{seed, pp, faults, scenarios});
        }
      }
    }
  }
  return grid;
}

struct ServingRun {
  ServingGolden golden;
  int64_t preemptions = 0;
  int64_t abandoned = 0;  // cancelled + timed out
  bool faulted = false;
};

ServingRun RunServingCase(const ServingCase& c) {
  const auto dataset = workload::MakeDatasetByName("sharegpt");
  workload::TraceSpec spec;
  spec.rate = 10.0;
  spec.num_requests = 300;
  spec.seed = c.seed;
  workload::Trace trace = workload::GenerateTrace(spec, *dataset);

  serving::ServingConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.plan.prefill_par = {1, 1};
  config.plan.decode_par = {1, c.pp};
  config.plan.num_prefill = 2;
  config.plan.num_decode = 2;
  config.plan.intra_node_transfers = true;
  config.decode_options.max_batch_size = 48;
  if (c.scenarios) {
    workload::TenantSpec tenants;
    tenants.high_priority_fraction = 0.3;
    tenants.seed = c.seed;
    workload::ApplyTenantClasses(&trace, tenants);
    workload::CancellationSpec cancels;
    cancels.cancel_rate = 0.2;
    cancels.cancel_after_mean = 3.0;
    cancels.timeout = 20.0;
    cancels.seed = c.seed;
    workload::ApplyCancellations(&trace, cancels);
    // Memory-bound (the KV pool grows with pp as the weights spread): tenants preempt.
    config.decode_options.admission_watermark = 0.08 / c.pp;
  }
  if (c.faults) {
    using serving::FaultAction;
    using serving::FaultDomain;
    config.faults.events = {{3.0, FaultDomain::kLink, FaultAction::kFail, 0},
                            {4.0, FaultDomain::kLink, FaultAction::kRecover, 0},
                            {6.0, FaultDomain::kDecode, FaultAction::kFail, 1},
                            {9.0, FaultDomain::kDecode, FaultAction::kRecover, 1},
                            {14.0, FaultDomain::kPrefill, FaultAction::kFail, 0},
                            {15.0, FaultDomain::kPrefill, FaultAction::kRecover, 0}};
  }
  serving::ServingSystem system(config);
  const metrics::Collector results = system.Run(trace);
  ServingRun run;
  run.golden.digest = CollectorDigest(results);
  run.preemptions = results.scenario_stats().decode_preemptions;
  run.abandoned = static_cast<int64_t>(results.cancelled_count() + results.timed_out_count());
  run.faulted = results.fault_stats().any();
  for (const auto& d : system.decode_instances()) {
    run.golden.steps += d->steps_executed();
    run.golden.tokens += d->tokens_generated();
  }
  return run;
}

// In ServingGrid() order.
constexpr ServingGolden kServingGolden[] = {
    {0x4dabe629618634c6ull, 3230, 62136},
    {0x447d880a5ab569caull, 4005, 35789},
    {0xe431f586483ec0aeull, 3070, 63447},
    {0xeccd73845b541a4dull, 3910, 34442},
    {0x7ebfbbc7bb775482ull, 6802, 62136},
    {0x4c0fd4456da36953ull, 8208, 43410},
    {0xde6acdb1e8bd5979ull, 6466, 63362},
    {0x02cc43492bb6bb09ull, 8081, 42583},
    {0x0bc31a8bce3031deull, 13784, 62136},
    {0x6116ae265e122d9eull, 16094, 46119},
    {0xd53120fc4f920107ull, 13092, 63284},
    {0x29b9a164edea0521ull, 15895, 45235},
    {0xf4d5673732cc41eaull, 3116, 55913},
    {0x547d0bb51a82a8ddull, 3581, 33170},
    {0x1ade04382f425888ull, 2964, 58046},
    {0xd2ffc55bd3e08326ull, 3455, 32534},
    {0xc866a35d1e069e6full, 6211, 55913},
    {0x4ea504dabd08c88bull, 7333, 40045},
    {0x4386856bd26b19b2ull, 5744, 58389},
    {0x7d8e4ec9b3c3760aull, 6978, 39130},
    {0x1193a7e6352a2f10ull, 11722, 55913},
    {0x342921f42d18cf77ull, 14333, 44137},
    {0x8d1034adca0727a4ull, 10984, 58197},
    {0x5843529eb12f3bdfull, 13925, 41924},
};

TEST(DecodeLaneGoldenTest, ServingGridMatchesPinnedDigests) {
  const std::vector<ServingCase> grid = ServingGrid();
  ASSERT_EQ(grid.size(), std::size(kServingGolden));
  for (size_t i = 0; i < grid.size(); ++i) {
    const ServingCase& c = grid[i];
    SCOPED_TRACE("seed " + std::to_string(c.seed) + " pp " + std::to_string(c.pp) +
                 (c.faults ? " faults" : "") + (c.scenarios ? " scenarios" : ""));
    const ServingRun run = RunServingCase(c);
    // The axes a case names must fire, or the pin covers less than it claims.
    EXPECT_EQ(run.faulted, c.faults);
    if (c.scenarios) {
      EXPECT_GT(run.preemptions, 0);
      EXPECT_GT(run.abandoned, 0);
    }
    const ServingGolden& got = run.golden;
    EXPECT_EQ(got.digest, kServingGolden[i].digest);
    EXPECT_EQ(got.steps, kServingGolden[i].steps);
    EXPECT_EQ(got.tokens, kServingGolden[i].tokens);
  }
}

struct ScriptCase {
  uint64_t seed;
  int pp;
  bool delayed_transfer;
  bool priorities;
  bool faults;
};

std::vector<ScriptCase> ScriptGrid() {
  std::vector<ScriptCase> grid;
  for (uint64_t seed : {11u, 29u}) {
    for (int pp : {1, 2, 4}) {
      for (bool delayed : {false, true}) {
        for (bool priorities : {false, true}) {
          grid.push_back(ScriptCase{seed, pp, delayed, priorities, /*faults=*/priorities});
        }
      }
    }
  }
  return grid;
}

// In ScriptGrid() order.
constexpr uint64_t kScriptGolden[] = {
    0x91b950d0118dfc3cull,
    0x3020db89d6035017ull,
    0xced88f268a965804ull,
    0x5f8f87070de81ad8ull,
    0x18813da6deb10b2dull,
    0xe30db8159f489921ull,
    0xee9d3e5c35582408ull,
    0x433512922b095545ull,
    0xae396f79dd881970ull,
    0xe73b80d3cd2dbd03ull,
    0x242868c55a5abaf5ull,
    0x69b9afbc947493aeull,
    0x2d258658a1a7c12bull,
    0xa2e54aec1da80843ull,
    0x349d953e47b6b418ull,
    0x599be07c81eb34faull,
    0x4d9e542eddf7e304ull,
    0x215c78a9d67f63edull,
    0xf5cb8a69a89ea73cull,
    0xe78c1a1b82f547b1ull,
    0x18ca88da979ef4aeull,
    0x91d80d28cb8cef38ull,
    0x7f09e6a2c1635f0eull,
    0x6ebb6b3afa16de1full,
};

TEST(DecodeLaneGoldenTest, InstanceScriptsMatchPinnedDigests) {
  const std::vector<ScriptCase> grid = ScriptGrid();
  ASSERT_EQ(grid.size(), std::size(kScriptGolden));
  int64_t preemptions = 0;
  for (size_t i = 0; i < grid.size(); ++i) {
    const ScriptCase& c = grid[i];
    SCOPED_TRACE("seed " + std::to_string(c.seed) + " pp " + std::to_string(c.pp) +
                 (c.delayed_transfer ? " delayed" : " instant") +
                 (c.priorities ? " priorities+faults" : ""));
    const engine::lane_script::Script script = engine::lane_script::RandomScript(
        c.seed, c.pp, c.delayed_transfer, c.priorities, c.faults, /*n=*/60);
    const engine::lane_script::Outcome outcome =
        engine::lane_script::RunScript<engine::DecodeInstance>(script);
    EXPECT_EQ(outcome.Digest(), kScriptGolden[i]);
    preemptions += outcome.counters.back().preemptions;
  }
  EXPECT_GT(preemptions, 0) << "the tenant scripts never preempted";
}

}  // namespace
}  // namespace distserve
