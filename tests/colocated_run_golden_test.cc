// Golden digests of the colocated engine, pinned from the one-event-per-step colocated loop
// that run-length decode steps replaced. Every value below was recorded from that loop; the
// engine must reproduce them bit for bit.
//
//   * Instance scripts (colocated_run_script.h): all three scheduling modes x {prefix-cache
//     hits, tenant priorities under tight KV (admission blocks, decodes get preempted),
//     client cancels + deadlines} x two seeds, with checkpoints and direct calls between
//     Run(until) windows. Pinned: the script outcome digest (per-request timestamps and
//     progress, the order of completions and teardowns, and steps_executed /
//     tokens_generated / busy_seconds and the queue counters at every checkpoint).
//   * vLLM system: the same grid through baselines::VllmSystem (two replicas, least-loaded
//     dispatch, the abandonment timers), driven over an external simulator with Run(until)
//     checkpoints. Pinned: the Collector digest (every record, every outcome list, the
//     scenario counters) and the replicas' counters at every checkpoint.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/vllm_system.h"
#include "colocated_run_script.h"
#include "workload/dataset.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace distserve {
namespace {

using engine::colocated_script::Mode;
using engine::colocated_script::Variant;

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void Add(double d) { Add(std::bit_cast<uint64_t>(d)); }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

void AddRecords(Fnv* fnv, const std::vector<metrics::RequestRecord>& records) {
  fnv->Add(static_cast<uint64_t>(records.size()));
  for (const metrics::RequestRecord& r : records) {
    fnv->Add(static_cast<int64_t>(r.id));
    fnv->Add(r.arrival);
    fnv->Add(r.input_len);
    fnv->Add(r.output_len);
    fnv->Add(r.priority);
    fnv->Add(r.prefill_start);
    fnv->Add(r.first_token);
    fnv->Add(r.transfer_start);
    fnv->Add(r.transfer_end);
    fnv->Add(r.decode_start);
    fnv->Add(r.completion);
  }
}

struct Case {
  uint64_t seed;
  Mode mode;
  Variant variant;
};

std::vector<Case> Grid(uint64_t seed_a, uint64_t seed_b) {
  std::vector<Case> grid;
  for (uint64_t seed : {seed_a, seed_b}) {
    for (Mode mode : {Mode::kPrefillPriority, Mode::kMixed, Mode::kChunked}) {
      for (Variant variant : {Variant::kPrefix, Variant::kTenants, Variant::kAbandon}) {
        grid.push_back(Case{seed, mode, variant});
      }
    }
  }
  return grid;
}

std::string Name(const Case& c) {
  static const char* const kModes[] = {"prefill-priority", "mixed", "chunked"};
  static const char* const kVariants[] = {"prefix", "tenants", "abandon"};
  return "seed " + std::to_string(c.seed) + " " + kModes[static_cast<int>(c.mode)] + " " +
         kVariants[static_cast<int>(c.variant)];
}

// --- Instance scripts ---------------------------------------------------------------------

// A random script with a few direct calls made between Run(until) windows.
engine::colocated_script::Script ScriptFor(const Case& c) {
  using engine::colocated_script::Call;
  engine::colocated_script::Script script =
      engine::colocated_script::RandomScript(c.seed, c.mode, c.variant, /*n=*/60);
  for (size_t k = 0; k < script.checkpoints.size(); k += 2) {
    const double t = script.checkpoints[k];
    workload::Request req;
    req.id = static_cast<workload::RequestId>(script.requests.size());
    req.arrival_time = t;
    req.input_len = 100 + 37 * static_cast<int>(k);
    req.output_len = 30;
    req.priority = c.variant == Variant::kTenants ? 2 : 0;
    script.requests.push_back(req);
    script.calls.push_back(Call{t, Call::Kind::kEnqueue, static_cast<int>(req.id), true});
    script.calls.push_back(Call{t, Call::Kind::kCancel, static_cast<int>(k), true});
  }
  return script;
}

// In Grid(11, 29) order.
constexpr uint64_t kScriptGolden[] = {
    0x3f041ed92e5ee6acull, 0xc7b47b159ea0cc15ull, 0xf1d3fac14a134a39ull,
    0x51b37abf71a6fdd8ull, 0x294265b2ac932213ull, 0x958ff6d0c17c9f1bull,
    0x5ff664cb22a31f15ull, 0x6886fb2d18a3a17full, 0x73cc5978d1b1ba7cull,
    0x8047efae1f6ce92bull, 0x86c484e321ff50fdull, 0x9ce9b1715f144b46ull,
    0x5274f112ef9d019cull, 0x16a1eb6c9dc959c7ull, 0x67de7ad924b5ac59ull,
    0x0a0b98f7992a1d3full, 0xc6da2f2b557370f8ull, 0x55f97e1f7f766fbaull,
};

TEST(ColocatedRunGoldenTest, InstanceScriptsMatchPinnedDigests) {
  const std::vector<Case> grid = Grid(11, 29);
  ASSERT_EQ(grid.size(), std::size(kScriptGolden));
  int64_t preemptions = 0;
  int64_t cancellations = 0;
  for (size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(Name(grid[i]));
    const engine::colocated_script::Outcome outcome =
        engine::colocated_script::RunScript<engine::ColocatedInstance>(ScriptFor(grid[i]));
    EXPECT_EQ(outcome.Digest(), kScriptGolden[i]);
    if (grid[i].variant == Variant::kTenants) {
      preemptions += outcome.counters.back().preemptions;
    }
    cancellations += outcome.counters.back().cancellations;
  }
  // The axes the grid names must fire, or the pin covers less than it claims.
  EXPECT_GT(preemptions, 0) << "the tenant scripts never preempted";
  EXPECT_GT(cancellations, 0) << "no script tore a request down";
}

// --- vLLM system --------------------------------------------------------------------------

struct SystemGolden {
  uint64_t digest = 0;
  int64_t steps = 0;
  int64_t tokens = 0;
};

struct SystemRun {
  SystemGolden golden;
  int64_t preemptions = 0;
  int64_t abandoned = 0;  // cancelled + timed out
};

SystemRun RunSystemCase(const Case& c) {
  const auto dataset = workload::MakeDatasetByName("sharegpt");
  workload::TraceSpec spec;
  // Tenants run hot, so the KV pool fills, admission blocks and the high class preempts.
  spec.rate = c.variant == Variant::kTenants ? 40.0 : 8.0;
  spec.num_requests = 240;
  spec.seed = c.seed;
  workload::Trace trace = workload::GenerateTrace(spec, *dataset);
  switch (c.variant) {
    case Variant::kPrefix: {
      workload::PrefixCacheSpec prefix;
      prefix.hit_rate = 0.5;
      prefix.prefix_len = 256;
      prefix.seed = c.seed;
      workload::ApplyPrefixCache(&trace, prefix);
      break;
    }
    case Variant::kTenants: {
      workload::TenantSpec tenants;
      tenants.high_priority_fraction = 0.3;
      tenants.seed = c.seed;
      workload::ApplyTenantClasses(&trace, tenants);
      break;
    }
    case Variant::kAbandon: {
      workload::CancellationSpec cancels;
      cancels.cancel_rate = 0.2;
      cancels.cancel_after_mean = 2.0;
      cancels.timeout = 6.0;
      cancels.seed = c.seed;
      workload::ApplyCancellations(&trace, cancels);
      break;
    }
  }

  simcore::Simulator sim;
  baselines::VllmConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  if (c.variant == Variant::kTenants) {
    config.cluster.gpu = cluster::GpuSpec::A100_40GB();  // a small KV pool
  }
  config.par = {1, 1};
  config.num_instances = 2;
  config.engine_options.mode = c.mode;
  config.engine_options.chunk_budget = 512;
  config.sim = &sim;
  baselines::VllmSystem system(config);
  system.BeginStream(trace.size());
  sim.ScheduleStream(
      trace.size(), [&trace](size_t k) { return trace[k].arrival_time; },
      [&system, &trace](size_t k) { system.Submit(trace[k]); });
  Fnv counters;
  auto read_counters = [&] {
    counters.Add(sim.now());
    for (const auto& inst : system.instances()) {
      counters.Add(inst->steps_executed());
      counters.Add(inst->tokens_generated());
      counters.Add(inst->busy_seconds());
      counters.Add(inst->load());
      counters.Add(inst->kv().used_blocks());
    }
  };
  for (double horizon : {2.5, 7.0, 13.25, 21.0}) {
    sim.Run(horizon);
    read_counters();
  }
  sim.Run();
  read_counters();
  const metrics::Collector results = system.FinishStream(sim.now());

  Fnv fnv;
  AddRecords(&fnv, results.records());
  AddRecords(&fnv, results.lost_records());
  AddRecords(&fnv, results.cancelled_records());
  AddRecords(&fnv, results.timed_out_records());
  const metrics::ScenarioOutcomeStats& s = results.scenario_stats();
  for (int64_t v : {s.requests_cancelled, s.requests_timed_out, s.decode_preemptions}) {
    fnv.Add(v);
  }
  fnv.Add(counters.value());
  SystemRun run;
  run.golden.digest = fnv.value();
  for (const auto& inst : system.instances()) {
    run.golden.steps += inst->steps_executed();
    run.golden.tokens += inst->tokens_generated();
  }
  run.preemptions = s.decode_preemptions;
  run.abandoned = static_cast<int64_t>(results.cancelled_count() + results.timed_out_count());
  return run;
}

// In Grid(3, 17) order.
constexpr SystemGolden kSystemGolden[] = {
    {0xc2519b759456fed3ull, 3223, 50266},
    {0x177365d46a160463ull, 2931, 51647},
    {0xe0d5267399e05eccull, 2333, 27380},
    {0xae8ffade3680a7eaull, 3161, 50266},
    {0xced728b1dbce66d7ull, 2638, 51484},
    {0x3df770426d667f59ull, 2290, 28669},
    {0x9b42b8d58725392full, 3141, 50266},
    {0xbed60c1b4f25ca39ull, 2698, 51920},
    {0xac503c61225d4e6dull, 2313, 28869},
    {0xfe77db135e962f59ull, 2683, 43575},
    {0xe54841eb0faddab2ull, 2507, 44777},
    {0xfd65281790344c50ull, 1924, 23956},
    {0x00293c9b8db1b163ull, 2788, 43575},
    {0xc5c3eefcf9cf6872ull, 2134, 44779},
    {0xefb264522df8bc45ull, 1869, 25268},
    {0x236aa09ec0763a66ull, 2792, 43575},
    {0xb3a4eba99a6db4b9ull, 2392, 44955},
    {0x4ed4d5a32c019462ull, 1891, 25485},
};

TEST(ColocatedRunGoldenTest, VllmSystemMatchesPinnedDigests) {
  const std::vector<Case> grid = Grid(3, 17);
  ASSERT_EQ(grid.size(), std::size(kSystemGolden));
  for (size_t i = 0; i < grid.size(); ++i) {
    const Case& c = grid[i];
    SCOPED_TRACE(Name(c));
    const SystemRun run = RunSystemCase(c);
    if (c.variant == Variant::kTenants) {
      EXPECT_GT(run.preemptions, 0);
    }
    if (c.variant == Variant::kAbandon) {
      EXPECT_GT(run.abandoned, 0);
    }
    const SystemGolden& got = run.golden;
    EXPECT_EQ(got.digest, kSystemGolden[i].digest);
    EXPECT_EQ(got.steps, kSystemGolden[i].steps);
    EXPECT_EQ(got.tokens, kSystemGolden[i].tokens);
  }
}

}  // namespace
}  // namespace distserve
