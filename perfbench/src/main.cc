// The repository benchmark: three workloads driven through the library's public entry points
// (core::DistServe, serving::FleetSystem, baselines::VllmSystem). perfbench/README.md says
// why each workload exists, which layers it bypasses and which end-to-end metric each
// per-layer metric should move.
//
//   perfbench --workload plan_table1|serve_fleet|serve_colocated --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Each workload repeats its timed section until --seconds of host time are used (at least
// three times) and reports the fastest repetition and the median set-up (see HostTimes).
// Host-time metrics are measured with tracing off;
// --trace 1 adds one traced repetition (the benchmark's own host spans plus a
// trace::Recorder on the serving systems), checks it against the untraced result and
// prints the per-layer metrics instead of the end-to-end ones. Names starting with `sim_`
// are simulated quantities: deterministic for a seed, and a speed-only change must leave
// them bit-identical (result_digest covers them). The last stdout line is the JSON result.
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/vllm_system.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/distserve.h"
#include "harness.h"
#include "model/latency_model.h"
#include "placement/algorithms.h"
#include "placement/analytic_tier.h"
#include "placement/fast_sim.h"
#include "serving/fleet.h"
#include "simcore/simulator.h"
#include "trace/attribution.h"
#include "trace/recorder.h"
#include "workload/dataset.h"
#include "workload/generator.h"
#include "workload/scenario.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace distserve::perfbench {
namespace {

constexpr int kMinReps = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

// Everything one workload run reports.
struct Report {
  MetricSet end_to_end;
  MetricSet per_layer;
  Ledger ledger;
  Digest digest;
  std::string context;  // JSON object: host, build, threads, shards, sizes and rates
  std::string notes;    // human-readable lines printed before the metrics
  double start_rss_mb = 0.0;  // resident set before the workload ran
  std::unique_ptr<SpanRecorder> spans;
};

// Runs `rep(i)` at least kMinReps times and keeps starting repetitions until `seconds` of
// host time have passed.
void Repeat(double seconds, const std::function<void(int)>& rep) {
  const double t0 = WallSeconds();
  for (int i = 0; i < kMinReps || WallSeconds() - t0 < seconds; ++i) {
    rep(i);
  }
}

std::string HostContext(const Args& args) {
  utsname host{};
  uname(&host);
  return "\"nproc\": " + std::to_string(ThreadPool::HardwareConcurrency()) +
         ", \"machine\": " + JsonString(host.machine) +
         ", \"compiler\": " + JsonString("gcc " __VERSION__) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + JsonNumber(args.seconds);
}

// Percentile in [0, 100] of the samples, under the percentile rule (harness.h).
struct Tail {
  double q = 0.0;
  double value = 0.0;
};

Tail RulePercentile(const PercentileTracker& tracker, double wanted) {
  const double q = SupportedPercentile(tracker.count(), wanted);
  return {q, q > 0.0 ? tracker.Percentile(q) : 0.0};
}

// The simulated end-to-end metrics common to every workload: attainment over requests
// offered, per-GPU goodput and TTFT/TPOT median and tail with their sample counts.
void SetSimLatencyMetrics(const PercentileTracker& ttft, const PercentileTracker& tpot,
                          Report* report) {
  for (const auto& [name, tracker] :
       {std::pair<std::string, const PercentileTracker*>{"ttft", &ttft}, {"tpot", &tpot}}) {
    const Tail p50 = RulePercentile(*tracker, 50.0);
    const Tail p99 = RulePercentile(*tracker, 99.0);
    report->end_to_end.Set("sim_" + name + "_p50_s", p50.value, "sim_s");
    report->end_to_end.Set("sim_" + name + "_p99_s", p99.value, "sim_s");
    report->per_layer.Set("metrics." + name + "_samples", static_cast<double>(tracker->count()),
                          "count");
    char line[96];
    std::snprintf(line, sizeof line, "# sim_%s percentiles: p50 and p%.6g over %zu samples\n",
                  name.c_str(), p99.q, tracker->count());
    report->notes += line;
  }
}

PercentileTracker Track(const metrics::Collector& c, double (metrics::RequestRecord::*fn)()
                                                         const) {
  PercentileTracker tracker;
  tracker.Reserve(c.count());
  for (const metrics::RequestRecord& r : c.records()) {
    tracker.Add((r.*fn)());
  }
  return tracker;
}

// Folds a served run into the sim_* metrics plus the metrics-layer counters; returns the
// host seconds the fold took (metrics.fold_ms).
double FoldServedRun(const metrics::Collector& c, const metrics::SloSpec& slo, int gpus,
                     Report* report) {
  const double start = WallSeconds();
  const metrics::Attainment att = c.ComputeAttainment(slo);
  const double goodput = c.GoodputUnderSlo(slo);
  const PercentileTracker ttft = Track(c, &metrics::RequestRecord::Ttft);
  const PercentileTracker tpot = Track(c, &metrics::RequestRecord::Tpot);
  SetSimLatencyMetrics(ttft, tpot, report);
  const metrics::LatencyBreakdown breakdown = c.ComputeBreakdown();
  const double fold_s = WallSeconds() - start;

  report->end_to_end.Set("sim_attainment", att.both, "ratio");
  report->end_to_end.Set("sim_goodput_per_gpu", goodput / gpus, "req/s/GPU");
  const double n = std::max<double>(1.0, static_cast<double>(c.count()));
  report->per_layer.Set("engine.prefill_queue_s_mean", breakdown.prefill_queue / n, "sim_s");
  report->per_layer.Set("engine.prefill_exec_s_mean", breakdown.prefill_exec / n, "sim_s");
  report->per_layer.Set("engine.decode_queue_s_mean", breakdown.decode_queue / n, "sim_s");
  report->per_layer.Set("engine.decode_exec_s_mean", breakdown.decode_exec / n, "sim_s");
  report->per_layer.Set("metrics.completed", static_cast<double>(c.count()), "count");
  report->per_layer.Set("metrics.lost", static_cast<double>(c.lost_count()), "count");
  report->per_layer.Set("metrics.cancelled", static_cast<double>(c.cancelled_count()), "count");
  report->per_layer.Set("metrics.timed_out", static_cast<double>(c.timed_out_count()), "count");
  return fold_s;
}

void SetWorkloadStats(const workload::Trace& trace, Report* report) {
  double prompt = 0.0;
  double output = 0.0;
  for (const workload::Request& r : trace) {
    prompt += r.input_len;
    output += r.output_len;
  }
  const double n = std::max<double>(1.0, static_cast<double>(trace.size()));
  const workload::ScenarioStats stats = workload::ComputeScenarioStats(trace);
  report->per_layer.Set("workload.requests", static_cast<double>(trace.size()), "count");
  report->per_layer.Set("workload.prompt_tokens_mean", prompt / n, "tokens");
  report->per_layer.Set("workload.output_tokens_mean", output / n, "tokens");
  report->per_layer.Set("workload.prefix_hit_token_share",
                        prompt > 0.0 ? static_cast<double>(stats.cached_prefix_tokens) / prompt
                                     : 0.0,
                        "ratio");
}

// Host-time metrics of the measured (untraced) repetitions. Times of the timed section are
// the fastest repetition: the host is shared, interference only ever adds time, and the
// minimum is the figure that repeats from run to run. Set-up time is the median set-up.
struct HostTimes {
  std::vector<double> setup;
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> generate;
  std::vector<double> annotate;
  std::vector<double> fold;
};

void SetHostMetrics(const HostTimes& t, Report* report) {
  report->notes += "# timed section per repetition (s):";
  for (double w : t.wall) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.4f", w);
    report->notes += buf;
  }
  report->notes += "\n";
  report->end_to_end.Set("setup_s", Median(t.setup), "s");
  report->end_to_end.Set("wall_s", Fastest(t.wall), "s");
  report->end_to_end.Set("cpu_s", Fastest(t.cpu), "s");
  report->end_to_end.Set("peak_rss_mb", PeakRssMb(), "MB");
  report->per_layer.Set("workload.generate_ms", 1e3 * Fastest(t.generate), "ms");
  report->per_layer.Set("workload.annotate_ms", 1e3 * Fastest(t.annotate), "ms");
  report->per_layer.Set("metrics.fold_ms", 1e3 * Fastest(t.fold), "ms");
}

// Checks that a repetition reproduced the first one bit for bit.
std::string SameAsFirst(const Digest& first, const Digest& now) {
  return first.value() == now.value() ? ""
                                      : "repetition differs from the first: digest " +
                                            now.Hex() + " vs " + first.Hex();
}

// ---------------------------------------------------------------- serve_fleet

constexpr int kFleetGroups = 16;
constexpr double kFleetRatePerSource = 8.0;
constexpr int kFleetRequestsPerSource = 3907;

serving::FleetConfig FleetConfigFor(std::vector<trace::Recorder*> recorders) {
  serving::FleetConfig fc;
  fc.num_groups = kFleetGroups;
  fc.shards = 1;
  fc.group_config.model = model::ModelSpec::Opt13B();
  fc.group_config.cluster = cluster::ClusterSpec::PaperTestbed();
  fc.group_config.plan.prefill_par = {1, 1};
  fc.group_config.plan.decode_par = {1, 1};
  fc.group_config.plan.num_prefill = 2;
  fc.group_config.plan.num_decode = 2;
  fc.group_config.plan.intra_node_transfers = true;
  fc.group_recorders = std::move(recorders);
  return fc;
}

void RunServeFleet(const Args& args, Report* report) {
  const metrics::SloSpec slo{0.2, 0.1};  // Table 1, chatbot on OPT-13B
  const int gpus = kFleetGroups * 4;
  workload::FleetTraceSpec spec;
  spec.rate_per_source = kFleetRatePerSource;
  spec.num_sources = kFleetGroups;
  spec.requests_per_source = kFleetRequestsPerSource;
  spec.seed = args.seed;
  report->context += ", \"threads\": 1, \"shards\": 1, \"groups\": " +
                     std::to_string(kFleetGroups) +
                     ", \"instances_per_group\": \"2P+2D OPT-13B tp1\", \"sources\": " +
                     std::to_string(kFleetGroups) + ", \"rate_per_source\": " +
                     JsonNumber(kFleetRatePerSource) +
                     ", \"requests\": " + std::to_string(kFleetGroups * kFleetRequestsPerSource);

  HostTimes times;
  Digest first;
  metrics::Collector last;  // the untraced records the traced run must reproduce
  size_t sent = 0;
  auto rep = [&](int i, SpanRecorder* spans, std::vector<trace::Recorder*> recorders) {
    ScopedSpan root(spans, "bench.rep");
    const double setup_start = WallSeconds();
    std::unique_ptr<workload::Dataset> dataset;
    workload::Trace trace;
    {
      ScopedSpan span(spans, "workload.generate");
      const double start = WallSeconds();
      dataset = workload::MakeDatasetByName("sharegpt");
      trace = workload::GenerateFleetTrace(spec, *dataset);
      times.generate.push_back(WallSeconds() - start);
    }
    std::unique_ptr<serving::FleetSystem> fleet;
    {
      ScopedSpan span(spans, "serving.construct");
      fleet = std::make_unique<serving::FleetSystem>(FleetConfigFor(std::move(recorders)));
    }
    const double setup_s = WallSeconds() - setup_start;
    const double w0 = WallSeconds();
    const double c0 = CpuSeconds();
    serving::FleetResult result;
    {
      ScopedSpan span(spans, "serving.run");
      result = fleet->Run(trace);
    }
    const double wall = WallSeconds() - w0;
    const double cpu = CpuSeconds() - c0;
    Report scratch;
    double fold_s = 0.0;
    {
      ScopedSpan span(spans, "metrics.fold");
      fold_s = FoldServedRun(result.collector, slo, gpus, i == 0 ? report : &scratch);
    }
    Digest digest;
    digest.Add(result.collector);
    std::string failure = CheckConservation(result.collector, trace.size());
    if (i > 0 && failure.empty()) {
      failure = SameAsFirst(first, digest);
    }
    report->ledger.Record(spans != nullptr ? "traced fleet run" : "fleet run", failure);
    if (spans != nullptr) {
      return std::pair{std::move(result.collector), wall};  // not a measurement
    }
    times.setup.push_back(setup_s);
    times.wall.push_back(wall);
    times.cpu.push_back(cpu);
    times.fold.push_back(fold_s);
    if (i == 0) {
      first = digest;
      sent = trace.size();
      SetWorkloadStats(trace, report);
      const auto& stats = result.sim_stats;
      report->per_layer.Set("simcore.events", static_cast<double>(result.events), "count");
      report->per_layer.Set("simcore.events_per_request",
                            static_cast<double>(result.events) / trace.size(), "count");
      report->per_layer.Set("simcore.sync_rounds", static_cast<double>(stats.sync_rounds),
                            "count");
      report->per_layer.Set("simcore.events_per_window",
                            stats.sync_rounds > 0 ? static_cast<double>(result.events) /
                                                        static_cast<double>(stats.sync_rounds)
                                                  : 0.0,
                            "count");
      report->per_layer.Set("simcore.cross_shard_messages", static_cast<double>(stats.messages),
                            "count");
      report->per_layer.Set("simcore.channel_spills", static_cast<double>(stats.channel_spills),
                            "count");
      PercentileTracker transfers;
      for (double t : result.collector.SortedTransferTimes()) {
        transfers.Add(t);
      }
      report->per_layer.Set("serving.transfer_s_mean", transfers.Mean(), "sim_s");
      report->per_layer.Set("serving.transfer_s_p99", RulePercentile(transfers, 99.0).value,
                            "sim_s");
      const auto [lo, hi] =
          std::minmax_element(result.group_completed.begin(), result.group_completed.end());
      report->per_layer.Set("serving.group_load_spread",
                            *lo > 0 ? static_cast<double>(*hi) / static_cast<double>(*lo) : 0.0,
                            "ratio");
      report->per_layer.Set("serving.router_parked_lost",
                            static_cast<double>(result.router_parked_lost), "count");
    }
    if (args.trace) {
      last = std::move(result.collector);
    }
    return std::pair{metrics::Collector{}, wall};
  };

  Repeat(args.seconds, [&](int i) { rep(i, nullptr, {}); });
  report->digest = first;
  SetHostMetrics(times, report);
  const double wall = Fastest(times.wall);
  report->end_to_end.Set("sim_req_per_s", static_cast<double>(sent) / wall, "req/s");
  const double events = report->per_layer.items().at("simcore.events").value;
  report->per_layer.Set("simcore.host_ns_per_event", 1e9 * wall / events, "ns");
  report->per_layer.Set("metrics.rss_bytes_per_request",
                        (PeakRssMb() - report->start_rss_mb) * 1048576.0 /
                            static_cast<double>(sent),
                        "B/req");

  if (args.trace) {
    std::vector<std::unique_ptr<trace::Recorder>> owned;
    std::vector<trace::Recorder*> recorders;
    for (int g = 0; g < kFleetGroups; ++g) {
      owned.push_back(std::make_unique<trace::Recorder>());
      recorders.push_back(owned.back().get());
    }
    auto [traced, traced_wall] = rep(1, report->spans.get(), recorders);
    std::string failure = CheckBitIdentical(last, traced);
    size_t sim_spans = 0;
    for (const auto& recorder : owned) {
      sim_spans += recorder->spans().size();
      if (failure.empty()) {
        failure = trace::ValidateSpans(*recorder);
      }
    }
    report->ledger.Record("traced vs untraced fleet run", failure);
    report->per_layer.Set("trace.overhead_frac", traced_wall / wall - 1.0, "ratio");
    report->per_layer.Set("trace.sim_spans", static_cast<double>(sim_spans), "count");
  }
}

// ---------------------------------------------------------------- serve_colocated

constexpr int kColocatedInstances = 4;
constexpr double kColocatedRate = 10.0;
constexpr int kColocatedRequests = 50000;
constexpr int64_t kChunkBudget = 512;

void RunServeColocated(const Args& args, Report* report) {
  const metrics::SloSpec slo{0.2, 0.1};  // Table 1, chatbot on OPT-13B
  workload::TraceSpec spec;
  spec.rate = kColocatedRate;
  spec.num_requests = kColocatedRequests;
  spec.seed = args.seed;
  workload::PrefixCacheSpec prefix;
  prefix.hit_rate = 0.5;
  prefix.prefix_len = 256;
  prefix.seed = args.seed;
  workload::TenantSpec tenants;
  tenants.high_priority_fraction = 0.25;
  tenants.seed = args.seed;
  workload::CancellationSpec cancels;
  cancels.cancel_rate = 0.05;
  cancels.cancel_after_mean = 2.0;
  cancels.timeout = 20.0;
  cancels.seed = args.seed;
  report->context += ", \"threads\": 1, \"shards\": 1, \"instances\": \"" +
                     std::to_string(kColocatedInstances) +
                     " x OPT-13B tp1, chunked colocation\", \"chunk_budget\": " +
                     std::to_string(kChunkBudget) + ", \"rate\": " + JsonNumber(kColocatedRate) +
                     ", \"requests\": " + std::to_string(kColocatedRequests) +
                     ", \"prefix_hit_rate\": 0.5, \"high_priority_fraction\": 0.25"
                     ", \"cancel_rate\": 0.05, \"timeout_s\": 20";

  HostTimes times;
  Digest first;
  metrics::Collector last;
  size_t sent = 0;
  std::vector<double> step_us;
  auto rep = [&](int i, SpanRecorder* spans, trace::Recorder* recorder) {
    ScopedSpan root(spans, "bench.rep");
    const double setup_start = WallSeconds();
    std::unique_ptr<workload::Dataset> dataset;
    workload::Trace trace;
    {
      ScopedSpan span(spans, "workload.generate");
      const double start = WallSeconds();
      dataset = workload::MakeDatasetByName("sharegpt");
      trace = workload::GenerateTrace(spec, *dataset);
      times.generate.push_back(WallSeconds() - start);
    }
    {
      ScopedSpan span(spans, "workload.annotate");
      const double start = WallSeconds();
      workload::ApplyPrefixCache(&trace, prefix);
      workload::ApplyTenantClasses(&trace, tenants);
      workload::ApplyCancellations(&trace, cancels);
      times.annotate.push_back(WallSeconds() - start);
    }
    simcore::Simulator sim;
    std::unique_ptr<baselines::VllmSystem> system;
    {
      ScopedSpan span(spans, "baselines.construct");
      baselines::VllmConfig config;
      config.model = model::ModelSpec::Opt13B();
      config.cluster = cluster::ClusterSpec::PaperTestbed();
      config.par = {1, 1};
      config.num_instances = kColocatedInstances;
      config.engine_options.mode =
          engine::ColocatedInstance::Options::SchedulingMode::kChunked;
      config.engine_options.chunk_budget = kChunkBudget;
      config.recorder = recorder;
      config.sim = &sim;
      system = std::make_unique<baselines::VllmSystem>(std::move(config));
    }
    const double setup_s = WallSeconds() - setup_start;
    const double w0 = WallSeconds();
    const double c0 = CpuSeconds();
    metrics::Collector result;
    {
      ScopedSpan span(spans, "baselines.run");
      result = system->Run(trace);
    }
    const double wall = WallSeconds() - w0;
    const double cpu = CpuSeconds() - c0;
    Report scratch;
    double fold_s = 0.0;
    {
      ScopedSpan span(spans, "metrics.fold");
      fold_s = FoldServedRun(result, slo, kColocatedInstances, i == 0 ? report : &scratch);
    }
    Digest digest;
    digest.Add(result);
    std::string failure = CheckConservation(result, trace.size());
    if (i > 0 && failure.empty()) {
      failure = SameAsFirst(first, digest);
    }
    report->ledger.Record(spans != nullptr ? "traced colocated run" : "colocated run", failure);
    if (spans != nullptr) {
      return std::pair{std::move(result), wall};
    }
    int64_t steps = 0;
    int64_t tokens = 0;
    int64_t preemptions = 0;
    int64_t cancellations = 0;
    double busy = 0.0;
    for (const auto& instance : system->instances()) {
      steps += instance->steps_executed();
      tokens += instance->tokens_generated();
      preemptions += instance->preemptions();
      cancellations += instance->cancellations();
      busy += instance->busy_seconds();
    }
    times.setup.push_back(setup_s);
    times.wall.push_back(wall);
    times.cpu.push_back(cpu);
    times.fold.push_back(fold_s);
    step_us.push_back(steps > 0 ? 1e6 * wall / static_cast<double>(steps) : 0.0);
    if (i == 0) {
      first = digest;
      sent = trace.size();
      SetWorkloadStats(trace, report);
      report->per_layer.Set("engine.steps", static_cast<double>(steps), "count");
      report->per_layer.Set("engine.preemptions", static_cast<double>(preemptions), "count");
      report->per_layer.Set("engine.cancellations", static_cast<double>(cancellations),
                            "count");
      report->per_layer.Set("engine.tokens_per_step",
                            steps > 0 ? static_cast<double>(tokens) / steps : 0.0, "tokens");
      report->per_layer.Set("engine.busy_frac",
                            sim.now() > 0.0 ? busy / (kColocatedInstances * sim.now()) : 0.0,
                            "ratio");
      report->per_layer.Set("simcore.events", static_cast<double>(sim.events_processed()),
                            "count");
      report->per_layer.Set("simcore.events_per_request",
                            static_cast<double>(sim.events_processed()) / trace.size(), "count");
    }
    if (args.trace) {
      last = std::move(result);
    }
    return std::pair{metrics::Collector{}, wall};
  };

  Repeat(args.seconds, [&](int i) { rep(i, nullptr, nullptr); });
  report->digest = first;
  SetHostMetrics(times, report);
  const double wall = Fastest(times.wall);
  report->end_to_end.Set("sim_req_per_s", static_cast<double>(sent) / wall, "req/s");
  report->per_layer.Set("engine.host_us_per_step", Fastest(step_us), "us");
  const double events = report->per_layer.items().at("simcore.events").value;
  report->per_layer.Set("simcore.host_ns_per_event", 1e9 * wall / events, "ns");
  report->per_layer.Set("metrics.rss_bytes_per_request",
                        (PeakRssMb() - report->start_rss_mb) * 1048576.0 /
                            static_cast<double>(sent),
                        "B/req");

  if (args.trace) {
    trace::Recorder recorder;
    auto [traced, traced_wall] = rep(1, report->spans.get(), &recorder);
    std::string failure = CheckBitIdentical(last, traced);
    if (failure.empty()) {
      failure = trace::ValidateSpans(recorder);
    }
    report->ledger.Record("traced vs untraced colocated run", failure);
    report->per_layer.Set("trace.overhead_frac", traced_wall / wall - 1.0, "ratio");
    report->per_layer.Set("trace.sim_spans", static_cast<double>(recorder.spans().size()),
                          "count");
  }
}

// ---------------------------------------------------------------- plan_table1

struct Application {
  std::string name;
  model::ModelSpec model;
  metrics::SloSpec slo;
  std::string dataset;
};

// Table 1 of the paper, the four applications that fit the paper testbed.
std::vector<Application> Table1() {
  return {{"chatbot-13b", model::ModelSpec::Opt13B(), {0.2, 0.1}, "sharegpt"},
          {"chatbot-66b", model::ModelSpec::Opt66B(), {0.4, 0.1}, "sharegpt"},
          {"code-66b", model::ModelSpec::Opt66B(), {0.125, 0.2}, "humaneval"},
          {"summarization-66b", model::ModelSpec::Opt66B(), {15.0, 0.15}, "longbench"}};
}

constexpr double kPlanRate = 1.0;    // expected traffic of the cold plan (req/s)
constexpr double kReplanRate = 1.25;  // the drifted rate of the replan
constexpr int kEvalRequests = 50000;  // fast_sim requests per chosen plan
constexpr int kPrefillMaxBatch = 64;  // the planner's fast_sim prefill batch cap
constexpr int kDecodeMaxBatch = 512;  // PlannerInputs::decode_max_batch default

using Alg = DistServeOptions::PlacementMode;

struct PlanCase {
  const Application* app;
  Alg alg;
  std::string label;  // "<app>.alg1" | "<app>.alg2"
};

struct ColdPlan {
  placement::PlacementPlan plan;
  placement::PlannerResult details;  // counters of the cold search
};

// The planner's probe-trace seed stays at the library default: it is a planner setting, not
// workload input, and holding it fixed makes every run plan the same eight problems. --seed
// drives the traces the chosen plans are evaluated on.
DistServeOptions FacadeOptions(const PlanCase& pc, const workload::Dataset* dataset,
                               int threads) {
  DistServeOptions options;
  options.model = pc.app->model;
  options.cluster = cluster::ClusterSpec::PaperTestbed();
  options.slo = pc.app->slo;
  options.traffic_rate = kPlanRate;
  options.dataset = dataset;
  options.placement_mode = pc.alg;
  options.planner_threads = threads;
  return options;
}

placement::PlannerInputs InputsFor(const DistServeOptions& o) {
  placement::PlannerInputs inputs;
  inputs.model = o.model;
  inputs.cluster = o.cluster;
  inputs.dataset = o.dataset;
  inputs.slo = o.slo;
  inputs.attainment_target = o.attainment_target;
  inputs.traffic_rate = o.traffic_rate;
  inputs.search = o.search;
  return inputs;
}

// The planner's own simulator (fast_sim) run on the chosen plan at the traffic the plan was
// sized for: what the planner predicts its deployment achieves.
std::vector<placement::FastRecord> EvaluatePlan(const placement::PlacementPlan& plan,
                                                const Application& app,
                                                const workload::Trace& trace) {
  const cluster::ClusterSpec cluster = cluster::ClusterSpec::PaperTestbed();
  const model::LatencyModel prefill_lm(app.model, plan.prefill_par, cluster.gpu);
  const model::LatencyModel decode_lm(app.model, plan.decode_par, cluster.gpu);
  placement::DisaggregatedFastConfig config;
  config.num_prefill = plan.num_prefill;
  config.num_decode = plan.num_decode;
  config.prefill_target_tokens = std::max<int64_t>(512, prefill_lm.ComputeSaturationTokens());
  config.prefill_max_batch = kPrefillMaxBatch;
  config.decode_kv_capacity_tokens = decode_lm.view().KvCapacityTokens(cluster.gpu);
  config.decode_max_batch = kDecodeMaxBatch;
  return placement::SimulateDisaggregated(prefill_lm, decode_lm, trace, config);
}

void RunPlanTable1(const Args& args, Report* report) {
  const int threads = ThreadPool::HardwareConcurrency();
  const std::vector<Application> apps = Table1();
  report->context += ", \"threads\": " + std::to_string(threads) +
                     ", \"shards\": 1, \"applications\": 4, \"algorithms\": [1, 2]"
                     ", \"plan_rate\": " + JsonNumber(kPlanRate) +
                     ", \"replan_rate\": " + JsonNumber(kReplanRate) +
                     ", \"eval_requests_per_plan\": " + std::to_string(kEvalRequests);

  std::vector<PlanCase> cases;
  for (const Application& app : apps) {
    for (Alg alg : {Alg::kHighAffinity, Alg::kLowAffinity}) {
      cases.push_back({&app, alg, app.name + (alg == Alg::kHighAffinity ? ".alg1" : ".alg2")});
    }
  }
  HostTimes times;
  std::vector<ColdPlan> cold;  // first repetition's cold plans, in case order
  std::vector<placement::PlannerResult> replans;
  std::map<std::string, std::vector<double>> plan_ms;
  std::vector<double> replan_ms;
  double cold_wall = 0.0;
  double cold_cpu = 0.0;
  // Per case (cold plan + its replan), every untraced repetition's wall and CPU time, and
  // the host time fast_sim took to evaluate the chosen plan.
  std::vector<std::vector<double>> case_wall(cases.size());
  std::vector<std::vector<double>> case_cpu(cases.size());
  std::vector<std::vector<double>> case_eval(cases.size());
  double evaluated = 0.0;
  Digest first;

  // One repetition: set up datasets, unit-rate evaluation traces and fresh facades; time
  // every cold plan and its replan; then evaluate the chosen plans with fast_sim.
  auto rep = [&](int i, SpanRecorder* spans) {
    ScopedSpan root(spans, "bench.rep");
    const double setup_start = WallSeconds();
    std::map<std::string, std::unique_ptr<workload::Dataset>> datasets;
    std::map<std::string, workload::Trace> eval_traces;
    {
      ScopedSpan span(spans, "workload.generate");
      const double start = WallSeconds();
      for (const Application& app : apps) {
        auto& dataset = datasets[app.dataset];
        if (dataset == nullptr) {
          dataset = workload::MakeDatasetByName(app.dataset);
        }
        workload::TraceSpec spec;
        spec.rate = kPlanRate;
        spec.num_requests = kEvalRequests;
        spec.seed = args.seed;
        eval_traces[app.name] = workload::GenerateTrace(spec, *dataset);
      }
      times.generate.push_back(WallSeconds() - start);
    }
    std::vector<std::unique_ptr<DistServe>> facades;
    {
      ScopedSpan span(spans, "core.construct");
      for (const PlanCase& pc : cases) {
        facades.push_back(std::make_unique<DistServe>(
            FacadeOptions(pc, datasets[pc.app->dataset].get(), threads)));
      }
    }
    const double setup_s = WallSeconds() - setup_start;

    std::vector<ColdPlan> plans;
    double wall = 0.0;
    double cpu = 0.0;
    Digest digest;
    for (size_t k = 0; k < cases.size(); ++k) {
      const PlanCase& pc = cases[k];
      DistServe& facade = *facades[k];
      double w0 = WallSeconds();
      double c0 = CpuSeconds();
      {
        ScopedSpan span(spans, "core.plan");
        facade.Plan();
      }
      const double plan_wall = WallSeconds() - w0;
      const double plan_cpu = CpuSeconds() - c0;
      plans.push_back({facade.Plan(), facade.PlannerDetails()});
      w0 = WallSeconds();
      c0 = CpuSeconds();
      {
        ScopedSpan span(spans, "core.replan");
        facade.Replan(datasets[pc.app->dataset].get(), kReplanRate);
      }
      const double replan_wall = WallSeconds() - w0;
      const double replan_cpu = CpuSeconds() - c0;
      wall += plan_wall + replan_wall;
      cpu += plan_cpu + replan_cpu;
      const placement::PlacementPlan replanned = facade.Plan();
      std::string failure = CheckPlan(plans.back().plan, cluster::ClusterSpec::PaperTestbed());
      if (i > 0 && failure.empty()) {
        failure = CheckSamePlan(cold[k].plan, plans.back().plan);
      }
      report->ledger.Record("plan " + pc.label, failure);
      report->ledger.Record("replan " + pc.label,
                            CheckPlan(replanned, cluster::ClusterSpec::PaperTestbed()));
      digest.Add(plans.back().plan.ToString());
      digest.Add(plans.back().plan.prefill_goodput);
      digest.Add(plans.back().plan.decode_goodput);
      digest.Add(replanned.ToString());
      if (spans == nullptr) {
        plan_ms[pc.label].push_back(1e3 * plan_wall);
        replan_ms.push_back(1e3 * replan_wall);
        case_wall[k].push_back(plan_wall + replan_wall);
        case_cpu[k].push_back(plan_cpu + replan_cpu);
        if (i == 0) {
          cold_wall += plan_wall;
          cold_cpu += plan_cpu;
          replans.push_back(facade.PlannerDetails());
        }
      }
      facades[k].reset();  // one planner's caches alive at a time, as for a user planning
    }

    // The chosen plans as the planner's simulator sees them at the planned traffic.
    PercentileTracker ttft;
    PercentileTracker tpot;
    double met = 0.0;
    evaluated = 0.0;
    {
      ScopedSpan span(spans, "placement.fast_sim_eval");
      for (size_t k = 0; k < cases.size(); ++k) {
        const workload::Trace& trace = eval_traces[cases[k].app->name];
        const double e0 = WallSeconds();
        const std::vector<placement::FastRecord> records =
            EvaluatePlan(plans[k].plan, *cases[k].app, trace);
        if (spans == nullptr) {
          case_eval[k].push_back(WallSeconds() - e0);
        }
        met += placement::FastAttainment(records, cases[k].app->slo).both *
               static_cast<double>(records.size());
        evaluated += static_cast<double>(records.size());
        for (const placement::FastRecord& r : records) {
          ttft.Add(r.ttft);
          tpot.Add(r.tpot);
          digest.Add(r.ttft);
          digest.Add(r.tpot);
        }
      }
    }
    if (i > 0) {
      report->ledger.Record(spans != nullptr ? "traced repetition" : "repetition",
                            SameAsFirst(first, digest));
    }
    if (spans != nullptr) {
      return wall;
    }
    times.setup.push_back(setup_s);
    times.wall.push_back(wall);
    times.cpu.push_back(cpu);
    if (i == 0) {
      cold = std::move(plans);
      first = digest;
      workload::Trace all;
      for (const auto& [name, trace] : eval_traces) {
        all.insert(all.end(), trace.begin(), trace.end());
      }
      SetWorkloadStats(all, report);
      const double f0 = WallSeconds();
      SetSimLatencyMetrics(ttft, tpot, report);
      times.fold.push_back(WallSeconds() - f0);
      report->end_to_end.Set("sim_attainment", met / evaluated, "ratio");
      double log_sum = 0.0;
      for (const ColdPlan& c : cold) {
        log_sum += std::log(c.plan.per_gpu_goodput());
      }
      report->end_to_end.Set("sim_goodput_per_gpu", std::exp(log_sum / cold.size()),
                             "req/s/GPU");
    }
    return wall;
  };

  Repeat(args.seconds, [&](int i) { rep(i, nullptr); });
  report->digest = first;
  SetHostMetrics(times, report);
  // The timed section's host time is the sum over the eight cases of each case's fastest
  // repetition: a slow phase of the shared host then costs one case, not the whole section.
  // fast_sim's evaluation time is summed the same way.
  double best_wall = 0.0;
  double best_cpu = 0.0;
  for (size_t k = 0; k < case_wall.size(); ++k) {
    best_wall += Fastest(case_wall[k]);
    best_cpu += Fastest(case_cpu[k]);
  }
  report->end_to_end.Set("wall_s", best_wall, "s");
  report->end_to_end.Set("cpu_s", best_cpu, "s");
  double best_eval = 0.0;
  for (const std::vector<double>& t : case_eval) {
    best_eval += Fastest(t);
  }
  report->end_to_end.Set("sim_req_per_s", evaluated / best_eval, "req/s");

  for (const auto& [label, values] : plan_ms) {
    report->per_layer.Set("core.plan_ms." + label, Fastest(values), "ms");
  }
  report->per_layer.Set("core.replan_ms", Fastest(replan_ms), "ms");

  int64_t configs = 0, sims = 0, roofline = 0, analytic = 0, unneeded = 0;
  int64_t probes = 0, trace_hits = 0, replan_sims = 0, replan_hits = 0;
  for (const ColdPlan& c : cold) {
    configs += c.details.configs_evaluated;
    sims += c.details.simulations_run;
    roofline += c.details.roofline_pruned;
    analytic += c.details.analytic_rejected;
    unneeded += c.details.pair_unneeded;
    probes += c.details.probes;
    trace_hits += c.details.trace_cache_hits;
  }
  for (const placement::PlannerResult& r : replans) {
    replan_sims += r.simulations_run;
    replan_hits += r.cache_hits;
  }
  auto ratio = [](int64_t a, int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  MetricSet& layer = report->per_layer;
  layer.Set("placement.configs_evaluated", static_cast<double>(configs), "count");
  layer.Set("placement.simulations_run", static_cast<double>(sims), "count");
  layer.Set("placement.roofline_pruned", static_cast<double>(roofline), "count");
  layer.Set("placement.analytic_rejected", static_cast<double>(analytic), "count");
  layer.Set("placement.pair_unneeded", static_cast<double>(unneeded), "count");
  layer.Set("placement.probes", static_cast<double>(probes), "count");
  layer.Set("placement.trace_cache_hits", static_cast<double>(trace_hits), "count");
  layer.Set("placement.sim_run_ratio", ratio(sims, configs), "ratio");
  layer.Set("placement.probes_per_sim", ratio(probes, sims), "ratio");
  layer.Set("placement.trace_cache_hit_ratio", ratio(trace_hits, probes), "ratio");
  layer.Set("placement.replan_cache_hit_ratio", ratio(replan_hits, replan_sims), "ratio");
  layer.Set("placement.cpu_per_wall", cold_wall > 0.0 ? cold_cpu / cold_wall : 0.0, "ratio");

  if (!args.trace) {
    return;
  }
  // The traced repetition must choose the same plans.
  const double traced_wall = rep(1, report->spans.get());
  report->per_layer.Set("trace.overhead_frac", traced_wall / Fastest(times.wall) - 1.0,
                        "ratio");

  // Single calls into placement and model, timed on each chosen plan's configs.
  ScopedSpan root(report->spans.get(), "bench.layers");
  std::vector<double> prefill_ms;
  std::vector<double> decode_ms;
  std::vector<double> analytic_us;
  for (size_t k = 0; k < cases.size(); ++k) {
    const Application& app = *cases[k].app;
    const auto dataset = workload::MakeDatasetByName(app.dataset);
    const placement::PlannerInputs inputs =
        InputsFor(FacadeOptions(cases[k], dataset.get(), /*threads=*/1));
    const placement::PlacementPlan& plan = cold[k].plan;
    double t0 = WallSeconds();
    {
      ScopedSpan span(report->spans.get(), "placement.prefill_goodput");
      placement::SimulatePrefillGoodput(inputs, plan.prefill_par);
    }
    prefill_ms.push_back(1e3 * (WallSeconds() - t0));
    t0 = WallSeconds();
    {
      ScopedSpan span(report->spans.get(), "placement.decode_goodput");
      placement::SimulateDecodeGoodput(inputs, plan.decode_par);
    }
    decode_ms.push_back(1e3 * (WallSeconds() - t0));
    const model::LatencyModel prefill_lm(app.model, plan.prefill_par, inputs.cluster.gpu);
    const model::LatencyModel decode_lm(app.model, plan.decode_par, inputs.cluster.gpu);
    Rng rng(args.seed);
    const workload::LengthSample mean = dataset->MeanLengths(rng);
    const int64_t kv = decode_lm.view().KvCapacityTokens(inputs.cluster.gpu);
    constexpr int kCalls = 200;
    t0 = WallSeconds();
    {
      ScopedSpan span(report->spans.get(), "placement.analytic");
      for (int c = 0; c < kCalls; ++c) {
        placement::AnalyticMaxPrefillRate(prefill_lm, app.slo.ttft, mean, kPrefillMaxBatch);
        placement::AnalyticMaxDecodeRate(decode_lm, app.slo.tpot, mean, kv, kDecodeMaxBatch);
      }
    }
    analytic_us.push_back(1e6 * (WallSeconds() - t0) / kCalls);
  }
  layer.Set("placement.prefill_goodput_ms", Median(prefill_ms), "ms");
  layer.Set("placement.decode_goodput_ms", Median(decode_ms), "ms");
  layer.Set("placement.analytic_us", Median(analytic_us), "us");

  // LatencyModel::EvaluateBatch over a lattice of the workload's prompt lengths (prefill
  // points) and decode batches 1..512 at the mean context.
  {
    const auto dataset = workload::MakeDatasetByName(apps.front().dataset);
    workload::TraceSpec spec;
    spec.num_requests = 4096;
    spec.seed = args.seed;
    const workload::Trace trace = workload::GenerateTrace(spec, *dataset);
    model::BatchWorkloadLattice lattice;
    double mean_ctx = 0.0;
    for (const workload::Request& r : trace) {
      lattice.PushBack(model::BatchWorkload::PrefillSingle(r.input_len));
      mean_ctx += r.input_len + 0.5 * r.output_len;
    }
    mean_ctx /= static_cast<double>(trace.size());
    for (int64_t b = 1; b <= kDecodeMaxBatch; ++b) {
      lattice.PushBack(
          model::BatchWorkload::Decode(b, static_cast<int64_t>(b * mean_ctx)));
    }
    const model::LatencyModel lm(apps.front().model, {1, 1},
                                 cluster::ClusterSpec::PaperTestbed().gpu);
    std::vector<double> stage(lattice.size());
    std::vector<double> full(lattice.size());
    constexpr int kPasses = 200;
    const double t0 = WallSeconds();
    {
      ScopedSpan span(report->spans.get(), "model.evaluate_batch");
      for (int p = 0; p < kPasses; ++p) {
        lm.EvaluateBatch(lattice, stage, full);
      }
    }
    layer.Set("model.evaluate_batch_ns",
              1e9 * (WallSeconds() - t0) / (kPasses * static_cast<double>(lattice.size())),
              "ns");
  }
}

// ---------------------------------------------------------------- main

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload plan_table1|serve_fleet|serve_colocated "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  SetLogLevel(LogLevel::kWarning);
  const std::map<std::string, std::function<void(const Args&, Report*)>> workloads = {
      {"plan_table1", RunPlanTable1},
      {"serve_fleet", RunServeFleet},
      {"serve_colocated", RunServeColocated},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Report report;
  report.start_rss_mb = PeakRssMb();
  report.context = HostContext(args);
  const uint64_t run_id = (args.seed << 20) ^ static_cast<uint64_t>(getpid()) ^
                          static_cast<uint64_t>(WallSeconds() * 1e6);
  if (args.trace) {
    report.spans = std::make_unique<SpanRecorder>(run_id);
  }
  std::printf("# workload %s seed %llu: open-loop arrivals in simulated time; TTFT counts from "
              "each request's scheduled arrival, so generator lateness is 0 by construction\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed));
  it->second(args, &report);

  if (report.spans != nullptr) {
    const std::vector<HostSpan>& spans = report.spans->spans();
    report.per_layer.Set("trace.spans", static_cast<double>(spans.size()), "count");
    for (const auto& [module, self] : ModuleSelfSeconds(spans)) {
      report.per_layer.Set(module + ".self_s", self, "s");
    }
  }
  const double failed_frac =
      static_cast<double>(report.ledger.failed()) /
      static_cast<double>(std::max<int64_t>(1, report.ledger.attempted()));
  std::printf("%s# context {%s}\n", report.notes.c_str(), report.context.c_str());
  std::printf("result_digest %s\n", report.digest.Hex().c_str());
  std::printf("ops_failed_frac %.6g ratio (%lld of %lld operations)\n", failed_frac,
              static_cast<long long>(report.ledger.failed()),
              static_cast<long long>(report.ledger.attempted()));
  const MetricSet& shown = args.trace ? report.per_layer : report.end_to_end;
  for (const auto& [name, metric] : shown.items()) {
    std::printf("%-44s %.9g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }

  const bool correct = report.ledger.failed() == 0;
  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
    const std::string result = "{\"context\": {" + report.context +
                               "}, \"result_digest\": \"" + report.digest.Hex() +
                               "\", \"ops_failed_frac\": " + JsonNumber(failed_frac) +
                               ", \"end_to_end\": " + report.end_to_end.Json() +
                               ", \"per_layer\": " + report.per_layer.Json() + "}\n";
    bool ok = WriteFile(stem + ".json", result);
    if (report.spans != nullptr) {
      ok = WriteFile(stem + "-spans.json", report.spans->Json()) && ok;
    }
    if (!ok) {
      std::fprintf(stderr, "could not write results under %s\n", args.out_dir.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(report.ledger.attempted()),
              static_cast<long long>(report.ledger.failed()), shown.Json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace distserve::perfbench

int main(int argc, char** argv) { return distserve::perfbench::Main(argc, argv); }
