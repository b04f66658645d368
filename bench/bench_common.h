// Shared infrastructure for the paper-reproduction benches.
//
// Encodes Table 1 (application -> model, SLOs, dataset), provides rate/SLO-scale sweeps over
// any servable system, and prints aligned tables. Every bench binary prints the rows/series
// of its corresponding paper exhibit; EXPERIMENTS.md records paper-vs-measured shapes.
#ifndef DISTSERVE_BENCH_BENCH_COMMON_H_
#define DISTSERVE_BENCH_BENCH_COMMON_H_

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/vllm_system.h"
#include "cluster/spec_parse.h"
#include "common/float_format.h"
#include "common/thread_pool.h"
#include "metrics/collector.h"
#include "placement/algorithms.h"
#include "placement/goodput_cache_store.h"
#include "placement/sweep.h"
#include "serving/serving_system.h"
#include "trace/recorder.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace distserve::bench {

// --- Common flag parsing (one table shared by every bench main) -------------------------
//
// Each bench accepts a subset of the standard flags; the subset is a bitmask and both the
// parser and the usage line are driven by the same table, so a new common flag is one table
// row, not N copies of a strcmp chain.

struct CommonFlags {
  bool smoke = false;          // --smoke: reduced sizes for CI
  bool analytic_tier = true;   // --no-analytic-tier clears it (DESIGN.md §15 escape hatch)
  int jobs = 1;                // --jobs=N / DISTSERVE_JOBS: sweep and planner workers
                               // (N-1 pool threads); 1 = the sequential path
  std::string json_path;       // --json=PATH
  std::string goodput_cache;   // --goodput-cache=PATH (DISTSERVE_GOODPUT_CACHE fallback)
  std::string trace_path;      // --trace=PATH
  std::string cluster_spec;    // --cluster=SPEC (caller may preset a default)
  double prefix_hit = -1.0;    // --prefix-hit=F in [0,1]; negative = unset (bench default)
  int64_t chunk_budget = 0;    // --chunk-budget=N > 0; 0 = unset (bench default)
  double tenants = -1.0;       // --tenants=F in [0,1]; negative = unset (bench default)
};

enum CommonFlagBits : unsigned {
  kFlagSmoke = 1u << 0,
  kFlagJson = 1u << 1,
  kFlagGoodputCache = 1u << 2,
  kFlagTrace = 1u << 3,
  kFlagCluster = 1u << 4,
  kFlagNoAnalyticTier = 1u << 5,
  kFlagJobs = 1u << 6,
  kFlagPrefixHit = 1u << 7,
  kFlagChunkBudget = 1u << 8,
  kFlagTenants = 1u << 9,
};

// Strict integer parse for --jobs=N / DISTSERVE_JOBS: the whole token must be a base-10
// integer in [1, 1<<20]. (std::atoi would accept "4x" as 4 and turn "abc" into a misleading
// "--jobs must be >= 1" failure.)
inline bool ParseJobsValue(const char* v, int* out) {
  if (v == nullptr || *v == '\0') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || n < 1 || n > (1 << 20)) {
    return false;
  }
  *out = static_cast<int>(n);
  return true;
}

// Strict fraction parse for --prefix-hit=F / --tenants=F: the whole token must be a decimal
// number in [0, 1].
inline bool ParseUnitFraction(const char* v, double* out) {
  if (v == nullptr || *v == '\0') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double f = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || f < 0.0 || f > 1.0) {
    return false;
  }
  *out = f;
  return true;
}

// Strict integer parse for --chunk-budget=N: a base-10 integer in [1, 1<<20] (tokens per
// step; budgets beyond a megabatch are surely a typo).
inline bool ParseChunkBudgetValue(const char* v, int64_t* out) {
  int n = 0;
  if (!ParseJobsValue(v, &n)) {
    return false;
  }
  *out = n;
  return true;
}

// Parses argv against the accepted subset. DISTSERVE_JOBS seeds `jobs` before parsing, so
// an explicit --jobs=N wins over the environment. Returns false (after a specific error
// line plus a usage line built from the same table) on any unknown flag, a value-taking flag
// with a missing or empty `=VALUE`, a value handed to a valueless flag, or a value the flag's
// validator rejects (non-numeric/zero/negative --jobs).
inline bool ParseCommonFlags(int argc, char** argv, unsigned accepted, CommonFlags* flags) {
  struct FlagEntry {
    unsigned bit;
    const char* name;  // without the "=VALUE" suffix
    bool takes_value;
    const char* usage;
    const char* value_hint;  // appended to the error when apply() rejects the value
    bool (*apply)(CommonFlags*, const char*);
  };
  static const FlagEntry kTable[] = {
      {kFlagSmoke, "--smoke", false, "[--smoke]", nullptr,
       [](CommonFlags* f, const char*) {
         f->smoke = true;
         return true;
       }},
      {kFlagJson, "--json", true, "[--json=PATH]", nullptr,
       [](CommonFlags* f, const char* v) {
         f->json_path = v;
         return true;
       }},
      {kFlagGoodputCache, "--goodput-cache", true, "[--goodput-cache=PATH]", nullptr,
       [](CommonFlags* f, const char* v) {
         f->goodput_cache = v;
         return true;
       }},
      {kFlagTrace, "--trace", true, "[--trace=PATH]", nullptr,
       [](CommonFlags* f, const char* v) {
         f->trace_path = v;
         return true;
       }},
      {kFlagNoAnalyticTier, "--no-analytic-tier", false, "[--no-analytic-tier]", nullptr,
       [](CommonFlags* f, const char*) {
         f->analytic_tier = false;
         return true;
       }},
      {kFlagCluster, "--cluster", true, "[--cluster=SPEC]", nullptr,
       [](CommonFlags* f, const char* v) {
         f->cluster_spec = v;
         return true;
       }},
      {kFlagJobs, "--jobs", true, "[--jobs=N]", "expected an integer >= 1",
       [](CommonFlags* f, const char* v) { return ParseJobsValue(v, &f->jobs); }},
      {kFlagPrefixHit, "--prefix-hit", true, "[--prefix-hit=F]",
       "expected a fraction in [0, 1]",
       [](CommonFlags* f, const char* v) { return ParseUnitFraction(v, &f->prefix_hit); }},
      {kFlagChunkBudget, "--chunk-budget", true, "[--chunk-budget=N]",
       "expected an integer >= 1",
       [](CommonFlags* f, const char* v) { return ParseChunkBudgetValue(v, &f->chunk_budget); }},
      {kFlagTenants, "--tenants", true, "[--tenants=F]", "expected a fraction in [0, 1]",
       [](CommonFlags* f, const char* v) { return ParseUnitFraction(v, &f->tenants); }},
  };
  bool ok = true;
  if ((accepted & kFlagJobs) != 0) {
    if (const char* env = std::getenv("DISTSERVE_JOBS")) {
      if (!ParseJobsValue(env, &flags->jobs)) {
        std::fprintf(stderr, "DISTSERVE_JOBS=%s: expected an integer >= 1\n", env);
        ok = false;
      }
    }
  }
  for (int i = 1; i < argc && ok; ++i) {
    const char* arg = argv[i];
    const FlagEntry* match = nullptr;
    const char* value = nullptr;
    for (const FlagEntry& entry : kTable) {
      if ((accepted & entry.bit) == 0) {
        continue;
      }
      const size_t len = std::strlen(entry.name);
      if (std::strncmp(arg, entry.name, len) != 0) {
        continue;
      }
      if (arg[len] != '\0' && arg[len] != '=') {
        continue;  // different flag sharing a prefix (e.g. --jsonify)
      }
      match = &entry;
      value = arg[len] == '=' ? arg + len + 1 : nullptr;
      break;
    }
    if (match == nullptr) {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      ok = false;
    } else if (match->takes_value && (value == nullptr || *value == '\0')) {
      std::fprintf(stderr, "%s requires a value: %s=VALUE\n", match->name, match->name);
      ok = false;
    } else if (!match->takes_value && value != nullptr) {
      std::fprintf(stderr, "%s does not take a value\n", match->name);
      ok = false;
    } else if (!match->apply(flags, value)) {
      std::fprintf(stderr, "%s=%s: %s\n", match->name, value,
                   match->value_hint != nullptr ? match->value_hint : "invalid value");
      ok = false;
    }
  }
  if (ok && flags->jobs < 1) {
    std::fprintf(stderr, "--jobs must be >= 1\n");
    ok = false;
  }
  if (!ok) {
    std::string usage = "usage: ";
    usage += argv[0];
    for (const FlagEntry& entry : kTable) {
      if ((accepted & entry.bit) != 0) {
        usage += " ";
        usage += entry.usage;
      }
    }
    std::fprintf(stderr, "%s\n", usage.c_str());
  }
  return ok;
}

// Resolves --cluster for benches that plan homogeneous clusters: empty spec keeps the paper
// testbed (and prints nothing, so default stdout stays byte-identical); a one-pool spec
// substitutes that pool and prints the banner; multi-pool specs are rejected toward
// fig_hetero. Returns false on error.
inline bool ResolveSinglePoolCluster(const CommonFlags& flags, const char* bench_name,
                                     cluster::ClusterSpec* out) {
  if (flags.cluster_spec.empty()) {
    return true;
  }
  std::string error;
  const auto fleet = cluster::ParseClusterSpec(flags.cluster_spec, &error);
  if (!fleet) {
    std::fprintf(stderr, "--cluster=%s: %s\n", flags.cluster_spec.c_str(), error.c_str());
    return false;
  }
  if (fleet->pools.size() != 1) {
    std::fprintf(stderr,
                 "--cluster=%s: %s plans homogeneous clusters; use fig_hetero for "
                 "multi-pool fleets\n",
                 flags.cluster_spec.c_str(), bench_name);
    return false;
  }
  *out = fleet->PoolCluster(0);
  std::printf("# cluster: %s (%s)\n", cluster::FleetToString(*fleet).c_str(),
              out->gpu.name.c_str());
  return true;
}

// The worker pool implied by --jobs=N: N-1 threads plus the calling thread, null (serial
// everywhere, no pool construction) for N=1. Handed to sweeps and the planner alike.
inline std::unique_ptr<ThreadPool> MakeSweepPool(int jobs) {
  return jobs > 1 ? std::make_unique<ThreadPool>(jobs - 1) : nullptr;
}

// Wall-clock timer for the standard `wall_ms` bench field.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Minimal flat-JSON emitter for bench artifacts. Every bench artifact carries `bench` (the
// binary's name) and `wall_ms` (total wall-clock of the measured section) so the CI perf
// trajectory can compare runs across commits; extra fields are bench-specific. Values passed
// to AddRaw are embedded verbatim (numbers, booleans, or nested JSON).
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) { AddString("bench", std::move(bench_name)); }

  void AddString(const std::string& key, std::string value) {
    fields_.emplace_back(key, "\"" + std::move(value) + "\"");
  }
  // Human-scale rendering ("%.6g") for timings and rates read by people. NOT round-trip
  // exact: a value persisted for later bitwise reuse must go through AddDoubleExact.
  void AddDouble(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.emplace_back(key, buf);
  }
  // Exact mode ("%.17g", common/float_format.h): round-trips every binary64 bit pattern, for
  // fields downstream tooling compares or reuses exactly (persisted goodputs, rate hints).
  void AddDoubleExact(const std::string& key, double value) {
    fields_.emplace_back(key, FormatDoubleExact(value));
  }
  void AddInt(const std::string& key, int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void AddBool(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
  }
  void AddRaw(const std::string& key, std::string raw_json) {
    fields_.emplace_back(key, std::move(raw_json));
  }
  void AddWallMs(const WallTimer& timer) { AddDouble("wall_ms", timer.ms()); }

  std::string Render() const {
    std::string out = "{\n";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += "  \"" + fields_[i].first + "\": " + fields_[i].second;
      out += (i + 1 < fields_.size()) ? ",\n" : "\n";
    }
    out += "}\n";
    return out;
  }

  bool WriteTo(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    out << Render();
    return out.good();
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Owns one process run's persistent goodput cache: loads `path` on construction (stale
// calibrations rejected by coefficient hash), saves the merged cache on Save()/destruction.
// The standard plumbing behind the benches' `--goodput-cache=PATH` flag (env
// DISTSERVE_GOODPUT_CACHE fallback via GoodputCacheStore::ResolvePath); an empty path
// disables persistence and cache() returns nullptr, the pre-flag behavior.
class PersistentGoodputCache {
 public:
  PersistentGoodputCache(std::string path, const cluster::GpuSpec& gpu)
      : PersistentGoodputCache(std::move(path),
                               std::vector<model::LatencyCoefficients>{
                                   model::LatencyCoefficients::FromGpu(gpu)}) {}

  // Fleet variant: the calibration hash spans every pool's coefficients (a one-pool fleet
  // hashes identically to the single-GPU constructor, so the same cache file serves both).
  PersistentGoodputCache(std::string path, const cluster::HeteroClusterSpec& fleet)
      : PersistentGoodputCache(std::move(path), FleetCoefficients(fleet)) {}

  PersistentGoodputCache(std::string path, const std::vector<model::LatencyCoefficients>& coeffs)
      : path_(std::move(path)),
        hash_(placement::GoodputCacheStore::CalibrationHash(coeffs)) {
    if (!path_.empty()) {
      load_ = placement::GoodputCacheStore::Load(path_, hash_, &cache_);
    }
  }
  ~PersistentGoodputCache() { Save(); }
  PersistentGoodputCache(const PersistentGoodputCache&) = delete;
  PersistentGoodputCache& operator=(const PersistentGoodputCache&) = delete;

  bool enabled() const { return !path_.empty(); }
  placement::GoodputCache* cache() { return enabled() ? &cache_ : nullptr; }
  const placement::GoodputCacheStore::LoadResult& load_result() const { return load_; }

  bool Save() {
    return enabled() ? placement::GoodputCacheStore::Save(path_, hash_, cache_) : false;
  }

  // Cache-trajectory fields for the bench's JSON artifact (hits/misses land in CI's
  // perf-smoke hit-rate report). Never printed to stdout: warm and cold runs must stay
  // byte-identical there.
  void AddJsonFields(BenchJson& json) const {
    const placement::GoodputCache::Stats stats = cache_.stats();
    json.AddInt("goodput_cache_hits", stats.hits);
    json.AddInt("goodput_cache_misses", stats.misses);
    json.AddInt("goodput_cache_entries", stats.entries);
    json.AddInt("goodput_cache_hints", stats.hint_entries);
    json.AddInt("goodput_cache_loaded", load_.values_loaded);
  }

 private:
  static std::vector<model::LatencyCoefficients> FleetCoefficients(
      const cluster::HeteroClusterSpec& fleet) {
    std::vector<model::LatencyCoefficients> coeffs;
    coeffs.reserve(fleet.pools.size());
    for (const cluster::GpuPool& pool : fleet.pools) {
      coeffs.push_back(model::LatencyCoefficients::FromGpu(pool.gpu));
    }
    return coeffs;
  }

  std::string path_;
  uint64_t hash_;
  placement::GoodputCache cache_;
  placement::GoodputCacheStore::LoadResult load_;
};

// Accumulates planner search-cost accounting (PlannerResult's skip/probe breakdown) across a
// bench's planning runs for its JSON artifact. Like the goodput-cache stats, these are never
// printed to stdout — the determinism job diffs stdout across tier-on/tier-off runs.
struct PlannerAccounting {
  int64_t configs_evaluated = 0;
  int64_t simulations_run = 0;
  int64_t simulations_skipped = 0;
  int64_t cache_hits = 0;
  int64_t roofline_pruned = 0;
  int64_t analytic_rejected = 0;
  int64_t pair_unneeded = 0;
  int64_t pairs_considered = 0;
  int64_t pairs_pruned_roofline = 0;
  int64_t pairs_pruned_analytic = 0;
  int64_t probes = 0;
  int64_t trace_cache_hits = 0;

  void Add(const placement::PlannerResult& r) {
    configs_evaluated += r.configs_evaluated;
    simulations_run += r.simulations_run;
    simulations_skipped += r.simulations_skipped;
    cache_hits += r.cache_hits;
    roofline_pruned += r.roofline_pruned;
    analytic_rejected += r.analytic_rejected;
    pair_unneeded += r.pair_unneeded;
    pairs_considered += r.pairs_considered;
    pairs_pruned_roofline += r.pairs_pruned_roofline;
    pairs_pruned_analytic += r.pairs_pruned_analytic;
    probes += r.probes;
    trace_cache_hits += r.trace_cache_hits;
  }

  void AddJsonFields(BenchJson& json) const {
    json.AddInt("planner_configs_evaluated", configs_evaluated);
    json.AddInt("planner_simulations_run", simulations_run);
    json.AddInt("planner_simulations_skipped", simulations_skipped);
    json.AddInt("planner_cache_hits", cache_hits);
    json.AddInt("planner_roofline_pruned", roofline_pruned);
    json.AddInt("planner_analytic_rejected", analytic_rejected);
    json.AddInt("planner_pair_unneeded", pair_unneeded);
    json.AddInt("planner_pairs_considered", pairs_considered);
    json.AddInt("planner_pairs_pruned_roofline", pairs_pruned_roofline);
    json.AddInt("planner_pairs_pruned_analytic", pairs_pruned_analytic);
    json.AddInt("planner_probes", probes);
    json.AddInt("planner_trace_cache_hits", trace_cache_hits);
  }
};

// One Table-1 row.
struct Application {
  std::string name;
  model::ModelSpec model;
  metrics::SloSpec slo;
  std::string dataset_name;  // for MakeDatasetByName
  int vllm_tp;               // the paper's vLLM intra-op setting for this model
};

inline Application ChatbotOpt13B() {
  return {"chatbot-13b", model::ModelSpec::Opt13B(), {0.2, 0.1}, "sharegpt", 1};
}
inline Application ChatbotOpt66B() {
  return {"chatbot-66b", model::ModelSpec::Opt66B(), {0.4, 0.1}, "sharegpt", 4};
}
inline Application ChatbotOpt175B() {
  return {"chatbot-175b", model::ModelSpec::Opt175B(), {4.0, 0.2}, "sharegpt", 8};
}
inline Application CodeCompletionOpt66B() {
  return {"code-66b", model::ModelSpec::Opt66B(), {0.125, 0.2}, "humaneval", 4};
}
inline Application SummarizationOpt66B() {
  return {"summarization-66b", model::ModelSpec::Opt66B(), {15.0, 0.15}, "longbench", 4};
}

// A servable system under test: returns per-request records for a trace.
using RunFn = std::function<metrics::Collector(const workload::Trace&)>;

// Builds a fresh DistServe engine run bound to `plan` (systems are single-use). A non-null
// `recorder` collects per-request spans across every run of the returned RunFn (each run gets
// its own run index; see trace/recorder.h); results are bit-identical with or without it.
inline RunFn MakeDistServeRunner(const model::ModelSpec& model,
                                 const cluster::ClusterSpec& cluster,
                                 const placement::PlacementPlan& plan,
                                 trace::Recorder* recorder = nullptr) {
  return [model, cluster, plan, recorder](const workload::Trace& trace) {
    serving::ServingConfig config;
    config.model = model;
    config.cluster = cluster;
    config.plan = plan;
    config.recorder = recorder;
    serving::ServingSystem system(std::move(config));
    return system.Run(trace);
  };
}

inline RunFn MakeVllmRunner(const model::ModelSpec& model, const cluster::ClusterSpec& cluster,
                            int tp, int num_instances,
                            engine::ColocatedInstance::Options options = {},
                            trace::Recorder* recorder = nullptr) {
  return [model, cluster, tp, num_instances, options, recorder](const workload::Trace& trace) {
    baselines::VllmConfig config;
    config.model = model;
    config.cluster = cluster;
    config.par = {tp, 1};
    config.num_instances = num_instances;
    config.engine_options = options;
    config.recorder = recorder;
    baselines::VllmSystem system(std::move(config));
    return system.Run(trace);
  };
}

// Planner with bench-appropriate fidelity. Results are deterministic for a fixed seed.
inline placement::PlannerInputs MakePlannerInputs(const Application& app,
                                                  const cluster::ClusterSpec& cluster,
                                                  const workload::Dataset* dataset,
                                                  double traffic_rate) {
  placement::PlannerInputs inputs;
  inputs.model = app.model;
  inputs.cluster = cluster;
  inputs.dataset = dataset;
  inputs.slo = app.slo;
  inputs.traffic_rate = traffic_rate;
  inputs.search.num_requests = 300;
  inputs.search.min_trace_duration = 40.0;
  inputs.search.max_requests = 4000;
  inputs.search.bisection_iters = 7;
  return inputs;
}

struct SweepPoint {
  double x = 0.0;  // per-GPU rate, or SLO scale
  metrics::Attainment attainment;
};

// Attainment vs per-GPU rate (Figure 8/9 top rows). `total_gpus` converts the per-GPU axis to
// an offered rate. Points are independent simulations, fanned across `pool` work-queue style
// (placement/sweep.h) and collected in rate order — results and all downstream printing are
// byte-identical at any worker count; null pool is the serial reference.
inline std::vector<SweepPoint> RateSweep(const RunFn& run, const workload::Dataset& dataset,
                                         const metrics::SloSpec& slo, int total_gpus,
                                         const std::vector<double>& per_gpu_rates,
                                         int num_requests, uint64_t seed,
                                         ThreadPool* pool = nullptr) {
  std::vector<std::function<SweepPoint()>> tasks;
  tasks.reserve(per_gpu_rates.size());
  for (double per_gpu : per_gpu_rates) {
    tasks.push_back([&run, &dataset, &slo, total_gpus, num_requests, seed, per_gpu] {
      workload::TraceSpec spec;
      spec.rate = per_gpu * total_gpus;
      spec.num_requests = num_requests;
      spec.seed = seed;
      const metrics::Collector results = run(workload::GenerateTrace(spec, dataset));
      return SweepPoint{per_gpu, results.ComputeAttainment(slo)};
    });
  }
  return placement::RunSweepTasks<SweepPoint>(pool, std::move(tasks));
}

// Attainment vs SLO scale at a fixed rate (Figure 8/9 bottom rows). Scale < 1 tightens.
inline std::vector<SweepPoint> SloScaleSweep(const RunFn& run, const workload::Dataset& dataset,
                                             const metrics::SloSpec& base_slo, double rate,
                                             const std::vector<double>& scales,
                                             int num_requests, uint64_t seed) {
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = num_requests;
  spec.seed = seed;
  const workload::Trace trace = workload::GenerateTrace(spec, dataset);
  const metrics::Collector results = run(trace);
  std::vector<SweepPoint> points;
  for (double scale : scales) {
    points.push_back({scale, results.ComputeAttainment(base_slo.Scaled(scale))});
  }
  return points;
}

// Largest x whose attainment meets the target (0 when none); assumes points sorted by x with
// attainment non-increasing (rate sweeps). For SLO-scale sweeps use SmallestMeeting instead.
inline double LargestMeeting(const std::vector<SweepPoint>& points, double target) {
  double best = 0.0;
  for (const SweepPoint& p : points) {
    if (p.attainment.both >= target) {
      best = p.x;
    }
  }
  return best;
}

inline double SmallestMeeting(const std::vector<SweepPoint>& points, double target) {
  double best = 0.0;
  for (const SweepPoint& p : points) {
    if (p.attainment.both >= target && (best == 0.0 || p.x < best)) {
      best = p.x;
    }
  }
  return best;
}

inline void PrintSweepHeader(const char* x_name) {
  std::printf("%-10s %-14s %10s %10s %10s\n", x_name, "system", "both", "ttft-only",
              "tpot-only");
}

inline void PrintSweep(const char* system, const std::vector<SweepPoint>& points) {
  for (const SweepPoint& p : points) {
    std::printf("%-10.3f %-14s %9.1f%% %9.1f%% %9.1f%%\n", p.x, system,
                100.0 * p.attainment.both, 100.0 * p.attainment.ttft_only,
                100.0 * p.attainment.tpot_only);
  }
}

inline void PrintBanner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Full Figure-8/9 style comparison for one application: plan DistServe with Algorithm 2 on
// the paper testbed, size vLLM (paper tp, replicated) to the same GPU count, then sweep
// attainment vs per-GPU rate and vs SLO scale, and report the 90%-attainment goodput and
// tightest-SLO ratios. `goodput_cache` (optional) memoizes the planner's simulations; cached
// goodputs are exact, so a warm run's stdout is byte-identical to a cold one.
// `use_analytic_tier` toggles the tier-1 pre-filter (DESIGN.md §15) for the planning step —
// the chosen plan, and therefore stdout, is bit-identical either way (the CI determinism job
// diffs exactly this); only the planner's cost accounting moves, surfaced through the optional
// `planner_out`.
// `cluster` defaults to the paper testbed; a bench's --cluster flag may substitute any
// homogeneous cluster (e.g. one pool of a parsed fleet) — the default produces stdout
// byte-identical to the pre-flag behavior.
// `pool` (from --jobs=N) speculates planner candidates and fans the rate sweeps across
// workers; results and stdout are byte-identical at any worker count. Sweeps fall back to
// serial while a recorder is attached (spans from concurrent runs would interleave).
inline void RunEndToEndComparison(const Application& app, int num_requests, uint64_t seed,
                                  placement::GoodputCache* goodput_cache = nullptr,
                                  trace::Recorder* recorder = nullptr,
                                  bool use_analytic_tier = true,
                                  placement::PlannerResult* planner_out = nullptr,
                                  const cluster::ClusterSpec& cluster =
                                      cluster::ClusterSpec::PaperTestbed(),
                                  ThreadPool* pool = nullptr) {
  const auto dataset = workload::MakeDatasetByName(app.dataset_name);

  // DistServe: one Algorithm-2 segment pair.
  placement::PlannerInputs inputs = MakePlannerInputs(app, cluster, dataset.get(), 1.0);
  inputs.goodput_cache = goodput_cache;
  inputs.use_analytic_tier = use_analytic_tier;
  inputs.pool = pool;
  const placement::PlannerResult planned = placement::LowNodeAffinityPlacement(inputs);
  if (planner_out != nullptr) {
    *planner_out = planned;
  }
  placement::PlacementPlan plan = planned.plan;
  plan.num_prefill = 1;
  plan.num_decode = 1;
  const int ds_gpus = plan.total_gpus();

  // vLLM: the paper's tp for this model, replicated to (at least) the same GPU count.
  const int vllm_instances = std::max(1, ds_gpus / app.vllm_tp);
  const int vllm_gpus = vllm_instances * app.vllm_tp;

  PrintBanner("End-to-end: " + app.name + " (" + app.model.name + ", " +
              dataset->name() + ")");
  std::printf("# SLO: TTFT<=%.3gs TPOT<=%.3gs | DistServe plan: %s\n", app.slo.ttft,
              app.slo.tpot, plan.ToString().c_str());
  std::printf("# vLLM baseline: tp=%d x %d instances (%d GPUs vs DistServe %d GPUs)\n",
              app.vllm_tp, vllm_instances, vllm_gpus, ds_gpus);

  const RunFn ds_run = MakeDistServeRunner(app.model, cluster, plan, recorder);
  const RunFn vllm_run =
      MakeVllmRunner(app.model, cluster, app.vllm_tp, vllm_instances, {}, recorder);

  // Rate sweep around the planner's per-GPU goodput estimate.
  const double est_per_gpu =
      std::max(plan.per_gpu_goodput(), 0.05 / ds_gpus);
  std::vector<double> rates;
  for (double frac : {0.1, 0.25, 0.5, 0.7, 0.85, 1.0, 1.15, 1.3}) {
    rates.push_back(est_per_gpu * frac);
  }
  // Serial while tracing: a shared recorder must see runs one at a time, in order.
  ThreadPool* sweep_pool = recorder == nullptr ? pool : nullptr;
  std::printf("\n-- SLO attainment vs per-GPU rate (req/s/GPU) --\n");
  PrintSweepHeader("rate/gpu");
  const auto ds_rate =
      RateSweep(ds_run, *dataset, app.slo, ds_gpus, rates, num_requests, seed, sweep_pool);
  PrintSweep("DistServe", ds_rate);
  const auto vllm_rate =
      RateSweep(vllm_run, *dataset, app.slo, vllm_gpus, rates, num_requests, seed, sweep_pool);
  PrintSweep("vLLM", vllm_rate);
  const double ds_goodput = LargestMeeting(ds_rate, 0.9);
  const double vllm_goodput = LargestMeeting(vllm_rate, 0.9);
  if (vllm_goodput > 0.0) {
    std::printf("90%%-attainment per-GPU goodput: DistServe=%.3f vLLM=%.3f  (%.2fx)\n",
                ds_goodput, vllm_goodput, ds_goodput / vllm_goodput);
  } else {
    std::printf(
        "90%%-attainment per-GPU goodput: DistServe=%.3f vLLM=<%.3f (below sampled range) "
        " (>= %.2fx)\n",
        ds_goodput, rates.front(), ds_goodput / rates.front());
  }

  // SLO-scale sweep at a moderate shared rate.
  const double scale_rate_per_gpu = est_per_gpu * 0.6;
  std::printf("\n-- SLO attainment vs SLO scale (rate fixed at %.3f req/s/GPU) --\n",
              scale_rate_per_gpu);
  const std::vector<double> scales = {0.25, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0};
  PrintSweepHeader("slo-scale");
  const auto ds_scale = SloScaleSweep(ds_run, *dataset, app.slo, scale_rate_per_gpu * ds_gpus,
                                      scales, num_requests, seed);
  PrintSweep("DistServe", ds_scale);
  const auto vllm_scale = SloScaleSweep(vllm_run, *dataset, app.slo,
                                        scale_rate_per_gpu * vllm_gpus, scales, num_requests,
                                        seed);
  PrintSweep("vLLM", vllm_scale);
  const double ds_tightest = SmallestMeeting(ds_scale, 0.9);
  const double vllm_tightest = SmallestMeeting(vllm_scale, 0.9);
  std::printf("tightest SLO scale at 90%%: DistServe=%.2f vLLM=%.2f  (%.2fx more stringent)\n",
              ds_tightest, vllm_tightest,
              ds_tightest > 0 ? vllm_tightest / ds_tightest : 0.0);
}

}  // namespace distserve::bench

#endif  // DISTSERVE_BENCH_BENCH_COMMON_H_
