// Shared internals of the goodput searches (extracted from algorithms.cc so the
// heterogeneous pool-pair search in placement/hetero.h can reuse them verbatim).
//
// Everything here is a pure function of a single PlannerInputs — in particular of its
// `cluster` field, so pointing `inputs.cluster` at one pool of a heterogeneous fleet
// (HeteroClusterSpec::PoolCluster) prices that pool with its own Appendix-A coefficients
// through the exact same code path the homogeneous planners use. The detail namespace marks
// this as an internal seam: semantics (clamping, key construction, prune bounds) are
// documented here but pinned by the planner-level tests, and hetero.cc must not diverge from
// algorithms.cc in how it calls these, or tier-on/off and cache-warm/cold bit-identity breaks.
#ifndef DISTSERVE_PLACEMENT_SEARCH_CONTEXT_H_
#define DISTSERVE_PLACEMENT_SEARCH_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "model/latency_model.h"
#include "placement/algorithms.h"
#include "workload/dataset.h"
#include "workload/trace_cache.h"

namespace distserve::placement::detail {

model::LatencyModel MakeLm(const PlannerInputs& inputs, const model::ParallelismConfig& par);

bool ConfigFeasible(const PlannerInputs& inputs, const model::ParallelismConfig& par);

int ReplicaCount(double traffic_rate, double goodput);

// Prefers `candidate` over `incumbent` on per-GPU goodput, breaking near-ties (within 10%)
// toward the smaller instance: replication scales capacity just as well, smaller instances
// quantize better against the actual traffic rate, and they bound the fault blast radius
// (§4.3 discusses decode-instance faults crippling many prefill instances).
//
// Monotone in candidate.per_gpu / candidate.goodput for fixed GPU counts — the property the
// upper-bound prune relies on: if a candidate built from an *over*-estimate of the goodput
// does not improve on the incumbent, the actually-simulated candidate cannot either.
bool Improves(const CandidateResult& candidate, int candidate_gpus,
              const CandidateResult& incumbent, int incumbent_gpus);

// Smallest feasible configuration (fewest GPUs, then lowest tp) for fallback plans when no
// candidate meets the attainment target: the plan still has to be constructible.
model::ParallelismConfig SmallestFeasible(const PlannerInputs& inputs, int max_nodes);

// The simulator's prefill batch cap (SimulatePrefillFinishTimes callers); the analytic tier
// and the roofline bound scan batch sizes up to the same cap so their idealised batching
// never assumes a batch the simulator could not form.
inline constexpr int kPrefillMaxBatch = 64;

// Slack multiplier on the analytic saturation-throughput roofline. The roofline already
// assumes a best case (perfect batching, zero queueing, no SLO constraint, Jensen-favourable
// mean-length batches); the slack additionally absorbs trace sampling variation around the
// Monte-Carlo mean lengths.
inline constexpr double kRooflineSlack = 1.5;

// Stream-fork constant for the mean-length estimation RNG (SplitMix64 golden gamma), so the
// estimate never perturbs trace generation streams.
inline constexpr uint64_t kMeanLengthStream = 0x9e3779b97f4a7c15ull;

// Raw (un-derated) max rate for one phase config. Pure: depends only on (inputs, par, search),
// so instances may run concurrently on pool workers.
double SimulatePrefillRate(const PlannerInputs& inputs, const model::ParallelismConfig& par,
                           const GoodputSearchOptions& search,
                           GoodputSearchStats* stats = nullptr);

double SimulateDecodeRate(const PlannerInputs& inputs, const model::ParallelismConfig& par,
                          const GoodputSearchOptions& search,
                          GoodputSearchStats* stats = nullptr);

// Result of one speculative phase-simulation task.
struct PhaseSim {
  double goodput = 0.0;  // derated
  bool cache_hit = false;
  GoodputSearchStats stats;  // zero for cache hits: no probes were paid
};

void AppendDouble(std::string& out, double v);
void AppendInt(std::string& out, int64_t v);

// Analytic roofline on a phase config's sustainable request rate (un-derated, un-slacked):
// saturation throughput at mean request lengths, ignoring SLOs and queueing.
//
// This plays two roles. Simulated rates are clamped to kRooflineSlack times this value —
// FindMaxRate's finite trial can report "effectively unbounded" rates for large decode
// configs (the whole capped trace drains fast enough that per-token queueing amortizes under
// the TPOT SLO), but no real deployment sustains arrivals beyond the roofline, so the clamp
// removes a pure small-trial artifact. And because results are clamped to slack * roofline,
// the prune bound derate * slack * roofline is a true upper bound on any simulated goodput
// BY CONSTRUCTION, which is what makes the pruned fold bit-identical to the full one.
double RateUpperBound(const PlannerInputs& inputs, const model::ParallelismConfig& par,
                      bool is_prefill, const workload::LengthSample& mean);

// Shared machinery for one planner invocation: the (possibly owned) thread pool, the
// (possibly owned) probe-trace cache, the goodput-cache key prefixes, and the analytic
// upper-bound roofline used for pruning.
class SearchContext {
 public:
  explicit SearchContext(const PlannerInputs& inputs);

  ThreadPool* pool() const { return pool_; }

  // The per-config rate caps shared by the prune bound, the result clamp, and the probe
  // hint. Pure function of (inputs, par, phase): recomputing it on a pool worker and on the
  // fold thread yields the same values, which is what keeps skip decisions sound against
  // the clamp actually applied.
  struct PhaseCaps {
    double roofline_rate = 0.0;  // kRooflineSlack * RateUpperBound (PR-1 prune bound)
    double analytic_rate = 0.0;  // raw tier-1 estimate; 0 = no feasible operating point
    double capped_rate = 0.0;    // SanitizedAnalyticCap(analytic, margin, roofline)
  };

  PhaseCaps Caps(const model::ParallelismConfig& par, bool is_prefill) const;

  // Simulates (or recalls) one phase config's derated goodput. Thread-safe and deterministic:
  // every task in a planner run has a distinct cache key, so hit/miss outcomes depend only on
  // the cache's state at entry, not on evaluation order. Note this function never reads
  // use_analytic_tier — the tier-1 cap clamps results and seeds hints in both modes, which is
  // precisely why skipping against that cap (the only thing the knob controls) cannot change
  // the plan.
  PhaseSim SimulatePhase(const model::ParallelismConfig& par, bool is_prefill) const;

  // Counts a kept simulation's probes against the trace cache (TraceCache::Count) and
  // returns its trace-cache hits; 0 without a cache. The fold calls it in enumeration order
  // for the simulations it keeps, so the count is the same at any thread count.
  int CountTraceHits(const PhaseSim& sim) const;

  // Upper bounds on the phase's derated goodput, one per tier. tier_goodput is the same cap
  // SimulatePhase clamps results to, so no simulated candidate can exceed it;
  // roofline_goodput (>= tier_goodput) is the PR-1 bound alone, kept separate so skips can
  // be attributed to the tier that produced them. Used to prune configs that provably cannot
  // beat the incumbent (see Improves).
  struct PhaseBounds {
    double roofline_goodput = 0.0;
    double tier_goodput = 0.0;
  };

  PhaseBounds GoodputUpperBounds(const model::ParallelismConfig& par, bool is_prefill) const;

 private:
  static std::string ConfigSuffix(const model::ParallelismConfig& par, bool is_prefill);

  void BuildKeyPrefixes();

  const PlannerInputs& inputs_;
  GoodputSearchOptions search_;
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;
  std::unique_ptr<workload::TraceCache> owned_trace_cache_;
  workload::LengthSample mean_;
  std::string value_prefix_;
  std::string hint_prefix_;
};

}  // namespace distserve::placement::detail

#endif  // DISTSERVE_PLACEMENT_SEARCH_CONTEXT_H_
