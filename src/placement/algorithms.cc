#include "placement/algorithms.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "model/latency_model.h"
#include "placement/analytic_tier.h"
#include "placement/search_context.h"

namespace distserve::placement {

// The search internals (SearchContext, rate simulators, prune bounds) live in
// placement/search_context.h so the heterogeneous pool-pair search shares them.
using detail::ConfigFeasible;
using detail::Improves;
using detail::kMeanLengthStream;
using detail::kPrefillMaxBatch;
using detail::kRooflineSlack;
using detail::MakeLm;
using detail::PhaseSim;
using detail::RateUpperBound;
using detail::ReplicaCount;
using detail::SearchContext;
using detail::SimulateDecodeRate;
using detail::SimulatePrefillRate;
using detail::SmallestFeasible;

double SimulatePrefillGoodput(const PlannerInputs& inputs, const model::ParallelismConfig& par) {
  DS_CHECK(inputs.dataset != nullptr);
  GoodputSearchOptions search = inputs.search;
  search.attainment_target = inputs.attainment_target;
  Rng rng(search.seed ^ kMeanLengthStream);
  const workload::LengthSample mean = inputs.dataset->MeanLengths(rng);
  // Same cap-and-hint treatment as the planner's internal SimulatePhase, so this helper and
  // a (cache-free) planner run agree bit-for-bit on a config's goodput.
  const double roofline = kRooflineSlack * RateUpperBound(inputs, par, true, mean);
  const double analytic =
      AnalyticMaxPrefillRate(MakeLm(inputs, par), inputs.slo.ttft, mean, kPrefillMaxBatch);
  const double cap = SanitizedAnalyticCap(analytic, inputs.analytic_optimism_margin, roofline);
  if (!(search.rate_hint > 0.0 && std::isfinite(search.rate_hint)) &&
      std::isfinite(analytic) && analytic > 0.0) {
    search.rate_hint = std::min(analytic, cap);
  }
  if (inputs.use_analytic_tier) {
    search.rate_cap = cap;  // cap-out short-circuit; result clamped to cap either way
  }
  const double rate = std::min(SimulatePrefillRate(inputs, par, search), cap);
  return inputs.prefill_goodput_derate * rate;
}

double SimulateDecodeGoodput(const PlannerInputs& inputs, const model::ParallelismConfig& par) {
  DS_CHECK(inputs.dataset != nullptr);
  GoodputSearchOptions search = inputs.search;
  search.attainment_target = inputs.attainment_target;
  Rng rng(search.seed ^ kMeanLengthStream);
  const workload::LengthSample mean = inputs.dataset->MeanLengths(rng);
  const double roofline = kRooflineSlack * RateUpperBound(inputs, par, false, mean);
  const model::LatencyModel lm = MakeLm(inputs, par);
  const double analytic =
      AnalyticMaxDecodeRate(lm, inputs.slo.tpot, mean,
                            lm.view().KvCapacityTokens(inputs.cluster.gpu),
                            inputs.decode_max_batch);
  const double cap = SanitizedAnalyticCap(analytic, inputs.analytic_optimism_margin, roofline);
  if (!(search.rate_hint > 0.0 && std::isfinite(search.rate_hint)) &&
      std::isfinite(analytic) && analytic > 0.0) {
    search.rate_hint = std::min(analytic, cap);
  }
  if (inputs.use_analytic_tier) {
    search.rate_cap = cap;  // cap-out short-circuit; result clamped to cap either way
  }
  const double rate = std::min(SimulateDecodeRate(inputs, par, search), cap);
  return inputs.decode_goodput_derate * rate;
}

PlannerResult HighNodeAffinityPlacement(const PlannerInputs& inputs) {
  PlannerResult result;
  const int num_nodes =
      inputs.max_nodes_per_instance > 0 ? inputs.max_nodes_per_instance : inputs.cluster.num_nodes;
  const int gpus_per_node = inputs.cluster.gpus_per_node;
  SearchContext ctx(inputs);

  // Enumerate feasible configs first (cheap), then hand the expensive simulations to the
  // speculative task set: tasks 2i / 2i+1 are config i's prefill / decode simulation.
  std::vector<model::ParallelismConfig> configs;
  for (int intra = 1; intra <= gpus_per_node; ++intra) {
    const int max_inter = (num_nodes * gpus_per_node) / intra;
    for (int inter = 1; inter <= max_inter; ++inter) {
      const model::ParallelismConfig par{intra, inter};
      if (ConfigFeasible(inputs, par)) {
        configs.push_back(par);
      }
    }
  }
  std::vector<std::function<PhaseSim()>> tasks;
  tasks.reserve(2 * configs.size());
  for (const model::ParallelismConfig& par : configs) {
    tasks.push_back([&ctx, par] { return ctx.SimulatePhase(par, /*is_prefill=*/true); });
    tasks.push_back([&ctx, par] { return ctx.SimulatePhase(par, /*is_prefill=*/false); });
  }
  result.configs_evaluated = static_cast<int>(tasks.size());
  SpeculativeTaskSet<PhaseSim> sims(ctx.pool(), std::move(tasks));

  // Winner fold: runs on this thread in enumeration order, so prune decisions (which consult
  // the live incumbent) and the selected plan are bit-identical for any thread count.
  CandidateResult best_prefill;
  CandidateResult best_decode;
  int best_prefill_gpus = 0;
  int best_decode_gpus = 0;
  for (size_t i = 0; i < configs.size(); ++i) {
    const model::ParallelismConfig par = configs[i];
    const int gpus = par.num_gpus();
    const auto consider = [&](bool is_prefill, size_t task, CandidateResult& best,
                              int& best_gpus, std::vector<CandidateResult>& kept) {
      if (inputs.prune_search_space) {
        // Two-tier prune with attribution. Skipping is sound against either bound —
        // SimulatePhase clamps every result to tier_goodput <= roofline_goodput — and
        // Improves is monotone in the candidate's goodput, so a config whose *over*-estimate
        // cannot beat the live incumbent cannot beat it when simulated either.
        const SearchContext::PhaseBounds bounds = ctx.GoodputUpperBounds(par, is_prefill);
        const CandidateResult at_roofline{par, bounds.roofline_goodput,
                                          bounds.roofline_goodput / gpus, 0, 0};
        if (!Improves(at_roofline, gpus, best, best_gpus)) {
          sims.Cancel(task);
          ++result.simulations_skipped;
          ++result.roofline_pruned;
          return;
        }
        if (inputs.use_analytic_tier) {
          const CandidateResult at_tier{par, bounds.tier_goodput, bounds.tier_goodput / gpus,
                                        0, 0};
          if (!Improves(at_tier, gpus, best, best_gpus)) {
            sims.Cancel(task);
            ++result.simulations_skipped;
            ++result.analytic_rejected;
            return;
          }
        }
      }
      const PhaseSim sim = sims.Force(task);
      ++result.simulations_run;
      result.probes += sim.stats.probes;
      result.trace_cache_hits += ctx.CountTraceHits(sim);
      if (sim.cache_hit) {
        ++result.cache_hits;
      }
      const CandidateResult candidate{par, sim.goodput, sim.goodput / gpus, 0, 0};
      kept.push_back(candidate);
      if (Improves(candidate, gpus, best, best_gpus)) {
        best = candidate;
        best_gpus = gpus;
      }
    };
    consider(/*is_prefill=*/true, 2 * i, best_prefill, best_prefill_gpus,
             result.prefill_candidates);
    consider(/*is_prefill=*/false, 2 * i + 1, best_decode, best_decode_gpus,
             result.decode_candidates);
  }

  const int fallback_nodes = num_nodes;
  if (best_prefill.per_gpu <= 0.0) {
    best_prefill.par = SmallestFeasible(inputs, fallback_nodes);
  }
  if (best_decode.per_gpu <= 0.0) {
    best_decode.par = SmallestFeasible(inputs, fallback_nodes);
  }
  PlacementPlan plan;
  plan.prefill_par = best_prefill.par;
  plan.decode_par = best_decode.par;
  plan.prefill_goodput = best_prefill.goodput;
  plan.decode_goodput = best_decode.goodput;
  plan.num_prefill = ReplicaCount(inputs.traffic_rate, best_prefill.goodput);
  plan.num_decode = ReplicaCount(inputs.traffic_rate, best_decode.goodput);
  plan.intra_node_transfers = false;
  result.plan = plan;
  return result;
}

PlannerResult LowNodeAffinityPlacement(const PlannerInputs& inputs) {
  PlannerResult result;
  const int num_nodes =
      inputs.max_nodes_per_instance > 0 ? inputs.max_nodes_per_instance : inputs.cluster.num_nodes;
  const int gpus_per_node = inputs.cluster.gpus_per_node;
  SearchContext ctx(inputs);

  // Phase goodputs depend only on (tp, inter), not on the pairing, so all feasible phase
  // configs become one flat task set and the pair fold forces exactly the ones it needs.
  struct PhaseConfig {
    bool feasible = false;
    int task = -1;
    SearchContext::PhaseBounds bounds;
  };
  const int max_inter = std::min(num_nodes, inputs.model.num_layers);
  const size_t tp_slots = static_cast<size_t>(gpus_per_node);
  std::vector<PhaseConfig> table(static_cast<size_t>(std::max(0, max_inter)) * 2 * tp_slots);
  const auto slot = [&](int inter, bool is_prefill, int tp) -> PhaseConfig& {
    const size_t row = (static_cast<size_t>(inter - 1) * 2 + (is_prefill ? 0 : 1)) * tp_slots;
    return table[row + static_cast<size_t>(tp - 1)];
  };

  std::vector<std::function<PhaseSim()>> tasks;
  for (int inter = 1; inter <= max_inter; ++inter) {
    for (int phase = 0; phase < 2; ++phase) {
      const bool is_prefill = phase == 0;
      for (int tp = 1; tp < gpus_per_node; ++tp) {
        const model::ParallelismConfig par{tp, inter};
        if (!ConfigFeasible(inputs, par)) {
          continue;
        }
        PhaseConfig& pc = slot(inter, is_prefill, tp);
        pc.feasible = true;
        pc.bounds = ctx.GoodputUpperBounds(par, is_prefill);
        pc.task = static_cast<int>(tasks.size());
        tasks.push_back([&ctx, par, is_prefill] { return ctx.SimulatePhase(par, is_prefill); });
      }
    }
  }
  result.configs_evaluated = static_cast<int>(tasks.size());
  SpeculativeTaskSet<PhaseSim> sims(ctx.pool(), std::move(tasks));
  std::vector<char> forced(sims.size(), 0);
  const auto force = [&](const PhaseConfig& pc) -> double {
    const PhaseSim& sim = sims.Force(static_cast<size_t>(pc.task));
    if (!forced[static_cast<size_t>(pc.task)]) {
      forced[static_cast<size_t>(pc.task)] = 1;
      ++result.simulations_run;
      result.probes += sim.stats.probes;
      result.trace_cache_hits += ctx.CountTraceHits(sim);
      if (sim.cache_hit) {
        ++result.cache_hits;
      }
    }
    return sim.goodput;
  };

  CandidateResult best_pair;
  // Tracked explicitly: deriving it from best_pair (pp * (tp_p + tp_d)) reads 0 off the
  // default-constructed incumbent and mis-biases the smaller-instance tie-break.
  int best_pair_gpus = 0;
  for (int inter = 1; inter <= max_inter; ++inter) {
    // An "instance segment" pair occupies tp_p + tp_d GPUs on each of `inter` nodes. Nodes may
    // host multiple independent pairs when tp_p + tp_d divides into M, so optimizing per-GPU
    // goodput of one pair is sufficient.
    for (int tp_p = 1; tp_p < gpus_per_node; ++tp_p) {
      for (int tp_d = 1; tp_p + tp_d <= gpus_per_node; ++tp_d) {
        const PhaseConfig& pf = slot(inter, /*is_prefill=*/true, tp_p);
        const PhaseConfig& df = slot(inter, /*is_prefill=*/false, tp_d);
        if (!pf.feasible || !df.feasible) {
          continue;
        }
        const int pair_gpus = inter * (tp_p + tp_d);
        ++result.pairs_considered;
        if (inputs.prune_search_space) {
          // Pair bound = min of the phase bounds (the pair serves at the weaker phase's
          // rate), tier by tier for attribution; skipping a pair is sound for the same
          // reason as in Algorithm 1, and the phase sims may still be forced by another
          // pair.
          const double pair_roofline = std::min(pf.bounds.roofline_goodput,
                                                df.bounds.roofline_goodput);
          const CandidateResult at_roofline{model::ParallelismConfig{0, inter}, pair_roofline,
                                            pair_roofline / pair_gpus, tp_p, tp_d};
          if (!Improves(at_roofline, pair_gpus, best_pair, best_pair_gpus)) {
            ++result.pairs_pruned_roofline;
            continue;
          }
          if (inputs.use_analytic_tier) {
            const double pair_tier = std::min(pf.bounds.tier_goodput, df.bounds.tier_goodput);
            const CandidateResult at_tier{model::ParallelismConfig{0, inter}, pair_tier,
                                          pair_tier / pair_gpus, tp_p, tp_d};
            if (!Improves(at_tier, pair_gpus, best_pair, best_pair_gpus)) {
              ++result.pairs_pruned_analytic;
              continue;
            }
          }
        }
        const double pg = force(pf);
        const double dg = force(df);
        if (pg <= 0.0 || dg <= 0.0) {
          continue;
        }
        const double pair = std::min(pg, dg);
        const double per_gpu = pair / static_cast<double>(pair_gpus);
        const CandidateResult candidate{model::ParallelismConfig{0, inter}, pair, per_gpu,
                                        tp_p, tp_d};
        result.pair_candidates.push_back(candidate);
        if (Improves(candidate, pair_gpus, best_pair, best_pair_gpus)) {
          best_pair = candidate;
          best_pair_gpus = pair_gpus;
        }
      }
    }
  }
  // Feasible phase configs that no surviving pair needed were never simulated. (Pair-level
  // attribution of *why* pairs were pruned is in pairs_pruned_*; a phase config can back
  // many pairs, so per-config reasons are not well defined here.)
  for (size_t t = 0; t < forced.size(); ++t) {
    if (!forced[t]) {
      sims.Cancel(t);
      ++result.simulations_skipped;
      ++result.pair_unneeded;
    }
  }

  PlacementPlan plan;
  if (best_pair.per_gpu > 0.0) {
    const int replicas = ReplicaCount(inputs.traffic_rate, best_pair.goodput);
    plan.prefill_par = model::ParallelismConfig{best_pair.pair_prefill_tp, best_pair.par.pp};
    plan.decode_par = model::ParallelismConfig{best_pair.pair_decode_tp, best_pair.par.pp};
    plan.num_prefill = replicas;
    plan.num_decode = replicas;
    plan.prefill_goodput = best_pair.goodput;
    plan.decode_goodput = best_pair.goodput;
  } else {
    // Nothing met the target; fall back to the smallest feasible pair so the plan remains
    // constructible (callers can still observe goodput 0).
    const model::ParallelismConfig fallback = SmallestFeasible(inputs, num_nodes);
    plan.prefill_par = fallback;
    plan.decode_par = fallback;
  }
  plan.intra_node_transfers = true;
  result.plan = plan;
  return result;
}

}  // namespace distserve::placement
