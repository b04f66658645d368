#include "placement/hetero.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "placement/search_context.h"

namespace distserve::placement {
namespace {

using detail::ConfigFeasible;
using detail::Improves;
using detail::PhaseSim;
using detail::ReplicaCount;
using detail::SearchContext;
using detail::SmallestFeasible;

constexpr int64_t kInfGpus = std::numeric_limits<int64_t>::max() / 4;

// GPUs a phase needs to serve `rate` with instances of this config: replicas x instance
// GPUs, or "infinite" when the config cannot serve at all. Applied to a goodput *bound* it
// is a valid lower bound on the GPUs any clamped simulation result can need, which is what
// the MinGpus/MinCost prunes rely on.
int64_t NeededGpus(double rate, double goodput, int gpus) {
  if (goodput <= 0.0) {
    return kInfGpus;
  }
  return static_cast<int64_t>(ReplicaCount(rate, goodput)) * gpus;
}

// Winner of one (pool, phase) fold, replicated to the traffic rate.
struct PhasePick {
  bool valid = false;
  model::ParallelismConfig par{1, 1};
  double goodput = 0.0;
  int replicas = 1;
  int64_t total_gpus = 0;
};

// Winner of one pool's colocated (Algorithm-2 instance-segment) pair fold.
struct PairPick {
  bool valid = false;
  int inter = 1;
  int tp_p = 1;
  int tp_d = 1;
  double goodput = 0.0;  // of one pair
  int replicas = 1;
  int64_t total_gpus = 0;
};

class HeteroSearch {
 public:
  HeteroSearch(const PlannerInputs& base, const cluster::HeteroClusterSpec& fleet,
               HeteroPlannerResult* out)
      : base_(base), fleet_(fleet), out_(out) {
    DS_CHECK(!fleet.pools.empty());
    const size_t n = fleet.pools.size();
    pool_inputs_.reserve(n);
    ctx_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto inputs = std::make_unique<PlannerInputs>(base);
      inputs->cluster = fleet.PoolCluster(i);
      // The pair fold runs serially on the calling thread — the expensive phase simulations
      // are shared across pairs through the memo below, and each per-pool simulation is
      // itself the unit of work — so per-pool contexts get no thread pool of their own.
      inputs->num_threads = 1;
      inputs->pool = nullptr;
      pool_inputs_.push_back(std::move(inputs));
    }
    for (size_t i = 0; i < n; ++i) {
      ctx_.push_back(std::make_unique<SearchContext>(*pool_inputs_[i]));
    }
    phase_picks_.resize(2 * n);
    colocated_picks_.resize(n);
    phase_lbs_.assign(2 * n, -1);
    colocated_lbs_.assign(n, -1);
  }

  void Run() {
    const int n = static_cast<int>(fleet_.pools.size());
    bool have = false;
    PoolAssignment chosen;
    for (int p = 0; p < n; ++p) {
      for (int d = 0; d < n; ++d) {
        ++out_->pairs_considered;
        // Pair-level cost prune, MinGpus/MinCost only: the roofline (tier-independent)
        // lower bound on this pair's metric cannot beat a feasible incumbent. Strict
        // comparison keeps it sound against ties, and roofline-only bounds keep the
        // evaluated-candidate list identical tier-on/off.
        if (base_.objective != PlannerObjective::kMaxGoodput && have && chosen.feasible &&
            base_.prune_search_space) {
          if (base_.objective == PlannerObjective::kMinGpus) {
            if (PairGpusLb(p, d) > chosen.total_gpus()) {
              ++out_->pairs_cost_pruned;
              continue;
            }
          } else if (PairCostLb(p, d) > chosen.cost_per_hour) {
            ++out_->pairs_cost_pruned;
            continue;
          }
        }
        const PoolAssignment a = p == d ? MakeColocated(p) : MakeCross(p, d);
        out_->candidates.push_back(a);
        if (!have || Better(a, chosen)) {
          chosen = a;
          have = true;
        }
      }
    }
    out_->chosen = chosen;
    out_->simulations_skipped = out_->configs_evaluated - out_->simulations_run;
  }

 private:
  static int64_t Key(int pool, bool is_prefill, const model::ParallelismConfig& par) {
    return (((static_cast<int64_t>(pool) * 2 + (is_prefill ? 0 : 1)) << 16 | par.tp) << 16) |
           par.pp;
  }

  double Price(int pool) const { return fleet_.pools[static_cast<size_t>(pool)].gpu.hourly_cost_usd; }

  int64_t Capacity(int pool) const {
    return fleet_.pools[static_cast<size_t>(pool)].total_gpus();
  }

  int InstanceNodes(int pool) const {
    const int pool_nodes = fleet_.pools[static_cast<size_t>(pool)].num_nodes;
    return base_.max_nodes_per_instance > 0 ? std::min(base_.max_nodes_per_instance, pool_nodes)
                                            : pool_nodes;
  }

  const PhaseSim& Simulate(int pool, bool is_prefill, const model::ParallelismConfig& par) {
    const int64_t key = Key(pool, is_prefill, par);
    const auto it = sims_.find(key);
    if (it != sims_.end()) {
      return it->second;
    }
    const PhaseSim sim = ctx_[static_cast<size_t>(pool)]->SimulatePhase(par, is_prefill);
    ++out_->simulations_run;
    out_->probes += sim.stats.probes;
    out_->trace_cache_hits += ctx_[static_cast<size_t>(pool)]->CountTraceHits(sim);
    if (sim.cache_hit) {
      ++out_->cache_hits;
    }
    return sims_.emplace(key, sim).first->second;
  }

  const SearchContext::PhaseBounds& Bounds(int pool, bool is_prefill,
                                           const model::ParallelismConfig& par) {
    const int64_t key = Key(pool, is_prefill, par);
    const auto it = bounds_.find(key);
    if (it != bounds_.end()) {
      return it->second;
    }
    return bounds_.emplace(key, ctx_[static_cast<size_t>(pool)]->GoodputUpperBounds(par, is_prefill))
        .first->second;
  }

  void NoteEnumerated(int pool, bool is_prefill, const model::ParallelismConfig& par) {
    if (enumerated_.insert(Key(pool, is_prefill, par)).second) {
      ++out_->configs_evaluated;
    }
  }

  // Algorithm-1-style phase config set for cross-pool instances in `pool`.
  std::vector<model::ParallelismConfig> PhaseConfigs(int pool) const {
    const PlannerInputs& in = *pool_inputs_[static_cast<size_t>(pool)];
    const int gpus_per_node = in.cluster.gpus_per_node;
    const int nodes = InstanceNodes(pool);
    std::vector<model::ParallelismConfig> configs;
    for (int intra = 1; intra <= gpus_per_node; ++intra) {
      const int max_inter = (nodes * gpus_per_node) / intra;
      for (int inter = 1; inter <= max_inter; ++inter) {
        const model::ParallelismConfig par{intra, inter};
        if (ConfigFeasible(in, par)) {
          configs.push_back(par);
        }
      }
    }
    return configs;
  }

  // Winner of the (pool, phase) fold under the active objective. MinCost shares the MinGpus
  // fold: within one pool, cost is GPUs x a constant price, so the orderings coincide.
  const PhasePick& PhasePickFor(int pool, bool is_prefill) {
    auto& slot = phase_picks_[static_cast<size_t>(pool) * 2 + (is_prefill ? 0 : 1)];
    if (!slot.has_value()) {
      slot = base_.objective == PlannerObjective::kMaxGoodput
                 ? MaxGoodputPhaseFold(pool, is_prefill)
                 : MinGpusPhaseFold(pool, is_prefill);
    }
    return *slot;
  }

  PhasePick MaxGoodputPhaseFold(int pool, bool is_prefill) {
    CandidateResult best;
    int best_gpus = 0;
    for (const model::ParallelismConfig& par : PhaseConfigs(pool)) {
      NoteEnumerated(pool, is_prefill, par);
      const int gpus = par.num_gpus();
      if (base_.prune_search_space) {
        // Same two-tier prune as HighNodeAffinityPlacement: skipping is sound because
        // SimulatePhase clamps results to these bounds and Improves is monotone.
        const SearchContext::PhaseBounds& bounds = Bounds(pool, is_prefill, par);
        const CandidateResult at_roofline{par, bounds.roofline_goodput,
                                          bounds.roofline_goodput / gpus, 0, 0};
        if (!Improves(at_roofline, gpus, best, best_gpus)) {
          ++out_->configs_pruned_roofline;
          continue;
        }
        if (base_.use_analytic_tier) {
          const CandidateResult at_tier{par, bounds.tier_goodput, bounds.tier_goodput / gpus,
                                        0, 0};
          if (!Improves(at_tier, gpus, best, best_gpus)) {
            ++out_->configs_pruned_tier;
            continue;
          }
        }
      }
      const PhaseSim& sim = Simulate(pool, is_prefill, par);
      const CandidateResult candidate{par, sim.goodput, sim.goodput / gpus, 0, 0};
      if (Improves(candidate, gpus, best, best_gpus)) {
        best = candidate;
        best_gpus = gpus;
      }
    }
    PhasePick pick;
    if (best.per_gpu > 0.0) {
      pick.valid = true;
      pick.par = best.par;
      pick.goodput = best.goodput;
      pick.replicas = ReplicaCount(base_.traffic_rate, best.goodput);
      pick.total_gpus = static_cast<int64_t>(pick.replicas) * best.par.num_gpus();
    }
    return pick;
  }

  PhasePick MinGpusPhaseFold(int pool, bool is_prefill) {
    const int64_t capacity = Capacity(pool);
    PhasePick best;
    int64_t best_total = kInfGpus;
    for (const model::ParallelismConfig& par : PhaseConfigs(pool)) {
      NoteEnumerated(pool, is_prefill, par);
      const int gpus = par.num_gpus();
      if (base_.prune_search_space) {
        // Lower bounds on the GPUs this config can need. A config whose bound exceeds the
        // pool or the incumbent (strictly — ties are settled on the simulated goodput below,
        // so they must be evaluated) cannot win: its clamped simulation result needs at
        // least as many GPUs as the bound says.
        const SearchContext::PhaseBounds& bounds = Bounds(pool, is_prefill, par);
        const int64_t lb_roof = NeededGpus(base_.traffic_rate, bounds.roofline_goodput, gpus);
        if (lb_roof > capacity || lb_roof > best_total) {
          ++out_->configs_pruned_roofline;
          continue;
        }
        if (base_.use_analytic_tier) {
          const int64_t lb_tier = NeededGpus(base_.traffic_rate, bounds.tier_goodput, gpus);
          if (lb_tier > capacity || lb_tier > best_total) {
            ++out_->configs_pruned_tier;
            continue;
          }
        }
      }
      const PhaseSim& sim = Simulate(pool, is_prefill, par);
      if (sim.goodput <= 0.0) {
        continue;
      }
      const int64_t total = NeededGpus(base_.traffic_rate, sim.goodput, gpus);
      if (total > capacity) {
        continue;
      }
      if (total < best_total || (total == best_total && sim.goodput > best.goodput)) {
        best.valid = true;
        best.par = par;
        best.goodput = sim.goodput;
        best.replicas = ReplicaCount(base_.traffic_rate, sim.goodput);
        best.total_gpus = total;
        best_total = total;
      }
    }
    return best;
  }

  const PairPick& ColocatedPickFor(int pool) {
    auto& slot = colocated_picks_[static_cast<size_t>(pool)];
    if (!slot.has_value()) {
      slot = ColocatedFold(pool);
    }
    return *slot;
  }

  // Algorithm-2 instance-segment enumeration inside one pool, folded under the active
  // objective. For MaxGoodput this mirrors LowNodeAffinityPlacement's fold exactly (same
  // enumeration order, same Improves semantics, same prune bounds), which is what makes a
  // single-pool fleet reduce to the homogeneous planner.
  PairPick ColocatedFold(int pool) {
    const PlannerInputs& in = *pool_inputs_[static_cast<size_t>(pool)];
    const int gpus_per_node = in.cluster.gpus_per_node;
    const int max_inter = std::min(InstanceNodes(pool), in.model.num_layers);
    const int64_t capacity = Capacity(pool);
    const bool max_goodput = base_.objective == PlannerObjective::kMaxGoodput;

    CandidateResult best_pair;
    int best_pair_gpus = 0;
    PairPick best;
    int64_t best_total = kInfGpus;
    for (int inter = 1; inter <= max_inter; ++inter) {
      for (int tp_p = 1; tp_p < gpus_per_node; ++tp_p) {
        const model::ParallelismConfig par_p{tp_p, inter};
        if (!ConfigFeasible(in, par_p)) {
          continue;
        }
        NoteEnumerated(pool, /*is_prefill=*/true, par_p);
        for (int tp_d = 1; tp_p + tp_d <= gpus_per_node; ++tp_d) {
          const model::ParallelismConfig par_d{tp_d, inter};
          if (!ConfigFeasible(in, par_d)) {
            continue;
          }
          NoteEnumerated(pool, /*is_prefill=*/false, par_d);
          const int pair_gpus = inter * (tp_p + tp_d);
          if (base_.prune_search_space) {
            const SearchContext::PhaseBounds& pb = Bounds(pool, true, par_p);
            const SearchContext::PhaseBounds& db = Bounds(pool, false, par_d);
            const double pair_roofline = std::min(pb.roofline_goodput, db.roofline_goodput);
            const double pair_tier = std::min(pb.tier_goodput, db.tier_goodput);
            if (max_goodput) {
              const CandidateResult at_roofline{model::ParallelismConfig{0, inter},
                                                pair_roofline, pair_roofline / pair_gpus,
                                                tp_p, tp_d};
              if (!Improves(at_roofline, pair_gpus, best_pair, best_pair_gpus)) {
                ++out_->configs_pruned_roofline;
                continue;
              }
              if (base_.use_analytic_tier) {
                const CandidateResult at_tier{model::ParallelismConfig{0, inter}, pair_tier,
                                              pair_tier / pair_gpus, tp_p, tp_d};
                if (!Improves(at_tier, pair_gpus, best_pair, best_pair_gpus)) {
                  ++out_->configs_pruned_tier;
                  continue;
                }
              }
            } else {
              const int64_t lb_roof = NeededGpus(base_.traffic_rate, pair_roofline, pair_gpus);
              if (lb_roof > capacity || lb_roof > best_total) {
                ++out_->configs_pruned_roofline;
                continue;
              }
              if (base_.use_analytic_tier) {
                const int64_t lb_tier = NeededGpus(base_.traffic_rate, pair_tier, pair_gpus);
                if (lb_tier > capacity || lb_tier > best_total) {
                  ++out_->configs_pruned_tier;
                  continue;
                }
              }
            }
          }
          const double pg = Simulate(pool, /*is_prefill=*/true, par_p).goodput;
          const double dg = Simulate(pool, /*is_prefill=*/false, par_d).goodput;
          if (pg <= 0.0 || dg <= 0.0) {
            continue;
          }
          const double pair = std::min(pg, dg);
          if (max_goodput) {
            const CandidateResult candidate{model::ParallelismConfig{0, inter}, pair,
                                            pair / pair_gpus, tp_p, tp_d};
            if (Improves(candidate, pair_gpus, best_pair, best_pair_gpus)) {
              best_pair = candidate;
              best_pair_gpus = pair_gpus;
              best.valid = true;
              best.inter = inter;
              best.tp_p = tp_p;
              best.tp_d = tp_d;
              best.goodput = pair;
              best.replicas = ReplicaCount(base_.traffic_rate, pair);
              best.total_gpus = static_cast<int64_t>(best.replicas) * pair_gpus;
            }
          } else {
            const int64_t total = NeededGpus(base_.traffic_rate, pair, pair_gpus);
            if (total > capacity) {
              continue;
            }
            if (total < best_total || (total == best_total && pair > best.goodput)) {
              best.valid = true;
              best.inter = inter;
              best.tp_p = tp_p;
              best.tp_d = tp_d;
              best.goodput = pair;
              best.replicas = ReplicaCount(base_.traffic_rate, pair);
              best.total_gpus = total;
              best_total = total;
            }
          }
        }
      }
    }
    return best;
  }

  PoolAssignment MakeCross(int p, int d) {
    const PhasePick& pp = PhasePickFor(p, /*is_prefill=*/true);
    const PhasePick& dp = PhasePickFor(d, /*is_prefill=*/false);
    PoolAssignment a;
    a.prefill_pool = p;
    a.decode_pool = d;
    a.prefill_pool_name = fleet_.pools[static_cast<size_t>(p)].name;
    a.decode_pool_name = fleet_.pools[static_cast<size_t>(d)].name;
    a.colocated = false;
    a.plan.intra_node_transfers = false;
    if (pp.valid) {
      a.plan.prefill_par = pp.par;
      a.plan.num_prefill = pp.replicas;
      a.plan.prefill_goodput = pp.goodput;
    } else {
      a.plan.prefill_par = SmallestFeasible(*pool_inputs_[static_cast<size_t>(p)], InstanceNodes(p));
      a.plan.num_prefill = 1;
    }
    if (dp.valid) {
      a.plan.decode_par = dp.par;
      a.plan.num_decode = dp.replicas;
      a.plan.decode_goodput = dp.goodput;
    } else {
      a.plan.decode_par = SmallestFeasible(*pool_inputs_[static_cast<size_t>(d)], InstanceNodes(d));
      a.plan.num_decode = 1;
    }
    a.system_goodput = a.plan.system_goodput();
    a.cost_per_hour =
        a.plan.num_prefill * a.plan.prefill_par.num_gpus() * Price(p) +
        a.plan.num_decode * a.plan.decode_par.num_gpus() * Price(d);
    a.feasible = pp.valid && dp.valid && pp.total_gpus <= Capacity(p) &&
                 dp.total_gpus <= Capacity(d);
    return a;
  }

  PoolAssignment MakeColocated(int pool) {
    const PairPick& pick = ColocatedPickFor(pool);
    PoolAssignment a;
    a.prefill_pool = pool;
    a.decode_pool = pool;
    a.prefill_pool_name = fleet_.pools[static_cast<size_t>(pool)].name;
    a.decode_pool_name = a.prefill_pool_name;
    a.colocated = true;
    a.plan.intra_node_transfers = true;
    if (pick.valid) {
      a.plan.prefill_par = model::ParallelismConfig{pick.tp_p, pick.inter};
      a.plan.decode_par = model::ParallelismConfig{pick.tp_d, pick.inter};
      a.plan.num_prefill = pick.replicas;
      a.plan.num_decode = pick.replicas;
      a.plan.prefill_goodput = pick.goodput;
      a.plan.decode_goodput = pick.goodput;
    } else {
      const model::ParallelismConfig fallback =
          SmallestFeasible(*pool_inputs_[static_cast<size_t>(pool)], InstanceNodes(pool));
      a.plan.prefill_par = fallback;
      a.plan.decode_par = fallback;
    }
    a.system_goodput = a.plan.system_goodput();
    a.cost_per_hour = a.plan.total_gpus() * Price(pool);
    a.feasible = pick.valid && pick.total_gpus <= Capacity(pool);
    return a;
  }

  // Roofline-only (tier-independent) lower bound on the GPUs a phase can need in `pool`.
  int64_t PhaseGpusLb(int pool, bool is_prefill) {
    int64_t& slot = phase_lbs_[static_cast<size_t>(pool) * 2 + (is_prefill ? 0 : 1)];
    if (slot >= 0) {
      return slot;
    }
    int64_t lb = kInfGpus;
    for (const model::ParallelismConfig& par : PhaseConfigs(pool)) {
      const SearchContext::PhaseBounds& bounds = Bounds(pool, is_prefill, par);
      lb = std::min(lb, NeededGpus(base_.traffic_rate, bounds.roofline_goodput, par.num_gpus()));
    }
    slot = lb;
    return lb;
  }

  int64_t ColocatedGpusLb(int pool) {
    int64_t& slot = colocated_lbs_[static_cast<size_t>(pool)];
    if (slot >= 0) {
      return slot;
    }
    const PlannerInputs& in = *pool_inputs_[static_cast<size_t>(pool)];
    const int gpus_per_node = in.cluster.gpus_per_node;
    const int max_inter = std::min(InstanceNodes(pool), in.model.num_layers);
    int64_t lb = kInfGpus;
    for (int inter = 1; inter <= max_inter; ++inter) {
      for (int tp_p = 1; tp_p < gpus_per_node; ++tp_p) {
        const model::ParallelismConfig par_p{tp_p, inter};
        if (!ConfigFeasible(in, par_p)) {
          continue;
        }
        for (int tp_d = 1; tp_p + tp_d <= gpus_per_node; ++tp_d) {
          const model::ParallelismConfig par_d{tp_d, inter};
          if (!ConfigFeasible(in, par_d)) {
            continue;
          }
          const double bound = std::min(Bounds(pool, true, par_p).roofline_goodput,
                                        Bounds(pool, false, par_d).roofline_goodput);
          lb = std::min(lb, NeededGpus(base_.traffic_rate, bound, inter * (tp_p + tp_d)));
        }
      }
    }
    slot = lb;
    return lb;
  }

  int64_t PairGpusLb(int p, int d) {
    if (p == d) {
      return ColocatedGpusLb(p);
    }
    const int64_t lb_p = PhaseGpusLb(p, true);
    const int64_t lb_d = PhaseGpusLb(d, false);
    return lb_p == kInfGpus || lb_d == kInfGpus ? kInfGpus : lb_p + lb_d;
  }

  double PairCostLb(int p, int d) {
    if (p == d) {
      return static_cast<double>(ColocatedGpusLb(p)) * Price(p);
    }
    return static_cast<double>(PhaseGpusLb(p, true)) * Price(p) +
           static_cast<double>(PhaseGpusLb(d, false)) * Price(d);
  }

  bool Better(const PoolAssignment& a, const PoolAssignment& b) const {
    if (base_.objective == PlannerObjective::kMaxGoodput) {
      return a.plan.per_gpu_goodput() > b.plan.per_gpu_goodput();
    }
    if (a.feasible != b.feasible) {
      return a.feasible;
    }
    if (!a.feasible) {
      // Nothing meets the target yet: carry the strongest plan so the caller always gets a
      // constructible fallback.
      return a.system_goodput > b.system_goodput;
    }
    if (base_.objective == PlannerObjective::kMinGpus) {
      if (a.total_gpus() != b.total_gpus()) {
        return a.total_gpus() < b.total_gpus();
      }
      if (a.cost_per_hour != b.cost_per_hour) {
        return a.cost_per_hour < b.cost_per_hour;
      }
    } else {
      if (a.cost_per_hour != b.cost_per_hour) {
        return a.cost_per_hour < b.cost_per_hour;
      }
      if (a.total_gpus() != b.total_gpus()) {
        return a.total_gpus() < b.total_gpus();
      }
    }
    return a.system_goodput > b.system_goodput;
  }

  const PlannerInputs& base_;
  const cluster::HeteroClusterSpec& fleet_;
  HeteroPlannerResult* out_;
  std::vector<std::unique_ptr<PlannerInputs>> pool_inputs_;
  std::vector<std::unique_ptr<SearchContext>> ctx_;
  std::map<int64_t, PhaseSim> sims_;
  std::map<int64_t, SearchContext::PhaseBounds> bounds_;
  std::set<int64_t> enumerated_;
  std::vector<std::optional<PhasePick>> phase_picks_;      // [pool * 2 + phase]
  std::vector<std::optional<PairPick>> colocated_picks_;   // [pool]
  std::vector<int64_t> phase_lbs_;                         // [pool * 2 + phase]; -1 = unset
  std::vector<int64_t> colocated_lbs_;                     // [pool]; -1 = unset
};

}  // namespace

HeteroPlannerResult HeterogeneousPlacement(const PlannerInputs& inputs,
                                           const cluster::HeteroClusterSpec& fleet) {
  HeteroPlannerResult result;
  result.objective = inputs.objective;
  HeteroSearch search(inputs, fleet, &result);
  search.Run();
  return result;
}

}  // namespace distserve::placement
