// Fleet-scale serving: many independent instance groups behind one router, all on one
// simcore::Simulator (DESIGN.md §17).
//
// A fleet is `num_groups` replicas of a serving configuration — disaggregated
// (serving::ServingSystem) or colocated (baselines::VllmSystem) — each built on the fleet's
// simulator. A centralized router receives every arrival and dispatches it to the serviceable
// group with the fewest outstanding requests (ties to the lowest group index), modeling the
// cluster-level load balancer in front of the paper's per-group controllers. Dispatches reach
// a group dispatch_latency later, and completion and fault notifications reach the router
// notify_latency later, so the router's view of group load is one message latency stale —
// exactly as a real control plane's would be.
//
// Determinism: every router message is an ordinary event scheduled when it is sent, so ties
// break by the simulator's (time, seq) order; per-group results are merged in group index
// order then re-sorted by request id.
#ifndef DISTSERVE_SERVING_FLEET_H_
#define DISTSERVE_SERVING_FLEET_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/vllm_system.h"
#include "metrics/collector.h"
#include "serving/fault_plan.h"
#include "serving/serving_system.h"
#include "simcore/simulator.h"
#include "workload/request.h"

namespace distserve::serving {

struct FleetConfig {
  // Number of instance-group replicas. Each group is an independent copy of the template
  // below with its own controller, instances and KV pools.
  int num_groups = 1;

  // Group flavor: false runs ServingSystem replicas from `group_config`; true runs
  // VllmSystem replicas from `colocated_config`.
  bool colocated = false;

  // Per-group template for disaggregated fleets. Its `sim`, `faults` and `recorder` fields
  // are overridden per group (the fleet's simulator and the two vectors below).
  ServingConfig group_config;

  // Per-group template for colocated fleets; `sim` and `recorder` are overridden per group.
  baselines::VllmConfig colocated_config;

  // Optional per-group fault plans (disaggregated fleets only); empty or size num_groups.
  std::vector<FaultPlan> group_faults;

  // Optional per-group span recorders; empty or size num_groups.
  std::vector<trace::Recorder*> group_recorders;

  // Control-plane latencies in virtual seconds; both must be positive.
  double dispatch_latency = 1e-3;  // router -> group admission
  double notify_latency = 1e-3;    // group -> router completion/fault notification

  // Must be 1. Kept only because perfbench/src/main.cc still sets it.
  int shards = 1;
};

struct FleetResult {
  // Merged per-request records across all groups, sorted by request id; router-parked
  // requests (no serviceable group, never recovered) appear as lost.
  metrics::Collector collector;
  int64_t events = 0;              // simulator events fired
  int64_t router_parked_lost = 0;  // requests the router never found a serviceable group for
  std::vector<int64_t> group_completed;  // completed request count per group
  // Read only by perfbench/src/main.cc: `messages` counts router messages (dispatches,
  // completion and fault notifications); the other two fields are always 0.
  struct SimStats {
    int64_t sync_rounds = 0;
    int64_t messages = 0;
    int64_t channel_spills = 0;
  };
  SimStats sim_stats;
};

class FleetSystem {
 public:
  explicit FleetSystem(FleetConfig config);
  FleetSystem(const FleetSystem&) = delete;
  FleetSystem& operator=(const FleetSystem&) = delete;
  ~FleetSystem();

  // Routes and runs the trace to completion. Like ServingSystem::Run, a faulted fleet is
  // single-use. Arrival times are the router's receive times; each request's TTFT includes
  // the dispatch hop it then takes.
  FleetResult Run(const workload::Trace& trace);

 private:
  struct Group;

  // Router logic; every method below runs inside simulator events.
  void RouteArrival(const workload::Request& req);
  void DispatchTo(int g, const workload::Request& req);
  void OnGroupNotify(int g);
  void FlushRouterParked();

  // Schedules `fn` one control-plane `latency` from now and counts it as a router message.
  void Send(double latency, simcore::EventCallback&& fn) {
    ++messages_;
    sim_.ScheduleAt(sim_.now() + latency, std::move(fn));
  }

  FleetConfig config_;
  simcore::Simulator sim_;
  std::vector<std::unique_ptr<Group>> groups_;
  int64_t messages_ = 0;

  // Router state: in-flight request count and last known serviceability per group, plus
  // arrivals parked when no group is serviceable.
  std::vector<int64_t> outstanding_;
  std::vector<bool> serviceable_;
  std::deque<workload::Request> router_parked_;
};

}  // namespace distserve::serving

#endif  // DISTSERVE_SERVING_FLEET_H_
