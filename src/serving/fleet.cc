#include "serving/fleet.h"

#include <limits>
#include <utility>

#include "common/logging.h"

namespace distserve::serving {

// Thin closed-union adapter over the two group flavors; exactly one pointer is set.
struct FleetSystem::Group {
  std::unique_ptr<ServingSystem> disagg;
  std::unique_ptr<baselines::VllmSystem> colocated;

  void BeginStream(size_t expected) {
    if (disagg != nullptr) {
      disagg->BeginStream(expected);
    } else {
      colocated->BeginStream(expected);
    }
  }
  void ScheduleFaults() {
    if (disagg != nullptr) {
      disagg->ScheduleFaults();
    }
  }
  void Submit(const workload::Request& req) {
    if (disagg != nullptr) {
      disagg->Submit(req);
    } else {
      colocated->Submit(req);
    }
  }
  bool Serviceable() const {
    return disagg != nullptr ? disagg->Serviceable() : colocated->Serviceable();
  }
  metrics::Collector Finish(double end_time) {
    return disagg != nullptr ? disagg->FinishStream(end_time)
                             : colocated->FinishStream(end_time);
  }
};

FleetSystem::FleetSystem(FleetConfig config) : config_(std::move(config)) {
  DS_CHECK_GE(config_.num_groups, 1);
  DS_CHECK_EQ(config_.shards, 1) << "a fleet runs on one simulator";
  DS_CHECK_GT(config_.dispatch_latency, 0.0);
  DS_CHECK_GT(config_.notify_latency, 0.0);
  DS_CHECK(config_.group_faults.empty() ||
           static_cast<int>(config_.group_faults.size()) == config_.num_groups)
      << "group_faults must be empty or one plan per group";
  DS_CHECK(!config_.colocated || config_.group_faults.empty())
      << "fault plans are a disaggregated-fleet feature";
  DS_CHECK(config_.group_recorders.empty() ||
           static_cast<int>(config_.group_recorders.size()) == config_.num_groups)
      << "group_recorders must be empty or one recorder per group";

  for (int g = 0; g < config_.num_groups; ++g) {
    trace::Recorder* recorder =
        config_.group_recorders.empty() ? nullptr : config_.group_recorders[g];
    // The router hears about a completion one notify_latency later.
    auto notify_done = [this, g](const engine::RequestState&) {
      Send(config_.notify_latency, [this, g] { OnGroupNotify(g); });
    };
    auto group = std::make_unique<Group>();
    if (config_.colocated) {
      baselines::VllmConfig vc = config_.colocated_config;
      vc.sim = &sim_;
      vc.recorder = recorder;
      group->colocated = std::make_unique<baselines::VllmSystem>(std::move(vc));
      group->colocated->set_on_request_done(notify_done);
    } else {
      ServingConfig sc = config_.group_config;
      sc.sim = &sim_;
      if (!config_.group_faults.empty()) {
        sc.faults = config_.group_faults[static_cast<size_t>(g)];
      }
      sc.recorder = recorder;
      group->disagg = std::make_unique<ServingSystem>(std::move(sc));
      group->disagg->set_on_request_done(notify_done);
      group->disagg->set_fault_callback([this, g](const FaultEvent&) {
        const bool s = groups_[static_cast<size_t>(g)]->Serviceable();
        Send(config_.notify_latency, [this, g, s] {
          serviceable_[static_cast<size_t>(g)] = s;
          if (s) {
            FlushRouterParked();
          }
        });
      });
    }
    groups_.push_back(std::move(group));
    outstanding_.push_back(0);
    serviceable_.push_back(true);
  }
}

FleetSystem::~FleetSystem() = default;

void FleetSystem::RouteArrival(const workload::Request& req) {
  int best = -1;
  int64_t best_load = std::numeric_limits<int64_t>::max();
  for (int g = 0; g < static_cast<int>(groups_.size()); ++g) {
    if (!serviceable_[static_cast<size_t>(g)]) {
      continue;
    }
    if (outstanding_[static_cast<size_t>(g)] < best_load) {
      best_load = outstanding_[static_cast<size_t>(g)];
      best = g;
    }
  }
  if (best < 0) {
    router_parked_.push_back(req);
    return;
  }
  DispatchTo(best, req);
}

void FleetSystem::DispatchTo(int g, const workload::Request& req) {
  ++outstanding_[static_cast<size_t>(g)];
  Send(config_.dispatch_latency,
       [this, g, req] { groups_[static_cast<size_t>(g)]->Submit(req); });
}

void FleetSystem::OnGroupNotify(int g) { --outstanding_[static_cast<size_t>(g)]; }

void FleetSystem::FlushRouterParked() {
  std::deque<workload::Request> pending;
  pending.swap(router_parked_);
  for (const workload::Request& req : pending) {
    RouteArrival(req);
  }
}

FleetResult FleetSystem::Run(const workload::Trace& trace) {
  const size_t per_group = trace.size() / groups_.size() + 1;
  for (auto& group : groups_) {
    group->BeginStream(per_group);
  }
  // Setup order is fixed: the arrival stream (reserving one sequence number per request in
  // trace order), then fault plans per group — mirroring ServingSystem::Run's
  // arrivals-then-faults convention so equal-time tie-breaks match the standalone path.
  sim_.ScheduleStream(
      trace.size(), [&trace](size_t k) { return trace[k].arrival_time; },
      [this, &trace](size_t k) { RouteArrival(trace[k]); });
  for (auto& group : groups_) {
    group->ScheduleFaults();
  }

  FleetResult result;
  result.events = sim_.Run();
  const double end = sim_.last_event_time();

  // Arrivals still parked at the router never reached any group; record them lost with the
  // trace-level fields they arrived with.
  for (const workload::Request& req : router_parked_) {
    metrics::RequestRecord rec;
    rec.id = req.id;
    rec.arrival = req.arrival_time;
    rec.input_len = req.input_len;
    rec.output_len = req.output_len;
    result.collector.RecordLost(rec);
    ++result.router_parked_lost;
  }
  router_parked_.clear();

  // Merge in group index order (fixed FaultStats summation order), then canonicalize. The
  // first group's records are moved in and grown once to the fleet total.
  std::vector<metrics::Collector> finished;
  finished.reserve(groups_.size());
  size_t completed = 0;
  for (auto& group : groups_) {
    finished.push_back(group->Finish(end));
    result.group_completed.push_back(static_cast<int64_t>(finished.back().count()));
    completed += finished.back().count();
  }
  for (metrics::Collector& c : finished) {
    result.collector.Merge(std::move(c));
    result.collector.Reserve(completed);
  }
  result.collector.SortById();
  result.sim_stats.messages = messages_;
  return result;
}

}  // namespace distserve::serving
