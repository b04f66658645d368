#include "simcore/simulator.h"

#include "common/logging.h"

namespace distserve::simcore {

int64_t Simulator::Run(SimTime until) {
  int64_t processed = 0;
  while (!queue_.empty() && queue_.NextTime() <= until) {
    EventQueue::Fired fired = queue_.Pop();
    DS_DCHECK(fired.time >= now_);
    now_ = fired.time;
    last_event_time_ = fired.time;
    fired.fn();
    ++processed;
    ++events_processed_;
  }
  // With a finite horizon, every event at or before it has fired; the clock reads the horizon
  // even when later events remain pending.
  if (until != std::numeric_limits<SimTime>::infinity() && now_ < until) {
    now_ = until;
  }
  return processed;
}

}  // namespace distserve::simcore
