// Client abandonment timers (workload::Request::cancel_at and deadline) for a serving system.
//
// A request gets one timer, at the earlier of its cancel_at and deadline; the cancel wins a
// tie. The later of the two could only find the request terminal or already being torn down,
// so it is never armed. The owning system disarms the timer when the request leaves first,
// so a completed request leaves no event behind. One no-op event, re-armed at the latest time
// any request's cancel or deadline would fire, keeps the clock running until then: a run
// ends when it did with every timer left to fire. Busy fractions over simulated time, fault
// downtime closed at the run's end and a fleet's common end time all read that clock.
#ifndef DISTSERVE_ENGINE_ABANDONMENT_TIMERS_H_
#define DISTSERVE_ENGINE_ABANDONMENT_TIMERS_H_

#include <algorithm>
#include <cstdint>
#include <limits>

#include "engine/request_state.h"
#include "simcore/event_slots.h"
#include "simcore/simulator.h"

namespace distserve::engine {

class AbandonmentTimers {
 public:
  explicit AbandonmentTimers(simcore::Simulator* sim) : sim_(sim) {}

  AbandonmentTimers(const AbandonmentTimers&) = delete;
  AbandonmentTimers& operator=(const AbandonmentTimers&) = delete;

  // Arms `request`'s timer; none when both cancel_at and deadline are 0. When it fires, the
  // timer is disarmed and `on_fire(request, timed_out)` runs, timed_out telling a deadline
  // miss from a client cancel.
  template <typename OnFire>
  void Arm(RequestState* request, OnFire on_fire);

  // Cancels the request's timer if it is armed. Idempotent.
  void Disarm(RequestState* request);

  // Forgets every timer slot, for a new stream whose earlier timers have all fired.
  void Clear() { slots_.Clear(); }

 private:
  // Keeps the clock running until at least `t`.
  void ExtendHorizon(double t);

  simcore::Simulator* sim_;
  simcore::EventSlots slots_;  // RequestState::abandon_timer indexes it
  double horizon_ = 0.0;
  simcore::EventHandle horizon_event_;
};

template <typename OnFire>
void AbandonmentTimers::Arm(RequestState* request, OnFire on_fire) {
  const workload::Request& req = request->request;
  // Fire times, clamped to now; never when unset.
  const double never = std::numeric_limits<double>::infinity();
  const double cancel_at = req.cancel_at > 0.0 ? std::max(req.cancel_at, sim_->now()) : never;
  const double deadline = req.deadline > 0.0 ? std::max(req.deadline, sim_->now()) : never;
  const bool timed_out = deadline < cancel_at;  // the cancel wins a tie
  const double when = std::min(cancel_at, deadline);
  if (when == never) {
    return;
  }
  const double later = std::max(cancel_at, deadline);
  ExtendHorizon(later == never ? when : later);
  const int32_t slot = slots_.Acquire();
  request->abandon_timer = slot;
  slots_.Set(slot, sim_->ScheduleAt(when, [this, request, timed_out, on_fire]() mutable {
    Disarm(request);
    on_fire(request, timed_out);
  }));
}

}  // namespace distserve::engine

#endif  // DISTSERVE_ENGINE_ABANDONMENT_TIMERS_H_
