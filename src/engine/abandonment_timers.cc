#include "engine/abandonment_timers.h"

namespace distserve::engine {

void AbandonmentTimers::Disarm(RequestState* request) {
  if (request->abandon_timer < 0) {
    return;
  }
  slots_.Release(request->abandon_timer);  // cancels the timer unless it is firing
  request->abandon_timer = -1;
}

void AbandonmentTimers::ExtendHorizon(double t) {
  horizon_ = std::max(horizon_, t);
  // The pending event re-arms at the horizon when it fires, so one is enough.
  if (horizon_ > sim_->now() && !horizon_event_.pending()) {
    horizon_event_ = sim_->ScheduleAt(horizon_, [this] { ExtendHorizon(0.0); });
  }
}

}  // namespace distserve::engine
