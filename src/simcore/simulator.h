// The discrete-event simulator: a virtual clock driving an EventQueue.
//
// Components ("actors": instances, controllers, links) hold a Simulator* and schedule their own
// future work with ScheduleAt/ScheduleAfter. Run() processes events in timestamp order until
// the queue drains or a horizon is reached. The simulator is single-threaded by design —
// determinism is worth more than parallelism at the event rates involved (an end-to-end
// serving run is a few million events).
#ifndef DISTSERVE_SIMCORE_SIMULATOR_H_
#define DISTSERVE_SIMCORE_SIMULATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "simcore/event_queue.h"

namespace distserve::simcore {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  int64_t events_processed() const { return events_processed_; }

  // Timestamp of the last event actually fired (0.0 before any event fires). Unlike now(),
  // which a finite Run horizon pins to the bound, this tracks real work — the fleet uses it as
  // the end of a run (e.g. for closing fault downtime intervals).
  SimTime last_event_time() const { return last_event_time_; }

  // Schedules `fn` at absolute virtual time `when` (must be >= now()). Inline and by rvalue
  // reference so the callback relocates once, caller straight into the queue's slab (see
  // EventQueue::Schedule) — this path runs once per event and dominates scheduling cost.
  EventHandle ScheduleAt(SimTime when, EventCallback&& fn) {
    DS_DCHECK(when >= now_) << "scheduling into the past: " << when << " < " << now_;
    return queue_.Schedule(when, std::move(fn));
  }

  // Schedules `fn` after a non-negative delay.
  EventHandle ScheduleAfter(SimTime delay, EventCallback&& fn) {
    DS_DCHECK(delay >= 0.0);
    return queue_.Schedule(now_ + delay, std::move(fn));
  }

  // Schedules `count` events as one stream: event k calls `fire(k)` at virtual time
  // `time_of(k)` (>= now()). Each event gets exactly the (time, seq) key that `count`
  // back-to-back ScheduleAt calls made here would have given it — seq base + k from a block
  // reserved now — so the firing order is the same, ties included. Only the stream's next
  // event sits in the queue: each one schedules its successor before calling `fire`. The
  // stream walks events in (time_of(k), k) order; an index permutation is built only when the
  // times are not already sorted. `time_of` and `fire` run during Run(), so whatever they
  // reference must outlive the stream.
  template <typename TimeOf, typename Fire>
  void ScheduleStream(size_t count, TimeOf time_of, Fire fire);

  // Runs until the event queue is empty or virtual time would exceed `until`.
  // Returns the number of events processed by this call.
  int64_t Run(SimTime until = std::numeric_limits<SimTime>::infinity());

  // True when no live events remain.
  bool Idle() const { return queue_.empty(); }

  // Entries stored in the event queue, cancelled-but-uncollected ones included: an upper
  // bound on the live events. Read-only; tests use it to check the queue stays bounded.
  size_t pending_events() const { return queue_.size(); }

 private:
  template <typename TimeOf, typename Fire>
  struct Stream {
    TimeOf time_of;
    Fire fire;
    uint64_t base_seq = 0;
    size_t count = 0;
    size_t next = 0;            // walk position of the stream's pending event
    std::vector<size_t> order;  // walk order by (time, index); empty when already sorted

    size_t Index(size_t pos) const { return order.empty() ? pos : order[pos]; }
  };

  // The event for the stream's next member. It owns the stream; the last event frees it.
  template <typename S>
  struct StreamEvent {
    Simulator* sim;
    std::unique_ptr<S> stream;

    void operator()() {
      S* s = stream.get();
      const size_t k = s->Index(s->next++);
      if (s->next < s->count) {
        sim->ScheduleStreamNext(std::move(stream));
      }
      s->fire(k);
    }
  };

  template <typename S>
  void ScheduleStreamNext(std::unique_ptr<S> stream) {
    const size_t k = stream->Index(stream->next);
    const SimTime when = stream->time_of(k);
    DS_DCHECK(when >= now_) << "stream event in the past: " << when << " < " << now_;
    const uint64_t seq = stream->base_seq + k;
    queue_.ScheduleReserved(when, seq, StreamEvent<S>{this, std::move(stream)});
  }

  EventQueue queue_;
  SimTime now_ = 0.0;
  SimTime last_event_time_ = 0.0;
  int64_t events_processed_ = 0;
};

template <typename TimeOf, typename Fire>
void Simulator::ScheduleStream(size_t count, TimeOf time_of, Fire fire) {
  if (count == 0) {
    return;
  }
  using S = Stream<TimeOf, Fire>;
  auto stream = std::make_unique<S>(
      S{std::move(time_of), std::move(fire), queue_.ReserveSeqs(count), count, 0, {}});
  bool sorted = true;
  for (size_t k = 1; k < count && sorted; ++k) {
    sorted = !(stream->time_of(k) < stream->time_of(k - 1));
  }
  if (!sorted) {
    stream->order.resize(count);
    std::iota(stream->order.begin(), stream->order.end(), size_t{0});
    std::stable_sort(stream->order.begin(), stream->order.end(), [&](size_t a, size_t b) {
      return stream->time_of(a) < stream->time_of(b);
    });
  }
  ScheduleStreamNext(std::move(stream));
}

}  // namespace distserve::simcore

#endif  // DISTSERVE_SIMCORE_SIMULATOR_H_
