// Cancellable events addressed by small integer slots.
//
// An EventHandle takes 16 bytes. A caller that must cancel an event from a record or an event
// closure with no room for one keeps a 4-byte slot of this table instead. A slot is reused
// once its event fires or is cancelled, so the table holds the events in flight, not every
// event ever armed, and arming allocates only when that number reaches a new high.
#ifndef DISTSERVE_SIMCORE_EVENT_SLOTS_H_
#define DISTSERVE_SIMCORE_EVENT_SLOTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simcore/event_queue.h"

namespace distserve::simcore {

class EventSlots {
 public:
  // Takes a free slot for an event about to be scheduled; Set stores the event's handle.
  int32_t Acquire() {
    if (free_.empty()) {
      handles_.emplace_back();
      return static_cast<int32_t>(handles_.size() - 1);
    }
    const int32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  void Set(int32_t slot, EventHandle handle) { handles_[static_cast<size_t>(slot)] = handle; }

  // Cancels the slot's event (a no-op once it fired) and frees the slot. An event that fires
  // releases its own slot, exactly once.
  void Release(int32_t slot) {
    handles_[static_cast<size_t>(slot)].Cancel();
    free_.push_back(slot);
  }

  // Forgets every slot, for a new stream whose earlier events have all fired.
  void Clear() {
    handles_.clear();
    free_.clear();
  }

 private:
  std::vector<EventHandle> handles_;
  std::vector<int32_t> free_;
};

}  // namespace distserve::simcore

#endif  // DISTSERVE_SIMCORE_EVENT_SLOTS_H_
