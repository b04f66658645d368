#include "engine/decode_instance.h"

#include <algorithm>

#include "common/logging.h"
#include "common/prof.h"
#include "trace/recorder.h"

namespace distserve::engine {

DecodeInstance::DecodeInstance(simcore::Simulator* sim, model::LatencyModel latency_model,
                               int64_t kv_capacity_tokens, Options options, int id)
    : sim_(sim),
      latency_model_(std::move(latency_model)),
      kv_(kv_capacity_tokens, options.kv_block_size),
      options_(options),
      id_(id),
      lanes_(static_cast<size_t>(latency_model_.par().pp)) {
  DS_CHECK(sim != nullptr);
  DS_CHECK_GT(options_.max_batch_size, 0);
  DS_CHECK_GT(options_.admission_watermark, 0.0);
  DS_CHECK_LE(options_.admission_watermark, 1.0);
}

int DecodeInstance::per_lane_cap() const {
  const int lanes = static_cast<int>(lanes_.size());
  return std::max(1, options_.max_batch_size / lanes);
}

void DecodeInstance::Submit(RequestState* request) {
  DS_CHECK(request != nullptr);
  DS_CHECK(alive_) << "submit on failed decode instance " << id_;
  DS_CHECK_GE(request->request.output_len, 2)
      << "single-token requests must not be submitted to decode";
  request->decode_instance = id_;
  request->phase = RequestPhase::kDecodePending;
  priorities_active_ = priorities_active_ || request->request.priority != 0;
  DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                 trace::SpanKind::kDecodeAdmit, trace::DecodePid(id_), 0));
  pending_.push_back(request);
  TryAdmit();
}

std::deque<RequestState*>::iterator DecodeInstance::PickPending() {
  if (!priorities_active_) {
    return pending_.begin();  // single-tenant fast path: plain FCFS
  }
  auto best = pending_.begin();
  for (auto it = std::next(pending_.begin()); it != pending_.end(); ++it) {
    if ((*it)->request.priority > (*best)->request.priority) {
      best = it;  // strictly greater: FCFS stays stable within a class
    }
  }
  return best;
}

bool DecodeInstance::PreemptLowestBelow(int floor) {
  RequestState* victim = nullptr;
  for (Lane& lane : lanes_) {
    for (const std::vector<RequestState*>* members : {&lane.joining, &lane.active}) {
      for (RequestState* r : *members) {
        if (r->request.priority >= floor) {
          continue;
        }
        // Lowest priority wins; ties go to the latest-scanned (least decode progress bias).
        if (victim == nullptr || r->request.priority <= victim->request.priority) {
          victim = r;
        }
      }
    }
  }
  if (victim == nullptr) {
    return false;
  }
  kv_.Release(victim->request.id);
  --resident_count_;
  for (Lane& lane : lanes_) {
    std::erase(lane.joining, victim);
    if (std::erase(lane.active, victim) > 0) {
      lane.ctx_tokens -= victim->context_len();
    }
  }
  ++victim->preemptions;
  ++preemptions_;
  DS_TRACE(recorder_, Transition(victim->request.id, sim_->now(), trace::SpanKind::kPreempt,
                                 trace::DecodePid(id_), 0, victim->preemptions));
  if (on_preempt_) {
    on_preempt_(victim);  // serving layer re-prefills: the decode-side KV is gone
  }
  return true;
}

void DecodeInstance::Fail() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  ++epoch_;  // invalidates scheduled lane steps and in-flight transfer completions
  pending_.clear();
  for (Lane& lane : lanes_) {
    lane.active.clear();
    lane.joining.clear();
    lane.ctx_tokens = 0;
    lane.step_in_flight = false;
  }
  resident_count_ = 0;
  kv_.Clear();
}

void DecodeInstance::Recover() {
  if (alive_) {
    return;
  }
  DS_CHECK(pending_.empty());
  alive_ = true;
}

void DecodeInstance::Abort(RequestState* request) {
  DS_CHECK(request != nullptr);
  if (!alive_) {
    return;  // Fail() already dropped everything
  }
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (*it == request) {
      pending_.erase(it);
      return;  // not yet admitted: no reservation, no lane membership
    }
  }
  if (!kv_.Holds(request->request.id)) {
    return;  // not ours (already completed or never admitted)
  }
  kv_.Release(request->request.id);
  --resident_count_;
  for (Lane& lane : lanes_) {
    std::erase(lane.joining, request);
    if (std::erase(lane.active, request) > 0) {
      lane.ctx_tokens -= request->context_len();
    }
  }
  // Freed memory may admit a pending request right away.
  TryAdmit();
}

void DecodeInstance::TryAdmit() {
  if (pending_.empty()) {
    return;  // every step end lands here; skip the watermark math when there is no queue
  }
  const int64_t usable_blocks = static_cast<int64_t>(
      static_cast<double>(kv_.total_blocks()) * options_.admission_watermark);
  while (!pending_.empty()) {
    auto it = PickPending();
    RequestState* request = *it;
    const int64_t needed_tokens = request->request.total_len();
    const int64_t needed_blocks = kv_.BlocksForTokens(needed_tokens);
    DS_CHECK_LE(needed_blocks, usable_blocks)
        << "request " << request->request.id << " can never fit decode instance " << id_;
    if (kv_.used_blocks() + needed_blocks > usable_blocks) {
      // A blocked higher-priority tenant may evict the lowest-priority resident (strictly
      // below it); otherwise wait for completions — the prefill side buffers the KV.
      if (!priorities_active_ || !PreemptLowestBelow(request->request.priority)) {
        break;
      }
      continue;  // re-evaluate with the freed blocks
    }
    const bool reserved = kv_.Reserve(request->request.id, needed_tokens);
    DS_CHECK(reserved);
    pending_.erase(it);
    ++resident_count_;
    request->record.transfer_start = sim_->now();
    request->phase = RequestPhase::kTransferring;
    DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                   trace::SpanKind::kKvTransfer, trace::DecodePid(id_), 0,
                                   request->attempt));
    if (transfer_fn_) {
      transfer_fn_(request, [this, request, epoch = epoch_] {
        if (epoch != epoch_) {
          return;  // the instance died while the pull was in flight
        }
        OnTransferDone(request);
      });
    } else {
      OnTransferDone(request);
    }
  }
}

void DecodeInstance::OnTransferDone(RequestState* request) {
  request->record.transfer_end = sim_->now();
  request->phase = RequestPhase::kDecoding;
  DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                 trace::SpanKind::kDecodeQueue, trace::DecodePid(id_), 0));
  // Least-loaded lane assignment.
  size_t best = 0;
  size_t best_load = SIZE_MAX;
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const size_t lane_load = lanes_[i].active.size() + lanes_[i].joining.size();
    if (lane_load < best_load) {
      best_load = lane_load;
      best = i;
    }
  }
  lanes_[best].joining.push_back(request);
  LaneMaybeStep(best);
}

void DecodeInstance::LaneMaybeStep(size_t lane_idx) {
  Lane& lane = lanes_[lane_idx];
  if (lane.step_in_flight) {
    return;
  }
  // Merge joiners up to the lane cap, in arrival order; they start decoding this step. The
  // merged prefix leaves `joining` in one erase, so a burst of k joiners costs O(k), not
  // O(k * queue length).
  const int cap = per_lane_cap();
  size_t merged = 0;
  while (merged < lane.joining.size() && static_cast<int>(lane.active.size()) < cap) {
    RequestState* request = lane.joining[merged++];
    request->record.decode_start = sim_->now();
    lane.active.push_back(request);
    lane.ctx_tokens += request->context_len();
  }
  lane.joining.erase(lane.joining.begin(),
                     lane.joining.begin() + static_cast<std::ptrdiff_t>(merged));
  if (lane.active.empty()) {
    return;
  }
  const double step_time = latency_model_.FullTime(model::BatchWorkload::Decode(
      static_cast<int64_t>(lane.active.size()), lane.ctx_tokens));
  if (DS_TRACE_ON(recorder_)) {
    const double now = sim_->now();
    for (RequestState* r : lane.active) {
      // Coalesced by the recorder into one contiguous decode_step run per stretch.
      recorder_->Transition(r->request.id, now, trace::SpanKind::kDecodeStep,
                            trace::DecodePid(id_), static_cast<int32_t>(lane_idx),
                            r->decode_steps_done);
    }
    recorder_->InstanceSpan(trace::DecodePid(id_), static_cast<int32_t>(lane_idx),
                            trace::SpanKind::kDecodeStep, now, now + step_time,
                            static_cast<int64_t>(lane.active.size()));
  }
  lane.step_in_flight = true;
  busy_seconds_ += step_time;
  ++steps_executed_;
  sim_->ScheduleAfter(step_time, [this, epoch = epoch_, lane_idx] {
    if (epoch != epoch_) {
      return;  // the instance died mid-step
    }
    LaneStepEnd(lane_idx);
  });
}

void DecodeInstance::LaneStepEnd(size_t lane_idx) {
  DS_PROF_ZONE("decode.lane_step_end");
  Lane& lane = lanes_[lane_idx];
  lane.step_in_flight = false;
  // Compact survivors in place (no per-step vector) and keep the lane's running context sum
  // current: every stepped request grows by one token; completers leave with their final
  // context.
  size_t write = 0;
  for (RequestState* r : lane.active) {
    ++r->decode_steps_done;
    ++lane.ctx_tokens;
    ++tokens_generated_;
    if (r->remaining_decode_steps() <= 0) {
      lane.ctx_tokens -= r->context_len();
      r->record.completion = sim_->now();
      r->phase = RequestPhase::kDone;
      DS_TRACE(recorder_, Finish(r->request.id, sim_->now()));
      kv_.Release(r->request.id);
      --resident_count_;
      if (on_complete_) {
        on_complete_(r);
      }
    } else {
      lane.active[write++] = r;
    }
  }
  lane.active.resize(write);
  // Freed memory may admit pending requests before the next step forms.
  TryAdmit();
  LaneMaybeStep(lane_idx);
}

}  // namespace distserve::engine
