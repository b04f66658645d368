#include "engine/decode_instance.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/prof.h"
#include "trace/recorder.h"

namespace distserve::engine {
namespace {

// Longest run a lane schedules right after a cut. Later runs may span as many steps as the
// lane has taken since that cut, so the step times a cut discards never outnumber the steps
// actually taken (plus this floor): a lane whose runs keep getting cut costs O(1) per step.
constexpr int64_t kMinRunSteps = 32;

// Matches every step key: Sync up to and including a time.
constexpr uint64_t kAllKeys = std::numeric_limits<uint64_t>::max();

// Finish-heap order (std heaps keep the greatest on top): earliest step, then join order.
template <typename F>
bool FinishesLater(const F& a, const F& b) {
  return a.step != b.step ? a.step > b.step : a.order > b.order;
}

// Whether lane cursor `a`'s next boundary fires before `b`'s.
template <typename C>
bool EndsBefore(const C& a, const C& b) {
  return a.step_end < b.step_end || (a.step_end == b.step_end && a.step_key < b.step_key);
}

}  // namespace

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
  Sync(sim_->now(), ExternalKey());
  request->decode_instance = id_;
  request->phase = RequestPhase::kDecodePending;
  priorities_active_ = priorities_active_ || request->request.priority != 0;
  DS_TRACE(recorder_, Transition(request->request.id, sim_->now(),
                                 trace::SpanKind::kDecodeAdmit, trace::DecodePid(id_), 0));
  pending_.push_back(request);
  TryAdmit();
  CheckInvariants();
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
  // Scan order: lanes in index order, each lane's joiners and then its batch, both in join
  // order. The lowest priority wins; ties go to the latest-scanned (least decode progress
  // bias).
  RequestState* victim = nullptr;
  for (const Lane& lane : lanes_) {
    for (RequestState* r : lane.joining) {
      if (r->request.priority < floor &&
          (victim == nullptr || r->request.priority <= victim->request.priority)) {
        victim = r;
      }
    }
    const Member* last = nullptr;  // the batch's last-joined member of its lowest priority
    for (const Member& m : lane.active) {
      const int priority = m.request->request.priority;
      if (priority < floor &&
          (last == nullptr || priority < last->request->request.priority ||
           (priority == last->request->request.priority && m.order > last->order))) {
        last = &m;
      }
    }
    if (last != nullptr &&
        (victim == nullptr || last->request->request.priority <= victim->request.priority)) {
      victim = last->request;
    }
  }
  if (victim == nullptr) {
    return false;
  }
  kv_.Release(victim->request.id);
  --resident_count_;
  RemoveFromLanes(victim);
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
  Sync(sim_->now(), ExternalKey());
  alive_ = false;
  ++epoch_;  // invalidates scheduled lane boundaries and in-flight transfer completions
  pending_.clear();
  for (Lane& lane : lanes_) {
    for (const Member& m : lane.active) {
      m.request->decode_steps_done += static_cast<int>(lane.cur.step - m.join_step);
      m.request->decode_slot = -1;
    }
    lane.active.clear();
    lane.joining.clear();
    lane.finishes.clear();
    lane.ctx_tokens = 0;
    lane.cur.running = false;
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
  Sync(sim_->now(), ExternalKey());
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (*it == request) {
      pending_.erase(it);
      // Not yet admitted: no reservation, no lane membership. The admission pass at the next
      // step boundary may now let the new head of the queue in.
      if (!pending_.empty()) {
        CutNextBoundary();
      }
      CheckInvariants();
      return;
    }
  }
  if (!kv_.Holds(request->request.id)) {
    return;  // not ours (already completed or never admitted)
  }
  kv_.Release(request->request.id);
  --resident_count_;
  RemoveFromLanes(request);
  // Freed memory may admit a pending request right away.
  TryAdmit();
  CheckInvariants();
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
      transfer_fn_(request, PullDone(this, request, epoch_));
    } else {
      OnTransferDone(request);
    }
  }
}

void DecodeInstance::OnPullDone(RequestState* request, uint64_t epoch) {
  if (epoch != epoch_) {
    return;  // the instance died while the pull was in flight
  }
  Sync(sim_->now(), ExternalKey());
  OnTransferDone(request);
  // A joiner is a new preemption victim. When it ranks below the blocked head of the queue,
  // the admission pass at the next boundary of any lane evicts it.
  if (priorities_active_ && !pending_.empty() &&
      request->request.priority < (*PickPending())->request.priority) {
    CutNextBoundary();
  }
  CheckInvariants();
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
  const int cap = per_lane_cap();
  if (lane.cur.running) {
    // Joiners merge at the in-flight step's boundary when the batch has room.
    if (!lane.joining.empty() && static_cast<int>(lane.active.size()) < cap) {
      Cut(lane_idx);
    }
    return;
  }
  // Merge joiners up to the lane cap, in arrival order; they start decoding this step. The
  // merged prefix leaves `joining` in one erase, so a burst of k joiners costs O(k), not
  // O(k * queue length).
  size_t merged = 0;
  while (merged < lane.joining.size() && static_cast<int>(lane.active.size()) < cap) {
    RequestState* request = lane.joining[merged++];
    request->record.decode_start = sim_->now();
    request->decode_slot = static_cast<int>(lane.active.size());
    const uint64_t order = lane.next_order++;
    lane.active.push_back(Member{request, lane.cur.step, order});
    lane.ctx_tokens += request->context_len();
    lane.finishes.push_back(
        FinishAt{lane.cur.step + request->remaining_decode_steps(), order, request});
    std::push_heap(lane.finishes.begin(), lane.finishes.end(), FinishesLater<FinishAt>);
  }
  lane.joining.erase(lane.joining.begin(),
                     lane.joining.begin() + static_cast<std::ptrdiff_t>(merged));
  if (lane.active.empty()) {
    return;
  }
  StartRun(lane_idx);
}

void DecodeInstance::StartRun(size_t lane_idx) {
  Lane& lane = lanes_[lane_idx];
  Cursor& cur = lane.cur;
  const int64_t batch = static_cast<int64_t>(lane.active.size());
  const model::LatencyModel::DecodeRunPricer pricer = latency_model_.DecodeRun(batch);
  const int64_t steps = std::min(lane.finishes.front().step - cur.step,
                                 std::max(kMinRunSteps, lane.quiet_steps));
  DS_DCHECK(steps >= 1);
  // Price the run step by step. `end` adds each step time to the previous boundary's time,
  // the additions a schedule of one event per step makes, so every boundary is bit-identical.
  const double now = sim_->now();
  lane.durations.resize(static_cast<size_t>(steps));
  double end = now;
  int64_t ctx = lane.ctx_tokens;
  for (int64_t k = 0; k < steps; ++k) {
    const double step_time = pricer.FullTime(ctx);
    lane.durations[static_cast<size_t>(k)] = step_time;
    end += step_time;
    ctx += batch;
  }
  cur.running = true;
  cur.run_first_step = cur.step;
  cur.run_end_step = cur.step + steps;
  cur.step_end = now + lane.durations[0];
  cur.step_key = ++step_keys_;
  busy_seconds_ += lane.durations[0];
  ++steps_executed_;
  if (DS_TRACE_ON(recorder_)) {
    TraceStep(lane_idx, now, lane.durations[0]);
  }
  ScheduleBoundary(lane_idx, end);
}

void DecodeInstance::ScheduleBoundary(size_t lane_idx, double when) {
  lanes_[lane_idx].event = sim_->ScheduleAt(when, [this, epoch = epoch_, lane_idx] {
    if (epoch != epoch_) {
      return;  // the instance died mid-run
    }
    LaneBoundary(lane_idx);
  });
}

void DecodeInstance::LaneBoundary(size_t lane_idx) {
  DS_PROF_ZONE("decode.lane_boundary");
  const double now = sim_->now();
  Sync(now, 0);
  Lane& lane = lanes_[lane_idx];
  Cursor& cur = lane.cur;
  DS_DCHECK(cur.running && cur.step + 1 == cur.run_end_step && cur.step_end == now);
  // Equal-time boundaries fire in step-start order. When another lane's run event should
  // have fired first, go after it. (A single lane has no other boundary to order against.)
  const bool multi_lane = lanes_.size() > 1;
  if (multi_lane) {
    if (EventKeyAt(now) < cur.step_key) {
      ScheduleBoundary(lane_idx, now);
      return;
    }
    Sync(now, cur.step_key);
  }
  cur.running = false;
  ++cur.step;
  lane.quiet_steps += cur.step - cur.run_first_step;
  const int64_t batch = static_cast<int64_t>(lane.active.size());
  lane.ctx_tokens += batch;
  tokens_generated_ += batch;
  // Completions leave in join order, the batch order.
  while (!lane.finishes.empty() && lane.finishes.front().step == cur.step) {
    std::pop_heap(lane.finishes.begin(), lane.finishes.end(), FinishesLater<FinishAt>);
    RequestState* r = lane.finishes.back().request;
    lane.finishes.pop_back();
    Leave(lane, r);
    DS_DCHECK(r->remaining_decode_steps() == 0);
    r->record.completion = now;
    r->phase = RequestPhase::kDone;
    DS_TRACE(recorder_, Finish(r->request.id, now));
    kv_.Release(r->request.id);
    --resident_count_;
    if (on_complete_) {
      on_complete_(r);
    }
  }
  // Freed memory may admit pending requests before the next step forms.
  TryAdmit();
  LaneMaybeStep(lane_idx);
  // Other lanes' boundaries at this same time come next, in step-start order, up to the next
  // one that is a run's event.
  if (multi_lane) {
    Sync(now, EventKeyAt(now));
  }
  CheckInvariants();
}

uint64_t DecodeInstance::EventKeyAt(double t) const {
  uint64_t key = kAllKeys;
  for (const Lane& lane : lanes_) {
    const Cursor& c = lane.cur;
    if (c.running && c.step + 1 == c.run_end_step && c.step_end == t) {
      key = std::min(key, c.step_key);
    }
  }
  return key;
}

void DecodeInstance::Cut(size_t lane_idx) {
  Lane& lane = lanes_[lane_idx];
  Cursor& cur = lane.cur;
  if (!cur.running || cur.step + 1 == cur.run_end_step) {
    return;
  }
  cur.run_end_step = cur.step + 1;
  lane.quiet_steps = 0;
  lane.event.Cancel();
  ScheduleBoundary(lane_idx, cur.step_end);
}

void DecodeInstance::CutNextBoundary() {
  size_t next = lanes_.size();
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const Cursor& c = lanes_[i].cur;
    if (!c.running) {
      continue;
    }
    if (next == lanes_.size() || EndsBefore(c, lanes_[next].cur)) {
      next = i;
    }
  }
  if (next < lanes_.size()) {
    Cut(next);
  }
}

void DecodeInstance::Leave(Lane& lane, RequestState* request) {
  const size_t slot = static_cast<size_t>(request->decode_slot);
  request->decode_steps_done += static_cast<int>(lane.cur.step - lane.active[slot].join_step);
  lane.ctx_tokens -= request->context_len();
  lane.active[slot] = lane.active.back();
  lane.active[slot].request->decode_slot = static_cast<int>(slot);
  lane.active.pop_back();
  request->decode_slot = -1;
}

void DecodeInstance::RemoveFromLanes(RequestState* request) {
  for (size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = lanes_[i];
    if (std::erase(lane.joining, request) > 0) {
      return;
    }
    const int slot = request->decode_slot;
    if (slot >= 0 && static_cast<size_t>(slot) < lane.active.size() &&
        lane.active[static_cast<size_t>(slot)].request == request) {
      std::erase_if(lane.finishes, [request](const FinishAt& f) { return f.request == request; });
      std::make_heap(lane.finishes.begin(), lane.finishes.end(), FinishesLater<FinishAt>);
      Leave(lane, request);
      // The in-flight step still ends on schedule, priced for the batch it started with; the
      // next step forms without the request.
      Cut(i);
      return;
    }
  }
}

uint64_t DecodeInstance::ExternalKey() const {
  // Inside an event, boundaries at exactly now are still to come: an event scheduled before a
  // step began is queued ahead of that step's end. After Run(until) returned, every boundary
  // up to the horizon has fired.
  return sim_->last_event_time() < sim_->now() ? kAllKeys : 0;
}

template <typename CursorAt, typename OnPass>
void DecodeInstance::WalkBoundaries(CursorAt cursor, double t, uint64_t key, uint64_t* keys,
                                    OnPass on_pass) const {
  const size_t none = lanes_.size();
  while (true) {
    size_t next = none;
    for (size_t i = 0; i < lanes_.size(); ++i) {
      const Cursor& c = cursor(i);
      // Only run-internal boundaries: a run's last one belongs to its event.
      if (!c.running || c.step + 1 == c.run_end_step || c.step_end > t ||
          (c.step_end == t && c.step_key >= key)) {
        continue;
      }
      if (next == none || EndsBefore(c, cursor(next))) {
        next = i;
      }
    }
    if (next == none) {
      return;
    }
    Cursor& c = cursor(next);
    const double start = c.step_end;
    ++c.step;
    const double step_time = lanes_[next].durations[static_cast<size_t>(c.step - c.run_first_step)];
    c.step_end = start + step_time;
    c.step_key = ++*keys;
    on_pass(next, start, step_time);
  }
}

void DecodeInstance::Sync(double t, uint64_t key) {
  WalkBoundaries([this](size_t i) -> Cursor& { return lanes_[i].cur; }, t, key, &step_keys_,
                 [this](size_t i, double start, double step_time) {
                   Lane& lane = lanes_[i];
                   const int64_t batch = static_cast<int64_t>(lane.active.size());
                   lane.ctx_tokens += batch;
                   tokens_generated_ += batch;
                   busy_seconds_ += step_time;
                   ++steps_executed_;
                   if (DS_TRACE_ON(recorder_)) {
                     TraceStep(i, start, step_time);
                   }
                 });
}

DecodeInstance::Totals DecodeInstance::Observed() const {
  Totals totals{steps_executed_, tokens_generated_, busy_seconds_};
  std::vector<Cursor> cursors;
  cursors.reserve(lanes_.size());
  for (const Lane& lane : lanes_) {
    cursors.push_back(lane.cur);
  }
  uint64_t keys = step_keys_;
  WalkBoundaries([&cursors](size_t i) -> Cursor& { return cursors[i]; }, sim_->now(),
                 kAllKeys, &keys, [this, &totals](size_t i, double, double step_time) {
                   totals.tokens += static_cast<int64_t>(lanes_[i].active.size());
                   totals.busy += step_time;
                   ++totals.steps;
                 });
  return totals;
}

void DecodeInstance::TraceStep(size_t lane_idx, double start, double step_time) {
  const Lane& lane = lanes_[lane_idx];
  for (const Member& m : lane.active) {
    // Coalesced by the recorder into one contiguous decode_step run per stretch.
    recorder_->Transition(
        m.request->request.id, start, trace::SpanKind::kDecodeStep, trace::DecodePid(id_),
        static_cast<int32_t>(lane_idx),
        m.request->decode_steps_done + (lane.cur.step - m.join_step));
  }
  recorder_->InstanceSpan(trace::DecodePid(id_), static_cast<int32_t>(lane_idx),
                          trace::SpanKind::kDecodeStep, start, start + step_time,
                          static_cast<int64_t>(lane.active.size()));
}

void DecodeInstance::CheckInvariants() const {
#ifndef NDEBUG
  DS_DCHECK(resident_count_ == static_cast<int64_t>(kv_.sequence_count()))
      << resident_count_ << " residents, " << kv_.sequence_count() << " KV sequences";
  std::vector<const RequestState*> members(pending_.begin(), pending_.end());
  for (const Lane& lane : lanes_) {
    int64_t ctx = 0;
    for (size_t slot = 0; slot < lane.active.size(); ++slot) {
      const Member& m = lane.active[slot];
      DS_DCHECK(m.request->decode_slot == static_cast<int>(slot));
      ctx += m.request->context_len() + (lane.cur.step - m.join_step);
      members.push_back(m.request);
    }
    DS_DCHECK(ctx == lane.ctx_tokens) << "lane context " << lane.ctx_tokens << " vs " << ctx;
    DS_DCHECK(lane.finishes.size() == lane.active.size());
    members.insert(members.end(), lane.joining.begin(), lane.joining.end());
  }
  std::sort(members.begin(), members.end());
  DS_DCHECK(std::adjacent_find(members.begin(), members.end()) == members.end())
      << "a request is both pending and in a lane, or in two lanes";
#endif
}

}  // namespace distserve::engine
