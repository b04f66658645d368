// Scripted decode-instance runs shared by the decode-lane golden and oracle tests.
//
// A Script is a set of requests plus timed Submit/Abort/Fail/Recover calls, scheduled before
// the run starts or made directly between Run(until) windows, and the checkpoints ending
// those windows, at which the instance counters are read from outside the event loop.
// RunScript drives any class with DecodeInstance's interface through it and returns
// everything observable: per-request timestamps, progress and phase, completion order, and
// the counters at every checkpoint. Preempted requests and requests stranded by Fail() are
// resubmitted after a fixed delay, as the serving layer re-routes them.
#ifndef DISTSERVE_TESTS_DECODE_LANE_SCRIPT_H_
#define DISTSERVE_TESTS_DECODE_LANE_SCRIPT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "cluster/gpu_spec.h"
#include "engine/decode_instance.h"
#include "engine/request_state.h"
#include "model/latency_model.h"
#include "simcore/simulator.h"
#include "trace/recorder.h"

namespace distserve::engine::lane_script {

struct Call {
  enum class Kind { kSubmit, kAbort, kFail, kRecover };
  double time = 0.0;
  Kind kind = Kind::kSubmit;
  int request = -1;  // index into Script::requests (kSubmit, kAbort)
  // Made from outside the event loop, right after the Run(until) window ending at `time`
  // (which must be a checkpoint), instead of as a scheduled event.
  bool direct = false;
};

struct Script {
  int pp = 1;
  bool delayed_transfer = false;  // false: null TransferFn, pulls complete instantly
  DecodeInstance::Options options;
  int64_t kv_capacity = 1 << 20;
  std::vector<workload::Request> requests;
  std::vector<Call> calls;
  std::vector<double> checkpoints;  // ascending Run(until) horizons
  double resubmit_delay = 0.0137;
};

struct Counters {
  double time = 0.0;
  int64_t steps = 0;
  int64_t tokens = 0;
  double busy = 0.0;
  int64_t resident = 0;
  int64_t load = 0;
  int64_t used_blocks = 0;
  int64_t preemptions = 0;
};

struct RequestOutcome {
  RequestPhase phase = RequestPhase::kPending;
  int decode_steps_done = 0;
  int preemptions = 0;
  double transfer_start = 0.0;
  double transfer_end = 0.0;
  double decode_start = 0.0;
  double completion = 0.0;
};

struct Outcome {
  std::vector<RequestOutcome> requests;
  std::vector<int> completion_order;
  std::vector<Counters> counters;  // one per checkpoint, then one after the drain

  // FNV-1a over every field, doubles by bit pattern.
  uint64_t Digest() const {
    uint64_t h = 1469598103934665603ull;
    auto add = [&h](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    auto add_double = [&add](double d) { add(std::bit_cast<uint64_t>(d)); };
    for (const RequestOutcome& r : requests) {
      add(static_cast<uint64_t>(r.phase));
      add(static_cast<uint64_t>(r.decode_steps_done));
      add(static_cast<uint64_t>(r.preemptions));
      add_double(r.transfer_start);
      add_double(r.transfer_end);
      add_double(r.decode_start);
      add_double(r.completion);
    }
    for (int id : completion_order) {
      add(static_cast<uint64_t>(id));
    }
    for (const Counters& c : counters) {
      add_double(c.time);
      add(static_cast<uint64_t>(c.steps));
      add(static_cast<uint64_t>(c.tokens));
      add_double(c.busy);
      add(static_cast<uint64_t>(c.resident));
      add(static_cast<uint64_t>(c.load));
      add(static_cast<uint64_t>(c.used_blocks));
      add(static_cast<uint64_t>(c.preemptions));
    }
    return h;
  }
};

template <typename Instance>
Counters ReadCounters(const Instance& instance, const simcore::Simulator& sim) {
  Counters c;
  c.time = sim.now();
  c.steps = instance.steps_executed();
  c.tokens = instance.tokens_generated();
  c.busy = instance.busy_seconds();
  c.resident = instance.resident_requests();
  c.load = instance.load();
  c.used_blocks = instance.kv().used_blocks();
  c.preemptions = instance.preemptions();
  return c;
}

template <typename Instance>
Outcome RunScript(const Script& script, trace::Recorder* recorder = nullptr) {
  simcore::Simulator sim;
  const model::LatencyModel lm(model::ModelSpec::Opt13B(), {1, script.pp},
                               cluster::GpuSpec::A100_80GB());
  typename Instance::Options options;
  options.max_batch_size = script.options.max_batch_size;
  options.kv_block_size = script.options.kv_block_size;
  options.admission_watermark = script.options.admission_watermark;
  Instance instance(&sim, lm, script.kv_capacity, options, 0);
  instance.set_recorder(recorder);

  const size_t n = script.requests.size();
  std::vector<std::unique_ptr<RequestState>> states;
  for (const workload::Request& req : script.requests) {
    states.push_back(std::make_unique<RequestState>(req));
    states.back()->record.first_token = req.arrival_time;
  }
  // Script-side ownership, mirroring what the serving layer tracks.
  enum class Owner { kNone, kInstance, kStranded, kFinished };
  std::vector<Owner> owner(n, Owner::kNone);
  Outcome out;

  std::function<void(int)> submit = [&](int i) {
    if (owner[static_cast<size_t>(i)] == Owner::kFinished ||
        owner[static_cast<size_t>(i)] == Owner::kInstance) {
      return;
    }
    if (!instance.alive()) {
      owner[static_cast<size_t>(i)] = Owner::kStranded;
      return;
    }
    owner[static_cast<size_t>(i)] = Owner::kInstance;
    instance.Submit(states[static_cast<size_t>(i)].get());
  };
  auto resubmit_later = [&](int i) {
    sim.ScheduleAfter(script.resubmit_delay, [&submit, i] { submit(i); });
  };
  instance.set_on_complete([&](RequestState* r) {
    owner[static_cast<size_t>(r->request.id)] = Owner::kFinished;
    out.completion_order.push_back(static_cast<int>(r->request.id));
  });
  instance.set_on_preempt([&](RequestState* r) {
    ++r->attempt;
    r->decode_steps_done = 0;
    owner[static_cast<size_t>(r->request.id)] = Owner::kNone;
    resubmit_later(static_cast<int>(r->request.id));
  });
  if (script.delayed_transfer) {
    instance.set_transfer_fn([&sim](RequestState* r, auto done) {
      const int attempt = r->attempt;
      const double delay = 1e-3 * static_cast<double>(1 + r->request.input_len % 37);
      sim.ScheduleAfter(delay, [r, attempt, done = std::move(done)] {
        if (r->attempt == attempt) {
          done();  // an abort or fault in the meantime squashes the pull
        }
      });
    });
  }

  auto make_call = [&](const Call& call) {
    switch (call.kind) {
      case Call::Kind::kSubmit:
        submit(call.request);
        break;
      case Call::Kind::kAbort: {
        const size_t i = static_cast<size_t>(call.request);
        if (owner[i] != Owner::kInstance) {
          break;
        }
        RequestState* r = states[i].get();
        ++r->attempt;
        instance.Abort(r);
        r->phase = RequestPhase::kCancelled;
        owner[i] = Owner::kFinished;
        break;
      }
      case Call::Kind::kFail:
        instance.Fail();
        for (size_t i = 0; i < n; ++i) {
          if (owner[i] == Owner::kInstance) {
            ++states[i]->attempt;
            states[i]->decode_steps_done = 0;
            owner[i] = Owner::kStranded;
          }
        }
        break;
      case Call::Kind::kRecover:
        instance.Recover();
        for (size_t i = 0; i < n; ++i) {
          if (owner[i] == Owner::kStranded) {
            owner[i] = Owner::kNone;
            resubmit_later(static_cast<int>(i));
          }
        }
        break;
    }
  };
  for (const Call& call : script.calls) {
    if (!call.direct) {
      sim.ScheduleAt(call.time, [&make_call, call] { make_call(call); });
    }
  }

  for (double horizon : script.checkpoints) {
    sim.Run(horizon);
    out.counters.push_back(ReadCounters(instance, sim));
    for (const Call& call : script.calls) {
      if (call.direct && call.time == horizon) {
        make_call(call);
      }
    }
  }
  sim.Run();
  out.counters.push_back(ReadCounters(instance, sim));
  for (const auto& s : states) {
    RequestOutcome r;
    r.phase = s->phase;
    r.decode_steps_done = s->decode_steps_done;
    r.preemptions = s->preemptions;
    r.transfer_start = s->record.transfer_start;
    r.transfer_end = s->record.transfer_end;
    r.decode_start = s->record.decode_start;
    r.completion = s->record.completion;
    out.requests.push_back(r);
  }
  return out;
}

// A random script: `n` requests with short outputs (so runs finish, merge and cut often),
// arrivals over about a second, some aborts, optional tenant priorities and a fail/recover
// window, and checkpoints at random times.
inline Script RandomScript(uint64_t seed, int pp, bool delayed_transfer, bool priorities,
                           bool faults, int n = 40) {
  std::mt19937_64 rng(seed);
  auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&rng](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  Script s;
  s.pp = pp;
  s.delayed_transfer = delayed_transfer;
  s.options.max_batch_size = pick(2, 12) * pp;
  // Room for a handful of residents only, so admission blocks and tenants preempt.
  s.kv_capacity = pick(6, 16) * 400;
  for (int i = 0; i < n; ++i) {
    workload::Request req;
    req.id = i;
    req.arrival_time = uniform(0.0, 1.0);
    req.input_len = pick(16, 300);
    req.output_len = pick(2, 60);
    req.priority = priorities ? pick(0, 2) : 0;
    s.requests.push_back(req);
    s.calls.push_back(Call{req.arrival_time, Call::Kind::kSubmit, i});
    if (pick(0, 5) == 0) {
      s.calls.push_back(Call{req.arrival_time + uniform(0.0, 1.5), Call::Kind::kAbort, i});
    }
  }
  if (faults) {
    const double fail_at = uniform(0.2, 1.2);
    s.calls.push_back(Call{fail_at, Call::Kind::kFail, -1});
    s.calls.push_back(Call{fail_at + uniform(0.01, 0.3), Call::Kind::kRecover, -1});
  }
  for (int k = 0; k < 4; ++k) {
    s.checkpoints.push_back(uniform(0.0, 2.0));
  }
  std::sort(s.checkpoints.begin(), s.checkpoints.end());
  return s;
}

}  // namespace distserve::engine::lane_script

#endif  // DISTSERVE_TESTS_DECODE_LANE_SCRIPT_H_
