#include "mpsim/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "mpsim/fiber.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "telemetry/metrics.hpp"

namespace hmpi::mp::sim {

namespace {

// The fiber the calling thread is currently executing, set around every
// resume. Threads the simulation spawns for real host work (e.g. the
// mapper's ThreadPool) never see it set.
thread_local Fiber* tl_fiber = nullptr;

}  // namespace

std::size_t resolve_stack_bytes(std::size_t configured) {
  if (configured > 0) return configured;
  // KiB, bounded so the byte count cannot overflow.
  const long long kib = support::env::integer(
      "HMPI_SIM_STACK_KB", 1,
      static_cast<long long>(std::numeric_limits<std::size_t>::max() / 1024),
      512);
  return static_cast<std::size_t>(kib) * 1024;
}

bool on_fiber() noexcept { return tl_fiber != nullptr; }

bool WaitChannel::wait(std::unique_lock<std::mutex>& lock, double timeout_s) {
  support::require(
      tl_fiber != nullptr,
      "blocking wait outside a simulated process (internal error)");
  return tl_fiber->engine()->park(tl_fiber, *this, lock, timeout_s);
}

void WaitChannel::notify_all() {
  // Wakes under the channel lock and keeps the waiter buffer, so the next
  // park does not allocate. Channel before engine is the lock order
  // wake_stall_victim keeps too.
  std::lock_guard<std::mutex> guard(fiber_mutex_);
  for (Fiber* f : fibers_) f->engine()->make_ready(f);
  fibers_.clear();
}

EventEngine::EventEngine(Config config)
    : config_(std::move(config)),
      debug_(support::env::flag("HMPI_SIM_DEBUG", false)) {
  support::require(static_cast<bool>(config_.clock_of),
                   "event engine needs a clock_of callback");
}

EventEngine::~EventEngine() = default;

bool EventEngine::park(Fiber* f, WaitChannel& channel,
                       std::unique_lock<std::mutex>& lock, double timeout_s) {
  {
    std::lock_guard<std::mutex> guard(channel.fiber_mutex_);
    f->timed_out = false;
    f->park_timeout_s = timeout_s;
    f->parked_on = &channel;
    channel.fibers_.push_back(f);
  }
  f->state = Fiber::State::kParked;
  lock.unlock();
  f->yield();
  lock.lock();
  return !f->timed_out;
}

void EventEngine::make_ready(Fiber* fiber) {
  std::lock_guard<std::mutex> guard(mutex_);
  fiber->parked_on = nullptr;
  fiber->state = Fiber::State::kReady;
  ready_.push({config_.clock_of(fiber->rank()), fiber->rank()});
  metrics_.ready_peak = std::max(metrics_.ready_peak, ready_.size());
}

Fiber* EventEngine::pop_ready() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (ready_.empty()) return nullptr;
  const int rank = ready_.top().second;
  ready_.pop();
  return fibers_[static_cast<std::size_t>(rank)].get();
}

void EventEngine::wake_stall_victim() {
  // No fiber is runnable and none is running: every live fiber is parked.
  // Wake the one with the smallest wait timeout (kNoTimeout is infinite, so
  // it ranks last), ties broken by ascending world rank, flagged timed_out
  // so its wait returns false and the caller raises its deadlock diagnosis.
  Fiber* victim = nullptr;
  for (const auto& f : fibers_) {
    if (f->state != Fiber::State::kParked) continue;
    if (victim == nullptr || f->park_timeout_s < victim->park_timeout_s) {
      victim = f.get();
    }
  }
  support::require(victim != nullptr,
                   "event engine stalled with no parked fiber (internal error)");
  if (debug_) {
    std::fprintf(stderr, "[sim] stall: victim rank=%d timeout=%.9f; parked:",
                 victim->rank(), victim->park_timeout_s);
    for (const auto& f : fibers_) {
      if (f->state == Fiber::State::kParked) {
        std::fprintf(stderr, " %d(%s,t=%.9f)", f->rank(),
                     f->parked_on->debug_name, f->park_timeout_s);
      } else if (f->state != Fiber::State::kFinished) {
        std::fprintf(stderr, " %d(state=%d)", f->rank(),
                     static_cast<int>(f->state));
      }
    }
    std::fprintf(stderr, "\n");
  }
  WaitChannel* channel = victim->parked_on;
  {
    std::lock_guard<std::mutex> guard(channel->fiber_mutex_);
    auto& waiters = channel->fibers_;
    waiters.erase(std::remove(waiters.begin(), waiters.end(), victim),
                  waiters.end());
  }
  victim->timed_out = true;
  make_ready(victim);
  ++metrics_.stalls;
}

void EventEngine::dispatch(Fiber* fiber) {
  support::require(fiber->state == Fiber::State::kReady,
                   "event engine dispatched a fiber that is not ready");
  ++metrics_.dispatches;
  tl_fiber = fiber;
  fiber->state = Fiber::State::kRunning;
  {
    // Redirect process-local storage to this fiber's table for the
    // duration of the resume.
    support::ProcessLocalsGuard locals_guard(&fiber->locals);
    fiber->resume();
  }
  tl_fiber = nullptr;
  if (fiber->state == Fiber::State::kFinished) ++finished_;
}

void EventEngine::run(int nprocs, const std::function<void(int)>& body) {
  support::require(nprocs >= 1, "event engine needs at least one process");
  support::require(fibers_.empty(), "EventEngine::run is single-use");
  const std::size_t stack_bytes = config_.stack_bytes;
  fibers_.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    fibers_.push_back(std::make_unique<Fiber>(this, r, stack_bytes,
                                              [&body, r] { body(r); }));
  }
  {
    // All clocks start equal, so the initial dispatch order is rank order.
    std::lock_guard<std::mutex> guard(mutex_);
    for (int r = 0; r < nprocs; ++r) {
      ready_.push({config_.clock_of(r), r});
    }
    metrics_.ready_peak = ready_.size();
  }

  while (finished_ < nprocs) {
    Fiber* next = pop_ready();
    if (next == nullptr) {
      wake_stall_victim();
      continue;
    }
    dispatch(next);
  }

  auto& metrics = telemetry::metrics();
  metrics.counter("sim.dispatches").add(static_cast<double>(metrics_.dispatches));
  metrics.counter("sim.stalls").add(static_cast<double>(metrics_.stalls));
  metrics.gauge("sim.fibers").set(static_cast<double>(nprocs));
  metrics.gauge("sim.ready_peak").set(static_cast<double>(metrics_.ready_peak));
  metrics.gauge("sim.stack_bytes").set(static_cast<double>(stack_bytes));
}

}  // namespace hmpi::mp::sim
