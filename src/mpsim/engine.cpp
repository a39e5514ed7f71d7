#include "mpsim/engine.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "mpsim/fiber.hpp"
#include "support/error.hpp"
#include "telemetry/metrics.hpp"

namespace hmpi::mp::sim {

namespace {

// Which engine/fiber the calling thread is currently executing. Set by the
// scheduler and worker threads around fiber resumes; threads the simulation
// spawns for real host work (e.g. the mapper's ThreadPool) never inherit it,
// so their waits stay ordinary condition-variable waits.
thread_local EventEngine* tl_engine = nullptr;
thread_local Fiber* tl_fiber = nullptr;

/// Value of the positive-integer env knob `name`, or `fallback` when it is
/// unset. Anything but a whole decimal number in [1, max] throws.
long positive_env(const char* name, long max, long fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < 1 ||
      parsed > max) {
    throw InvalidArgument(std::string(name) + "='" + value +
                          "' is not a positive integer (accepted: 1.." +
                          std::to_string(max) + ")");
  }
  return parsed;
}

}  // namespace

SimEngine resolve_engine(SimEngine configured) {
  if (configured != SimEngine::kAuto) return configured;
  const char* value = std::getenv("HMPI_SIM_ENGINE");
  if (value == nullptr) return SimEngine::kThread;
  const std::string v(value);
  if (v == "thread") return SimEngine::kThread;
  if (v == "event" || v == "fiber") return SimEngine::kEvent;
  throw InvalidArgument("HMPI_SIM_ENGINE='" + v +
                        "' is not an engine (accepted: thread|event|fiber)");
}

int resolve_workers(int configured) {
  if (configured > 0) return configured;
  return static_cast<int>(positive_env(
      "HMPI_SIM_WORKERS", std::numeric_limits<int>::max(), 1));
}

std::size_t resolve_stack_bytes(std::size_t configured) {
  if (configured > 0) return configured;
  // KiB, bounded so the byte count cannot overflow.
  const long kib = positive_env(
      "HMPI_SIM_STACK_KB",
      static_cast<long>(std::numeric_limits<std::size_t>::max() / 1024), 512);
  return static_cast<std::size_t>(kib) * 1024;
}

bool on_fiber() noexcept { return tl_fiber != nullptr; }

bool WaitChannel::wait(std::unique_lock<std::mutex>& lock, double timeout_s) {
  if (tl_fiber != nullptr && tl_engine != nullptr) {
    return tl_engine->park(*this, lock, timeout_s);
  }
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s)) ==
         std::cv_status::no_timeout;
}

void WaitChannel::notify_all() {
  std::vector<Fiber*> woken;
  {
    std::lock_guard<std::mutex> guard(fiber_mutex_);
    woken.swap(fibers_);
  }
  for (Fiber* f : woken) f->engine()->make_ready(f);
  cv_.notify_all();
}

EventEngine::EventEngine(Config config) : config_(std::move(config)) {
  support::require(config_.workers >= 1, "event engine needs >= 1 worker");
  support::require(static_cast<bool>(config_.clock_of),
                   "event engine needs a clock_of callback");
}

EventEngine::~EventEngine() { stop_workers(); }

bool EventEngine::park(WaitChannel& channel, std::unique_lock<std::mutex>& lock,
                       double timeout_s) {
  Fiber* f = tl_fiber;
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
  // Wake the one the thread engine would have timed out first — smallest
  // wait timeout, ties broken by ascending world rank — flagged timed_out so
  // its wait returns false and the caller raises its deadlock diagnosis.
  Fiber* victim = nullptr;
  for (const auto& f : fibers_) {
    if (f->state != Fiber::State::kParked) continue;
    if (victim == nullptr || f->park_timeout_s < victim->park_timeout_s) {
      victim = f.get();
    }
  }
  support::require(victim != nullptr,
                   "event engine stalled with no parked fiber (internal error)");
  static const bool debug = std::getenv("HMPI_SIM_DEBUG") != nullptr;
  if (debug) {
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

void EventEngine::run_fiber(Fiber* fiber) {
  EventEngine* prev_engine = tl_engine;
  Fiber* prev_fiber = tl_fiber;
  tl_engine = this;
  tl_fiber = fiber;
  fiber->state = Fiber::State::kRunning;
  {
    // Redirect process-local storage (the engine-agnostic thread_local
    // replacement) to this fiber's table for the duration of the resume.
    support::ProcessLocalsGuard locals_guard(&fiber->locals);
    fiber->resume();
  }
  tl_engine = prev_engine;
  tl_fiber = prev_fiber;
}

void EventEngine::dispatch(Fiber* fiber) {
  support::require(fiber->state == Fiber::State::kReady,
                   "event engine dispatched a fiber that is not ready");
  ++metrics_.dispatches;
  if (workers_.empty()) {
    run_fiber(fiber);
  } else {
    // Fibers are pinned to worker rank % W: a fiber's stack only ever
    // executes on one thread, and dispatch stays sequential (the scheduler
    // waits for the yield before picking the next fiber).
    Worker& w = *workers_[static_cast<std::size_t>(fiber->rank()) %
                          workers_.size()];
    std::unique_lock<std::mutex> lock(w.mutex);
    w.assigned = fiber;
    w.done = false;
    w.cv.notify_one();
    w.cv.wait(lock, [&] { return w.done; });
  }
  if (fiber->state == Fiber::State::kFinished) ++finished_;
}

void EventEngine::start_workers() {
  if (config_.workers <= 1) return;  // fast path: fibers run on this thread
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    Worker* w = worker.get();
    w->thread = std::thread([this, w] {
      std::unique_lock<std::mutex> lock(w->mutex);
      for (;;) {
        w->cv.wait(lock, [&] { return w->assigned != nullptr || w->stop; });
        if (w->stop) return;
        Fiber* fiber = w->assigned;
        w->assigned = nullptr;
        lock.unlock();
        run_fiber(fiber);
        lock.lock();
        w->done = true;
        w->cv.notify_one();
      }
    });
    workers_.push_back(std::move(worker));
  }
}

void EventEngine::stop_workers() {
  for (auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mutex);
      worker->stop = true;
    }
    worker->cv.notify_one();
    worker->thread.join();
  }
  workers_.clear();
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
  start_workers();

  while (finished_ < nprocs) {
    Fiber* next = pop_ready();
    if (next == nullptr) {
      wake_stall_victim();
      continue;
    }
    dispatch(next);
  }
  stop_workers();

  auto& metrics = telemetry::metrics();
  metrics.counter("sim.dispatches").add(static_cast<double>(metrics_.dispatches));
  metrics.counter("sim.stalls").add(static_cast<double>(metrics_.stalls));
  metrics.gauge("sim.fibers").set(static_cast<double>(nprocs));
  metrics.gauge("sim.workers").set(static_cast<double>(config_.workers));
  metrics.gauge("sim.ready_peak").set(static_cast<double>(metrics_.ready_peak));
  metrics.gauge("sim.stack_bytes").set(static_cast<double>(stack_bytes));
}

}  // namespace hmpi::mp::sim
