// The event-driven virtual-time engine of mpsim (docs/simulator.md).
//
// World::run executes each simulated process body as a stackful fiber on the
// calling thread and dispatches the fibers one at a time from a central
// ready queue ordered by (virtual clock, world rank). That ordering is the
// engine's determinism contract: of all runnable processes the one with the
// smallest virtual clock runs next, and simultaneous events break the tie by
// ascending world rank. Blocking sites (the mailbox, the runtime rendezvous)
// park the fiber on a WaitChannel. When no fiber is runnable the engine
// declares a structural stall and wakes one parked fiber as "timed out": the
// one with the smallest explicit wait timeout, ties going to the lower world
// rank. A wait without an explicit timeout ranks after every explicit one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <vector>

#include "mpsim/types.hpp"

namespace hmpi::mp::sim {

class EventEngine;
class Fiber;

/// Resolves the fiber stack size: a positive configured value wins, else
/// HMPI_SIM_STACK_KB (a whole int >= 1, in KiB), else 512 KiB. Any other
/// non-empty HMPI_SIM_STACK_KB throws InvalidArgument (support/env.hpp).
std::size_t resolve_stack_bytes(std::size_t configured);

/// True when the calling thread is currently executing a simulation fiber.
bool on_fiber() noexcept;

/// Blocking primitive of simulated processes: wait() parks the calling fiber
/// and notify_all() moves every parked fiber back to the ready queue.
/// Callers use it like a condition variable with an external mutex.
class WaitChannel {
 public:
  /// Releases `lock`, parks the calling fiber until notified (true) or woken
  /// as a structural-stall victim (false), and reacquires `lock` before
  /// returning. `timeout_s` only orders stall victims (smallest first).
  /// Waiting outside a simulated process is an internal error.
  bool wait(std::unique_lock<std::mutex>& lock, double timeout_s = kNoTimeout);

  /// Wakes every parked fiber.
  void notify_all();

  const char* debug_name = "channel";  ///< HMPI_SIM_DEBUG stall dumps only.

 private:
  friend class EventEngine;
  std::mutex fiber_mutex_;
  std::vector<Fiber*> fibers_;
};

/// Dispatches N process-body fibers to completion in virtual-time order.
class EventEngine {
 public:
  struct Config {
    std::size_t stack_bytes = 512 * 1024;
    /// Current virtual clock of rank r; sampled when a fiber becomes ready
    /// (its clock cannot advance while it is parked).
    std::function<double(int)> clock_of;
  };

  struct Metrics {
    std::uint64_t dispatches = 0;  ///< Fiber resumes.
    std::uint64_t stalls = 0;      ///< Structural-stall victim wakeups.
    std::size_t ready_peak = 0;    ///< High-water mark of the ready queue.
  };

  /// Reads the HMPI_SIM_DEBUG flag (unset or empty is off; a value that is
  /// no flag spelling throws InvalidArgument, support/env.hpp).
  explicit EventEngine(Config config);
  ~EventEngine();
  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  /// Runs fibers 0..nprocs-1, each executing body(rank), until all finish.
  /// `body` must not throw (wrap process bodies in a catch-all first).
  void run(int nprocs, const std::function<void(int)>& body);

  const Metrics& metrics() const noexcept { return metrics_; }

 private:
  friend class WaitChannel;

  /// Parks the current fiber on `channel` (WaitChannel::wait).
  bool park(Fiber* fiber, WaitChannel& channel,
            std::unique_lock<std::mutex>& lock, double timeout_s);

  /// Moves a parked fiber to the ready queue (notify or stall wakeup).
  void make_ready(Fiber* fiber);

  Fiber* pop_ready();
  void dispatch(Fiber* fiber);
  void wake_stall_victim();

  Config config_;
  bool debug_ = false;  ///< HMPI_SIM_DEBUG: dump the parked fibers per stall.
  std::vector<std::unique_ptr<Fiber>> fibers_;
  int finished_ = 0;

  // Ready queue: min-heap on (virtual clock at wake, world rank).
  std::mutex mutex_;
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>,
                      std::greater<std::pair<double, int>>>
      ready_;

  Metrics metrics_;
};

}  // namespace hmpi::mp::sim
