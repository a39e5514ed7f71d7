// The event-driven virtual-time engine of mpsim (docs/simulator.md).
//
// The classic engine runs one OS thread per simulated process; this one runs
// each process body as a stackful fiber and dispatches fibers one at a time
// from a central ready queue ordered by (virtual clock, world rank). That
// ordering is the engine's determinism contract: of all runnable processes
// the one with the smallest virtual clock runs next, and simultaneous
// events break the tie by ascending world rank. Blocking sites (the mailbox,
// the runtime rendezvous) park the fiber on a WaitChannel instead of a
// condition variable; when no fiber is runnable the engine declares a
// structural stall and wakes the parked fiber with the smallest
// (timeout, rank) as "timed out" — the virtual-time equivalent of the
// thread engine's real-time deadlock timeout.
//
// Worker threads host the fiber stacks (fiber r is pinned to worker
// r % workers); dispatch remains globally sequential, so results are
// identical for every worker count by construction.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hmpi::mp::sim {

class EventEngine;
class Fiber;

/// Which execution engine World::run uses (WorldOptions::engine).
enum class SimEngine {
  kAuto,    ///< HMPI_SIM_ENGINE env var, defaulting to kThread.
  kThread,  ///< One OS thread per simulated process (the classic engine).
  kEvent,   ///< Fibers over a virtual-time event queue.
};

/// Resolves kAuto against the HMPI_SIM_ENGINE env var ("thread" | "event",
/// "fiber" an alias of "event"); unset means kThread. Any other value throws
/// InvalidArgument naming the variable and the accepted spellings.
SimEngine resolve_engine(SimEngine configured);

/// Resolves the event-engine worker count: a positive configured value wins,
/// else HMPI_SIM_WORKERS, else 1. A set HMPI_SIM_WORKERS that is not a
/// positive integer throws InvalidArgument.
int resolve_workers(int configured);

/// Resolves the fiber stack size: a positive configured value wins, else
/// HMPI_SIM_STACK_KB, else 512 KiB. A set HMPI_SIM_STACK_KB that is not a
/// positive integer throws InvalidArgument.
std::size_t resolve_stack_bytes(std::size_t configured);

/// True when the calling thread is currently executing a simulation fiber.
bool on_fiber() noexcept;

/// Engine-agnostic blocking primitive. Under the thread engine it is a plain
/// condition variable; under the event engine wait() parks the calling fiber
/// and notify_all() moves every parked fiber back to the ready queue.
/// Callers use it exactly like a condition variable with an external mutex.
class WaitChannel {
 public:
  /// Releases `lock`, blocks until notified (true) or timed out (false),
  /// reacquires `lock` before returning. On a fiber, "timed out" means the
  /// engine picked this fiber as a structural-stall victim.
  bool wait(std::unique_lock<std::mutex>& lock, double timeout_s);

  /// Wakes every waiter (threads and fibers).
  void notify_all();

  const char* debug_name = "channel";  ///< HMPI_SIM_DEBUG stall dumps only.

 private:
  friend class EventEngine;
  std::condition_variable cv_;
  std::mutex fiber_mutex_;
  std::vector<Fiber*> fibers_;
};

/// Dispatches N process-body fibers to completion in virtual-time order.
class EventEngine {
 public:
  struct Config {
    int workers = 1;
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

  /// Parks the current fiber on `channel` (WaitChannel::wait, fiber path).
  bool park(WaitChannel& channel, std::unique_lock<std::mutex>& lock,
            double timeout_s);

  /// Moves a parked fiber to the ready queue (notify or stall wakeup).
  void make_ready(Fiber* fiber);

  Fiber* pop_ready();
  void dispatch(Fiber* fiber);
  void run_fiber(Fiber* fiber);
  void wake_stall_victim();
  void start_workers();
  void stop_workers();

  Config config_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  int finished_ = 0;

  // Ready queue: min-heap on (virtual clock at wake, world rank).
  std::mutex mutex_;
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>,
                      std::greater<std::pair<double, int>>>
      ready_;

  // Worker pool (baton handoff: the scheduler hands one fiber to its pinned
  // worker and waits for the yield, so dispatch stays sequential).
  struct Worker {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    Fiber* assigned = nullptr;
    bool done = false;
    bool stop = false;
  };
  std::vector<std::unique_ptr<Worker>> workers_;

  Metrics metrics_;
};

}  // namespace hmpi::mp::sim
