// Stackful fiber for the event-driven simulation engine (docs/simulator.md).
//
// A Fiber is one resumable simulated-process task: an mmap'd stack (with a
// PROT_NONE guard page below it) plus a saved machine context. Stacks come
// from a process-wide pool and go back to it when the fiber is destroyed, so
// a run of many small worlds maps each stack once. On x86-64 the context
// switch is a hand-written routine that swaps the callee-saved registers and
// the stack pointer; elsewhere it is swapcontext. Execution is cooperative —
// the fiber runs on a host thread until it parks on a sim::WaitChannel or its
// entry returns; resume()/yield() switch between the host thread's context
// and the fiber's. All scheduling state (state, timed_out, parked_on) is
// owned by the EventEngine, which dispatches at most one fiber at a time.
#pragma once

#include <cstddef>
#include <functional>

// The hand-written x86-64 switch (fiber.cpp); other platforms use
// swapcontext.
#if defined(__x86_64__) && defined(__ELF__)
#define HMPI_FIBER_ASM_SWITCH 1
#else
#include <ucontext.h>
#endif

#include "support/process_local.hpp"

namespace hmpi::mp::sim {

class EventEngine;
class WaitChannel;

class Fiber {
 public:
  enum class State { kReady, kRunning, kParked, kFinished };

  /// `stack_bytes` is rounded up to whole pages; the entry must not throw
  /// (the engine wraps process bodies in a catch-all).
  Fiber(EventEngine* engine, int rank, std::size_t stack_bytes,
        std::function<void()> entry);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches the calling host thread into the fiber; returns at the fiber's
  /// next yield() (park or finish). Only the engine calls this.
  void resume();

  /// Switches from inside the fiber back to the host thread that resumed it.
  void yield();

  int rank() const noexcept { return rank_; }
  EventEngine* engine() const noexcept { return engine_; }
  std::size_t stack_bytes() const noexcept { return stack_bytes_; }

  State state = State::kReady;
  /// Set when the engine wakes the fiber as a structural-stall victim rather
  /// than through a notify; WaitChannel::wait returns false in that case.
  bool timed_out = false;
  /// Timeout of the wait the fiber is parked in (stall-victim priority).
  double park_timeout_s = 0.0;
  /// Channel the fiber is parked on (so a stall can deregister it).
  WaitChannel* parked_on = nullptr;
  /// This simulated process's thread_local-replacement slots (the engine
  /// installs the table around every resume; see support/process_local.hpp).
  support::ProcessLocals locals;

 private:
  static void start(Fiber* self);
  void entry_point();

  EventEngine* engine_;
  int rank_;
  std::function<void()> entry_;

  void* map_base_ = nullptr;  ///< mmap base: guard page + stack (pooled).
  std::size_t map_bytes_ = 0;
  void* stack_base_ = nullptr;  ///< Usable stack low address.
  std::size_t stack_bytes_ = 0;

#if defined(HMPI_FIBER_ASM_SWITCH)
  void* sp_ = nullptr;       ///< Fiber stack pointer while it is switched out.
  void* host_sp_ = nullptr;  ///< Host stack pointer while the fiber runs.
#else
  static void trampoline(unsigned hi, unsigned lo);
  ucontext_t ctx_;
  ucontext_t host_;
#endif

  // Sanitizer bookkeeping (no-ops outside TSan/ASan builds).
  void* tsan_fiber_ = nullptr;
  void* tsan_host_ = nullptr;
  void* asan_fake_stack_ = nullptr;
  const void* asan_host_stack_base_ = nullptr;
  std::size_t asan_host_stack_size_ = 0;
};

}  // namespace hmpi::mp::sim
