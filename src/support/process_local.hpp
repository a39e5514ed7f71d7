// Per-simulated-process storage.
//
// The event engine multiplexes many simulated-process fibers over one host
// thread, where a plain thread_local would be shared — and clobbered —
// across processes. This header is the replacement: storage keyed by the
// *simulated process*.
//
// The engine installs the running fiber's slot table around every resume
// via ProcessLocalsGuard; when no table is installed (a host thread that is
// no simulated process, e.g. a mapper pool worker) a thread_local table is
// used. Keys are addresses of translation-unit-local tag objects, so
// independent users cannot collide.
#pragma once

#include <memory>
#include <unordered_map>

namespace hmpi::support {

/// Slot table: one type-erased value per key.
using ProcessLocals = std::unordered_map<const void*, std::shared_ptr<void>>;

/// Installs `locals` as the calling thread's process-local table for the
/// guard's lifetime; restores the previous table on destruction. Engine use
/// only (pass the table owned by the fiber being resumed).
class ProcessLocalsGuard {
 public:
  explicit ProcessLocalsGuard(ProcessLocals* locals) noexcept;
  ~ProcessLocalsGuard();
  ProcessLocalsGuard(const ProcessLocalsGuard&) = delete;
  ProcessLocalsGuard& operator=(const ProcessLocalsGuard&) = delete;

 private:
  ProcessLocals* saved_;
};

/// The slot for `key` in the current simulated process's table. The returned
/// reference is invalidated by other process_local_slot calls (rehash); use
/// it immediately.
std::shared_ptr<void>& process_local_slot(const void* key);

/// Typed convenience: the current process's value for `key`, default-
/// constructed on first access.
template <typename T>
T& process_local(const void* key) {
  std::shared_ptr<void>& slot = process_local_slot(key);
  if (slot == nullptr) slot = std::make_shared<T>();
  return *static_cast<T*>(slot.get());
}

}  // namespace hmpi::support
