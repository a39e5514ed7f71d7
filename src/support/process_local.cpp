#include "support/process_local.hpp"

namespace hmpi::support {

namespace {

// The table for threads that are no simulated process (host threads, e.g.
// the caller of World::run or a mapper pool worker).
thread_local ProcessLocals tls_locals;

// Overrides tls_locals while a fiber is resumed on this thread.
thread_local ProcessLocals* tl_current = nullptr;

}  // namespace

ProcessLocalsGuard::ProcessLocalsGuard(ProcessLocals* locals) noexcept
    : saved_(tl_current) {
  tl_current = locals;
}

ProcessLocalsGuard::~ProcessLocalsGuard() { tl_current = saved_; }

std::shared_ptr<void>& process_local_slot(const void* key) {
  ProcessLocals& table = tl_current != nullptr ? *tl_current : tls_locals;
  return table[key];
}

}  // namespace hmpi::support
