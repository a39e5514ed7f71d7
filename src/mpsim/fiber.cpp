#include "mpsim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "support/error.hpp"
#include "telemetry/metrics.hpp"

// Sanitizer fiber support: without these annotations TSan/ASan see one OS
// thread jumping between stacks and report false positives (or crash while
// unwinding fake stacks).
#if defined(__SANITIZE_THREAD__)
#define HMPI_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HMPI_FIBER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define HMPI_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HMPI_FIBER_ASAN 1
#endif
#endif

#if defined(HMPI_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif
#if defined(HMPI_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(HMPI_FIBER_ASM_SWITCH)
// hmpi_fiber_switch(save_sp, load_sp) is the SysV x86-64 context switch. It
// pushes the callee-saved registers (rbp, rbx, r12-r15) and the MXCSR and
// x87 control words, stores the stack pointer to *save_sp, loads load_sp
// and pops the same frame from there. Unlike swapcontext it leaves the
// signal mask alone, so a switch makes no syscall. It does not switch a CET
// shadow stack, so it must not run in a process that enables one.
//
// A new fiber's first switch returns into hmpi_fiber_start. The frame
// Fiber::Fiber prepares holds the Fiber in r12 and Fiber::start in r13, and
// leaves rsp 16-byte aligned at the call below, as the ABI requires.
// Fiber::start never returns; the undefined return address ends unwinding.
extern "C" {
__attribute__((visibility("hidden"))) void hmpi_fiber_switch(void** save_sp,
                                                             void* load_sp);
__attribute__((visibility("hidden"))) void hmpi_fiber_start();
}

asm(R"(
  .pushsection .text
  .p2align 4
  .globl hmpi_fiber_switch
  .hidden hmpi_fiber_switch
  .type hmpi_fiber_switch, @function
hmpi_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size hmpi_fiber_switch, .-hmpi_fiber_switch

  .p2align 4
  .globl hmpi_fiber_start
  .hidden hmpi_fiber_start
  .type hmpi_fiber_start, @function
hmpi_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size hmpi_fiber_start, .-hmpi_fiber_start
  .popsection
)");
#endif

namespace hmpi::mp::sim {

namespace {

std::size_t page_size() {
  static const std::size_t size =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t page = page_size();
  return ((bytes + page - 1) / page) * page;
}

[[noreturn]] void throw_os_error(const char* what, int err) {
  throw Error(std::string(what) + ": " + std::strerror(err));
}

/// Process-wide free lists of fiber stacks, keyed by mapped size (guard page
/// included), so worlds run one after another reuse each other's stacks. A
/// stack's guard page is set once, when it is first mapped. Released stacks
/// are not madvise'd: their pages stay resident, which is what makes reuse
/// cheap. The pool holds at most as many stacks as live fibers ever held at
/// once, so it cannot raise peak RSS. A pooled stack's top word links it to
/// the next one of its size, so releasing a stack allocates nothing.
class StackPool {
 public:
  /// A mapping of `map_bytes` whose first page is the guard page.
  void* acquire(std::size_t map_bytes) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      void*& head = free_[map_bytes];
      if (head != nullptr) {
        void* map = head;
        head = next(map, map_bytes);
        --pooled_;
        note_live();
        return map;
      }
    }
    // MAP_NORESERVE: 10k+ fibers only pay RSS for the stack pages they touch.
    void* map = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (map == MAP_FAILED) throw_os_error("fiber stack mmap failed", errno);
    // The guard page: an overflow traps instead of corrupting memory.
    if (::mprotect(map, page_size(), PROT_NONE) != 0) {
      const int err = errno;
      ::munmap(map, map_bytes);
      throw_os_error("fiber stack guard page mprotect failed", err);
    }
    mapped_counter().add();
    std::lock_guard<std::mutex> lock(mutex_);
    note_live();
    return map;
  }

  /// Takes back a stack from acquire(map_bytes).
  void release(void* map, std::size_t map_bytes) {
#if defined(HMPI_FIBER_ASAN)
    // The finished fiber's frames left redzones poisoned.
    __asan_unpoison_memory_region(static_cast<char*>(map) + page_size(),
                                  map_bytes - page_size());
#endif
    void* unmap = map;
    std::size_t unmap_bytes = map_bytes;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --live_;
      void*& head = free_.find(map_bytes)->second;  // acquire made the entry
      if (pooled_ < peak_live_) {
        push(head, map, map_bytes);
        ++pooled_;
        return;
      }
      // At the cap: keep the size just in use, drop a stack of another size.
      for (auto& [bytes, other] : free_) {
        if (bytes != map_bytes && other != nullptr) {
          unmap = other;
          unmap_bytes = bytes;
          other = next(other, bytes);
          push(head, map, map_bytes);
          break;
        }
      }
    }
    ::munmap(unmap, unmap_bytes);
  }

 private:
  static void*& next(void* map, std::size_t map_bytes) {
    return *reinterpret_cast<void**>(static_cast<char*>(map) + map_bytes -
                                     sizeof(void*));
  }
  static void push(void*& head, void* map, std::size_t map_bytes) {
    next(map, map_bytes) = head;
    head = map;
  }

  void note_live() { peak_live_ = std::max(peak_live_, ++live_); }

  static telemetry::Counter& mapped_counter() {
    static telemetry::Counter& c =
        telemetry::metrics().counter("sim.stacks_mapped");
    return c;
  }

  std::mutex mutex_;
  std::map<std::size_t, void*> free_;  ///< Free-list head per mapped size.
  std::size_t pooled_ = 0;     ///< Stacks on the free lists.
  std::size_t live_ = 0;       ///< Stacks held by fibers.
  std::size_t peak_live_ = 0;  ///< Most stacks fibers ever held at once.
};

StackPool& stack_pool() {
  // Never destroyed: a fiber may release its stack during static destruction.
  static StackPool* pool = new StackPool;
  return *pool;
}

}  // namespace

Fiber::Fiber(EventEngine* engine, int rank, std::size_t stack_bytes,
             std::function<void()> entry)
    : engine_(engine), rank_(rank), entry_(std::move(entry)) {
  const std::size_t page = page_size();
  stack_bytes_ = round_up_pages(stack_bytes < 4 * page ? 4 * page : stack_bytes);
  map_bytes_ = stack_bytes_ + page;  // one guard page below the stack
#if !defined(HMPI_FIBER_ASM_SWITCH)
  // Before the stack is taken from the pool: nothing below may throw.
  support::require(::getcontext(&ctx_) == 0, "getcontext failed");
#endif
  map_base_ = stack_pool().acquire(map_bytes_);
  stack_base_ = static_cast<char*>(map_base_) + page;

#if defined(HMPI_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif

#if defined(HMPI_FIBER_ASM_SWITCH)
  // The frame hmpi_fiber_switch pops on the first resume, top down: its
  // return address, then rbp, rbx, r12-r15, then the control words. The new
  // fiber inherits the creating thread's MXCSR and x87 control word.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpu_cw));
  auto* sp = reinterpret_cast<std::uintptr_t*>(static_cast<char*>(stack_base_) +
                                               stack_bytes_);
  *--sp = reinterpret_cast<std::uintptr_t>(&hmpi_fiber_start);
  *--sp = 0;                                                // rbp
  *--sp = 0;                                                // rbx
  *--sp = reinterpret_cast<std::uintptr_t>(this);           // r12
  *--sp = reinterpret_cast<std::uintptr_t>(&Fiber::start);  // r13
  *--sp = 0;                                                // r14
  *--sp = 0;                                                // r15
  *--sp = mxcsr | (std::uintptr_t{fpu_cw} << 32);
  sp_ = sp;
#else
  ctx_.uc_stack.ss_sp = stack_base_;
  ctx_.uc_stack.ss_size = stack_bytes_;
  ctx_.uc_link = nullptr;  // a finished fiber yields explicitly, never returns
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
#endif
}

Fiber::~Fiber() {
#if defined(HMPI_FIBER_TSAN)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  stack_pool().release(map_base_, map_bytes_);
}

#if !defined(HMPI_FIBER_ASM_SWITCH)
void Fiber::trampoline(unsigned hi, unsigned lo) {
  const std::uintptr_t self = (static_cast<std::uintptr_t>(hi) << 32) |
                              static_cast<std::uintptr_t>(lo);
  start(reinterpret_cast<Fiber*>(self));
}
#endif

void Fiber::start(Fiber* self) { self->entry_point(); }

void Fiber::entry_point() {
#if defined(HMPI_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(nullptr, &asan_host_stack_base_,
                                  &asan_host_stack_size_);
#endif
  entry_();
  state = State::kFinished;
  yield();
  // A finished fiber must never be resumed again.
  std::abort();
}

void Fiber::resume() {
#if defined(HMPI_FIBER_ASAN)
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(&fake, stack_base_, stack_bytes_);
#endif
#if defined(HMPI_FIBER_TSAN)
  tsan_host_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(HMPI_FIBER_ASM_SWITCH)
  hmpi_fiber_switch(&host_sp_, sp_);
#else
  ::swapcontext(&host_, &ctx_);
#endif
  // Back on the host thread: the fiber parked or finished.
#if defined(HMPI_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
}

void Fiber::yield() {
#if defined(HMPI_FIBER_ASAN)
  // Passing nullptr on the final switch lets ASan release the fake stack.
  __sanitizer_start_switch_fiber(
      state == State::kFinished ? nullptr : &asan_fake_stack_,
      asan_host_stack_base_, asan_host_stack_size_);
#endif
#if defined(HMPI_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_host_, 0);
#endif
#if defined(HMPI_FIBER_ASM_SWITCH)
  hmpi_fiber_switch(&sp_, host_sp_);
#else
  ::swapcontext(&ctx_, &host_);
#endif
  // Resumed again (possibly from a different resume() call of the host).
#if defined(HMPI_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &asan_host_stack_base_,
                                  &asan_host_stack_size_);
#endif
}

}  // namespace hmpi::mp::sim
