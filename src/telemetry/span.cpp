#include "telemetry/span.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>

#include "support/process_local.hpp"
#include "telemetry/json.hpp"

namespace hmpi::telemetry {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point process_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

double wall_now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   process_epoch())
      .count();
}

struct VirtualClockHook {
  VirtualClockScope::ClockFn fn = nullptr;
  const void* ctx = nullptr;
};

// Process-local, not thread_local: under the event engine many simulated
// processes (fibers) share one host thread, and each needs its own clock
// hook and span nesting stack.
constexpr char kVClockKey = 0;
constexpr char kSpanStackKey = 0;

VirtualClockHook& vclock() {
  return support::process_local<VirtualClockHook>(&kVClockKey);
}

double virt_now_s() {
  const VirtualClockHook& hook = vclock();
  if (hook.fn == nullptr) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return hook.fn(hook.ctx);
}

struct OpenSpan {
  std::uint64_t id = 0;
  int track = 0;
};

std::vector<OpenSpan>& span_stack() {
  return support::process_local<std::vector<OpenSpan>>(&kSpanStackKey);
}

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void TraceLog::record(SpanRecord record) {
  std::lock_guard lock(mutex_);
  if (records_.size() < kCapacity) {
    records_.push_back(std::move(record));
    return;
  }
  records_[head_] = std::move(record);
  head_ = (head_ + 1) % kCapacity;
  ++dropped_;
}

std::vector<SpanRecord> TraceLog::records() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard lock(mutex_);
    out = records_;
  }
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.wall_start_us != b.wall_start_us) return a.wall_start_us < b.wall_start_us;
    return a.id < b.id;
  });
  return out;
}

std::size_t TraceLog::size() const {
  std::lock_guard lock(mutex_);
  return records_.size();
}

std::uint64_t TraceLog::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

void TraceLog::clear() {
  std::lock_guard lock(mutex_);
  records_.clear();
  head_ = 0;
  dropped_ = 0;
}

TraceLog& spans() {
  static TraceLog log;
  return log;
}

VirtualClockScope::VirtualClockScope(ClockFn fn, const void* ctx) {
  VirtualClockHook& hook = vclock();
  saved_fn_ = hook.fn;
  saved_ctx_ = hook.ctx;
  hook = {fn, ctx};
}

VirtualClockScope::~VirtualClockScope() { vclock() = {saved_fn_, saved_ctx_}; }

Span::Span(std::string_view name) { open(name, 0, /*explicit_track=*/false); }

Span::Span(std::string_view name, int track) {
  open(name, track, /*explicit_track=*/true);
}

void Span::open(std::string_view name, int track, bool explicit_track) {
  record_.id = next_span_id();
  record_.name.assign(name);
  std::vector<OpenSpan>& stack = span_stack();
  if (!stack.empty()) {
    record_.parent_id = stack.back().id;
    // Children stay on their parent's track so the flame nests in one row.
    record_.track = stack.back().track;
  } else {
    record_.track = explicit_track ? track : 0;
  }
  record_.wall_start_us = wall_now_us();
  record_.virt_start_s = virt_now_s();
  stack.push_back({record_.id, record_.track});
}

Span::~Span() {
  record_.wall_dur_us = wall_now_us() - record_.wall_start_us;
  record_.virt_end_s = virt_now_s();
  std::vector<OpenSpan>& stack = span_stack();
  if (!stack.empty() && stack.back().id == record_.id) {
    stack.pop_back();
  }
  spans().record(std::move(record_));
}

void Span::arg(std::string_view key, double value) {
  arg_raw(key, json_number(value));
}

void Span::arg(std::string_view key, std::string_view value) {
  arg_raw(key, json_quote(value));
}

void Span::arg_raw(std::string_view key, std::string value) {
  record_.args.emplace_back(std::string(key), std::move(value));
}

}  // namespace hmpi::telemetry
