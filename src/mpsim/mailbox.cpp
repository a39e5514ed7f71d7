#include "mpsim/mailbox.hpp"

namespace hmpi::mp {

void Mailbox::deliver(Envelope e) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(e));
  }
  channel_.notify_all();
}

bool Mailbox::matches(const Envelope& e, int src_world, int tag, int context) {
  if (e.context != context) return false;
  if (src_world != kAnySource && e.src_world != src_world) return false;
  if (tag != kAnyTag && e.tag != tag) return false;
  return true;
}

std::optional<Envelope> Mailbox::extract_locked(int src_world, int tag,
                                                int context) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (matches(*it, src_world, tag, context)) {
      Envelope e = std::move(*it);
      queue_.erase(it);
      return e;
    }
  }
  return std::nullopt;
}

std::optional<Envelope> Mailbox::take_matching(
    int src_world, int tag, int context, double timeout_s,
    const std::function<bool()>& hopeless) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (auto e = extract_locked(src_world, tag, context)) return e;
    if (shutdown_.load()) return std::nullopt;
    // Checked only after a failed match and under the lock: a sender always
    // delivers before it can die, so a dead peer observed here really has
    // nothing more in flight for us.
    if (hopeless && hopeless()) return std::nullopt;
    // Park until a delivery or poke; a false return means the engine found
    // no runnable process and picked this wait as the stall victim.
    if (!channel_.wait(lock, timeout_s)) {
      if (auto e = extract_locked(src_world, tag, context)) return e;
      return std::nullopt;
    }
  }
}

void Mailbox::shutdown() {
  shutdown_.store(true);
  channel_.notify_all();
}

std::optional<Envelope> Mailbox::try_take_matching(int src_world, int tag,
                                                   int context) {
  std::lock_guard<std::mutex> lock(mutex_);
  return extract_locked(src_world, tag, context);
}

bool Mailbox::probe(int src_world, int tag, int context) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Envelope& e : queue_) {
    if (matches(e, src_world, tag, context)) return true;
  }
  return false;
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::vector<Mailbox::EnvelopeInfo> Mailbox::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<EnvelopeInfo> out;
  out.reserve(queue_.size());
  for (const Envelope& e : queue_) {
    out.push_back({e.src_world, e.context, e.tag, e.logical_bytes, e.arrival_time});
  }
  return out;
}

void Mailbox::poke() { channel_.notify_all(); }

}  // namespace hmpi::mp
