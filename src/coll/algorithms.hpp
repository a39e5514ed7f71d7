// Generic executor for collective schedules (coll/schedule.hpp).
//
// All members of a call share one Schedule; each walks only its own view of
// it (Schedule::member_steps), round by round: within each round it
// performs all of its sends (from the current state of the logical vector)
// before blocking on its receives — so exchange rounds transmit pre-round
// values, exactly as the cost replay assumes. Sends and receives each go in
// schedule order, which is identical on every member; per-(sender, context)
// FIFO delivery then makes wrapped round tags unambiguous. A member's work
// is O(its own steps), not O(the whole schedule).
//
// This header is intentionally free of mpsim includes: it is templated on
// the communicator type, so mp::Comm's own header can instantiate it
// without a dependency cycle (libhmpi_coll sits below libhmpi_mpsim).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "coll/schedule.hpp"

namespace hmpi::coll {

/// Executes the calling member's steps of `schedule` over `comm`'s
/// point-to-point primitives. `vec` is the member's view of the operation's
/// logical vector (see schedule.hpp); `op(acc_element, incoming_element)`
/// resolves kCombine steps and is never invoked by kCopy/kToken schedules.
/// Message tags are `tag_base + step.tag()`.
template <typename CommT, typename T, typename Op>
void run_schedule(const CommT& comm, const Schedule& schedule,
                  std::span<T> vec, Op op, int tag_base) {
  const int me = comm.rank();
  const std::span<const Step> steps = schedule.steps();
  const auto mine = schedule.member_steps(me);
  std::vector<T> incoming;
  std::size_t i = 0;
  while (i < mine.size()) {
    const int round = steps[mine[i]].round;
    std::size_t j = i;
    while (j < mine.size() && steps[mine[j]].round == round) ++j;
    for (std::size_t k = i; k < j; ++k) {
      const Step& s = steps[mine[k]];
      if (s.src != me) continue;
      const int tag = tag_base + s.tag();
      if (s.action == Step::Action::kToken) {
        const T token{};
        comm.send(std::span<const T>(&token, 1), s.dst, tag);
      } else {
        comm.send(std::span<const T>(vec.subspan(s.offset, s.count)), s.dst,
                  tag);
      }
    }
    for (std::size_t k = i; k < j; ++k) {
      const Step& s = steps[mine[k]];
      if (s.dst != me) continue;
      const int tag = tag_base + s.tag();
      if (s.action == Step::Action::kToken) {
        T token{};
        comm.recv(std::span<T>(&token, 1), s.src, tag);
        continue;
      }
      incoming.resize(s.count);
      comm.recv(std::span<T>(incoming), s.src, tag);
      const std::span<T> range = vec.subspan(s.offset, s.count);
      if (s.action == Step::Action::kCombine) {
        for (std::size_t e = 0; e < s.count; ++e) {
          range[e] = op(range[e], incoming[e]);
        }
      } else {
        std::copy(incoming.begin(), incoming.end(), range.begin());
      }
    }
    i = j;
  }
}

}  // namespace hmpi::coll
