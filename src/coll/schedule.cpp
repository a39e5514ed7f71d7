#include "coll/schedule.hpp"

#include <algorithm>
#include <cstdint>

#include "hnoc/cluster.hpp"
#include "support/error.hpp"

namespace hmpi::coll {

namespace {

using Action = Step::Action;

struct Builder {
  std::vector<Step> steps;

  /// Every generator knows its step count to within a small factor, and the
  /// tuner prices several candidate algorithms per selection — reserving up
  /// front keeps that hot path from reallocating mid-build.
  explicit Builder(std::size_t expected_steps) { steps.reserve(expected_steps); }

  void add(int round, int src, int dst, std::size_t offset, std::size_t count,
           Action action) {
    if (src == dst) return;
    steps.push_back({round, src, dst, offset, count, action});
  }

  /// Rounds are emitted out of order by some generators (e.g. the pipelined
  /// chain); the executor and the cost replay both require round-grouped
  /// steps. The sort is stable so within-round order stays the emission
  /// order — deterministic, and shared by executor and replay.
  std::vector<Step> finish() && {
    std::stable_sort(steps.begin(), steps.end(),
                     [](const Step& a, const Step& b) { return a.round < b.round; });
    return std::move(steps);
  }
};

/// Members listed root-first in virtual-rank order.
std::vector<int> rotated(int n, int root) {
  std::vector<int> members(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) members[static_cast<std::size_t>(i)] = (root + i) % n;
  return members;
}

int log2_rounds(int n) {
  int k = 0;
  while ((1 << k) < n) ++k;
  return k;
}

int largest_pow2_leq(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

/// Binomial broadcast from members[0] of [offset, offset+count). Round t
/// activates the subtree at distance 2^(K-1-t), reproducing the legacy
/// in-header tree (largest subtree first) message for message. Returns the
/// first unused round.
int add_binomial_bcast(Builder& b, std::span<const int> members,
                       std::size_t offset, std::size_t count, int round0,
                       Action action) {
  const int n = static_cast<int>(members.size());
  const int rounds = log2_rounds(n);
  for (int t = 0; t < rounds; ++t) {
    const int mask = 1 << (rounds - 1 - t);
    for (int vr = 0; vr + mask < n; vr += 2 * mask) {
      b.add(round0 + t, members[static_cast<std::size_t>(vr)],
            members[static_cast<std::size_t>(vr + mask)], offset, count, action);
    }
  }
  return round0 + rounds;
}

/// Binomial reduction toward members[0]: round t folds distance-2^t
/// children into their parents (leaves first), matching the legacy
/// in-header tree. `action` is kCombine for data, kToken for barriers.
int add_binomial_reduce(Builder& b, std::span<const int> members,
                        std::size_t offset, std::size_t count, int round0,
                        Action action) {
  const int n = static_cast<int>(members.size());
  const int rounds = log2_rounds(n);
  for (int t = 0; t < rounds; ++t) {
    const int mask = 1 << t;
    for (int vr = 0; vr + mask < n; vr += 2 * mask) {
      b.add(round0 + t, members[static_cast<std::size_t>(vr + mask)],
            members[static_cast<std::size_t>(vr)], offset, count, action);
    }
  }
  return round0 + rounds;
}

/// Recursive-halving reduce-scatter over the first p2 (power-of-two)
/// virtual ranks of `members`, preceded by a fold round when n > p2: the
/// excess ranks [p2, n) combine their whole vector into vr - p2. On return
/// lo[vr]/hi[vr] give the element range each vr < p2 owns (the combined
/// value of that range), and *next_round is the first unused round.
/// Ranges are element ranges unless `granularity` > 1, in which case all
/// splits land on multiples of it (used for block-aligned reduce-scatter).
void add_halving_reduce_scatter(Builder& b, std::span<const int> members,
                                std::size_t count, std::size_t granularity,
                                std::vector<std::size_t>& lo,
                                std::vector<std::size_t>& hi,
                                int* next_round) {
  const int n = static_cast<int>(members.size());
  const int p2 = largest_pow2_leq(n);
  int round = 0;
  for (int vr = p2; vr < n; ++vr) {
    b.add(round, members[static_cast<std::size_t>(vr)],
          members[static_cast<std::size_t>(vr - p2)], 0, count, Action::kCombine);
  }
  if (n > p2) ++round;

  lo.assign(static_cast<std::size_t>(p2), 0);
  hi.assign(static_cast<std::size_t>(p2), count);
  const std::size_t g = granularity ? granularity : 1;
  for (int half = p2 / 2; half >= 1; half /= 2, ++round) {
    for (int a = 0; a < p2; ++a) {
      if ((a & half) != 0 || (a ^ half) >= p2) continue;
      const int partner = a | half;
      const std::size_t alo = lo[static_cast<std::size_t>(a)];
      const std::size_t ahi = hi[static_cast<std::size_t>(a)];
      // Split the pair's shared range at a granularity boundary; `a` (the
      // half-bit-0 member) keeps the lower part, the partner the upper.
      const std::size_t units = (ahi - alo) / g;
      const std::size_t mid = alo + (units + 1) / 2 * g;
      b.add(round, members[static_cast<std::size_t>(partner)],
            members[static_cast<std::size_t>(a)], alo, mid - alo,
            Action::kCombine);
      b.add(round, members[static_cast<std::size_t>(a)],
            members[static_cast<std::size_t>(partner)], mid, ahi - mid,
            Action::kCombine);
      hi[static_cast<std::size_t>(a)] = mid;
      lo[static_cast<std::size_t>(partner)] = mid;
    }
  }
  *next_round = round;
}

std::vector<Step> bcast_flat(int n, int root, std::size_t count) {
  Builder b(static_cast<std::size_t>(n));
  const std::vector<int> members = rotated(n, root);
  for (int vr = 1; vr < n; ++vr) {
    b.add(0, root, members[static_cast<std::size_t>(vr)], 0, count,
          Action::kCopy);
  }
  return std::move(b).finish();
}

std::vector<Step> bcast_binomial(int n, int root, std::size_t count) {
  Builder b(static_cast<std::size_t>(n));
  add_binomial_bcast(b, rotated(n, root), 0, count, 0, Action::kCopy);
  return std::move(b).finish();
}

std::vector<Step> bcast_chain(int n, int root, std::size_t count,
                              std::size_t segment_elems) {
  const std::vector<int> members = rotated(n, root);
  const std::size_t seg = std::max<std::size_t>(1, segment_elems);
  const std::size_t nseg = count == 0 ? 1 : (count + seg - 1) / seg;
  Builder b(static_cast<std::size_t>(n) * nseg);
  for (int i = 0; i + 1 < n; ++i) {
    for (std::size_t s = 0; s < nseg; ++s) {
      const std::size_t off = s * seg;
      b.add(i + static_cast<int>(s), members[static_cast<std::size_t>(i)],
            members[static_cast<std::size_t>(i + 1)], off,
            std::min(seg, count - std::min(count, off)), Action::kCopy);
    }
  }
  return std::move(b).finish();
}

std::vector<Step> bcast_two_level(int n, int root, std::size_t count,
                                  std::span<const int> member_procs) {
  if (member_procs.size() != static_cast<std::size_t>(n)) {
    return bcast_binomial(n, root, count);  // no placement information
  }
  // One leader per machine — the lowest member rank, except the root's
  // machine whose leader is the root itself. Leaders are ordered root
  // first, the rest by rank, so every member derives the same schedule.
  Builder b(2 * static_cast<std::size_t>(n));
  std::vector<int> leaders;
  std::vector<int> leader_of(static_cast<std::size_t>(n), -1);
  for (int r = 0; r < n; ++r) {
    const int proc = member_procs[static_cast<std::size_t>(r)];
    int leader = root;
    if (proc != member_procs[static_cast<std::size_t>(root)]) {
      leader = -1;
      for (int m = 0; m < n; ++m) {
        if (member_procs[static_cast<std::size_t>(m)] == proc) {
          leader = m;
          break;
        }
      }
    }
    leader_of[static_cast<std::size_t>(r)] = leader;
  }
  leaders.push_back(root);
  for (int r = 0; r < n; ++r) {
    if (leader_of[static_cast<std::size_t>(r)] == r && r != root &&
        leader_of[static_cast<std::size_t>(root)] != r) {
      leaders.push_back(r);
    }
  }
  const int after = add_binomial_bcast(b, leaders, 0, count, 0, Action::kCopy);
  for (int r = 0; r < n; ++r) {
    const int leader = leader_of[static_cast<std::size_t>(r)];
    if (r != leader && r != root) b.add(after, leader, r, 0, count, Action::kCopy);
  }
  return std::move(b).finish();
}

std::vector<Step> reduce_flat(int n, int root, std::size_t count) {
  Builder b(static_cast<std::size_t>(n));
  const std::vector<int> members = rotated(n, root);
  for (int vr = 1; vr < n; ++vr) {
    b.add(0, members[static_cast<std::size_t>(vr)], root, 0, count,
          Action::kCombine);
  }
  return std::move(b).finish();
}

std::vector<Step> reduce_binomial(int n, int root, std::size_t count) {
  Builder b(static_cast<std::size_t>(n));
  add_binomial_reduce(b, rotated(n, root), 0, count, 0, Action::kCombine);
  return std::move(b).finish();
}

/// Rabenseifner: recursive-halving reduce-scatter, then a binomial gather
/// of the owned ranges back up the halving tree to the root.
std::vector<Step> reduce_rabenseifner(int n, int root, std::size_t count) {
  Builder b(static_cast<std::size_t>(n) *
            static_cast<std::size_t>(log2_rounds(n) + 2));
  const std::vector<int> members = rotated(n, root);
  const int p2 = largest_pow2_leq(n);
  std::vector<std::size_t> lo;
  std::vector<std::size_t> hi;
  int round = 0;
  add_halving_reduce_scatter(b, members, count, 1, lo, hi, &round);
  for (int half = 1; half < p2; half *= 2, ++round) {
    for (int a = 0; a < p2; ++a) {
      if ((a & half) != 0) continue;
      const int partner = a | half;
      if (partner >= p2) continue;
      b.add(round, members[static_cast<std::size_t>(partner)],
            members[static_cast<std::size_t>(a)],
            lo[static_cast<std::size_t>(partner)],
            hi[static_cast<std::size_t>(partner)] -
                lo[static_cast<std::size_t>(partner)],
            Action::kCopy);
      lo[static_cast<std::size_t>(a)] = std::min(lo[static_cast<std::size_t>(a)],
                                                 lo[static_cast<std::size_t>(partner)]);
      hi[static_cast<std::size_t>(a)] = std::max(hi[static_cast<std::size_t>(a)],
                                                 hi[static_cast<std::size_t>(partner)]);
    }
  }
  return std::move(b).finish();
}

std::vector<Step> allreduce_reduce_bcast(int n, std::size_t count) {
  Builder b(2 * static_cast<std::size_t>(n));
  const std::vector<int> members = rotated(n, 0);
  const int after = add_binomial_reduce(b, members, 0, count, 0, Action::kCombine);
  add_binomial_bcast(b, members, 0, count, after, Action::kCopy);
  return std::move(b).finish();
}

std::vector<Step> allreduce_recursive_doubling(int n, std::size_t count) {
  Builder b(static_cast<std::size_t>(n) *
            static_cast<std::size_t>(log2_rounds(n) + 2));
  const int p2 = largest_pow2_leq(n);
  int round = 0;
  for (int r = p2; r < n; ++r) b.add(round, r, r - p2, 0, count, Action::kCombine);
  if (n > p2) ++round;
  for (int d = 1; d < p2; d *= 2, ++round) {
    for (int a = 0; a < p2; ++a) {
      if ((a & d) != 0) continue;
      const int partner = a | d;
      // Full-vector exchange; round grouping makes both sides send their
      // pre-round accumulator before folding in the partner's.
      b.add(round, a, partner, 0, count, Action::kCombine);
      b.add(round, partner, a, 0, count, Action::kCombine);
    }
  }
  for (int r = p2; r < n; ++r) b.add(round, r - p2, r, 0, count, Action::kCopy);
  return std::move(b).finish();
}

std::vector<Step> allreduce_rabenseifner(int n, std::size_t count) {
  Builder b(static_cast<std::size_t>(n) *
            static_cast<std::size_t>(log2_rounds(n) + 2));
  const std::vector<int> members = rotated(n, 0);
  const int p2 = largest_pow2_leq(n);
  std::vector<std::size_t> lo;
  std::vector<std::size_t> hi;
  int round = 0;
  add_halving_reduce_scatter(b, members, count, 1, lo, hi, &round);
  // Recursive-doubling allgather back up the halving tree: pairs swap their
  // owned ranges until every vr < p2 holds the full vector.
  for (int half = 1; half < p2; half *= 2, ++round) {
    for (int a = 0; a < p2; ++a) {
      if ((a & half) != 0) continue;
      const int partner = a | half;
      if (partner >= p2) continue;
      const std::size_t a_lo = lo[static_cast<std::size_t>(a)];
      const std::size_t a_hi = hi[static_cast<std::size_t>(a)];
      const std::size_t p_lo = lo[static_cast<std::size_t>(partner)];
      const std::size_t p_hi = hi[static_cast<std::size_t>(partner)];
      b.add(round, a, partner, a_lo, a_hi - a_lo, Action::kCopy);
      b.add(round, partner, a, p_lo, p_hi - p_lo, Action::kCopy);
      const std::size_t u_lo = std::min(a_lo, p_lo);
      const std::size_t u_hi = std::max(a_hi, p_hi);
      lo[static_cast<std::size_t>(a)] = lo[static_cast<std::size_t>(partner)] = u_lo;
      hi[static_cast<std::size_t>(a)] = hi[static_cast<std::size_t>(partner)] = u_hi;
    }
  }
  for (int r = p2; r < n; ++r) b.add(round, r - p2, r, 0, count, Action::kCopy);
  return std::move(b).finish();
}

std::vector<Step> reduce_scatter_pairwise(int n, std::size_t block) {
  Builder b(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int s = 1; s < n; ++s) {
    for (int r = 0; r < n; ++r) {
      const int owner = (r + s) % n;
      b.add(s - 1, r, owner, static_cast<std::size_t>(owner) * block, block,
            Action::kCombine);
    }
  }
  return std::move(b).finish();
}

std::vector<Step> reduce_scatter_recursive_halving(int n, std::size_t block) {
  Builder b(static_cast<std::size_t>(n) *
            static_cast<std::size_t>(log2_rounds(n) + 2));
  const std::vector<int> members = rotated(n, 0);
  const int p2 = largest_pow2_leq(n);
  std::vector<std::size_t> lo;
  std::vector<std::size_t> hi;
  int round = 0;
  const std::size_t count = static_cast<std::size_t>(n) * block;
  add_halving_reduce_scatter(b, members, count, std::max<std::size_t>(1, block),
                             lo, hi, &round);
  // Placement: each surviving owner ships every block in its range to the
  // block's final owner (block k belongs to member k).
  for (int a = 0; a < p2; ++a) {
    if (block == 0) break;
    const std::size_t b_lo = lo[static_cast<std::size_t>(a)] / block;
    const std::size_t b_hi = hi[static_cast<std::size_t>(a)] / block;
    for (std::size_t k = b_lo; k < b_hi; ++k) {
      b.add(round, a, static_cast<int>(k), k * block, block, Action::kCopy);
    }
  }
  return std::move(b).finish();
}

std::vector<Step> allgather_gather_bcast(int n, std::size_t block) {
  Builder b(2 * static_cast<std::size_t>(n));
  for (int r = 1; r < n; ++r) {
    b.add(0, r, 0, static_cast<std::size_t>(r) * block, block, Action::kCopy);
  }
  add_binomial_bcast(b, rotated(n, 0), 0, static_cast<std::size_t>(n) * block, 1,
                     Action::kCopy);
  return std::move(b).finish();
}

std::vector<Step> allgather_ring(int n, std::size_t block) {
  Builder b(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int t = 0; t < n - 1; ++t) {
    for (int r = 0; r < n; ++r) {
      const int blk = ((r - t) % n + n) % n;
      b.add(t, r, (r + 1) % n, static_cast<std::size_t>(blk) * block, block,
            Action::kCopy);
    }
  }
  return std::move(b).finish();
}

/// Dissemination allgather with absolute block indexing (the Bruck variant
/// that needs no final rotation): after k rounds member r owns the
/// contiguous-mod-n run of 2^k blocks ending at its own, and in round k it
/// ships min(2^k, n - 2^k) of them distance 2^k forward — ceil(log2 n)
/// rounds for any n.
std::vector<Step> allgather_recursive_doubling(int n, std::size_t block) {
  Builder b(2 * static_cast<std::size_t>(n) *
            static_cast<std::size_t>(log2_rounds(n) + 1));
  int round = 0;
  for (std::size_t d = 1; d < static_cast<std::size_t>(n); d *= 2, ++round) {
    const std::size_t m = std::min(d, static_cast<std::size_t>(n) - d);
    for (int r = 0; r < n; ++r) {
      const int dst = (r + static_cast<int>(d)) % n;
      const int first =
          ((r - static_cast<int>(m) + 1) % n + n) % n;  // lowest block index
      if (static_cast<std::size_t>(first) + m <= static_cast<std::size_t>(n)) {
        b.add(round, r, dst, static_cast<std::size_t>(first) * block, m * block,
              Action::kCopy);
      } else {
        const std::size_t head = static_cast<std::size_t>(n - first);
        b.add(round, r, dst, static_cast<std::size_t>(first) * block,
              head * block, Action::kCopy);
        b.add(round, r, dst, 0, (m - head) * block, Action::kCopy);
      }
    }
  }
  return std::move(b).finish();
}

std::vector<Step> barrier_dissemination(int n) {
  Builder b(static_cast<std::size_t>(n) *
            static_cast<std::size_t>(log2_rounds(n) + 1));
  int round = 0;
  for (int off = 1; off < n; off <<= 1, ++round) {
    for (int r = 0; r < n; ++r) {
      b.add(round, r, (r + off) % n, 0, 0, Action::kToken);
    }
  }
  return std::move(b).finish();
}

std::vector<Step> barrier_tournament(int n) {
  Builder b(2 * static_cast<std::size_t>(n));
  const std::vector<int> members = rotated(n, 0);
  const int after = add_binomial_reduce(b, members, 0, 0, 0, Action::kToken);
  add_binomial_bcast(b, members, 0, 0, after, Action::kToken);
  return std::move(b).finish();
}

}  // namespace

std::vector<Step> bcast_schedule(BcastAlgo algo, int n, int root,
                                 std::size_t count,
                                 std::span<const int> member_procs,
                                 std::size_t segment_elems) {
  support::require(n >= 1 && root >= 0 && root < n,
                   "bcast schedule: bad member count or root");
  if (n == 1) return {};
  switch (algo) {
    case BcastAlgo::kFlat:
      return bcast_flat(n, root, count);
    case BcastAlgo::kChain:
      return bcast_chain(n, root, count, segment_elems);
    case BcastAlgo::kTwoLevel:
      return bcast_two_level(n, root, count, member_procs);
    case BcastAlgo::kAuto:
    case BcastAlgo::kBinomial:
      return bcast_binomial(n, root, count);
  }
  return bcast_binomial(n, root, count);
}

std::vector<Step> reduce_schedule(ReduceAlgo algo, int n, int root,
                                  std::size_t count) {
  support::require(n >= 1 && root >= 0 && root < n,
                   "reduce schedule: bad member count or root");
  if (n == 1) return {};
  switch (algo) {
    case ReduceAlgo::kFlat:
      return reduce_flat(n, root, count);
    case ReduceAlgo::kRabenseifner:
      return reduce_rabenseifner(n, root, count);
    case ReduceAlgo::kAuto:
    case ReduceAlgo::kBinomial:
      return reduce_binomial(n, root, count);
  }
  return reduce_binomial(n, root, count);
}

std::vector<Step> allreduce_schedule(AllreduceAlgo algo, int n,
                                     std::size_t count) {
  support::require(n >= 1, "allreduce schedule: bad member count");
  if (n == 1) return {};
  switch (algo) {
    case AllreduceAlgo::kRecursiveDoubling:
      return allreduce_recursive_doubling(n, count);
    case AllreduceAlgo::kRabenseifner:
      return allreduce_rabenseifner(n, count);
    case AllreduceAlgo::kAuto:
    case AllreduceAlgo::kReduceBcast:
      return allreduce_reduce_bcast(n, count);
  }
  return allreduce_reduce_bcast(n, count);
}

std::vector<Step> reduce_scatter_schedule(ReduceScatterAlgo algo, int n,
                                          std::size_t block) {
  support::require(n >= 1, "reduce_scatter schedule: bad member count");
  if (n == 1) return {};
  switch (algo) {
    case ReduceScatterAlgo::kRecursiveHalving:
      return reduce_scatter_recursive_halving(n, block);
    case ReduceScatterAlgo::kAuto:
    case ReduceScatterAlgo::kPairwise:
      return reduce_scatter_pairwise(n, block);
  }
  return reduce_scatter_pairwise(n, block);
}

std::vector<Step> allgather_schedule(AllgatherAlgo algo, int n,
                                     std::size_t block) {
  support::require(n >= 1, "allgather schedule: bad member count");
  if (n == 1) return {};
  switch (algo) {
    case AllgatherAlgo::kRing:
      return allgather_ring(n, block);
    case AllgatherAlgo::kRecursiveDoubling:
      return allgather_recursive_doubling(n, block);
    case AllgatherAlgo::kAuto:
    case AllgatherAlgo::kGatherBcast:
      return allgather_gather_bcast(n, block);
  }
  return allgather_gather_bcast(n, block);
}

std::vector<Step> barrier_schedule(BarrierAlgo algo, int n) {
  support::require(n >= 1, "barrier schedule: bad member count");
  if (n == 1) return {};
  switch (algo) {
    case BarrierAlgo::kTournament:
      return barrier_tournament(n);
    case BarrierAlgo::kAuto:
    case BarrierAlgo::kDissemination:
      return barrier_dissemination(n);
  }
  return barrier_dissemination(n);
}

std::vector<Step> schedule_for(CollOp op, int algo, int n, int root,
                               std::size_t count,
                               std::span<const int> member_procs,
                               std::size_t segment_elems) {
  switch (op) {
    case CollOp::kBcast:
      return bcast_schedule(static_cast<BcastAlgo>(algo), n, root, count,
                            member_procs, segment_elems);
    case CollOp::kReduce:
      return reduce_schedule(static_cast<ReduceAlgo>(algo), n, root, count);
    case CollOp::kAllreduce:
      return allreduce_schedule(static_cast<AllreduceAlgo>(algo), n, count);
    case CollOp::kReduceScatter:
      return reduce_scatter_schedule(static_cast<ReduceScatterAlgo>(algo), n,
                                     count);
    case CollOp::kAllgather:
      return allgather_schedule(static_cast<AllgatherAlgo>(algo), n, count);
    case CollOp::kBarrier:
      return barrier_schedule(static_cast<BarrierAlgo>(algo), n);
  }
  return {};
}

Schedule::Schedule(const ScheduleKey& key)
    : steps_(schedule_for(key.op, key.algo, key.n, key.root, key.count,
                          key.groups, key.segment_elems)),
      offsets_(static_cast<std::size_t>(key.n) + 1, 0) {
  const int n = key.n;
  support::require(steps_.size() <= UINT32_MAX, "schedule: too many steps");
  for (const Step& s : steps_) {
    support::require(s.src >= 0 && s.src < n && s.dst >= 0 && s.dst < n &&
                         s.src != s.dst,
                     "schedule step member out of roster range");
    ++offsets_[static_cast<std::size_t>(s.src) + 1];
    ++offsets_[static_cast<std::size_t>(s.dst) + 1];
  }
  for (std::size_t m = 1; m < offsets_.size(); ++m) offsets_[m] += offsets_[m - 1];
  index_.resize(offsets_.back());
  std::vector<std::size_t> next(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const auto step = static_cast<std::uint32_t>(i);
    index_[next[static_cast<std::size_t>(steps_[i].src)]++] = step;
    index_[next[static_cast<std::size_t>(steps_[i].dst)]++] = step;
  }
}

std::span<const std::uint32_t> Schedule::member_steps(int member) const {
  support::require(member >= 0 && member < members(),
                   "schedule member out of range");
  const std::size_t m = static_cast<std::size_t>(member);
  return std::span<const std::uint32_t>(index_).subspan(
      offsets_[m], offsets_[m + 1] - offsets_[m]);
}

std::vector<int> two_level_groups(const hnoc::Cluster& cluster,
                                  std::span<const int> member_procs) {
  std::vector<int> groups(member_procs.begin(), member_procs.end());
  if (!cluster.two_level()) return groups;
  for (int& g : groups) g = cluster.lan_of(g);
  return groups;
}

}  // namespace hmpi::coll
