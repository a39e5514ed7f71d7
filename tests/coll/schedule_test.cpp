// Structural checks of the collective schedules (src/coll/schedule.hpp):
// every algorithm's message plan is validated with a symbolic replay that
// mirrors the executor's two-pass round discipline — sends use pre-round
// state — proving data-flow correctness without running a simulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "coll/schedule.hpp"

#include "hnoc/cluster.hpp"

namespace hmpi::coll {
namespace {

const int kSizes[] = {1, 2, 3, 5, 8, 9, 13};

int ceil_log2(int n) {
  int rounds = 0;
  while ((1 << rounds) < n) ++rounds;
  return rounds;
}

int max_round(const std::vector<Step>& steps) {
  int last = -1;
  for (const Step& s : steps) last = std::max(last, s.round);
  return last + 1;  // number of rounds
}

// Basic well-formedness shared by every schedule.
void check_well_formed(const std::vector<Step>& steps, int n,
                       std::size_t total) {
  int prev_round = 0;
  for (const Step& s : steps) {
    ASSERT_GE(s.round, prev_round) << "rounds must be non-decreasing";
    prev_round = s.round;
    ASSERT_GE(s.src, 0);
    ASSERT_LT(s.src, n);
    ASSERT_GE(s.dst, 0);
    ASSERT_LT(s.dst, n);
    ASSERT_NE(s.src, s.dst) << "self messages must be elided";
    if (s.action != Step::Action::kToken) {
      // Zero-count steps are legal: an empty halving block still sends an
      // (empty) message so the pairing stays synchronised.
      ASSERT_LE(s.offset + s.count, total) << "range outside the vector";
    }
  }
}

// Replays a single-source distribution schedule (bcast, allgather): tracks
// which elements each member holds; a send is only legal for elements the
// sender held before the current round.
void check_coverage(const std::vector<Step>& steps, int n, std::size_t total,
                    std::vector<std::vector<char>> has) {
  std::vector<std::vector<char>> pre = has;
  std::size_t i = 0;
  while (i < steps.size()) {
    std::size_t j = i;
    while (j < steps.size() && steps[j].round == steps[i].round) ++j;
    pre = has;
    for (std::size_t k = i; k < j; ++k) {
      const Step& s = steps[k];
      ASSERT_EQ(s.action, Step::Action::kCopy);
      for (std::size_t e = s.offset; e < s.offset + s.count; ++e) {
        ASSERT_TRUE(pre[static_cast<std::size_t>(s.src)][e])
            << "member " << s.src << " sends element " << e
            << " before holding it (round " << s.round << ")";
        has[static_cast<std::size_t>(s.dst)][e] = 1;
      }
    }
    i = j;
  }
  for (int r = 0; r < n; ++r) {
    for (std::size_t e = 0; e < total; ++e) {
      EXPECT_TRUE(has[static_cast<std::size_t>(r)][e])
          << "member " << r << " never receives element " << e;
    }
  }
}

// Replays a reduction schedule: each member starts holding its own
// contribution for every element; a combine must merge disjoint contribution
// sets (double-counting would corrupt a sum), a copy overwrites them.
// `full_at(rank, elem)` says where the complete reduction must end up.
using Mask = std::uint32_t;

void check_contributions(const std::vector<Step>& steps, int n,
                         std::size_t total,
                         const std::function<bool(int, std::size_t)>& full_at) {
  const Mask all = n == 32 ? ~Mask{0} : (Mask{1} << n) - 1;
  std::vector<std::vector<Mask>> mask(
      static_cast<std::size_t>(n), std::vector<Mask>(total, 0));
  for (int r = 0; r < n; ++r) {
    for (std::size_t e = 0; e < total; ++e) {
      mask[static_cast<std::size_t>(r)][e] = Mask{1} << r;
    }
  }
  std::vector<std::vector<Mask>> pre = mask;
  std::size_t i = 0;
  while (i < steps.size()) {
    std::size_t j = i;
    while (j < steps.size() && steps[j].round == steps[i].round) ++j;
    pre = mask;
    for (std::size_t k = i; k < j; ++k) {
      const Step& s = steps[k];
      ASSERT_NE(s.action, Step::Action::kToken);
      for (std::size_t e = s.offset; e < s.offset + s.count; ++e) {
        const Mask incoming = pre[static_cast<std::size_t>(s.src)][e];
        ASSERT_NE(incoming, 0u) << "sending an empty contribution";
        Mask& d = mask[static_cast<std::size_t>(s.dst)][e];
        if (s.action == Step::Action::kCombine) {
          ASSERT_EQ(d & incoming, 0u)
              << "overlapping combine at element " << e << " round "
              << s.round << " (" << s.src << " -> " << s.dst << ")";
          d |= incoming;
        } else {
          d = incoming;
        }
      }
    }
    i = j;
  }
  for (int r = 0; r < n; ++r) {
    for (std::size_t e = 0; e < total; ++e) {
      if (full_at(r, e)) {
        EXPECT_EQ(mask[static_cast<std::size_t>(r)][e], all)
            << "member " << r << " element " << e
            << " missing contributions";
      }
    }
  }
}

TEST(Schedules, SingleMemberIsEmpty) {
  for (CollOp op : {CollOp::kBcast, CollOp::kReduce, CollOp::kAllreduce,
                    CollOp::kReduceScatter, CollOp::kAllgather,
                    CollOp::kBarrier}) {
    for (int algo = 1; algo <= algo_count(op); ++algo) {
      EXPECT_TRUE(schedule_for(op, algo, 1, 0, 16).empty())
          << op_name(op) << "/" << algo_name(op, algo);
    }
  }
}

TEST(Schedules, BcastDeliversFromEveryAlgorithmAndRoot) {
  const std::size_t count = 10;
  for (int n : kSizes) {
    const std::vector<int> procs(static_cast<std::size_t>(n), 0);
    for (int algo = 1; algo <= algo_count(CollOp::kBcast); ++algo) {
      for (int root : {0, n - 1, n / 2}) {
        const auto steps = bcast_schedule(static_cast<BcastAlgo>(algo), n,
                                          root, count, procs, 4);
        check_well_formed(steps, n, count);
        std::vector<std::vector<char>> has(
            static_cast<std::size_t>(n), std::vector<char>(count, 0));
        has[static_cast<std::size_t>(root)].assign(count, 1);
        check_coverage(steps, n, count, std::move(has));
      }
    }
  }
}

TEST(Schedules, BinomialBcastUsesLogRounds) {
  for (int n : kSizes) {
    if (n < 2) continue;
    const auto steps = bcast_schedule(BcastAlgo::kBinomial, n, 0, 8);
    EXPECT_EQ(max_round(steps), ceil_log2(n)) << "n=" << n;
    EXPECT_EQ(steps.size(), static_cast<std::size_t>(n - 1));
  }
}

TEST(Schedules, ChainBcastSegmentsThePayload) {
  // 10 elements in segments of 4 -> 3 segments down a 4-member chain.
  const auto steps = bcast_schedule(BcastAlgo::kChain, 4, 0, 10, {}, 4);
  check_well_formed(steps, 4, 10);
  EXPECT_EQ(steps.size(), 9u);  // 3 segments x 3 hops
  std::vector<std::vector<char>> has(4, std::vector<char>(10, 0));
  has[0].assign(10, 1);
  check_coverage(steps, 4, 10, std::move(has));
}

TEST(Schedules, ReduceGathersAllContributions) {
  const std::size_t count = 6;
  for (int n : kSizes) {
    for (int algo = 1; algo <= algo_count(CollOp::kReduce); ++algo) {
      for (int root : {0, n - 1}) {
        const auto steps =
            reduce_schedule(static_cast<ReduceAlgo>(algo), n, root, count);
        check_well_formed(steps, n, count);
        check_contributions(steps, n, count, [&](int r, std::size_t) {
          return r == root;
        });
      }
    }
  }
}

TEST(Schedules, AllreduceLeavesEveryoneComplete) {
  const std::size_t count = 6;
  for (int n : kSizes) {
    for (int algo = 1; algo <= algo_count(CollOp::kAllreduce); ++algo) {
      const auto steps =
          allreduce_schedule(static_cast<AllreduceAlgo>(algo), n, count);
      check_well_formed(steps, n, count);
      check_contributions(steps, n, count,
                          [](int, std::size_t) { return true; });
    }
  }
}

TEST(Schedules, ReduceScatterOwnsOneBlockEach) {
  const std::size_t block = 3;
  for (int n : kSizes) {
    const std::size_t total = block * static_cast<std::size_t>(n);
    for (int algo = 1; algo <= algo_count(CollOp::kReduceScatter); ++algo) {
      const auto steps = reduce_scatter_schedule(
          static_cast<ReduceScatterAlgo>(algo), n, block);
      check_well_formed(steps, n, total);
      check_contributions(steps, n, total, [&](int r, std::size_t e) {
        return e / block == static_cast<std::size_t>(r);
      });
    }
  }
}

TEST(Schedules, AllgatherFillsEveryBlockEverywhere) {
  const std::size_t block = 3;
  for (int n : kSizes) {
    const std::size_t total = block * static_cast<std::size_t>(n);
    for (int algo = 1; algo <= algo_count(CollOp::kAllgather); ++algo) {
      const auto steps =
          allgather_schedule(static_cast<AllgatherAlgo>(algo), n, block);
      check_well_formed(steps, n, total);
      std::vector<std::vector<char>> has(
          static_cast<std::size_t>(n), std::vector<char>(total, 0));
      for (int r = 0; r < n; ++r) {
        for (std::size_t e = 0; e < block; ++e) {
          has[static_cast<std::size_t>(r)][static_cast<std::size_t>(r) * block + e] = 1;
        }
      }
      check_coverage(steps, n, total, std::move(has));
    }
  }
}

TEST(Schedules, RingAllgatherUsesNMinusOneRounds) {
  for (int n : kSizes) {
    if (n < 2) continue;
    const auto steps = allgather_schedule(AllgatherAlgo::kRing, n, 2);
    EXPECT_EQ(max_round(steps), n - 1) << "n=" << n;
  }
}

TEST(Schedules, BarrierEveryoneHearsFromEveryone) {
  for (int n : kSizes) {
    for (int algo = 1; algo <= algo_count(CollOp::kBarrier); ++algo) {
      const auto steps =
          barrier_schedule(static_cast<BarrierAlgo>(algo), n);
      check_well_formed(steps, n, 0);
      // Token reachability with the two-pass discipline: after the replay
      // every member must (transitively) have heard from every other.
      std::vector<Mask> knows(static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) knows[static_cast<std::size_t>(r)] = Mask{1} << r;
      std::vector<Mask> pre = knows;
      std::size_t i = 0;
      while (i < steps.size()) {
        std::size_t j = i;
        while (j < steps.size() && steps[j].round == steps[i].round) ++j;
        pre = knows;
        for (std::size_t k = i; k < j; ++k) {
          ASSERT_EQ(steps[k].action, Step::Action::kToken);
          knows[static_cast<std::size_t>(steps[k].dst)] |=
              pre[static_cast<std::size_t>(steps[k].src)];
        }
        i = j;
      }
      const Mask all = (Mask{1} << n) - 1;
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(knows[static_cast<std::size_t>(r)], all)
            << algo_name(CollOp::kBarrier, algo) << " n=" << n << " rank " << r;
      }
    }
  }
}

TEST(Schedules, DisseminationBarrierUsesLogRounds) {
  for (int n : kSizes) {
    if (n < 2) continue;
    const auto steps = barrier_schedule(BarrierAlgo::kDissemination, n);
    EXPECT_EQ(max_round(steps), ceil_log2(n)) << "n=" << n;
  }
}

TEST(Schedules, MemberViewsListExactlyEachMembersSteps) {
  // Each member's view must be the steps naming it as src or dst, in
  // schedule order; with no self-messages every step lands in two views.
  std::vector<int> sizes;
  for (int n = 1; n <= 33; ++n) sizes.push_back(n);
  sizes.push_back(1000);
  sizes.push_back(1024);
  for (CollOp op : {CollOp::kBcast, CollOp::kReduce, CollOp::kAllreduce,
                    CollOp::kReduceScatter, CollOp::kAllgather,
                    CollOp::kBarrier}) {
    for (int algo = 1; algo <= algo_count(op); ++algo) {
      for (int n : sizes) {
        ScheduleKey key;
        key.op = op;
        key.algo = algo;
        key.n = n;
        key.count = 16;
        key.segment_elems = 4;
        key.groups.resize(static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) key.groups[static_cast<std::size_t>(r)] = r % 3;
        for (int root : {0, n / 2, n - 1}) {
          key.root = root;
          const Schedule schedule(key);
          const std::span<const Step> steps = schedule.steps();
          ASSERT_EQ(schedule.members(), n);
          std::vector<std::vector<std::uint32_t>> expected(
              static_cast<std::size_t>(n));
          for (std::size_t i = 0; i < steps.size(); ++i) {
            const auto step = static_cast<std::uint32_t>(i);
            expected[static_cast<std::size_t>(steps[i].src)].push_back(step);
            expected[static_cast<std::size_t>(steps[i].dst)].push_back(step);
          }
          std::vector<int> views(steps.size(), 0);
          for (int m = 0; m < n; ++m) {
            const std::span<const std::uint32_t> mine = schedule.member_steps(m);
            ASSERT_EQ(std::vector<std::uint32_t>(mine.begin(), mine.end()),
                      expected[static_cast<std::size_t>(m)])
                << op_name(op) << "/" << algo_name(op, algo) << " n=" << n
                << " root=" << root << " member " << m;
            for (std::uint32_t i : mine) ++views[i];
          }
          for (std::size_t i = 0; i < views.size(); ++i) {
            ASSERT_EQ(views[i], 2) << op_name(op) << "/" << algo_name(op, algo)
                                   << " n=" << n << " step " << i;
          }
        }
      }
    }
  }
}

TEST(Schedules, TagWrapsWithinReservedBlock) {
  Step s;
  s.round = 300;
  EXPECT_EQ(s.tag(), 300 & 0xff);
}

TEST(TwoLevelGroups, FlatClusterPassesMachineIdsThrough) {
  hnoc::Cluster flat = hnoc::testbeds::homogeneous(4);
  const std::vector<int> procs{3, 1, 1, 0};
  EXPECT_EQ(two_level_groups(flat, procs), procs);
}

TEST(TwoLevelGroups, TwoLevelClusterCollapsesToLanIds) {
  // 2 LANs x 3 machines: machines {0,1,2} are LAN 0, {3,4,5} LAN 1.
  hnoc::Cluster c = hnoc::testbeds::two_level(2, 3);
  const std::vector<int> procs{0, 2, 3, 5};
  EXPECT_EQ(two_level_groups(c, procs), (std::vector<int>{0, 0, 1, 1}));
}

TEST(TwoLevelGroups, BcastElectsOneLeaderPerLan) {
  // 4 members on 4 distinct machines of 2 LANs. With LAN grouping the
  // two-level bcast must cross the inter-LAN boundary exactly once; with raw
  // machine ids every non-root member would be its own leader (4 distinct
  // "machines") and three messages would cross.
  hnoc::Cluster c = hnoc::testbeds::two_level(2, 2);
  const std::vector<int> procs{0, 1, 2, 3};  // LANs {0,0,1,1}
  const std::vector<int> groups = two_level_groups(c, procs);
  const std::vector<Step> steps = bcast_schedule(
      BcastAlgo::kTwoLevel, 4, /*root=*/0, /*count=*/1024, groups);
  int cross_lan = 0;
  for (const Step& s : steps) {
    if (c.lan_of(procs[static_cast<std::size_t>(s.src)]) !=
        c.lan_of(procs[static_cast<std::size_t>(s.dst)])) {
      ++cross_lan;
    }
  }
  EXPECT_EQ(cross_lan, 1);
}

}  // namespace
}  // namespace hmpi::coll
