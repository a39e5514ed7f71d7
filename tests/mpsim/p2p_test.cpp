#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"

namespace hmpi::mp {
namespace {

hnoc::Cluster uniform(int n) { return hnoc::testbeds::homogeneous(n, 100.0); }

TEST(P2p, SendRecvValueRoundTrip) {
  World::run_one_per_processor(uniform(2), [](Proc& p) {
    Comm comm = p.world_comm();
    if (p.rank() == 0) {
      comm.send_value(42, 1, 7);
    } else {
      Status s;
      const int v = comm.recv_value<int>(0, 7, &s);
      EXPECT_EQ(v, 42);
      EXPECT_EQ(s.source, 0);
      EXPECT_EQ(s.tag, 7);
      EXPECT_EQ(s.bytes, sizeof(int));
    }
  });
}

TEST(P2p, SendRecvSpan) {
  World::run_one_per_processor(uniform(2), [](Proc& p) {
    Comm comm = p.world_comm();
    std::vector<double> data{1.5, 2.5, 3.5};
    if (p.rank() == 0) {
      comm.send(std::span<const double>(data), 1, 0);
    } else {
      std::vector<double> out(3);
      comm.recv(std::span<double>(out), 0, 0);
      EXPECT_EQ(out, data);
    }
  });
}

TEST(P2p, TagsMatchSelectively) {
  World::run_one_per_processor(uniform(2), [](Proc& p) {
    Comm comm = p.world_comm();
    if (p.rank() == 0) {
      comm.send_value(1, 1, 10);
      comm.send_value(2, 1, 20);
    } else {
      // Receive in the opposite order of sending: tag matching must pick the
      // right message, not the first queued one.
      EXPECT_EQ(comm.recv_value<int>(0, 20), 2);
      EXPECT_EQ(comm.recv_value<int>(0, 10), 1);
    }
  });
}

TEST(P2p, NonOvertakingSameTag) {
  World::run_one_per_processor(uniform(2), [](Proc& p) {
    Comm comm = p.world_comm();
    if (p.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send_value(i, 1, 5);
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(comm.recv_value<int>(0, 5), i);
    }
  });
}

TEST(P2p, AnySourceReceivesFromEither) {
  World::run_one_per_processor(uniform(3), [](Proc& p) {
    Comm comm = p.world_comm();
    if (p.rank() != 0) {
      comm.send_value(p.rank(), 0, 3);
    } else {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        Status s;
        sum += comm.recv_value<int>(kAnySource, 3, &s);
        EXPECT_GE(s.source, 1);
        EXPECT_LE(s.source, 2);
      }
      EXPECT_EQ(sum, 3);
    }
  });
}

TEST(P2p, AnyTagReportsActualTag) {
  World::run_one_per_processor(uniform(2), [](Proc& p) {
    Comm comm = p.world_comm();
    if (p.rank() == 0) {
      comm.send_value(9, 1, 123);
    } else {
      Status s;
      comm.recv_value<int>(0, kAnyTag, &s);
      EXPECT_EQ(s.tag, 123);
    }
  });
}

TEST(P2p, SelfSendWorks) {
  World::run_one_per_processor(uniform(1), [](Proc& p) {
    Comm comm = p.world_comm();
    comm.send_value(7.5, 0, 1);
    EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 1), 7.5);
  });
}

TEST(P2p, ZeroByteMessage) {
  World::run_one_per_processor(uniform(2), [](Proc& p) {
    Comm comm = p.world_comm();
    if (p.rank() == 0) {
      comm.send_bytes({}, 1, 0);
    } else {
      Status s = comm.recv_bytes({}, 0, 0);
      EXPECT_EQ(s.bytes, 0u);
    }
  });
}

TEST(P2p, RecvBufferTooSmallThrows) {
  EXPECT_THROW(
      World::run_one_per_processor(
          uniform(2),
          [](Proc& p) {
            Comm comm = p.world_comm();
            if (p.rank() == 0) {
              std::array<int, 4> data{1, 2, 3, 4};
              comm.send(std::span<const int>(data), 1, 0);
            } else {
              int one = 0;
              comm.recv(std::span<int>(&one, 1), 0, 0);
            }
          }),
      hmpi::InvalidArgument);
}

TEST(P2p, MissingMessageDeadlocks) {
  EXPECT_THROW(World::run_one_per_processor(
                   uniform(2),
                   [](Proc& p) {
                     if (p.rank() == 1) {
                       p.world_comm().recv_value<int>(0, 0);  // never sent
                     }
                   }),
               hmpi::DeadlockError);
}

TEST(P2p, AbortUnblocksPeers) {
  // Rank 0 throws; rank 1 is blocked in recv and must be released with an
  // MpError instead of waiting for the world to stall.
  try {
    World::run_one_per_processor(
        uniform(2),
        [](Proc& p) {
          if (p.rank() == 0) throw std::logic_error("boom");
          p.world_comm().recv_value<int>(0, 0);
        });
    FAIL() << "expected exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "boom");  // the original error wins
  }
}

TEST(P2p, IprobeSeesPendingMessage) {
  World::run_one_per_processor(uniform(2), [](Proc& p) {
    Comm comm = p.world_comm();
    if (p.rank() == 0) {
      comm.send_value(1, 1, 4);
      comm.send_value(2, 1, 4);  // synchronise via a second message
    } else {
      comm.recv_value<int>(0, 4);
      // After receiving the first, the second may or may not have arrived in
      // real time; wait for it via blocking probe-equivalent recv.
      EXPECT_EQ(comm.recv_value<int>(0, 4), 2);
      EXPECT_FALSE(comm.iprobe(0, 4));  // nothing left
    }
  });
}

TEST(P2p, IsendCompletesImmediately) {
  World::run_one_per_processor(uniform(2), [](Proc& p) {
    Comm comm = p.world_comm();
    if (p.rank() == 0) {
      const int v = 5;
      Request r = comm.isend(std::span<const int>(&v, 1), 1, 0);
      EXPECT_TRUE(r.done());
      r.wait();
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 0), 5);
    }
  });
}

TEST(P2p, IrecvWaitDelivers) {
  World::run_one_per_processor(uniform(2), [](Proc& p) {
    Comm comm = p.world_comm();
    if (p.rank() == 0) {
      comm.send_value(11, 1, 2);
    } else {
      int v = 0;
      Request r = comm.irecv(std::span<int>(&v, 1), 0, 2);
      EXPECT_FALSE(r.done());
      Status s = r.wait();
      EXPECT_EQ(v, 11);
      EXPECT_EQ(s.source, 0);
    }
  });
}

TEST(P2p, WaitAllCompletesMultipleIrecvs) {
  World::run_one_per_processor(uniform(3), [](Proc& p) {
    Comm comm = p.world_comm();
    if (p.rank() != 0) {
      comm.send_value(p.rank() * 10, 0, p.rank());
    } else {
      int a = 0, b = 0;
      std::array<Request, 2> reqs{comm.irecv(std::span<int>(&a, 1), 1, 1),
                                  comm.irecv(std::span<int>(&b, 1), 2, 2)};
      Request::wait_all(reqs);
      EXPECT_EQ(a, 10);
      EXPECT_EQ(b, 20);
    }
  });
}

TEST(P2p, StatsCountTraffic) {
  auto result = World::run_one_per_processor(uniform(2), [](Proc& p) {
    Comm comm = p.world_comm();
    if (p.rank() == 0) {
      std::array<double, 8> d{};
      comm.send(std::span<const double>(d), 1, 0);
    } else {
      std::array<double, 8> d{};
      comm.recv(std::span<double>(d), 0, 0);
    }
  });
  EXPECT_EQ(result.stats[0].msgs_sent, 1u);
  EXPECT_EQ(result.stats[0].bytes_sent, 64u);
  EXPECT_EQ(result.stats[1].msgs_received, 1u);
  EXPECT_EQ(result.stats[1].bytes_received, 64u);
}

TEST(P2p, InvalidRanksRejected) {
  EXPECT_THROW(World::run_one_per_processor(
                   uniform(2),
                   [](Proc& p) {
                     if (p.rank() == 0) p.world_comm().send_value(1, 5, 0);
                   }),
               hmpi::InvalidArgument);
}

TEST(P2p, NegativeUserTagRejected) {
  EXPECT_THROW(World::run_one_per_processor(
                   uniform(2),
                   [](Proc& p) {
                     if (p.rank() == 0) p.world_comm().send_value(1, 1, -5);
                   }),
               hmpi::InvalidArgument);
}

}  // namespace
}  // namespace hmpi::mp
