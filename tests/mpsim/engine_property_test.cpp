// Property test of the determinism contract: randomized simulated programs
// (p2p ring shifts, pair exchanges, collectives, compute/elapse,
// message-delay and crash fault plans) generated from seeds 1..20, each run
// twice and compared bit-for-bit with the thread engine's recorded output
// (tests/mpsim/golden/EngineProperty.seedNN.txt) via differential.hpp. A
// mismatch reports the seed's script.
//
// Message drops are deliberately excluded: the thread engine the fixtures
// came from turned a dropped message into a deadlock-timeout race, so its
// output was not a fixed oracle (docs/simulator.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"
#include "support/error.hpp"

#include "differential.hpp"

namespace hmpi::mp {
namespace {

struct Round {
  enum class Kind {
    kCompute,
    kElapse,
    kRingShift,
    kPairExchange,
    kBcast,
    kAllreduce,
    kAllgather,
    kBarrier,
  };
  Kind kind = Kind::kBarrier;
  int a = 0;     ///< Kind-specific integer (shift distance, root, ...).
  int bytes = 8; ///< Payload element count for message rounds.
};

struct Script {
  int nprocs = 2;
  std::vector<Round> rounds;
  bool delay_faults = false;
  bool crash_last_rank = false;
  double crash_time = 0.0;
  std::uint64_t fault_seed = 0;
};

const char* kind_name(Round::Kind k) {
  switch (k) {
    case Round::Kind::kCompute: return "compute";
    case Round::Kind::kElapse: return "elapse";
    case Round::Kind::kRingShift: return "ring_shift";
    case Round::Kind::kPairExchange: return "pair_exchange";
    case Round::Kind::kBcast: return "bcast";
    case Round::Kind::kAllreduce: return "allreduce";
    case Round::Kind::kAllgather: return "allgather";
    case Round::Kind::kBarrier: return "barrier";
  }
  return "?";
}

std::string describe(const Script& s) {
  std::ostringstream out;
  out << "nprocs=" << s.nprocs;
  if (s.delay_faults) out << " delay_faults(seed=" << s.fault_seed << ")";
  if (s.crash_last_rank) out << " crash(last@" << s.crash_time << ")";
  for (const Round& r : s.rounds) {
    out << "\n  " << kind_name(r.kind) << " a=" << r.a << " n=" << r.bytes;
  }
  return out.str();
}

Script generate(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Script s;
  s.nprocs = 2 + static_cast<int>(rng() % 5);  // 2..6
  const int rounds = 3 + static_cast<int>(rng() % 10);
  for (int i = 0; i < rounds; ++i) {
    Round r;
    r.kind = static_cast<Round::Kind>(rng() % 8);
    r.a = static_cast<int>(rng() % 64);
    r.bytes = 1 + static_cast<int>(rng() % 512);
    s.rounds.push_back(r);
  }
  if (rng() % 3 == 0) {
    s.delay_faults = true;
    s.fault_seed = rng();
  }
  if (rng() % 4 == 0) {
    s.crash_last_rank = true;
    // Scripts run a few virtual milliseconds; draw from [0.5ms, 10.5ms] so
    // the crash usually lands mid-program rather than after it ends.
    s.crash_time = 0.0005 + static_cast<double>(rng() % 100) / 10000.0;
  }
  return s;
}

/// Interprets one script round for one process. Every rank executes the same
/// script, so message patterns always match up.
void run_round(Proc& p, const Comm& comm, const Round& r, int tag) {
  const int n = p.nprocs();
  const int rank = p.rank();
  switch (r.kind) {
    case Round::Kind::kCompute:
      p.compute(0.05 + 0.01 * ((rank * 7 + r.a) % 5));
      break;
    case Round::Kind::kElapse:
      p.elapse(0.001 * (1 + r.a % 9));
      break;
    case Round::Kind::kRingShift: {
      const int d = 1 + r.a % (n - 1);
      const int dst = (rank + d) % n;
      const int src = (rank + n - d) % n;
      std::vector<double> out(static_cast<std::size_t>(r.bytes),
                              rank * 1.5 + r.a);
      std::vector<double> in(static_cast<std::size_t>(r.bytes));
      comm.send(std::span<const double>(out), dst, tag);
      comm.recv(std::span<double>(in), src, tag);
      break;
    }
    case Round::Kind::kPairExchange: {
      const int partner = rank ^ 1;
      if (partner < n) {
        std::vector<int> out(static_cast<std::size_t>(r.bytes), rank);
        std::vector<int> in(static_cast<std::size_t>(r.bytes));
        comm.sendrecv(std::span<const int>(out), partner, tag,
                      std::span<int>(in), partner, tag);
      }
      break;
    }
    case Round::Kind::kBcast: {
      std::vector<double> data(static_cast<std::size_t>(r.bytes),
                               rank == r.a % n ? 2.5 : 0.0);
      comm.bcast(std::span<double>(data), r.a % n);
      break;
    }
    case Round::Kind::kAllreduce: {
      std::vector<double> in(static_cast<std::size_t>(r.bytes % 64 + 1),
                             rank + 0.5);
      std::vector<double> out(in.size());
      comm.allreduce(std::span<const double>(in), std::span<double>(out),
                     [](double a, double b) { return a + b; });
      break;
    }
    case Round::Kind::kAllgather: {
      const int per = r.bytes % 16 + 1;
      std::vector<int> mine(static_cast<std::size_t>(per), rank);
      std::vector<int> all(static_cast<std::size_t>(per * n));
      comm.allgather(std::span<const int>(mine), std::span<int>(all));
      break;
    }
    case Round::Kind::kBarrier:
      comm.barrier();
      break;
  }
}

World::Options options_for(const Script& s) {
  World::Options options;
  if (s.delay_faults) {
    options.faults.delay_probability = 0.4;
    options.faults.delay_s = 0.02;
    options.faults.seed = s.fault_seed;
  }
  if (s.crash_last_rank) {
    options.faults.crashes.push_back({s.nprocs - 1, s.crash_time});
  }
  return options;
}

TEST(EngineProperty, RandomProgramsMatchTheirFixtures) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Script s = generate(seed);
    hnoc::Cluster cluster = hnoc::testbeds::homogeneous(s.nprocs, 100.0);
    std::vector<int> placement(static_cast<std::size_t>(s.nprocs));
    for (int i = 0; i < s.nprocs; ++i) {
      placement[static_cast<std::size_t>(i)] = i;
    }
    auto body = [&s](Proc& p) {
      Comm comm = p.world_comm();
      // A crashed peer surfaces as PeerFailedError on direct receivers and
      // as DeadlockError on survivors transitively starved by a stopped (but
      // alive) peer; both leave the virtual state untouched, so every rank
      // stops at a fixed round with fixed clocks and stats.
      // ProcessKilledError must NOT be caught: it is the kill-unwinding of
      // the crashed rank itself.
      try {
        int tag = 1;
        for (const Round& r : s.rounds) run_round(p, comm, r, tag++);
      } catch (const PeerFailedError&) {
      } catch (const RevokedError&) {
      } catch (const DeadlockError&) {
      }
    };
    char name[32];
    std::snprintf(name, sizeof name, "EngineProperty.seed%02d",
                  static_cast<int>(seed));
    SCOPED_TRACE(describe(s));
    testing::expect_matches_golden(name, cluster, placement, body,
                                   options_for(s));
  }
}

}  // namespace
}  // namespace hmpi::mp
