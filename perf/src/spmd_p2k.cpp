// spmd_p2k: the simulator and the library collectives at scale, with no
// selection at all. One op is one World::run of 2000 processes on
// two_level(4, 4, 100) with round-robin placement: 16 rounds of compute and
// a bidirectional 4 KiB ring halo, an allreduce of one double every 4th
// round, and a closing barrier. Sized at 2000 processes because memory
// grows as P^2 today (README.md, findings).
#include <atomic>
#include <vector>

#include "mpsim/comm.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace hmpi::perf {
namespace {

constexpr int kProcs = 2000;
constexpr int kRounds = 16;
constexpr int kAllreduceEvery = 4;
constexpr std::size_t kHaloBytes = 4096;
constexpr int kWarmup = 1;
constexpr int kMinOps = 3;

struct Inputs {
  std::vector<int> placement;
  std::vector<double> volumes;   ///< [rank * kRounds + round], benchmark units
  std::vector<double> expected;  ///< Allreduce sum per round
};

Inputs make_inputs(const hnoc::Cluster& cluster, std::uint64_t seed) {
  Inputs in;
  support::Rng rng(0x53504d44ULL + seed);
  in.placement.resize(kProcs);
  in.volumes.resize(static_cast<std::size_t>(kProcs) * kRounds);
  in.expected.assign(kRounds, 0.0);
  for (int r = 0; r < kProcs; ++r) {
    in.placement[static_cast<std::size_t>(r)] = r % cluster.size();
    for (int round = 0; round < kRounds; ++round) {
      const auto v = static_cast<double>(rng.next_in(50, 150));
      in.volumes[static_cast<std::size_t>(r) * kRounds + round] = v;
      in.expected[static_cast<std::size_t>(round)] += v;  // exact: integers
    }
  }
  return in;
}

struct OpResult {
  double makespan = 0.0;
  double messages = 0.0;
  bool sums_ok = true;
};

OpResult run_op(const hnoc::Cluster& cluster, const Inputs& in, Tracer& tracer,
                long long op, int parent) {
  std::atomic<bool> sums_ok{true};
  const mp::World::RunResult run = mp::World::run(
      cluster, in.placement, [&](mp::Proc& proc) {
        mp::Comm comm = proc.world_comm();
        const int me = proc.rank();
        const int right = (me + 1) % kProcs;
        const int left = (me + kProcs - 1) % kProcs;
        const bool host = me == 0;
        for (int round = 0; round < kRounds; ++round) {
          const double volume =
              in.volumes[static_cast<std::size_t>(me) * kRounds + round];
          proc.compute(volume);
          comm.send_placeholder(kHaloBytes, right, round);
          comm.send_placeholder(kHaloBytes, left, kRounds + round);
          comm.recv_placeholder(left, round);
          comm.recv_placeholder(right, kRounds + round);
          if (round % kAllreduceEvery == kAllreduceEvery - 1) {
            double sum = 0.0;
            const int s = host ? tracer.begin("coll.allreduce", op, parent) : -1;
            comm.allreduce(std::span<const double>(&volume, 1),
                           std::span<double>(&sum, 1),
                           [](double a, double b) { return a + b; });
            tracer.end(s);
            if (sum != in.expected[static_cast<std::size_t>(round)]) {
              sums_ok = false;
            }
          }
        }
        const int s = host ? tracer.begin("coll.barrier", op, parent) : -1;
        comm.barrier();
        tracer.end(s);
      });
  OpResult out;
  out.makespan = run.makespan;
  for (const mp::Stats& s : run.stats) {
    out.messages += static_cast<double>(s.msgs_sent);
  }
  out.sums_ok = sums_ok;
  return out;
}

}  // namespace

Result run_spmd_p2k(const Options& options) {
  use_event_engine();
  Result result;
  result.workload = "spmd_p2k";
  result.options = options;

  // Setup: the inputs, their fingerprint and the warm-up op.
  const hnoc::Cluster cluster = hnoc::testbeds::two_level(4, 4, 100.0);
  const Inputs inputs = make_inputs(cluster, options.seed);
  Fingerprint fp;
  fp.add(cluster);
  for (int p : inputs.placement) fp.add(static_cast<std::uint64_t>(p));
  for (double v : inputs.volumes) fp.add(v);
  result.input_hash = fp.hex();
  result.check_reference_hash();

  Tracer tracer(options.traced);
  OpResult first;
  for (int i = 0; i < kWarmup; ++i) first = run_op(cluster, inputs, tracer, -1, -1);
  const double rss_mb = peak_rss_mb();
  const double setup_s = seconds_since(options.process_start);
  result.check(first.sums_ok, "allreduce sums differ from the inputs' sums");

  LayerLog log;
  log.max_world_procs = kProcs;
  log.rss_mb = rss_mb;
  std::vector<double> op_ms;
  const double timed_s =
      timed_loop(result, options.seconds, kMinOps, op_ms, [&](long long i) {
        OpResult r;
        if (options.traced && i % 2 == 1) {
          const double dispatches = counter_value("sim.dispatches");
          const int op = tracer.begin("op", i);
          const int world = tracer.begin("mpsim.run", i, op);
          r = run_op(cluster, inputs, tracer, i, world);
          tracer.end(world);
          tracer.end(op);
          log.traced_ms.push_back(tracer.duration(op));
          log.world_ms.push_back(tracer.duration(world));
          log.messages += r.messages;
          log.dispatches += counter_value("sim.dispatches") - dispatches;
        } else {
          r = run_op(cluster, inputs, tracer, -1, -1);
        }
        const bool ok = r.sums_ok && r.makespan == first.makespan &&
                        r.messages == first.messages;
        if (!ok) {
          result.errors.push_back("op " + std::to_string(i) +
                                  ": wrong allreduce sum, or the run differs "
                                  "from the first run");
        }
        return ok;
      });

  result.check_reference("vtime_s", first.makespan);
  result.check_reference("msgs", first.messages);

  if (options.traced) {
    for (std::size_t i = 0; i < op_ms.size(); i += 2) {
      log.untraced_ms.push_back(op_ms[i]);
    }
    add_layer_metrics(result, tracer, log);
    result.spans = tracer.spans();
  } else {
    add_end_to_end(result, setup_s, rss_mb, op_ms, timed_s);
    result.metric("vtime_s", first.makespan, "virtual_s");
    result.metric("msgs", first.messages, "count");
  }
  return result;
}

}  // namespace hmpi::perf
