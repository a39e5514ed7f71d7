// hmpictl: command-line front-end of the hmpictld scheduler service
// (docs/scheduler.md).
//
// Generates the seeded synthetic arrival trace from bench/bench_util.hpp,
// drives it through a sched::Scheduler on a three-tier heterogeneous
// cluster, and prints the aggregate accounting — the quick way to explore
// policy/slots/backfill/preemption trade-offs without writing a bench. The
// HMPI_SCHED_* environment overrides apply on top of the flags.
//
//   hmpictl [--policy fifo|priority] [--jobs N] [--seed S] [--slots K]
//           [--machines M] [--large-cluster] [--mapper NAME]
//           [--no-backfill] [--no-preempt] [--no-execute] [--json PATH]
//
// --large-cluster swaps the three-tier testbed for the seeded heterogeneous
// large_cluster of the A10 mapping-scale experiments (same seed as
// bench/ablation_mapscale, so numbers compare); pair it with --machines 1000
// and --mapper portfolio|beam|annealing-ws to exercise the at-scale
// selection path. --json writes the `{"scheduler": {...}}` document
// (telemetry_check's scheduler shape) to PATH, or to stdout when PATH is
// "-". Exit status 0 on success, 2 on usage errors and on any input the
// library rejects (an unknown mapper name, a bad HMPI_SCHED_* value), which
// print one `hmpictl: <reason>` line.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hnoc/cluster.hpp"
#include "sched/scheduler.hpp"
#include "support/error.hpp"
#include "support/table.hpp"

namespace {

using namespace hmpi;

int usage() {
  std::fprintf(stderr,
               "usage: hmpictl [--policy fifo|priority] [--jobs N] [--seed S]"
               " [--slots K]\n"
               "               [--machines M] [--large-cluster]"
               " [--mapper NAME]\n"
               "               [--no-backfill] [--no-preempt] [--no-execute]"
               " [--json PATH]\n");
  return 2;
}

/// Parses the value of `flag` whole (std::from_chars, so "5x" or a number
/// out of range is refused) into *out when it is at least `min`; otherwise
/// prints why and returns false.
template <typename T>
bool parse_whole(const char* flag, const char* text, T min, T* out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error == std::errc{} && stop == end && value >= min) {
    *out = value;
    return true;
  }
  std::fprintf(stderr,
               "hmpictl: %s '%s' is not accepted (accepted: a whole decimal "
               "integer >= %lld)\n",
               flag, text, static_cast<long long>(min));
  return false;
}

/// Same shape as the A13 cluster: three speed tiers and a 1 ms / 2 MB/s LAN.
hnoc::Cluster make_cluster(int machines) {
  hnoc::ClusterBuilder b;
  for (int i = 0; i < machines; ++i) {
    const int tier = i * 3 / machines;
    const double speed = tier == 0 ? 100.0 : (tier == 1 ? 80.0 : 60.0);
    b.add("m" + std::to_string(i), speed);
  }
  b.network(1e-3, 2e6);
  return b.build();
}

int run(int argc, char** argv) {
  sched::SchedConfig config;
  config.slots_per_machine = 2;
  config.execute = true;
  int machines = 12;
  bool large_cluster = false;
  bench::ArrivalTraceOptions trace_options;
  trace_options.jobs = 200;
  trace_options.ring_bytes = 1 << 20;
  trace_options.volume_scale = 15.0;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--policy") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (std::strcmp(v, "fifo") == 0) {
        config.policy = sched::SchedPolicy::kFifo;
      } else if (std::strcmp(v, "priority") == 0) {
        config.policy = sched::SchedPolicy::kPriority;
      } else {
        return usage();
      }
    } else if (arg == "--jobs") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!parse_whole("--jobs", v, 1, &trace_options.jobs)) return 2;
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!parse_whole("--seed", v, std::uint64_t{0}, &trace_options.seed)) {
        return 2;
      }
    } else if (arg == "--slots") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!parse_whole("--slots", v, 1, &config.slots_per_machine)) return 2;
    } else if (arg == "--machines") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!parse_whole("--machines", v, 3, &machines)) return 2;
    } else if (arg == "--large-cluster") {
      large_cluster = true;
    } else if (arg == "--mapper") {
      const char* v = value();
      if (v == nullptr) return usage();
      config.mapper = v;  // validated by the scheduler (unknown names throw)
    } else if (arg == "--no-backfill") {
      config.backfill = false;
    } else if (arg == "--no-preempt") {
      config.preempt = false;
    } else if (arg == "--no-execute") {
      config.execute = false;
    } else if (arg == "--json") {
      const char* v = value();
      if (v == nullptr) return usage();
      json_path = v;
    } else {
      return usage();
    }
  }
  config = sched::sched_config_with_env(config);
  trace_options.max_width = std::min(10, machines - 2);
  trace_options.with_bodies = config.execute;

  const hnoc::Cluster cluster = large_cluster
                                    ? bench::make_large_cluster(machines)
                                    : make_cluster(machines);
  sched::Scheduler scheduler(cluster, config);
  for (sched::JobSpec& spec : bench::make_arrival_trace(trace_options)) {
    scheduler.submit(std::move(spec));
  }
  scheduler.run_until_idle();

  const sched::SchedStats stats = scheduler.stats();
  // The scheduler normalises kFifo to exclusive single-slot leases; print
  // its effective config, not the requested one.
  const sched::SchedConfig& effective = scheduler.config();
  support::Table table(
      "hmpictl: " + std::string(sched::policy_name(effective.policy)) + ", " +
          std::to_string(machines) + " machines x " +
          std::to_string(effective.slots_per_machine) + " slots",
      {"metric", "value"});
  table.add_row({"submitted", std::to_string(stats.submitted)});
  table.add_row({"completed", std::to_string(stats.completed)});
  table.add_row({"preempted", std::to_string(stats.preempted)});
  table.add_row({"backfilled", std::to_string(stats.backfilled)});
  table.add_row({"makespan_s", support::Table::num(stats.makespan_s)});
  table.add_row({"utilization", support::Table::num(stats.utilization, 4)});
  table.add_row({"mean_wait_s", support::Table::num(stats.mean_wait_s)});
  table.add_row(
      {"mean_turnaround_s", support::Table::num(stats.mean_turnaround_s)});
  table.add_row({"throughput_jobs_s",
                 support::Table::num(stats.throughput_jobs_per_s, 4)});
  table.print(std::cout);

  if (!json_path.empty()) {
    if (json_path == "-") {
      scheduler.stats_json(std::cout);
      std::cout << "\n";
    } else {
      std::ofstream os(json_path);
      if (!os) {
        std::fprintf(stderr, "hmpictl: cannot write %s\n", json_path.c_str());
        return 2;
      }
      scheduler.stats_json(os);
      os << "\n";
      std::cout << "wrote " << json_path << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const hmpi::Error& e) {
    std::fprintf(stderr, "hmpictl: %s\n", e.what());
    return 2;
  }
}
