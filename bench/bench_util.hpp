// Shared helpers for the figure-reproduction benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"
#include "pmdl/model.hpp"
#include "sched/job.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "telemetry/json.hpp"

namespace hmpi::bench {

inline void emit(support::Table& table) {
  table.print(std::cout);
  std::cout << "\n";
  table.print_csv(std::cout);
  std::cout << "\n";
}

/// Writes `BENCH_<name>.json` — the machine-readable counterpart of the
/// printed tables, consumed by the perf-trajectory tooling and validated by
/// tools/telemetry_check (docs/observability.md). Cells that parse fully as
/// numbers are emitted as JSON numbers, everything else as strings. Shape:
/// `{"benchmark": name, "tables": [{"title", "columns", "rows"}]}`.
inline void write_bench_json(const std::string& name,
                             std::span<const support::Table> tables) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  const auto cell_json = [](const std::string& cell) -> std::string {
    char* end = nullptr;
    const double v = std::strtod(cell.c_str(), &end);
    if (!cell.empty() && end != nullptr && *end == '\0') {
      return telemetry::json_number(v);
    }
    return telemetry::json_quote(cell);
  };
  os << "{\n  \"benchmark\": " << telemetry::json_quote(name)
     << ",\n  \"tables\": [";
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const support::Table& table = tables[t];
    os << (t == 0 ? "\n" : ",\n") << "    {\"title\": "
       << telemetry::json_quote(table.title()) << ", \"columns\": [";
    for (std::size_t c = 0; c < table.columns().size(); ++c) {
      if (c > 0) os << ", ";
      os << telemetry::json_quote(table.columns()[c]);
    }
    os << "], \"rows\": [";
    for (std::size_t r = 0; r < table.rows().size(); ++r) {
      os << (r == 0 ? "\n" : ",\n") << "      [";
      const auto& row = table.rows()[r];
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c > 0) os << ", ";
        os << cell_json(row[c]);
      }
      os << "]";
    }
    os << (table.rows().empty() ? "" : "\n    ") << "]}";
  }
  os << (tables.empty() ? "" : "\n  ") << "]\n}\n";
  std::cout << "wrote " << path << "\n";
}

inline void write_bench_json(const std::string& name,
                             std::initializer_list<support::Table> tables) {
  write_bench_json(name, std::span<const support::Table>(tables.begin(),
                                                         tables.size()));
}

// --- scheduler workload generation (A13: bench/ablation_sched.cpp) ----------

/// Performance model of one synthetic scheduler job: param 0 is the
/// per-abstract-processor compute volume array (its length is the job
/// width), param 1 the ring-neighbour payload in bytes. The scheme is the
/// job's actual structure — parallel compute then a ring exchange — so the
/// selector's estimate and the executed body agree.
inline std::shared_ptr<const pmdl::Model> sched_job_model() {
  return std::make_shared<const pmdl::Model>(pmdl::Model::from_factory(
      "sched_job", 2, [](std::span<const pmdl::ParamValue> params) {
        const auto& volumes = std::get<std::vector<long long>>(params[0]);
        const auto bytes = std::get<long long>(params[1]);
        const auto p = static_cast<long long>(volumes.size());
        pmdl::InstanceBuilder b("sched_job");
        b.shape({p});
        for (long long a = 0; a < p; ++a) {
          b.node_volume(static_cast<int>(a),
                        static_cast<double>(volumes[static_cast<std::size_t>(a)]));
          if (p > 1 && bytes > 0) {
            b.link(static_cast<int>(a), static_cast<int>((a + 1) % p),
                   static_cast<double>(bytes));
          }
        }
        b.scheme([p, bytes](pmdl::ScheduleSink& s) {
          s.par_begin();
          for (long long a = 0; a < p; ++a) {
            s.par_iter_begin();
            const long long c[1] = {a};
            s.compute(c, 100.0);
          }
          s.par_end();
          if (p > 1 && bytes > 0) {
            s.par_begin();
            for (long long a = 0; a < p; ++a) {
              s.par_iter_begin();
              const long long src[1] = {a};
              const long long dst[1] = {(a + 1) % p};
              s.transfer(src, dst, 100.0);
            }
            s.par_end();
          }
        });
        return b.build();
      }));
}

/// The shared P-machine heterogeneous testbed of the at-scale experiments:
/// one seed, one cluster, everywhere — the A10 ablation, the mapper scale
/// tests and `hmpictl --large-cluster` must all search the same landscape so
/// their numbers compare (docs/mapper.md).
inline hnoc::Cluster make_large_cluster(int machines,
                                        std::uint64_t seed = 0x413130ULL) {
  return hnoc::testbeds::large_cluster(machines, seed);
}

/// Body of a sched_job: each rank computes its volume and exchanges the ring
/// payload, then returns a token folded from the spec constants only — so
/// the token is placement-independent and a preempted/re-dispatched run is
/// bit-identical to an uncontended one (the A13 correctness oracle).
inline sched::JobBody make_sched_job_body(std::vector<long long> volumes,
                                          long long ring_bytes) {
  std::uint64_t token = 1469598103934665603ULL;
  const auto mix = [&token](std::uint64_t v) {
    token ^= v;
    token *= 1099511628211ULL;
  };
  for (long long v : volumes) mix(static_cast<std::uint64_t>(v));
  mix(static_cast<std::uint64_t>(ring_bytes));
  return [volumes = std::move(volumes), ring_bytes,
          token](mp::Proc& proc) -> std::uint64_t {
    const int n = proc.nprocs();
    const int me = proc.rank();
    proc.compute(static_cast<double>(volumes[static_cast<std::size_t>(me)]));
    if (n > 1 && ring_bytes > 0) {
      mp::Comm comm = proc.world_comm();
      comm.send_placeholder(static_cast<std::size_t>(ring_bytes),
                            (me + 1) % n, 7);
      comm.recv_placeholder((me + n - 1) % n, 7);
    }
    return token;
  };
}

/// Knobs of make_arrival_trace.
struct ArrivalTraceOptions {
  int jobs = 2000;
  std::uint64_t seed = 42;
  /// Mean of the exponential interarrival gap (Poisson arrivals).
  double mean_interarrival_s = 0.5;
  /// Job width (abstract processors), uniform in [min_width, max_width].
  int min_width = 2;
  int max_width = 8;
  /// Pareto(alpha ~ 1.7) compute-volume scale in benchmark units; the heavy
  /// tail is what gives backfill its holes.
  double volume_scale = 50.0;
  long long ring_bytes = 64 * 1024;
  /// Priorities drawn uniformly from [0, priority_levels).
  int priority_levels = 3;
  /// Fraction of jobs that checkpoint on preemption (the rest restart).
  double checkpoint_frac = 0.5;
  long long checkpoint_bytes = 1 << 20;
  /// Attach executable bodies (measured service + correctness tokens).
  bool with_bodies = true;
};

/// A seeded synthetic multi-tenant arrival trace (satellite of A13; also
/// used by tools/hmpictl). Deterministic: the same options give the same
/// stream of specs on every platform.
inline std::vector<sched::JobSpec> make_arrival_trace(
    const ArrivalTraceOptions& opt) {
  support::Rng rng(opt.seed);
  const std::shared_ptr<const pmdl::Model> model = sched_job_model();
  std::vector<sched::JobSpec> out;
  out.reserve(static_cast<std::size_t>(opt.jobs));
  double t = 0.0;
  for (int j = 0; j < opt.jobs; ++j) {
    t += -std::log(1.0 - rng.next_double()) * opt.mean_interarrival_s;
    const int width = static_cast<int>(rng.next_in(opt.min_width, opt.max_width));
    std::vector<long long> volumes(static_cast<std::size_t>(width));
    for (long long& v : volumes) {
      const double tail = std::pow(1.0 - rng.next_double(), -0.6);
      v = std::clamp<long long>(
          static_cast<long long>(std::llround(opt.volume_scale * tail)), 1,
          static_cast<long long>(opt.volume_scale) * 50);
    }
    sched::JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.model = model;
    spec.params = {pmdl::array(volumes), pmdl::scalar(opt.ring_bytes)};
    spec.priority = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(std::max(1, opt.priority_levels))));
    spec.arrival_s = t;
    spec.checkpoint_bytes =
        rng.next_double() < opt.checkpoint_frac ? opt.checkpoint_bytes : -1;
    if (opt.with_bodies) {
      spec.body = make_sched_job_body(std::move(volumes), opt.ring_bytes);
    }
    out.push_back(std::move(spec));
  }
  return out;
}

/// A13's cluster: twelve machines in three speed tiers (100/80/60) —
/// heterogeneous enough that placement quality matters, small enough that a
/// wide job blocks a meaningful fraction of the cluster under exclusive
/// FIFO. The switched network is a real LAN (1 ms / 2 MB/s), not the default
/// infinite-bandwidth fabric: transfer time is what co-tenants overlap, so
/// multi-tenancy only pays off when communication costs something.
inline hnoc::Cluster a13_cluster() {
  hnoc::ClusterBuilder b;
  for (int i = 0; i < 12; ++i) {
    const double speed = i < 4 ? 100.0 : (i < 8 ? 80.0 : 60.0);
    std::string name = "m";
    name += std::to_string(i);
    b.add(std::move(name), speed);
  }
  b.network(1e-3, 2e6);
  return b.build();
}

/// A13's 2000-job arrival trace (seed 42).
inline ArrivalTraceOptions a13_trace_options() {
  ArrivalTraceOptions options;
  options.jobs = 2000;
  options.seed = 42;
  options.max_width = 10;        // wide jobs on 12 machines: FIFO's
                                 // head-of-line blocking is expensive
  options.ring_bytes = 1 << 20;  // ~0.5 s/hop at 2 MB/s: comm-bound jobs
  options.volume_scale = 15.0;   // ~50/50 compute/comm mix — co-tenants
                                 // genuinely overlap each other's transfers
  options.checkpoint_frac = 0.7;
  return options;
}

}  // namespace hmpi::bench
