// Golden prices of the shipped models.
//
// fixture_text() compiles each model below into a Plan and prints its
// Plan::evaluate price under 8 mappings in hexfloat: 4 onto distinct
// machines where the network has enough of them, and 4 onto 3 machines, so
// that abstract pairs alias one physical link inside par frames.
//   ParallelAxB  the paper's Fig 7 model on paper_mm_network (m = 3, r = 8)
//                at n = 18, 36 and 72, for every l of the default Timeof
//                sweep and every divisor of n that is at least m;
//   Em3d         the Fig 4 model at the Fig 9 x1 decomposition, k = 100;
//   Jacobi       jacobi_heat's 128 interior rows over 9 speed-sized bands;
//   Ring, Work   the pmdl models of quickstart and of adaptive_load,
//                custom_cluster and live_migration, with their parameters;
//   demo_job     trace_report's factory model, at widths 1-3;
//   sched_job    the scheduler benches' factory model (bench/bench_util.hpp)
//                at widths 2-10, without and with a 64 KiB ring.
// tests/estimator/golden/prices.txt holds this text as recorded from the
// plan compiler that kept one marker per par segment and block, so it pins
// that the lowering of par structure changes no price.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../golden_text.hpp"
#include "apps/em3d/app.hpp"
#include "apps/jacobi/jacobi.hpp"
#include "apps/matmul/app.hpp"
#include "bench_util.hpp"
#include "estimator/plan.hpp"
#include "hnoc/cluster.hpp"
#include "support/rng.hpp"

namespace hmpi::est {
namespace {

using golden::first_difference;
using golden::hexfloat;

/// The pmdl models of the examples, verbatim.
constexpr const char* kRingModel = R"(
    algorithm Ring(int p, int work[p]) {
      coord I=p;
      node { I>=0: bench*(work[I]); };
      link (J=p) { J == ((I+1) % p) : length*(1000) [I]->[J]; };
      parent[0];
      scheme {
        int i;
        par (i = 0; i < p; i++) 100%%[i];
        par (i = 0; i < p; i++) 100%%[i]->[(i+1) % p];
      };
    };
  )";
constexpr const char* kWorkModel = R"(
    algorithm Work(int p, int v[p]) {
      coord I=p;
      node { I>=0: bench*(v[I]); };
      parent[0];
      scheme { int i; par (i = 0; i < p; i++) 100%%[i]; };
    };
  )";

/// trace_report's scheduler demo job: `p` equal computes in one par block.
pmdl::Model demo_job_model() {
  return pmdl::Model::from_factory(
      "demo_job", 2, [](std::span<const pmdl::ParamValue> params) {
        const long long p = std::get<long long>(params[0]);
        const long long volume = std::get<long long>(params[1]);
        pmdl::InstanceBuilder b("demo_job");
        b.shape({p});
        for (long long a = 0; a < p; ++a) {
          b.node_volume(static_cast<int>(a), static_cast<double>(volume));
        }
        b.scheme([p](pmdl::ScheduleSink& s) {
          s.par_begin();
          for (long long a = 0; a < p; ++a) {
            s.par_iter_begin();
            const long long c[1] = {a};
            s.compute(c, 100.0);
          }
          s.par_end();
        });
        return b.build();
      });
}

/// Eight fixture lines: the price of `instance` under 4 mappings onto
/// distinct machines (with repeats when the network is smaller than the
/// model) and 4 onto 3 machines.
std::string price_lines(const std::string& label,
                        const pmdl::ModelInstance& instance,
                        const hnoc::NetworkModel& network, support::Rng& rng) {
  const Plan plan(instance);
  const int p = instance.size();
  const int machines = network.size();
  std::string out;
  for (int k = 0; k < 8; ++k) {
    std::vector<int> procs(static_cast<std::size_t>(machines));
    for (int m = 0; m < machines; ++m) procs[static_cast<std::size_t>(m)] = m;
    for (int m = machines - 1; m > 0; --m) {  // Fisher-Yates
      std::swap(procs[static_cast<std::size_t>(m)],
                procs[rng.next_below(static_cast<std::uint64_t>(m + 1))]);
    }
    std::vector<int> mapping(static_cast<std::size_t>(p));
    for (int a = 0; a < p; ++a) {
      mapping[static_cast<std::size_t>(a)] =
          k < 4 ? procs[static_cast<std::size_t>(a % machines)]
                : procs[rng.next_below(3)];
    }
    out += label + " map=";
    for (int a = 0; a < p; ++a) {
      if (a > 0) out += ',';
      out += std::to_string(mapping[static_cast<std::size_t>(a)]);
    }
    out += " time=" + hexfloat(plan.evaluate(mapping, network)) + "\n";
  }
  return out;
}

/// The l values the Timeof search of matmul::run_hmpi sweeps by default,
/// plus every divisor of n from m on.
std::vector<int> matmul_ls(int m, int n) {
  std::set<int> ls;
  for (int l = m; l <= n; l = std::max(l + 1, l + (n - m) / 8)) ls.insert(l);
  ls.insert(n);
  for (int l = m; l <= n; ++l) {
    if (n % l == 0) ls.insert(l);
  }
  return {ls.begin(), ls.end()};
}

/// Every line of tests/estimator/golden/prices.txt, in file order.
std::string fixture_text() {
  support::Rng rng(0x5052494345ULL);  // "PRICE"
  std::string out;

  const hnoc::Cluster mm_cluster = hnoc::testbeds::paper_mm_network();
  const hnoc::NetworkModel mm_network(mm_cluster);
  const pmdl::Model axb = apps::matmul::performance_model();
  const int m = 3;
  const std::vector<double> grid_speeds(mm_network.speeds().begin(),
                                        mm_network.speeds().begin() + m * m);
  for (const int n : {18, 36, 72}) {
    for (const int l : matmul_ls(m, n)) {
      const apps::matmul::Partition partition(m, l, grid_speeds);
      out += price_lines(
          "ParallelAxB n=" + std::to_string(n) + " l=" + std::to_string(l),
          axb.instantiate(apps::matmul::model_parameters(m, 8, n, partition)),
          mm_network, rng);
    }
  }

  const hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  const hnoc::NetworkModel network(cluster);
  apps::em3d::GeneratorConfig em3d_config;
  for (const int nodes : {400, 500, 700, 550, 650, 600, 800, 100, 205}) {
    em3d_config.nodes_per_subbody.push_back(nodes);
  }
  em3d_config.degree = 5;
  em3d_config.remote_fraction = 0.05;
  em3d_config.seed = 2003;
  out += price_lines("Em3d x1 k=100",
                     apps::em3d::performance_model().instantiate(
                         apps::em3d::model_parameters(
                             apps::em3d::generate(em3d_config), 100)),
                     network, rng);

  const std::vector<int> bands =
      apps::jacobi::distribute_rows(128, network.speeds());
  out += price_lines("Jacobi rows=128 cols=64",
                     apps::jacobi::performance_model().instantiate(
                         apps::jacobi::model_parameters(bands, 64)),
                     network, rng);

  out += price_lines("Ring p=3",
                     pmdl::Model::from_source(kRingModel).instantiate(
                         {pmdl::scalar(3), pmdl::array({200, 1000, 400})}),
                     network, rng);
  const pmdl::Model work = pmdl::Model::from_source(kWorkModel);
  out += price_lines("Work p=4",
                     work.instantiate({pmdl::scalar(4),
                                       pmdl::array({500, 4000, 2000, 1000})}),
                     network, rng);
  out += price_lines(
      "Work p=3",
      work.instantiate({pmdl::scalar(3), pmdl::array({100, 900, 400})}),
      network, rng);
  out += price_lines(
      "Work p=3 equal",
      work.instantiate({pmdl::scalar(3), pmdl::array({10, 10, 10})}), network,
      rng);
  const pmdl::Model demo = demo_job_model();
  for (int width = 1; width <= 3; ++width) {
    out += price_lines("demo_job p=" + std::to_string(width),
                       demo.instantiate({pmdl::scalar(width),
                                         pmdl::scalar(200 + 150 * width)}),
                       network, rng);
  }

  const hnoc::Cluster large = bench::make_large_cluster(16);
  const hnoc::NetworkModel large_network(large);
  const std::shared_ptr<const pmdl::Model> job = bench::sched_job_model();
  for (int width = 2; width <= 10; ++width) {
    for (const long long bytes : {0LL, 64LL * 1024}) {
      std::vector<long long> volumes(static_cast<std::size_t>(width));
      for (long long& v : volumes) v = rng.next_in(50, 500);
      out += price_lines("sched_job w=" + std::to_string(width) +
                             " bytes=" + std::to_string(bytes),
                         job->instantiate({pmdl::array(volumes),
                                           pmdl::scalar(bytes)}),
                         large_network, rng);
    }
  }
  return out;
}

TEST(PlanGolden, PricesMatchTheRecordedFixture) {
  const std::string path =
      std::string(HMPI_ESTIMATOR_GOLDEN_DIR) + "/prices.txt";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden fixture " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  const std::string diff = first_difference(expected.str(), fixture_text());
  EXPECT_TRUE(diff.empty()) << "differs from " << path << " at " << diff;
}

}  // namespace
}  // namespace hmpi::est
