// Model explorer: what the PMDL "compiler" sees.
//
// Takes the paper's two performance models, prints their canonical source
// (pretty-printer), instantiates them with representative parameters, dumps
// the compiled summary (volumes/links/parent), and compares the predicted
// execution time of the naive rank-order mapping with the mapper's choice
// on the paper's network.
//
// Build & run:  ./build/examples/model_explorer
#include <cstdio>
#include <numeric>

#include "apps/em3d/app.hpp"
#include "apps/matmul/app.hpp"
#include "estimator/plan.hpp"
#include "hnoc/cluster.hpp"
#include "mapper/mapper.hpp"
#include "pmdl/parser.hpp"
#include "pmdl/printer.hpp"

using namespace hmpi;

namespace {

void explore(const char* title, const pmdl::ModelInstance& instance,
             const hnoc::Cluster& cluster) {
  std::printf("---- %s ----\n%s", title, instance.summary().c_str());

  hnoc::NetworkModel net(cluster);
  std::vector<int> identity(static_cast<std::size_t>(instance.size()));
  std::iota(identity.begin(), identity.end(), 0);
  const double naive = est::Plan(instance).evaluate(identity, net);

  std::vector<map::Candidate> candidates;
  for (int i = 0; i < cluster.size(); ++i) candidates.push_back({i, i});
  const auto best = map::SwapRefineMapper().select(instance, candidates, 0, net,
                                                   est::EstimateOptions{});

  std::printf("  predicted: rank-order %.4f s, selected group %.4f s (%.2fx)\n\n",
              naive, best.estimated_time, naive / best.estimated_time);
}

}  // namespace

int main() {
  // EM3D (Figure 4) -----------------------------------------------------------
  {
    pmdl::Model model = apps::em3d::performance_model();
    apps::em3d::GeneratorConfig config;
    config.nodes_per_subbody = {400, 500, 700, 550, 650, 600, 800, 100, 205};
    config.degree = 5;
    config.remote_fraction = 0.05;
    config.seed = 7;
    const auto system = apps::em3d::generate(config);

    std::printf("== Em3d, canonical source as the compiler sees it ==\n");
    // Round-trip the application's model text through the parser + printer.
    const auto parsed = pmdl::parse(R"(
algorithm Em3d(int p, int k, int d[p], int dep[p][p]) {
  coord I=p;
  node {I>=0: bench*(d[I]/k);};
  link (L=p) {
    I>=0 && I!=L && (dep[I][L] > 0) :
      length*(dep[I][L]*sizeof(double)) [L]->[I];
  };
  parent[0];
  scheme {
    int current, owner, remote;
    par (owner = 0; owner < p; owner++)
        par (remote = 0; remote < p; remote++)
             if ((owner != remote) && (dep[owner][remote] > 0))
                100%%[remote]->[owner];
    par (current = 0; current < p; current++) 100%%[current];
  };
};
)");
    std::printf("%s\n", pmdl::to_source(*parsed).c_str());

    explore("Em3d compiled for the 9-subbody object",
            model.instantiate(apps::em3d::model_parameters(system, 100)),
            hnoc::testbeds::paper_em3d_network());
  }

  // ParallelAxB (Figure 7) ------------------------------------------------------
  {
    pmdl::Model model = apps::matmul::performance_model();
    std::vector<double> grid_speeds{46, 106, 46, 46, 46, 46, 46, 46, 9};
    apps::matmul::Partition partition(3, 9, grid_speeds);
    explore("ParallelAxB compiled for n=18, r=8, l=9",
            model.instantiate(apps::matmul::model_parameters(3, 8, 18, partition)),
            hnoc::testbeds::paper_mm_network());
  }
  return 0;
}
