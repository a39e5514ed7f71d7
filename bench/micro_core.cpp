// Ablation A4 (DESIGN.md): google-benchmark microbenchmarks of the core
// machinery — PMDL front end, scheme replay / estimation (the reference
// interpreter and the batch kernel), process selection, and the
// message-passing substrate's collectives.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "apps/em3d/app.hpp"
#include "apps/matmul/app.hpp"
#include "estimator/plan.hpp"
#include "hnoc/cluster.hpp"
#include "mapper/mapper.hpp"
#include "mpsim/comm.hpp"
#include "reference/estimator.hpp"

namespace {

using namespace hmpi;

apps::em3d::System bench_system() {
  apps::em3d::GeneratorConfig config;
  config.nodes_per_subbody = {400, 500, 700, 550, 650, 600, 800, 100, 205};
  config.degree = 5;
  config.remote_fraction = 0.05;
  config.seed = 41;
  return apps::em3d::generate(config);
}

void BM_PmdlParseEm3d(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::em3d::performance_model());
  }
}
BENCHMARK(BM_PmdlParseEm3d);

void BM_PmdlParseParallelAxB(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::matmul::performance_model());
  }
}
BENCHMARK(BM_PmdlParseParallelAxB);

void BM_InstantiateEm3d(benchmark::State& state) {
  const auto system = bench_system();
  pmdl::Model model = apps::em3d::performance_model();
  const auto params = apps::em3d::model_parameters(system, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.instantiate(params));
  }
}
BENCHMARK(BM_InstantiateEm3d);

void BM_EstimateEm3dScheme(benchmark::State& state) {
  const auto system = bench_system();
  pmdl::Model model = apps::em3d::performance_model();
  const auto instance =
      model.instantiate(apps::em3d::model_parameters(system, 100));
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  std::vector<int> mapping{0, 1, 2, 3, 4, 5, 6, 7, 8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        est::reference::estimate_time(instance, mapping, net));
  }
}
BENCHMARK(BM_EstimateEm3dScheme);

void BM_EstimateAxBScheme(benchmark::State& state) {
  pmdl::Model model = apps::matmul::performance_model();
  std::vector<double> grid_speeds{106, 46, 46, 46, 46, 46, 46, 46, 9};
  apps::matmul::Partition partition(3, 9, grid_speeds);
  const auto instance = model.instantiate(
      apps::matmul::model_parameters(3, 8, static_cast<int>(state.range(0)),
                                     partition));
  hnoc::Cluster cluster = hnoc::testbeds::paper_mm_network();
  hnoc::NetworkModel net(cluster);
  std::vector<int> mapping{7, 0, 1, 2, 3, 4, 5, 6, 8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        est::reference::estimate_time(instance, mapping, net));
  }
}
BENCHMARK(BM_EstimateAxBScheme)->Arg(18)->Arg(45)->Arg(90);

void BM_EstimateBatchEm3d(benchmark::State& state) {
  const auto system = bench_system();
  pmdl::Model model = apps::em3d::performance_model();
  const auto instance =
      model.instantiate(apps::em3d::model_parameters(system, 100));
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  const est::Plan plan(instance);
  const auto p = static_cast<std::size_t>(instance.size());
  const auto count = static_cast<std::size_t>(state.range(0));
  // Slot-major SoA batch of rotations of the identity mapping.
  std::vector<int> soa(p * count);
  for (std::size_t a = 0; a < p; ++a) {
    for (std::size_t i = 0; i < count; ++i) {
      soa[a * count + i] = static_cast<int>((a + i) % p);
    }
  }
  std::vector<double> out(count);
  for (auto _ : state) {
    plan.evaluate_batch(soa, count, net, est::EstimateOptions{}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long long>(state.iterations()) *
                          static_cast<long long>(count));
}
BENCHMARK(BM_EstimateBatchEm3d)->Arg(64)->Arg(1024);

/// The ParallelAxB instance one Fig 11 Timeof prices (m=3, r=9, n=36) at
/// generalised block size `l`, partitioned like apps::matmul::run_hmpi: the
/// host's machine first, then the fastest others.
pmdl::ModelInstance axb_fig11_instance(const pmdl::Model& model,
                                       const hnoc::NetworkModel& net, int l) {
  std::vector<double> grid_speeds{net.speed(0)};
  std::vector<double> others;
  for (int i = 1; i < net.size(); ++i) others.push_back(net.speed(i));
  std::sort(others.begin(), others.end(), std::greater<double>());
  grid_speeds.insert(grid_speeds.end(), others.begin(), others.begin() + 8);
  const apps::matmul::Partition partition(3, l, grid_speeds);
  return model.instantiate(apps::matmul::model_parameters(3, 9, 36, partition));
}

void BM_CompileAxB(benchmark::State& state) {
  pmdl::Model model = apps::matmul::performance_model();
  hnoc::Cluster cluster = hnoc::testbeds::paper_mm_network();
  hnoc::NetworkModel net(cluster);
  for (auto _ : state) {
    const est::Plan plan(axb_fig11_instance(model, net, 19));
    benchmark::DoNotOptimize(plan.op_count());
  }
}
BENCHMARK(BM_CompileAxB);

void BM_PlanEvaluateAxB(benchmark::State& state) {
  pmdl::Model model = apps::matmul::performance_model();
  hnoc::Cluster cluster = hnoc::testbeds::paper_mm_network();
  hnoc::NetworkModel net(cluster);
  const est::Plan plan(axb_fig11_instance(model, net, 19));
  const std::vector<int> mapping{0, 1, 2, 3, 4, 5, 6, 7, 8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.evaluate(mapping, net));
  }
  state.counters["plan_ops"] = static_cast<double>(plan.op_count());
}
BENCHMARK(BM_PlanEvaluateAxB);

void BM_SwapRefineSelect(benchmark::State& state) {
  const auto system = bench_system();
  pmdl::Model model = apps::em3d::performance_model();
  const auto instance =
      model.instantiate(apps::em3d::model_parameters(system, 100));
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  std::vector<map::Candidate> candidates;
  for (int i = 0; i < 9; ++i) candidates.push_back({i, i});
  map::SwapRefineMapper mapper;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mapper.select(instance, candidates, 0, net, est::EstimateOptions{}));
  }
}
BENCHMARK(BM_SwapRefineSelect);

void BM_WorldBcast(benchmark::State& state) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(9, 50.0);
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    mp::World::run_one_per_processor(cluster, [bytes](mp::Proc& p) {
      std::vector<std::byte> data(bytes);
      p.world_comm().bcast(std::span<std::byte>(data), 0);
    });
  }
  state.SetBytesProcessed(static_cast<long long>(state.iterations()) *
                          static_cast<long long>(bytes) * 8);
}
BENCHMARK(BM_WorldBcast)->Arg(64)->Arg(65536);

void BM_WorldBarrier(benchmark::State& state) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(9, 50.0);
  for (auto _ : state) {
    mp::World::run_one_per_processor(cluster, [](mp::Proc& p) {
      for (int i = 0; i < 10; ++i) p.world_comm().barrier();
    });
  }
}
BENCHMARK(BM_WorldBarrier);

void BM_Em3dGenerate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench_system());
  }
}
BENCHMARK(BM_Em3dGenerate);

}  // namespace

BENCHMARK_MAIN();
