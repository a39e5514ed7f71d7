// Reference estimator: the scheme interpreter the test suites and the A9
// ablation price mappings with, to check the library's one estimator kernel
// (est::Plan / est::BatchEvaluator, src/estimator/plan.hpp) against an
// independent implementation of the same cost model.
//
// Given a ModelInstance, a mapping of abstract processors to physical
// processors, and a NetworkModel, it replays the model's scheme through the
// pmdl evaluator onto a timeline machine that uses the mpsim execution
// engine's cost formulas:
//   computation  : (percent/100) * volume / speed(processor)
//   communication: start at max(sender time, link busy);
//                  finish = start + latency + bytes/bandwidth;
//                  receiver time = max(receiver time, finish)
//   par blocks   : children start from the block-entry timeline; the block
//                  result is the element-wise max over children.
// It keeps link busy times in a map keyed by physical processor pair, where
// the kernel keeps compact per-abstract-pair slots, and walks the scheme AST
// on every call, where the kernel walks a compiled op list once per batch.
// The two must agree bit for bit.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "estimator/plan.hpp"
#include "hnoc/network_model.hpp"
#include "pmdl/model.hpp"

namespace hmpi::est::reference {

/// ScheduleSink that accumulates a virtual timeline (see file comment).
class TimelineMachine : public pmdl::ScheduleSink {
 public:
  /// `mapping[a]` is the physical processor of abstract processor `a`.
  /// The instance, mapping, and network must outlive the machine.
  TimelineMachine(const pmdl::ModelInstance& instance,
                  std::span<const int> mapping,
                  const hnoc::NetworkModel& network, EstimateOptions options);

  void compute(std::span<const long long> coords, double percent) override;
  void transfer(std::span<const long long> src, std::span<const long long> dst,
                double percent) override;
  void par_begin() override;
  void par_iter_begin() override;
  void par_end() override;

  /// Latest per-abstract-processor time (the estimate).
  double makespan() const;

  /// Per-abstract-processor finish times (diagnostics).
  const std::vector<double>& times() const noexcept { return state_.time; }

 private:
  struct State {
    std::vector<double> time;                       // per abstract processor
    std::map<std::pair<int, int>, double> link_busy;  // per processor pair
  };
  static void merge_max(State& into, const State& from);

  const pmdl::ModelInstance* instance_;
  std::vector<int> mapping_;
  const hnoc::NetworkModel* network_;
  EstimateOptions options_;

  State state_;
  // par nesting: entry snapshots and running element-wise maxima.
  std::vector<State> snapshots_;
  std::vector<State> accumulators_;
};

/// Predicted execution time of `instance` under `mapping` on `network`.
/// Replays the scheme when present; otherwise falls back to a conservative
/// per-processor bound: max over processors of (computation + all incident
/// communication).
double estimate_time(const pmdl::ModelInstance& instance,
                     std::span<const int> mapping,
                     const hnoc::NetworkModel& network,
                     EstimateOptions options = EstimateOptions());

}  // namespace hmpi::est::reference
