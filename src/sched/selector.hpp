// Group selection against residual capacity.
//
// The Selector is the bridge between the scheduler and the PR 2/5 selection
// machinery: it turns the ledger's free slots into a mapper Candidate list
// (one candidate per free slot, so a machine with two free slots can host
// two abstract processors), picks the parent candidate, and calls the
// configured map::Mapper verbatim against the residual-priced overlay. The
// mapper/estimator pipeline — estimate cache, plan cache, batch kernel —
// is reused unchanged; residual pricing is entirely the overlay's job.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "estimator/plan.hpp"
#include "mapper/mapper.hpp"
#include "sched/capacity.hpp"

namespace hmpi::sched {

/// One placement decision.
struct Placement {
  /// Physical machine per abstract processor (mapping vector).
  std::vector<int> machines;
  /// Estimator's predicted makespan on the residual overlay.
  double estimated_s = 0.0;
  /// Search cost accounting (merged into sched metrics by the caller).
  map::SearchStats stats;
};

/// Runs the mapper/estimator pipeline over the ledger's free slots.
class Selector {
 public:
  /// `mapper` is borrowed and must outlive the selector; null selects
  /// GreedyMapper (linear-time — the scheduler prices thousands of
  /// placements per trace, see docs/scheduler.md).
  explicit Selector(const map::Mapper* mapper = nullptr,
                    est::EstimateOptions options = {});

  /// Places `instance` on the ledger's free slots; nullopt when the free
  /// slots cannot host it. Deterministic for fixed ledger state.
  std::optional<Placement> place(const pmdl::ModelInstance& instance,
                                 const CapacityLedger& ledger,
                                 const map::SearchContext& context) const;

  const map::Mapper& mapper() const noexcept { return *mapper_; }

 private:
  std::unique_ptr<map::Mapper> owned_;  ///< The default when none injected.
  const map::Mapper* mapper_;
  est::EstimateOptions options_;
};

}  // namespace hmpi::sched
