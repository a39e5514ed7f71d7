// Process-selection algorithms behind HMPI_Group_create.
//
// The problem (paper §2): given the performance model of the algorithm and
// the model of the executing network, select — out of the parent process and
// the currently free processes — the set of processes, and their arrangement
// as abstract processors, that minimises the estimated execution time. The
// paper defers to the mpC mapping algorithms [7]; we implement the standard
// family and benchmark them against each other (ablation A1):
//   * ExhaustiveMapper — optimal by enumeration; small instances only.
//   * GreedyMapper     — largest computation volume onto fastest estimated
//                        processor (linear-time baseline).
//   * SwapRefineMapper — greedy start, then hill-climbing over pairwise
//                        swaps and substitutions of unused candidates,
//                        scored by the estimator.
//   * AnnealingMapper  — simulated annealing over the same move set: one
//                        chain of the annealing walk below, one proposal
//                        per step.
//   * BeamMapper       — width-bounded frontier over the swap/substitution
//                        neighborhood, every round's neighbors scored in one
//                        SoA batch (est::BatchEvaluator); the scalable
//                        hill climber for large candidate sets.
//   * WorkStealingAnnealingMapper — independent deterministic annealing
//                        chains claimed dynamically off the thread pool
//                        (work stealing), each drawing a chunk of proposals
//                        per step and batch-scoring only the ones its walk
//                        reads.
//   * PortfolioMapper  — greedy + swap-refine + multi-seed annealing
//                        restarts, run one after another (the restarts as
//                        chains of one walk over the pool); best result
//                        wins. Above PortfolioOptions::scale_threshold
//                        candidates it swaps the quadratic members for the
//                        scalable pair (beam + work-stealing annealing).
//
// The scalable searches restrict substitution moves to the top-k fastest
// candidates (LocalityOptions) once the candidate set is large: on a
// 1000-machine network the interesting substitutions overwhelmingly target
// the fast tail, and k bounds each round's neighborhood at O(slots x k)
// instead of O(slots x P). Below the threshold nothing is restricted.
//
// Every search prices its rows through one scorer. Greedy, swap-refine,
// exhaustive and annealing hand it the context's estimate cache, and each
// row is then one cache lookup; beam, work-stealing annealing and every
// search of an uncached context price all of a call's rows in one kernel
// batch instead.
//
// Every mapper accepts a SearchContext carrying a thread pool and an
// estimate cache. Determinism guarantee (docs/mapper.md): for a fixed input,
// select() returns a bit-identical MappingResult (selection and
// estimated_time) for any thread count and regardless of whether a cache is
// supplied. Parallel searches partition their work into chunks whose results
// are reduced in a fixed order with a lexicographic tie-break, so thread
// scheduling can never change the winner.
//
// The model's parent abstract processor is pinned to the parent process
// (HMPI semantics: every group shares exactly one process with its creator).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "estimator/estimate_cache.hpp"
#include "estimator/plan.hpp"
#include "hnoc/network_model.hpp"
#include "pmdl/model.hpp"
#include "support/thread_pool.hpp"

namespace hmpi::map {

/// One selectable process.
struct Candidate {
  int world_rank = -1;  ///< Opaque id reported back in the result.
  int processor = -1;   ///< Physical processor the process runs on.
};

/// Cost accounting of one select() run.
struct SearchStats {
  /// Arrangements scored: each is one estimate-cache lookup (a hit or a
  /// miss) or one row of a kernel batch call.
  long long evaluations = 0;
  /// Evaluations answered from the cache. Greedy, swap-refine, exhaustive
  /// and annealing price through a supplied cache; beam and annealing-ws
  /// never do.
  long long cache_hits = 0;
  long long cache_misses = 0;  ///< Cache lookups the estimator had to price.
  /// Evaluations the estimator kernel priced (cache hits excluded —
  /// nothing was evaluated).
  long long compiled_evaluations = 0;
  /// Kernel batch calls of the evaluations priced without a cache
  /// (mapper.batch.*).
  long long batch_chunks = 0;
  /// Evaluations priced in those calls, each one row of the SoA evaluator.
  long long batch_candidates = 0;
  double wall_seconds = 0.0;   ///< Host wall-clock time of the search.
  int threads = 1;             ///< Workers the search ran with.

  /// cache_hits / (cache_hits + cache_misses); 0 when uncached.
  double hit_rate() const noexcept {
    const long long lookups = cache_hits + cache_misses;
    return lookups > 0 ? static_cast<double>(cache_hits) /
                             static_cast<double>(lookups)
                       : 0.0;
  }

  /// Accumulates the additive counters of `other` (reductions over chunks,
  /// portfolio members, and runtime searches; wall_seconds/threads are
  /// owned by the aggregating search and left alone).
  void add_counters(const SearchStats& other) noexcept {
    evaluations += other.evaluations;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    compiled_evaluations += other.compiled_evaluations;
    batch_chunks += other.batch_chunks;
    batch_candidates += other.batch_candidates;
  }
};

/// Shared machinery a caller may hand to a search. The members are
/// borrowed, optional, and independent: a null pool runs serially, a null
/// cache prices every arrangement through the estimator kernel directly (as
/// the batch searches, beam and work-stealing annealing, always do), a
/// null plan cache compiles the instance once per select() instead of
/// sharing compiled plans across searches. Every combination returns
/// bit-identical selections — the members trade CPU only.
struct SearchContext {
  support::ThreadPool* pool = nullptr;
  est::EstimateCache* cache = nullptr;
  est::PlanCache* plans = nullptr;
};

/// A selection: which candidate plays each abstract processor.
struct MappingResult {
  /// candidate_for_abstract[a] indexes the `candidates` span.
  std::vector<int> candidate_for_abstract;
  /// Estimated execution time of this arrangement.
  double estimated_time = 0.0;
  /// What the search cost (populated by every mapper).
  SearchStats stats;
};

/// Common interface of the selection algorithms.
class Mapper {
 public:
  virtual ~Mapper() = default;

  /// Selects |instance| candidates (injectively). `parent_candidate` indexes
  /// `candidates` and is pinned to the model's parent abstract processor.
  /// Throws InvalidArgument when fewer candidates than abstract processors.
  MappingResult select(const pmdl::ModelInstance& instance,
                       std::span<const Candidate> candidates,
                       int parent_candidate, const hnoc::NetworkModel& network,
                       est::EstimateOptions options) const {
    return select(instance, candidates, parent_candidate, network, options,
                  SearchContext{});
  }

  /// As above, with explicit search machinery (thread pool, estimate cache).
  /// The result is bit-identical for every SearchContext (see file comment).
  virtual MappingResult select(const pmdl::ModelInstance& instance,
                               std::span<const Candidate> candidates,
                               int parent_candidate,
                               const hnoc::NetworkModel& network,
                               est::EstimateOptions options,
                               const SearchContext& context) const = 0;

  virtual std::string name() const = 0;

 protected:
  /// Shared validation; returns instance.size().
  static int check(const pmdl::ModelInstance& instance,
                   std::span<const Candidate> candidates, int parent_candidate,
                   const hnoc::NetworkModel& network);
};

/// Optimal by enumeration of all injective assignments with the parent
/// pinned. Throws InvalidArgument when the search space exceeds
/// `max_combinations` (guard against accidental blow-up; the constructor
/// rejects a limit below 1).
///
/// Parallel: the assignment tree is partitioned by the first free abstract
/// slot's candidate into independent chunks; each chunk enumerates serially
/// in lexicographic order, and the per-chunk minima are reduced in chunk
/// order with ties broken towards the lexicographically smallest selection —
/// the same winner the serial enumeration finds first.
class ExhaustiveMapper : public Mapper {
 public:
  explicit ExhaustiveMapper(long long max_combinations = 2'000'000);

  using Mapper::select;
  MappingResult select(const pmdl::ModelInstance& instance,
                       std::span<const Candidate> candidates,
                       int parent_candidate, const hnoc::NetworkModel& network,
                       est::EstimateOptions options,
                       const SearchContext& context) const override;
  std::string name() const override { return "exhaustive"; }

 private:
  long long max_combinations_;
};

/// Largest node volume onto the fastest estimated processor.
class GreedyMapper : public Mapper {
 public:
  using Mapper::select;
  MappingResult select(const pmdl::ModelInstance& instance,
                       std::span<const Candidate> candidates,
                       int parent_candidate, const hnoc::NetworkModel& network,
                       est::EstimateOptions options,
                       const SearchContext& context) const override;
  std::string name() const override { return "greedy"; }

  /// The raw greedy selection without the final scoring (shared with
  /// SwapRefineMapper).
  static std::vector<int> greedy_selection(const pmdl::ModelInstance& instance,
                                           std::span<const Candidate> candidates,
                                           int parent_candidate,
                                           const hnoc::NetworkModel& network);
};

/// Tunables of AnnealingMapper (namespace scope: see WorldOptions for why).
struct AnnealingOptions {
  int iterations = 2000;
  double initial_temperature_factor = 0.05;  ///< x the greedy makespan.
  double cooling = 0.995;                    ///< Geometric schedule.
  std::uint64_t seed = 0x48'4d'50'49;        ///< "HMPI"
};

/// Simulated annealing over swap/substitution moves, seeded deterministically
/// (same inputs -> same selection). Escapes the local optima hill climbing
/// can get stuck in on communication-shaped landscapes, at higher cost. It
/// is one chain of the walk WorkStealingAnnealingMapper runs: one proposal
/// per step, every non-parent candidate a substitution target, the chain
/// seeded with `seed` and priced through the context's estimate cache.
class AnnealingMapper : public Mapper {
 public:
  using Options = AnnealingOptions;

  explicit AnnealingMapper(Options options = AnnealingOptions())
      : options_(options) {}

  using Mapper::select;
  MappingResult select(const pmdl::ModelInstance& instance,
                       std::span<const Candidate> candidates,
                       int parent_candidate, const hnoc::NetworkModel& network,
                       est::EstimateOptions options,
                       const SearchContext& context) const override;
  std::string name() const override { return "annealing"; }

 private:
  Options options_;
};

/// Greedy start + estimator-scored hill climbing (swaps and substitutions).
class SwapRefineMapper : public Mapper {
 public:
  explicit SwapRefineMapper(int max_rounds = 64) : max_rounds_(max_rounds) {}

  using Mapper::select;
  MappingResult select(const pmdl::ModelInstance& instance,
                       std::span<const Candidate> candidates,
                       int parent_candidate, const hnoc::NetworkModel& network,
                       est::EstimateOptions options,
                       const SearchContext& context) const override;
  std::string name() const override { return "swap-refine"; }

 private:
  int max_rounds_;
};

/// Locality-aware neighborhood restriction of the scalable searches (see
/// file comment). Substitution moves consider only the `top_k` fastest
/// candidates (by estimated processor speed, ties towards the lower
/// candidate index) once more than `threshold` candidates are offered;
/// below the threshold every unused candidate is a target.
struct LocalityOptions {
  int top_k = 32;
  int threshold = 64;
};

/// Tunables of BeamMapper.
struct BeamOptions {
  /// Frontier states kept per round (distinct selections).
  int width = 8;
  /// Rounds without improvement end the search earlier.
  int max_rounds = 32;
  LocalityOptions locality;
};

/// Width-bounded beam search over the swap/substitution neighborhood,
/// started from the greedy selection. Every round expands each frontier
/// state's full neighborhood, scores all neighbors in one batch
/// (est::BatchEvaluator, without the estimate cache), and keeps the
/// `width` best distinct selections under a (time, selection) lexicographic
/// order — so the frontier, and therefore the result, is bit-identical for
/// any thread count (parallel batch chunks write disjoint ranges and the
/// merge walks a fixed order).
class BeamMapper : public Mapper {
 public:
  using Options = BeamOptions;

  explicit BeamMapper(Options options = BeamOptions());

  using Mapper::select;
  MappingResult select(const pmdl::ModelInstance& instance,
                       std::span<const Candidate> candidates,
                       int parent_candidate, const hnoc::NetworkModel& network,
                       est::EstimateOptions options,
                       const SearchContext& context) const override;
  std::string name() const override { return "beam"; }

 private:
  Options options_;
};

/// Tunables of WorkStealingAnnealingMapper.
struct WorkStealingOptions {
  /// Independent annealing chains; idle workers steal the next unclaimed
  /// chain off the pool's dynamic index.
  int chains = 8;
  /// Per-chain schedule; the seed field is the chain_seed derivation base.
  AnnealingOptions annealing;
  /// Proposals drawn per step from the chain's current state. The walk
  /// prices them as it reaches them; on the first accepted proposal the
  /// rest of the chunk is discarded unpriced (stale against the new state).
  /// The chunk fixes the order of the chain's random draws, so it is part
  /// of the selection.
  int chunk = 8;
  LocalityOptions locality;
};

/// Work-stealing parallel annealing: `chains` deterministic annealing runs
/// (greedy start, geometric cooling, locality-restricted substitution /
/// swap moves) claimed dynamically over the context's ThreadPool. Each
/// chain draws a chunk of proposals i.i.d. from its current state, then
/// walks it in order under the Metropolis rule, pricing rows in SoA batches
/// of 1, 2, 4, ... as the walk reaches them: a walk that stops at row w
/// prices at most 2w - 1 rows. A substitution's reservoir draw is skipped
/// when the proposal is drawn (support::Rng::discard) and replayed when its
/// row is priced, so the chain's random stream, and every value its walk
/// compares, is what pricing the whole chunk would give. A chain is a fixed
/// serial computation, so the chain-order reduction (ties keep the earliest
/// chain) is bit-identical for any thread count.
class WorkStealingAnnealingMapper : public Mapper {
 public:
  using Options = WorkStealingOptions;

  explicit WorkStealingAnnealingMapper(Options options = WorkStealingOptions());

  using Mapper::select;
  MappingResult select(const pmdl::ModelInstance& instance,
                       std::span<const Candidate> candidates,
                       int parent_candidate, const hnoc::NetworkModel& network,
                       est::EstimateOptions options,
                       const SearchContext& context) const override;
  std::string name() const override { return "annealing-ws"; }

  /// Deterministic per-chain RNG seed (SplitMix64-style decorrelation of the
  /// base). Pinned by tests — changing this derivation changes every
  /// work-stealing selection.
  static std::uint64_t chain_seed(std::uint64_t base_seed, int chain) noexcept {
    return base_seed ^
           (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(chain) + 1));
  }

 private:
  Options options_;
};

/// Tunables of PortfolioMapper.
struct PortfolioOptions {
  /// Annealing restarts, each one AnnealingMapper chain seeded by
  /// PortfolioMapper::restart_seed so no two retrace the same trajectory.
  int annealing_restarts = 4;
  /// Base annealing tunables (the seed field is the derivation base).
  AnnealingOptions annealing;
  /// Hill-climbing rounds of the swap-refine member.
  int swap_refine_rounds = 64;
  /// Candidate count above which the portfolio enrolls the scalable members
  /// (beam + work-stealing annealing) instead of the quadratic ones. At or
  /// below the threshold the member list — and therefore the selection — is
  /// exactly the pre-scaling portfolio's, bit for bit.
  int scale_threshold = 64;
  BeamOptions beam;
  WorkStealingOptions work_stealing;
};

/// Runs greedy, swap-refine and `annealing_restarts` differently-seeded
/// annealing chains one after another, each handed the full context (the
/// restarts are chains of one walk, claimed over the pool), and returns the
/// best result. Every member runs to completion and the reduction walks
/// members in a fixed order (ties keep the earliest member), so the outcome
/// is identical for 1 or N threads. Above scale_threshold candidates the
/// member list becomes {greedy, beam, work-stealing annealing}, which
/// parallelise internally over batch chunks and chains.
class PortfolioMapper : public Mapper {
 public:
  using Options = PortfolioOptions;

  explicit PortfolioMapper(Options options = PortfolioOptions());

  using Mapper::select;
  MappingResult select(const pmdl::ModelInstance& instance,
                       std::span<const Candidate> candidates,
                       int parent_candidate, const hnoc::NetworkModel& network,
                       est::EstimateOptions options,
                       const SearchContext& context) const override;
  std::string name() const override { return "portfolio"; }

  /// Deterministic per-restart RNG seed: base xor the restart index, so
  /// restart 0 reproduces a plain AnnealingMapper with the base seed and
  /// every restart diverges immediately (SplitMix64 decorrelates adjacent
  /// seeds from the first draw). Pinned by tests — changing this derivation
  /// changes every portfolio selection.
  static std::uint64_t restart_seed(std::uint64_t base_seed, int restart) noexcept {
    return base_seed ^ static_cast<std::uint64_t>(restart);
  }

 private:
  Options options_;
};

/// The library default (what HMPI_Group_create uses).
std::unique_ptr<Mapper> make_default_mapper();

}  // namespace hmpi::map
