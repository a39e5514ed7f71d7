#include "mapper/mapper.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "estimator/fingerprint.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "telemetry/span.hpp"

namespace hmpi::map {

namespace {

/// Host wall-clock timer for SearchStats (virtual time never advances while
/// the parent runs a search, so this is real elapsed time).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

int context_threads(const SearchContext& context) {
  return context.pool != nullptr ? context.pool->size() : 1;
}

/// What every scorer of one select() shares: the compiled plan and, when
/// the context has an estimate cache, the instance/options fingerprint that
/// keys it. Both cost O(model aggregates) — far too much per candidate — so
/// each select() resolves them once: the plan comes from the context's plan
/// cache, or is compiled here when the context has none.
struct Pricing {
  Pricing(const pmdl::ModelInstance& instance, est::EstimateOptions options,
          const SearchContext& context)
      : plan(context.plans != nullptr
                 ? context.plans->get(instance)
                 : std::make_shared<const est::Plan>(instance)),
        cache(context.cache),
        fingerprint(cache != nullptr
                        ? est::estimate_fingerprint(instance, options)
                        : 0) {}

  std::shared_ptr<const est::Plan> plan;
  est::EstimateCache* cache;
  std::uint64_t fingerprint;
};

/// One-at-a-time scoring for the serial searches: selection -> physical
/// processors, then a cache lookup, and on a miss a count-1 kernel call and
/// an insert (est::EstimateCache::estimate). Singles never count toward the
/// batch_* stats, which describe the batch searches alone.
///
/// Not thread-safe: one scorer per search thread (parallel mappers already
/// give each chunk/member its own serial search).
class CandidateScorer {
 public:
  CandidateScorer(const Pricing& pricing, std::span<const Candidate> candidates,
                  const hnoc::NetworkModel& network,
                  est::EstimateOptions options)
      : pricing_(&pricing),
        candidates_(candidates),
        network_(&network),
        options_(options) {}

  double score(std::span<const int> selection, SearchStats* stats) {
    processors_.resize(selection.size());
    for (std::size_t a = 0; a < selection.size(); ++a) {
      processors_[a] =
          candidates_[static_cast<std::size_t>(selection[a])].processor;
    }
    stats->evaluations += 1;
    const est::Plan& plan = *pricing_->plan;
    if (pricing_->cache == nullptr) {
      stats->compiled_evaluations += 1;
      return plan.evaluate(processors_, *network_, options_);
    }
    bool hit = false;
    const double t = pricing_->cache->estimate(
        pricing_->fingerprint, plan, processors_, *network_, options_, &hit);
    if (hit) {
      stats->cache_hits += 1;
    } else {
      stats->cache_misses += 1;
      stats->compiled_evaluations += 1;
    }
    return t;
  }

 private:
  const Pricing* pricing_;
  std::span<const Candidate> candidates_;
  const hnoc::NetworkModel* network_;
  est::EstimateOptions options_;
  std::vector<int> processors_;
};

/// Batch counterpart of CandidateScorer for the scalable searches: packs a
/// set of complete selections slot-major and prices every row in one
/// est::BatchEvaluator call. It never consults the estimate cache: these
/// searches rarely revisit a mapping (about 1% at P=1000), and a probe plus
/// its insert costs about twice what the kernel charges for the row. A
/// candidate's value does not depend on the batch it is priced in, so batch
/// and one-at-a-time searches agree bit for bit.
///
/// Not thread-safe: one scorer per chunk/chain (all scratch is reused
/// across calls, so a steady-state round allocates nothing).
class BatchScorer {
 public:
  BatchScorer(const Pricing& pricing, std::span<const Candidate> candidates,
              const hnoc::NetworkModel& network, est::EstimateOptions options)
      : pricing_(&pricing),
        candidates_(candidates),
        network_(&network),
        options_(options),
        width_(static_cast<std::size_t>(pricing.plan->size())) {}

  /// Scores `count` selections laid out row-major (selections[j * width + a]
  /// is the candidate index of abstract slot `a` in selection `j`) into
  /// out[0..count).
  void score(std::span<const int> selections, std::size_t count,
             std::span<double> out, SearchStats* stats) {
    if (count == 0) return;
    stats->evaluations += static_cast<long long>(count);
    stats->batch_chunks += 1;
    stats->batch_candidates += static_cast<long long>(count);
    stats->compiled_evaluations += static_cast<long long>(count);

    // Selection -> physical processors, slot-major (soa_[a * count + j]).
    soa_.resize(width_ * count);
    for (std::size_t j = 0; j < count; ++j) {
      for (std::size_t a = 0; a < width_; ++a) {
        soa_[a * count + j] =
            candidates_[static_cast<std::size_t>(selections[j * width_ + a])]
                .processor;
      }
    }
    batch_.evaluate(*pricing_->plan, soa_, count, *network_, options_, out);
  }

 private:
  const Pricing* pricing_;
  std::span<const Candidate> candidates_;
  const hnoc::NetworkModel* network_;
  est::EstimateOptions options_;
  std::size_t width_;
  est::BatchEvaluator batch_;
  std::vector<int> soa_;
};

/// Chunked batch scoring over the context's pool: the candidate set is split
/// into one contiguous range per worker slot, each scored by that slot's own
/// BatchScorer (reused across rounds), stats merged in slot order. Values
/// land in disjoint out ranges and do not depend on which thread computed
/// them, so results are bit-identical for any thread count.
class ParallelBatchScorer {
 public:
  ParallelBatchScorer(const Pricing& pricing,
                      std::span<const Candidate> candidates,
                      const hnoc::NetworkModel& network,
                      est::EstimateOptions options,
                      const SearchContext& context)
      : pool_(context.pool),
        width_(static_cast<std::size_t>(pricing.plan->size())) {
    const int slots = std::max(1, context_threads(context));
    scorers_.reserve(static_cast<std::size_t>(slots));
    for (int t = 0; t < slots; ++t) {
      scorers_.emplace_back(pricing, candidates, network, options);
    }
    slot_stats_.resize(scorers_.size());
  }

  void score(std::span<const int> selections, std::size_t count,
             std::span<double> out, SearchStats* stats) {
    const std::size_t slots = scorers_.size();
    // Small batches are not worth the fork/join round trip.
    if (pool_ == nullptr || slots <= 1 || count < 2 * slots) {
      scorers_[0].score(selections, count, out, stats);
      return;
    }
    for (SearchStats& s : slot_stats_) s = SearchStats{};
    const std::size_t chunk = (count + slots - 1) / slots;
    pool_->parallel_for(static_cast<int>(slots), [&](int t) {
      const std::size_t begin = static_cast<std::size_t>(t) * chunk;
      if (begin >= count) return;
      const std::size_t n = std::min(chunk, count - begin);
      scorers_[static_cast<std::size_t>(t)].score(
          selections.subspan(begin * width_, n * width_), n,
          out.subspan(begin, n), &slot_stats_[static_cast<std::size_t>(t)]);
    });
    for (const SearchStats& s : slot_stats_) stats->add_counters(s);
  }

 private:
  support::ThreadPool* pool_;
  std::size_t width_;
  std::vector<BatchScorer> scorers_;
  std::vector<SearchStats> slot_stats_;
};

/// True when the annealing move set is empty: no free slot, or one free
/// slot and no unused candidate to substitute into it (a swap needs two).
/// The start is then the only arrangement.
bool no_annealing_moves(std::size_t free_slots, int n, int p) {
  return free_slots == 0 || (free_slots == 1 && n == p);
}

/// Substitution targets under the locality restriction: every non-parent
/// candidate below the threshold; the top_k fastest (ties towards the lower
/// index) above it.
std::vector<int> substitution_targets(std::span<const Candidate> candidates,
                                      int parent_candidate,
                                      const hnoc::NetworkModel& network,
                                      const LocalityOptions& locality) {
  std::vector<int> order;
  order.reserve(candidates.size());
  for (int c = 0; c < static_cast<int>(candidates.size()); ++c) {
    if (c != parent_candidate) order.push_back(c);
  }
  if (static_cast<int>(candidates.size()) <= locality.threshold) return order;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return network.speed(candidates[static_cast<std::size_t>(a)].processor) >
           network.speed(candidates[static_cast<std::size_t>(b)].processor);
  });
  const auto k = static_cast<std::size_t>(std::max(1, locality.top_k));
  if (order.size() > k) order.resize(k);
  return order;
}

}  // namespace

int Mapper::check(const pmdl::ModelInstance& instance,
                  std::span<const Candidate> candidates, int parent_candidate,
                  const hnoc::NetworkModel& network) {
  const int p = instance.size();
  support::require(static_cast<int>(candidates.size()) >= p,
                   "not enough candidate processes (" +
                       std::to_string(candidates.size()) + ") for " +
                       std::to_string(p) + " abstract processors");
  support::require(parent_candidate >= 0 &&
                       parent_candidate < static_cast<int>(candidates.size()),
                   "parent candidate index out of range");
  for (const Candidate& c : candidates) {
    support::require(c.processor >= 0 && c.processor < network.size(),
                     "candidate references a processor outside the network");
  }
  return p;
}

// --- ExhaustiveMapper ---------------------------------------------------------

MappingResult ExhaustiveMapper::select(const pmdl::ModelInstance& instance,
                                       std::span<const Candidate> candidates,
                                       int parent_candidate,
                                       const hnoc::NetworkModel& network,
                                       est::EstimateOptions options,
                                       const SearchContext& context) const {
  const WallTimer timer;
  HMPI_SPAN("mapper:exhaustive");
  const int p = check(instance, candidates, parent_candidate, network);
  const int parent_abstract = instance.parent_index();
  const int n = static_cast<int>(candidates.size());

  // Search-space size: P(n-1, p-1) ordered selections of the free slots.
  long long combos = 1;
  for (int i = 0; i < p - 1; ++i) {
    combos *= (n - 1 - i);
    if (combos > max_combinations_) {
      throw InvalidArgument(
          "exhaustive mapping space exceeds the configured limit; use the "
          "greedy or swap-refine mapper");
    }
  }

  // Free abstract slots, in increasing index order (= lexicographic
  // enumeration order of the full selection vector).
  std::vector<int> slots;
  for (int a = 0; a < p; ++a) {
    if (a != parent_abstract) slots.push_back(a);
  }

  const Pricing pricing(instance, options, context);
  if (slots.empty()) {
    // Only the pinned parent: a single arrangement.
    MappingResult result;
    result.candidate_for_abstract.assign(static_cast<std::size_t>(p),
                                         parent_candidate);
    CandidateScorer scorer(pricing, candidates, network, options);
    result.estimated_time =
        scorer.score(result.candidate_for_abstract, &result.stats);
    result.stats.threads = context_threads(context);
    result.stats.wall_seconds = timer.seconds();
    return result;
  }

  // Partition by the first free slot's candidate: one independent chunk per
  // non-parent candidate. Each chunk enumerates the remaining slots serially
  // in lexicographic order, so its first-found minimum is the lexicographic
  // smallest of its ties.
  std::vector<int> chunk_first;
  for (int c = 0; c < n; ++c) {
    if (c != parent_candidate) chunk_first.push_back(c);
  }

  struct ChunkResult {
    MappingResult best;
    bool feasible = false;
  };
  std::vector<ChunkResult> chunks(chunk_first.size());

  const auto run_chunk = [&](int chunk_index) {
    ChunkResult& out = chunks[static_cast<std::size_t>(chunk_index)];
    CandidateScorer scorer(pricing, candidates, network, options);
    std::vector<int> selection(static_cast<std::size_t>(p), -1);
    std::vector<bool> used(static_cast<std::size_t>(n), false);
    selection[static_cast<std::size_t>(parent_abstract)] = parent_candidate;
    used[static_cast<std::size_t>(parent_candidate)] = true;
    const int first = chunk_first[static_cast<std::size_t>(chunk_index)];
    selection[static_cast<std::size_t>(slots.front())] = first;
    used[static_cast<std::size_t>(first)] = true;

    out.best.estimated_time = std::numeric_limits<double>::infinity();

    // Depth-first over the remaining free slots, candidates ascending.
    auto recurse = [&](auto&& self, std::size_t slot_index) -> void {
      if (slot_index == slots.size()) {
        const double t = scorer.score(selection, &out.best.stats);
        if (t < out.best.estimated_time) {
          out.best.estimated_time = t;
          out.best.candidate_for_abstract = selection;
          out.feasible = true;
        }
        return;
      }
      const auto a = static_cast<std::size_t>(slots[slot_index]);
      for (int c = 0; c < n; ++c) {
        if (used[static_cast<std::size_t>(c)]) continue;
        used[static_cast<std::size_t>(c)] = true;
        selection[a] = c;
        self(self, slot_index + 1);
        selection[a] = -1;
        used[static_cast<std::size_t>(c)] = false;
      }
    };
    recurse(recurse, 1);
  };

  const int threads = context_threads(context);
  if (context.pool != nullptr && threads > 1 && chunks.size() > 1) {
    context.pool->parallel_for(static_cast<int>(chunks.size()), run_chunk);
  } else {
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      run_chunk(static_cast<int>(i));
    }
  }

  // Argmin reduction in chunk order; exact ties go to the lexicographically
  // smaller selection. Chunk order is ascending first-slot candidate, so the
  // reduction reproduces exactly what a serial lexicographic enumeration
  // would have kept first — bit-identical for 1, 2, or N threads.
  MappingResult best;
  best.estimated_time = std::numeric_limits<double>::infinity();
  bool feasible = false;
  for (const ChunkResult& chunk : chunks) {
    best.stats.add_counters(chunk.best.stats);
    if (!chunk.feasible) continue;
    const bool wins =
        chunk.best.estimated_time < best.estimated_time ||
        (feasible && chunk.best.estimated_time == best.estimated_time &&
         chunk.best.candidate_for_abstract < best.candidate_for_abstract);
    if (!feasible || wins) {
      best.estimated_time = chunk.best.estimated_time;
      best.candidate_for_abstract = chunk.best.candidate_for_abstract;
      feasible = true;
    }
  }
  best.stats.threads = threads;
  best.stats.wall_seconds = timer.seconds();
  return best;
}

// --- GreedyMapper --------------------------------------------------------------

std::vector<int> GreedyMapper::greedy_selection(
    const pmdl::ModelInstance& instance, std::span<const Candidate> candidates,
    int parent_candidate, const hnoc::NetworkModel& network) {
  const int p = instance.size();
  const int parent_abstract = instance.parent_index();
  const int n = static_cast<int>(candidates.size());

  // Abstract processors by descending volume; ties by index (determinism).
  std::vector<int> abstract_order;
  for (int a = 0; a < p; ++a) {
    if (a != parent_abstract) abstract_order.push_back(a);
  }
  std::stable_sort(abstract_order.begin(), abstract_order.end(),
                   [&](int a, int b) {
                     return instance.node_volume(a) > instance.node_volume(b);
                   });

  // Candidates by descending estimated speed; ties by index.
  std::vector<int> candidate_order;
  for (int c = 0; c < n; ++c) {
    if (c != parent_candidate) candidate_order.push_back(c);
  }
  std::stable_sort(candidate_order.begin(), candidate_order.end(),
                   [&](int a, int b) {
                     return network.speed(candidates[static_cast<std::size_t>(a)]
                                              .processor) >
                            network.speed(candidates[static_cast<std::size_t>(b)]
                                              .processor);
                   });

  std::vector<int> selection(static_cast<std::size_t>(p), -1);
  selection[static_cast<std::size_t>(parent_abstract)] = parent_candidate;
  for (std::size_t i = 0; i < abstract_order.size(); ++i) {
    selection[static_cast<std::size_t>(abstract_order[i])] = candidate_order[i];
  }
  return selection;
}

MappingResult GreedyMapper::select(const pmdl::ModelInstance& instance,
                                   std::span<const Candidate> candidates,
                                   int parent_candidate,
                                   const hnoc::NetworkModel& network,
                                   est::EstimateOptions options,
                                   const SearchContext& context) const {
  const WallTimer timer;
  HMPI_SPAN("mapper:greedy");
  check(instance, candidates, parent_candidate, network);
  MappingResult result;
  result.candidate_for_abstract =
      greedy_selection(instance, candidates, parent_candidate, network);
  const Pricing pricing(instance, options, context);
  CandidateScorer scorer(pricing, candidates, network, options);
  result.estimated_time =
      scorer.score(result.candidate_for_abstract, &result.stats);
  result.stats.threads = context_threads(context);
  result.stats.wall_seconds = timer.seconds();
  return result;
}

// --- SwapRefineMapper -----------------------------------------------------------

MappingResult SwapRefineMapper::select(const pmdl::ModelInstance& instance,
                                       std::span<const Candidate> candidates,
                                       int parent_candidate,
                                       const hnoc::NetworkModel& network,
                                       est::EstimateOptions options,
                                       const SearchContext& context) const {
  const WallTimer timer;
  HMPI_SPAN("mapper:swap-refine");
  const int p = check(instance, candidates, parent_candidate, network);
  const int parent_abstract = instance.parent_index();
  const int n = static_cast<int>(candidates.size());

  SearchStats stats;
  const Pricing pricing(instance, options, context);
  CandidateScorer scorer(pricing, candidates, network, options);
  std::vector<int> selection =
      GreedyMapper::greedy_selection(instance, candidates, parent_candidate,
                                     network);
  double best = scorer.score(selection, &stats);

  std::vector<bool> used(static_cast<std::size_t>(n), false);
  for (int c : selection) used[static_cast<std::size_t>(c)] = true;

  for (int round = 0; round < max_rounds_; ++round) {
    bool improved = false;

    // Pairwise swaps of assigned candidates (parent slot stays pinned).
    for (int a = 0; a < p; ++a) {
      if (a == parent_abstract) continue;
      for (int b = a + 1; b < p; ++b) {
        if (b == parent_abstract) continue;
        std::swap(selection[static_cast<std::size_t>(a)],
                  selection[static_cast<std::size_t>(b)]);
        const double t = scorer.score(selection, &stats);
        if (t + 1e-15 < best) {
          best = t;
          improved = true;
        } else {
          std::swap(selection[static_cast<std::size_t>(a)],
                    selection[static_cast<std::size_t>(b)]);
        }
      }
    }

    // Substitutions: replace an assigned candidate with an unused one.
    for (int a = 0; a < p; ++a) {
      if (a == parent_abstract) continue;
      for (int c = 0; c < n; ++c) {
        if (used[static_cast<std::size_t>(c)]) continue;
        const int old = selection[static_cast<std::size_t>(a)];
        selection[static_cast<std::size_t>(a)] = c;
        const double t = scorer.score(selection, &stats);
        if (t + 1e-15 < best) {
          best = t;
          improved = true;
          used[static_cast<std::size_t>(old)] = false;
          used[static_cast<std::size_t>(c)] = true;
        } else {
          selection[static_cast<std::size_t>(a)] = old;
        }
      }
    }

    if (!improved) break;
  }

  MappingResult result;
  result.candidate_for_abstract = std::move(selection);
  result.estimated_time = best;
  result.stats = stats;
  result.stats.threads = context_threads(context);
  result.stats.wall_seconds = timer.seconds();
  return result;
}

// --- AnnealingMapper -------------------------------------------------------------

MappingResult AnnealingMapper::select(const pmdl::ModelInstance& instance,
                                      std::span<const Candidate> candidates,
                                      int parent_candidate,
                                      const hnoc::NetworkModel& network,
                                      est::EstimateOptions options,
                                      const SearchContext& context) const {
  const WallTimer timer;
  HMPI_SPAN("mapper:annealing");
  const int p = check(instance, candidates, parent_candidate, network);
  const int parent_abstract = instance.parent_index();
  const int n = static_cast<int>(candidates.size());

  SearchStats stats;
  const Pricing pricing(instance, options, context);
  CandidateScorer scorer(pricing, candidates, network, options);
  std::vector<int> current = GreedyMapper::greedy_selection(
      instance, candidates, parent_candidate, network);
  double current_score = scorer.score(current, &stats);
  std::vector<int> best = current;
  double best_score = current_score;

  std::vector<bool> used(static_cast<std::size_t>(n), false);
  for (int c : current) used[static_cast<std::size_t>(c)] = true;

  support::Rng rng(options_.seed);
  double temperature = std::max(1e-12, options_.initial_temperature_factor *
                                           current_score);

  // Mutable non-parent slots.
  std::vector<int> slots;
  for (int a = 0; a < p; ++a) {
    if (a != parent_abstract) slots.push_back(a);
  }

  const auto finish = [&](std::vector<int> selection, double t) {
    MappingResult result;
    result.candidate_for_abstract = std::move(selection);
    result.estimated_time = t;
    result.stats = stats;
    result.stats.threads = context_threads(context);
    result.stats.wall_seconds = timer.seconds();
    return result;
  };

  if (no_annealing_moves(slots.size(), n, p)) {
    return finish(std::move(best), best_score);
  }

  for (int iter = 0; iter < options_.iterations; ++iter, temperature *= options_.cooling) {
    // Propose a move: swap two slots, or substitute an unused candidate.
    const bool substitute =
        n > p && (slots.size() < 2 || rng.next_double() < 0.5);
    int slot_a = slots[static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(slots.size())))];
    int undo_slot_b = -1;
    int undo_value_a = current[static_cast<std::size_t>(slot_a)];
    int undo_value_b = -1;

    if (substitute) {
      // Pick an unused candidate uniformly.
      int replacement = -1;
      int seen = 0;
      for (int c = 0; c < n; ++c) {
        if (used[static_cast<std::size_t>(c)]) continue;
        ++seen;
        if (rng.next_below(static_cast<std::uint64_t>(seen)) == 0) replacement = c;
      }
      current[static_cast<std::size_t>(slot_a)] = replacement;
      used[static_cast<std::size_t>(undo_value_a)] = false;
      used[static_cast<std::size_t>(replacement)] = true;
    } else {
      int slot_b = slot_a;
      while (slot_b == slot_a) {
        slot_b = slots[static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(slots.size())))];
      }
      undo_slot_b = slot_b;
      undo_value_b = current[static_cast<std::size_t>(slot_b)];
      std::swap(current[static_cast<std::size_t>(slot_a)],
                current[static_cast<std::size_t>(slot_b)]);
    }

    const double proposed = scorer.score(current, &stats);
    const double delta = proposed - current_score;
    const bool accept =
        delta <= 0.0 || rng.next_double() < std::exp(-delta / temperature);
    if (accept) {
      current_score = proposed;
      if (proposed < best_score) {
        best_score = proposed;
        best = current;
      }
    } else {
      // Undo the move.
      if (undo_slot_b >= 0) {
        current[static_cast<std::size_t>(undo_slot_b)] = undo_value_b;
        current[static_cast<std::size_t>(slot_a)] = undo_value_a;
      } else {
        used[static_cast<std::size_t>(current[static_cast<std::size_t>(slot_a)])] =
            false;
        used[static_cast<std::size_t>(undo_value_a)] = true;
        current[static_cast<std::size_t>(slot_a)] = undo_value_a;
      }
    }
  }

  return finish(std::move(best), best_score);
}

// --- BeamMapper ------------------------------------------------------------------

BeamMapper::BeamMapper(Options options) : options_(options) {
  support::require(options_.width >= 1, "beam width must be >= 1");
  support::require(options_.max_rounds >= 1, "beam max_rounds must be >= 1");
  support::require(options_.locality.top_k >= 1,
                   "locality top_k must be >= 1");
}

MappingResult BeamMapper::select(const pmdl::ModelInstance& instance,
                                 std::span<const Candidate> candidates,
                                 int parent_candidate,
                                 const hnoc::NetworkModel& network,
                                 est::EstimateOptions options,
                                 const SearchContext& context) const {
  const WallTimer timer;
  HMPI_SPAN("mapper:beam");
  const int p = check(instance, candidates, parent_candidate, network);
  const int parent_abstract = instance.parent_index();
  const int n = static_cast<int>(candidates.size());
  const auto width = static_cast<std::size_t>(p);

  SearchStats stats;
  const Pricing pricing(instance, options, context);
  ParallelBatchScorer scorer(pricing, candidates, network, options, context);

  const auto finish = [&](std::vector<int> selection, double t) {
    MappingResult result;
    result.candidate_for_abstract = std::move(selection);
    result.estimated_time = t;
    result.stats = stats;
    result.stats.threads = context_threads(context);
    result.stats.wall_seconds = timer.seconds();
    return result;
  };

  std::vector<int> start = GreedyMapper::greedy_selection(
      instance, candidates, parent_candidate, network);
  double start_time = 0.0;
  scorer.score(start, 1, std::span<double>(&start_time, 1), &stats);

  // Mutable non-parent slots and (locality-restricted) substitution targets.
  std::vector<int> slots;
  for (int a = 0; a < p; ++a) {
    if (a != parent_abstract) slots.push_back(a);
  }
  if (slots.empty()) return finish(std::move(start), start_time);
  const std::vector<int> targets = substitution_targets(
      candidates, parent_candidate, network, options_.locality);

  // Frontier states, kept sorted by (time, selection) — the lexicographic
  // tie-break makes the frontier, and hence the result, independent of both
  // thread count and enumeration order.
  struct State {
    std::vector<int> selection;
    double time = 0.0;
  };
  std::vector<State> frontier;
  frontier.push_back(State{std::move(start), start_time});
  double best_time = start_time;

  std::vector<int> rows;       // neighbour selections, row-major
  std::vector<double> scores;  // their times
  std::vector<char> used(static_cast<std::size_t>(n), 0);

  for (int round = 0; round < options_.max_rounds; ++round) {
    // Expand every frontier state: all pairwise swaps of free slots, plus
    // substitutions of each free slot to each unused neighbourhood target.
    rows.clear();
    for (const State& state : frontier) {
      std::fill(used.begin(), used.end(), 0);
      for (int c : state.selection) used[static_cast<std::size_t>(c)] = 1;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        for (std::size_t j = i + 1; j < slots.size(); ++j) {
          rows.insert(rows.end(), state.selection.begin(),
                      state.selection.end());
          int* row = rows.data() + (rows.size() - width);
          std::swap(row[slots[i]], row[slots[j]]);
        }
      }
      for (int a : slots) {
        for (int c : targets) {
          if (used[static_cast<std::size_t>(c)] != 0) continue;
          rows.insert(rows.end(), state.selection.begin(),
                      state.selection.end());
          rows[rows.size() - width + static_cast<std::size_t>(a)] = c;
        }
      }
    }
    const std::size_t count = rows.size() / width;
    if (count == 0) break;
    scores.resize(count);
    scorer.score(rows, count, scores, &stats);

    // Merge survivors and neighbours, keep the `width` best. Duplicate
    // selections score identically (deterministic estimator), so they sort
    // adjacent and collapse under unique().
    std::vector<State> merged = std::move(frontier);
    merged.reserve(merged.size() + count);
    for (std::size_t j = 0; j < count; ++j) {
      merged.push_back(
          State{std::vector<int>(rows.begin() + static_cast<std::ptrdiff_t>(
                                     j * width),
                                 rows.begin() + static_cast<std::ptrdiff_t>(
                                     (j + 1) * width)),
                scores[j]});
    }
    std::sort(merged.begin(), merged.end(), [](const State& a, const State& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.selection < b.selection;
    });
    merged.erase(std::unique(merged.begin(), merged.end(),
                             [](const State& a, const State& b) {
                               return a.selection == b.selection;
                             }),
                 merged.end());
    if (merged.size() > static_cast<std::size_t>(options_.width)) {
      merged.resize(static_cast<std::size_t>(options_.width));
    }
    frontier = std::move(merged);

    const double round_best = frontier.front().time;
    if (!(round_best + 1e-15 < best_time)) break;
    best_time = round_best;
  }

  return finish(std::move(frontier.front().selection), frontier.front().time);
}

// --- WorkStealingAnnealingMapper -------------------------------------------------

WorkStealingAnnealingMapper::WorkStealingAnnealingMapper(Options options)
    : options_(options) {
  support::require(options_.chains >= 1, "annealing-ws chains must be >= 1");
  support::require(options_.chunk >= 1, "annealing-ws chunk must be >= 1");
  support::require(options_.locality.top_k >= 1,
                   "locality top_k must be >= 1");
}

MappingResult WorkStealingAnnealingMapper::select(
    const pmdl::ModelInstance& instance, std::span<const Candidate> candidates,
    int parent_candidate, const hnoc::NetworkModel& network,
    est::EstimateOptions options, const SearchContext& context) const {
  const WallTimer timer;
  HMPI_SPAN("mapper:annealing-ws");
  const int p = check(instance, candidates, parent_candidate, network);
  const int parent_abstract = instance.parent_index();
  const int n = static_cast<int>(candidates.size());
  const auto width = static_cast<std::size_t>(p);
  const int chains = options_.chains;

  // Shared across chains: the greedy start, the mutable slot list, and the
  // (locality-restricted) substitution targets.
  const std::vector<int> start = GreedyMapper::greedy_selection(
      instance, candidates, parent_candidate, network);
  std::vector<int> slots;
  for (int a = 0; a < p; ++a) {
    if (a != parent_abstract) slots.push_back(a);
  }
  const std::vector<int> targets = substitution_targets(
      candidates, parent_candidate, network, options_.locality);
  const Pricing pricing(instance, options, context);

  struct ChainResult {
    std::vector<int> best;
    double best_time = 0.0;
    SearchStats stats;
  };
  std::vector<ChainResult> results(static_cast<std::size_t>(chains));

  // One independent chain per index. Each chain's move sequence is a fixed
  // function of its seed alone: proposals are drawn in chunks from the
  // current state, then walked in draw order with the exact AnnealingMapper
  // acceptance rule; the first accepted proposal ends the chunk and the rest
  // is discarded (stale against the new state). The walk prices a row when
  // it first reaches it, together with the rows after it, in windows of 1,
  // 2, 4, ... rows up to the chunk's end, so rows after an acceptance are
  // never priced. A substitution skips its reservoir's draws when it is
  // drawn and replays them from the saved stream position when its row is
  // priced. Every draw of the chain's stream is therefore made where pricing
  // the whole chunk up front made it, and a row's price does not depend on
  // its batch, so the trajectory matches the one-at-a-time chain exactly.
  // Threads only decide which worker runs which chain — never what any
  // chain computes.
  const auto run_chain = [&](int ci) {
    ChainResult& out = results[static_cast<std::size_t>(ci)];
    BatchScorer scorer(pricing, candidates, network, options);
    support::Rng rng(chain_seed(options_.annealing.seed, ci));

    std::vector<int> current = start;
    double current_time = 0.0;
    scorer.score(current, 1, std::span<double>(&current_time, 1), &out.stats);
    out.best = current;
    out.best_time = current_time;
    if (no_annealing_moves(slots.size(), n, p)) return;

    std::vector<char> used(static_cast<std::size_t>(n), 0);
    for (int c : current) used[static_cast<std::size_t>(c)] = 1;
    double temperature =
        std::max(1e-12, options_.annealing.initial_temperature_factor *
                            current_time);

    // Reservoir over the unused neighbourhood targets; if the whole
    // neighbourhood is occupied, fall back to any unused candidate so the
    // move stays feasible (n > p guarantees one exists).
    const auto draw_replacement = [&](support::Rng& stream) {
      int replacement = -1;
      int seen = 0;
      for (int c : targets) {
        if (used[static_cast<std::size_t>(c)] != 0) continue;
        ++seen;
        if (stream.next_below(static_cast<std::uint64_t>(seen)) == 0) {
          replacement = c;
        }
      }
      if (replacement < 0) {
        for (int c = 0; c < n; ++c) {
          if (used[static_cast<std::size_t>(c)] != 0) continue;
          ++seen;
          if (stream.next_below(static_cast<std::uint64_t>(seen)) == 0) {
            replacement = c;
          }
        }
      }
      return replacement;
    };

    // A proposal is either a swap (slot_b >= 0) or a substitution into
    // slot_a, whose reservoir draws from `reservoir` (the chain's stream
    // where the reservoir starts) once its row is priced.
    struct Proposal {
      int slot_a = -1;
      int slot_b = -1;
      int replacement = -1;
      support::Rng reservoir{0};
    };
    std::vector<Proposal> proposals;
    std::vector<int> rows;
    std::vector<double> vals;

    // Prices proposals [begin, end) of the chunk into vals[begin, end).
    const auto price = [&](int begin, int end) {
      rows.clear();
      for (int j = begin; j < end; ++j) {
        Proposal& prop = proposals[static_cast<std::size_t>(j)];
        rows.insert(rows.end(), current.begin(), current.end());
        int* row = rows.data() + (rows.size() - width);
        if (prop.slot_b >= 0) {
          std::swap(row[prop.slot_a], row[prop.slot_b]);
        } else {
          prop.replacement = draw_replacement(prop.reservoir);
          row[prop.slot_a] = prop.replacement;
        }
      }
      const auto count = static_cast<std::size_t>(end - begin);
      scorer.score(rows, count,
                   std::span<double>(vals).subspan(
                       static_cast<std::size_t>(begin), count),
                   &out.stats);
    };

    int remaining = options_.annealing.iterations;
    while (remaining > 0) {
      const int k = std::min(options_.chunk, remaining);
      // A reservoir makes one draw per unused target, or one per unused
      // candidate (n - p of them) when every target is in use. `used`
      // changes only on an acceptance, which ends the chunk, so the count
      // holds for the whole chunk.
      std::uint64_t reservoir_draws = 0;
      for (int c : targets) {
        if (used[static_cast<std::size_t>(c)] == 0) ++reservoir_draws;
      }
      if (reservoir_draws == 0) {
        reservoir_draws = static_cast<std::uint64_t>(n - p);
      }
      proposals.clear();
      for (int j = 0; j < k; ++j) {
        const bool substitute =
            n > p && (slots.size() < 2 || rng.next_double() < 0.5);
        Proposal prop;
        prop.slot_a = slots[static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(slots.size())))];
        if (substitute) {
          prop.reservoir = rng;
          rng.discard(reservoir_draws);
        } else {
          int slot_b = prop.slot_a;
          while (slot_b == prop.slot_a) {
            slot_b = slots[static_cast<std::size_t>(
                rng.next_below(static_cast<std::uint64_t>(slots.size())))];
          }
          prop.slot_b = slot_b;
        }
        proposals.push_back(prop);
      }

      vals.resize(static_cast<std::size_t>(k));
      int priced = 0;
      int window = 1;
      int walked = 0;
      for (int j = 0; j < k; ++j) {
        if (j == priced) {
          priced = std::min(k, j + window);
          price(j, priced);
          window *= 2;
        }
        ++walked;
        const double delta = vals[static_cast<std::size_t>(j)] - current_time;
        const bool accept = delta <= 0.0 ||
                            rng.next_double() < std::exp(-delta / temperature);
        temperature *= options_.annealing.cooling;
        if (!accept) continue;
        const Proposal& prop = proposals[static_cast<std::size_t>(j)];
        if (prop.slot_b >= 0) {
          std::swap(current[static_cast<std::size_t>(prop.slot_a)],
                    current[static_cast<std::size_t>(prop.slot_b)]);
        } else {
          used[static_cast<std::size_t>(
              current[static_cast<std::size_t>(prop.slot_a)])] = 0;
          used[static_cast<std::size_t>(prop.replacement)] = 1;
          current[static_cast<std::size_t>(prop.slot_a)] = prop.replacement;
        }
        current_time = vals[static_cast<std::size_t>(j)];
        if (current_time < out.best_time) {
          out.best_time = current_time;
          out.best = current;
        }
        break;  // the rest of the chunk was drawn against the old state
      }
      remaining -= walked;
    }
  };

  const int threads = context_threads(context);
  if (context.pool != nullptr && threads > 1 && chains > 1) {
    context.pool->parallel_for(chains, run_chain);
  } else {
    for (int ci = 0; ci < chains; ++ci) run_chain(ci);
  }

  // Reduce in chain order, strict improvement only: exact ties keep the
  // earliest chain, independent of which thread finished first.
  MappingResult best;
  std::size_t winner = 0;
  for (std::size_t ci = 0; ci < results.size(); ++ci) {
    best.stats.add_counters(results[ci].stats);
    if (ci > 0 && results[ci].best_time < results[winner].best_time) {
      winner = ci;
    }
  }
  best.candidate_for_abstract = std::move(results[winner].best);
  best.estimated_time = results[winner].best_time;
  best.stats.threads = threads;
  best.stats.wall_seconds = timer.seconds();
  return best;
}

// --- PortfolioMapper -------------------------------------------------------------

PortfolioMapper::PortfolioMapper(Options options) : options_(options) {
  support::require(options_.annealing_restarts >= 0,
                   "portfolio annealing restarts must be >= 0");
  support::require(options_.swap_refine_rounds >= 1,
                   "portfolio swap-refine rounds must be >= 1");
  support::require(options_.scale_threshold >= 0,
                   "portfolio scale threshold must be >= 0");
  support::require(options_.beam.width >= 1 && options_.beam.max_rounds >= 1 &&
                       options_.beam.locality.top_k >= 1,
                   "portfolio beam options out of range");
  support::require(options_.work_stealing.chains >= 1 &&
                       options_.work_stealing.chunk >= 1 &&
                       options_.work_stealing.locality.top_k >= 1,
                   "portfolio work-stealing options out of range");
}

MappingResult PortfolioMapper::select(const pmdl::ModelInstance& instance,
                                      std::span<const Candidate> candidates,
                                      int parent_candidate,
                                      const hnoc::NetworkModel& network,
                                      est::EstimateOptions options,
                                      const SearchContext& context) const {
  const WallTimer timer;
  HMPI_SPAN("mapper:portfolio");
  check(instance, candidates, parent_candidate, network);

  // Fixed member order: the reduction prefers earlier members on exact ties,
  // so this order is part of the determinism contract.
  const bool at_scale =
      static_cast<int>(candidates.size()) > options_.scale_threshold;
  std::vector<std::unique_ptr<Mapper>> members;
  if (at_scale) {
    // Large candidate sets: the serial members' O(p^2 n) neighbourhoods are
    // the bottleneck, so enroll the batch searches instead. These
    // parallelise *internally* (chunked batch scoring / chains), so they run
    // in sequence with the pool handed into each — never nested.
    members.push_back(std::make_unique<GreedyMapper>());
    members.push_back(std::make_unique<BeamMapper>(options_.beam));
    members.push_back(
        std::make_unique<WorkStealingAnnealingMapper>(options_.work_stealing));
  } else {
    members.push_back(std::make_unique<GreedyMapper>());
    members.push_back(
        std::make_unique<SwapRefineMapper>(options_.swap_refine_rounds));
    for (int r = 0; r < options_.annealing_restarts; ++r) {
      AnnealingOptions restart = options_.annealing;
      restart.seed = restart_seed(options_.annealing.seed, r);
      members.push_back(std::make_unique<AnnealingMapper>(restart));
    }
  }

  // Below the threshold each member is a serial algorithm and the pool races
  // the members against each other, sharing the context's estimate cache
  // (greedy's start is every search's start — instant hits). At scale each
  // member gets the full context (pool included) and they run in sequence;
  // only greedy's start goes through the cache there, since the batch
  // members never consult it. Either way the members share a plan cache (a
  // local one when the caller supplied none), compiled before the members
  // race so that one compile serves everyone.
  est::PlanCache local_plans;
  const SearchContext member_context{
      at_scale ? context.pool : nullptr, context.cache,
      context.plans != nullptr ? context.plans : &local_plans};
  member_context.plans->get(instance);
  std::vector<MappingResult> results(members.size());
  const auto run_member = [&](int m) {
    results[static_cast<std::size_t>(m)] =
        members[static_cast<std::size_t>(m)]->select(
            instance, candidates, parent_candidate, network, options,
            member_context);
  };

  const int threads = context_threads(context);
  if (!at_scale && context.pool != nullptr && threads > 1 &&
      members.size() > 1) {
    context.pool->parallel_for(static_cast<int>(members.size()), run_member);
  } else {
    for (std::size_t m = 0; m < members.size(); ++m) {
      run_member(static_cast<int>(m));
    }
  }

  // Every member ran to completion: reduce in member order, strict
  // improvement only, so the winner is thread-count independent.
  MappingResult best;
  std::size_t winner = 0;
  for (std::size_t m = 0; m < results.size(); ++m) {
    best.stats.add_counters(results[m].stats);
    if (m == 0 || results[m].estimated_time < results[winner].estimated_time) {
      winner = m;
    }
  }
  best.candidate_for_abstract =
      std::move(results[winner].candidate_for_abstract);
  best.estimated_time = results[winner].estimated_time;
  best.stats.threads = threads;
  best.stats.wall_seconds = timer.seconds();
  return best;
}

std::unique_ptr<Mapper> make_default_mapper() {
  return std::make_unique<SwapRefineMapper>();
}

}  // namespace hmpi::map
