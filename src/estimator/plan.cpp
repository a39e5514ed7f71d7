#include "estimator/plan.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "estimator/fingerprint.hpp"
#include "support/error.hpp"

namespace hmpi::est {

namespace {

/// Records one scheme replay as an op list. Self transfers are dropped and
/// the percentage factors folded in here, so the evaluators never look at
/// the instance again. Transfers get their abstract pair index on first
/// sight. Par structure is filtered as it arrives: a segment (the ops since
/// the block's kParBegin or its last kept kParIterBegin) that recorded
/// nothing gets no kParIterBegin, and a block that recorded nothing is
/// erased. The markers carry no footprint yet (see lower_par).
class Recorder final : public pmdl::ScheduleSink {
 public:
  explicit Recorder(const pmdl::ModelInstance& instance)
      : instance_(&instance) {}

  std::vector<PlanOp> ops;
  std::vector<std::pair<int, int>> pairs;

  void compute(std::span<const long long> coords, double percent) override {
    const auto a = static_cast<std::size_t>(instance_->flatten(coords));
    const double units = instance_->node_volumes()[a] * percent / 100.0;
    ops.push_back({PlanOp::Kind::kCompute, static_cast<int>(a), -1, -1, units});
  }

  void transfer(std::span<const long long> src, std::span<const long long> dst,
                double percent) override {
    const auto s = static_cast<int>(instance_->flatten(src));
    const auto d = static_cast<int>(instance_->flatten(dst));
    if (s == d) return;  // self transfer: no cost in the model
    double bytes = 0.0;
    auto it = instance_->link_bytes().find({s, d});
    if (it != instance_->link_bytes().end()) {
      bytes = it->second * percent / 100.0;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(s)) << 32) |
        static_cast<std::uint32_t>(d);
    auto [pit, inserted] =
        pair_index_.try_emplace(key, static_cast<int>(pairs.size()));
    if (inserted) pairs.push_back({s, d});
    // A missing link entry still pays latency and overheads (bytes = 0).
    ops.push_back({PlanOp::Kind::kTransfer, s, d, pit->second, bytes});
  }

  void par_begin() override {
    block_begin_.push_back(ops.size());
    ops.push_back({PlanOp::Kind::kParBegin, -1, -1, -1, 0.0});
    segment_begin_.push_back(ops.size());
  }

  void par_iter_begin() override {
    support::require(!block_begin_.empty(),
                     "scheme began a par iteration outside a par block");
    if (ops.size() == segment_begin_.back()) return;  // empty segment
    ops.push_back({PlanOp::Kind::kParIterBegin, -1, -1, -1, 0.0});
    segment_begin_.back() = ops.size();
  }

  void par_end() override {
    support::require(!block_begin_.empty(),
                     "scheme ended a par block it never began");
    const std::size_t begin = block_begin_.back();
    block_begin_.pop_back();
    segment_begin_.pop_back();
    if (ops.size() == begin + 1) {  // empty block
      ops.pop_back();
      return;
    }
    ops.push_back({PlanOp::Kind::kParEnd, -1, -1, -1, 0.0});
  }

  /// Throws unless every par block the scheme began was ended.
  void finish() const {
    support::require(block_begin_.empty(), "scheme left a par block open");
  }

 private:
  const pmdl::ModelInstance* instance_;
  std::unordered_map<std::uint64_t, int> pair_index_;
  // Per open par block, innermost last: the index of its kParBegin and of
  // its open segment's first op.
  std::vector<std::size_t> block_begin_, segment_begin_;
};

/// Lowers a recorded op list (balanced, with no empty segment or block) into
/// `ops` and their footprints in `footprint_rows` (docs/estimator.md §3-4):
/// a block that is the whole segment of its parent (preceded by the
/// parent's kParBegin or kParIterBegin, followed by its kParIterBegin or
/// kParEnd) is flattened into the parent, and a segment of one activation
/// becomes a kParCompute or kParTransfer with no kParIterBegin to close it.
/// One sweep marks the blocks to flatten; a second emits the ops and gives
/// every kept marker the sorted rows its block (kParBegin, kParEnd) or the
/// segment it closes (kParIterBegin) writes.
void lower_par(std::span<const PlanOp> recorded, std::vector<PlanOp>& ops,
               std::vector<int>& footprint_rows) {
  using Kind = PlanOp::Kind;
  const std::size_t n = recorded.size();
  // Past the end reads as an op, which closes no segment.
  const auto kind_at = [&](std::size_t k) {
    return k < n ? recorded[k].kind : Kind::kCompute;
  };
  const auto opens_segment = [](Kind k) {
    return k == Kind::kParBegin || k == Kind::kParIterBegin;
  };
  const auto closes_segment = [](Kind k) {
    return k == Kind::kParIterBegin || k == Kind::kParEnd;
  };

  std::vector<bool> flatten(n, false);
  std::vector<std::size_t> open;
  for (std::size_t k = 0; k < n; ++k) {
    if (recorded[k].kind == Kind::kParBegin) open.push_back(k);
    if (recorded[k].kind != Kind::kParEnd) continue;
    const std::size_t begin = open.back();
    open.pop_back();
    flatten[begin] = flatten[k] = begin > 0 &&
                                  opens_segment(recorded[begin - 1].kind) &&
                                  closes_segment(kind_at(k + 1));
  }

  // A kept block: its kParBegin in `ops`, the rows its closed segments
  // and one-op segments wrote (sorted and deduplicated per closed segment),
  // then the rows of the open segment from `segment_time` / `segment_pairs`
  // on. Every op writes a time row, so the open segment holds an op a
  // kParIterBegin must close iff it has time rows.
  struct Block {
    std::size_t begin = 0;
    std::vector<int> time, pairs;
    std::size_t segment_time = 0, segment_pairs = 0;
  };
  std::vector<Block> blocks;  // kept blocks, innermost at depth - 1
  std::size_t depth = 0;
  // Sorts and deduplicates rows[from, end) in place, appends it to
  // footprint_rows and returns its length.
  const auto sorted_tail = [&](std::vector<int>& rows, std::size_t from) {
    const auto first = rows.begin() + static_cast<std::ptrdiff_t>(from);
    std::sort(first, rows.end());
    rows.erase(std::unique(first, rows.end()), rows.end());
    footprint_rows.insert(footprint_rows.end(), first, rows.end());
    return static_cast<int>(rows.size() - from);
  };
  const auto footprint = [&](Kind kind, Block& block, std::size_t time_from,
                             std::size_t pairs_from) {
    PlanOp op{kind, static_cast<int>(footprint_rows.size()), -1, -1, 0.0};
    op.b = sorted_tail(block.time, time_from);
    op.pair = sorted_tail(block.pairs, pairs_from);
    return op;
  };

  for (std::size_t k = 0; k < n; ++k) {
    PlanOp op = recorded[k];
    switch (op.kind) {
      case Kind::kCompute:
      case Kind::kTransfer: {
        if (depth == 0) {
          ops.push_back(op);
          break;
        }
        Block& block = blocks[depth - 1];
        block.time.push_back(op.a);
        if (op.kind == Kind::kTransfer) {
          block.time.push_back(op.b);
          block.pairs.push_back(op.pair);
        }
        if (opens_segment(recorded[k - 1].kind) &&
            closes_segment(kind_at(k + 1))) {
          // A segment of its own: its rows join the block's footprint but
          // no segment's.
          op.kind = op.kind == Kind::kCompute ? Kind::kParCompute
                                              : Kind::kParTransfer;
          block.segment_time = block.time.size();
          block.segment_pairs = block.pairs.size();
        }
        ops.push_back(op);
        break;
      }
      case Kind::kParBegin:
        if (flatten[k]) break;
        if (depth == blocks.size()) blocks.emplace_back();
        blocks[depth].begin = ops.size();
        blocks[depth].time.clear();
        blocks[depth].pairs.clear();
        blocks[depth].segment_time = blocks[depth].segment_pairs = 0;
        ++depth;
        ops.push_back(op);
        break;
      case Kind::kParIterBegin: {
        Block& block = blocks[depth - 1];
        if (block.time.size() == block.segment_time) break;  // one-op segment
        ops.push_back(footprint(Kind::kParIterBegin, block, block.segment_time,
                                block.segment_pairs));
        block.segment_time = block.time.size();
        block.segment_pairs = block.pairs.size();
        break;
      }
      case Kind::kParEnd: {
        if (flatten[k]) break;
        Block& block = blocks[--depth];
        const PlanOp end = footprint(Kind::kParEnd, block, 0, 0);
        ops[block.begin] = {Kind::kParBegin, end.a, end.b, end.pair, 0.0};
        ops.push_back(end);
        // The whole block is part of the enclosing segment.
        if (depth > 0) {
          Block& outer = blocks[depth - 1];
          outer.time.insert(outer.time.end(), block.time.begin(),
                            block.time.end());
          outer.pairs.insert(outer.pairs.end(), block.pairs.begin(),
                             block.pairs.end());
        }
        break;
      }
      case Kind::kParCompute:
      case Kind::kParTransfer:
        break;  // made by this pass, never recorded
    }
  }
}

}  // namespace

// --- Plan ------------------------------------------------------------------

Plan::Plan(const pmdl::ModelInstance& instance)
    : num_procs_(instance.size()), from_scheme_(instance.has_scheme()) {
  if (!from_scheme_) {
    volumes_ = instance.node_volumes();
    links_.reserve(instance.link_bytes().size());
    for (const auto& [pair, bytes] : instance.link_bytes()) {
      links_.push_back({pair.first, pair.second, bytes});
    }
    return;
  }
  Recorder recorder(instance);
  instance.run_scheme(recorder);
  recorder.finish();
  std::vector<PlanOp> ops;
  std::vector<int> footprint_rows;
  lower_par(recorder.ops, ops, footprint_rows);
  // Exact-size copies: plans stay cached for the runtime's lifetime.
  ops_.assign(ops.begin(), ops.end());
  pairs_.assign(recorder.pairs.begin(), recorder.pairs.end());
  footprint_rows_.assign(footprint_rows.begin(), footprint_rows.end());
}

double Plan::evaluate(std::span<const int> mapping,
                      const hnoc::NetworkModel& network,
                      EstimateOptions options) const {
  support::require(static_cast<int>(mapping.size()) == num_procs_,
                   "mapping size must equal the number of abstract processors");
  // One candidate is its own slot-major block.
  double out = 0.0;
  evaluate_batch(mapping, 1, network, options, std::span<double>(&out, 1));
  return out;
}

// --- BatchEvaluator ----------------------------------------------------------

void BatchEvaluator::compute_canonical_pairs(const Plan& plan,
                                             std::span<const int> procs_soa,
                                             std::size_t count,
                                             const hnoc::NetworkModel& network) {
  const std::size_t q_count = plan.pairs_.size();
  const auto p = static_cast<std::size_t>(plan.num_procs_);
  const hnoc::Cluster& topology = network.topology();
  canon_.resize(q_count * count);
  latency_.resize(q_count * count);
  bandwidth_.resize(q_count * count);
  if (q_count == 0) return;

  // Open-addressing capacity: power of two >= 2 * Q, so probes stay short.
  std::size_t capacity = 8;
  while (capacity < 2 * q_count) capacity *= 2;
  const auto procs = static_cast<std::size_t>(network.size());
  if (probe_key_.size() != capacity || proc_gen_.size() != procs) {
    probe_key_.assign(capacity, 0);
    probe_gen_.assign(capacity, 0);
    probe_pair_.assign(capacity, 0);
    proc_gen_.assign(procs, 0);
    generation_ = 0;
  }

  for (std::size_t i = 0; i < count; ++i) {
    ++generation_;
    if (generation_ == 0) {  // stamp wrapped: reset the tables once
      std::fill(probe_gen_.begin(), probe_gen_.end(), 0u);
      std::fill(proc_gen_.begin(), proc_gen_.end(), 0u);
      generation_ = 1;
    }
    // Slots on distinct processors map distinct abstract pairs to distinct
    // physical links, so no two pairs alias and each is its own canonical
    // slot; only candidates that share a processor need the hash.
    bool distinct = true;
    for (std::size_t a = 0; a < p && distinct; ++a) {
      std::uint32_t& stamp =
          proc_gen_[static_cast<std::size_t>(procs_soa[a * count + i])];
      distinct = stamp != generation_;
      stamp = generation_;
    }
    for (std::size_t q = 0; q < q_count; ++q) {
      const auto s = static_cast<std::size_t>(plan.pairs_[q].first);
      const auto d = static_cast<std::size_t>(plan.pairs_[q].second);
      const int ps = procs_soa[s * count + i];
      const int pd = procs_soa[d * count + i];
      int canonical = static_cast<int>(q);
      if (!distinct) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ps)) << 32) |
            static_cast<std::uint32_t>(pd);
        // SplitMix64 finaliser as the probe hash (same mixing as fp_mix).
        std::uint64_t h = key + 0x9e3779b97f4a7c15ULL;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
        std::size_t slot = static_cast<std::size_t>(h) & (capacity - 1);
        while (true) {
          if (probe_gen_[slot] != generation_) {
            probe_gen_[slot] = generation_;
            probe_key_[slot] = key;
            probe_pair_[slot] = static_cast<int>(q);
            break;
          }
          if (probe_key_[slot] == key) {
            canonical = probe_pair_[slot];
            break;
          }
          slot = (slot + 1) & (capacity - 1);
        }
      }
      canon_[q * count + i] = canonical;
      const hnoc::LinkParams& link = topology.link_unchecked(ps, pd);
      latency_[q * count + i] = link.latency_s;
      bandwidth_[q * count + i] = link.bandwidth_bps;
    }
  }
}

void BatchEvaluator::evaluate(const Plan& plan, std::span<const int> procs_soa,
                              std::size_t count,
                              const hnoc::NetworkModel& network,
                              EstimateOptions options, std::span<double> out) {
  // Every priced time stays a number only with these checked: the par
  // lowering is exact for every input but NaN (docs/estimator.md §4).
  support::require(std::isfinite(options.send_overhead_s) &&
                       options.send_overhead_s >= 0.0,
                   "EstimateOptions::send_overhead_s must be finite and "
                   "non-negative");
  support::require(std::isfinite(options.recv_overhead_s) &&
                       options.recv_overhead_s >= 0.0,
                   "EstimateOptions::recv_overhead_s must be finite and "
                   "non-negative");
  if (count == 0) return;
  const auto p = static_cast<std::size_t>(plan.num_procs_);
  support::require(procs_soa.size() == p * count,
                   "batch mapping block must be |slots| x count");
  support::require(out.size() >= count,
                   "batch output span smaller than the candidate count");
  // The one range check of the mapping: every read below indexes the
  // network's speeds and links by these processors unchecked.
  const std::vector<double>& speeds = network.speeds();
  speed_.resize(p * count);
  for (std::size_t j = 0; j < p * count; ++j) {
    const int proc = procs_soa[j];
    support::require(proc >= 0 && proc < network.size(),
                     "mapping references a processor outside the network");
    speed_[j] = speeds[static_cast<std::size_t>(proc)];
  }

  if (!plan.from_scheme_) {
    // The fallback bound, term for term per candidate.
    cost_.assign(p * count, 0.0);
    for (std::size_t a = 0; a < p; ++a) {
      for (std::size_t i = 0; i < count; ++i) {
        cost_[a * count + i] = plan.volumes_[a] / speed_[a * count + i];
      }
    }
    for (const PlanLink& l : plan.links_) {
      const auto s = static_cast<std::size_t>(l.src);
      const auto d = static_cast<std::size_t>(l.dst);
      for (std::size_t i = 0; i < count; ++i) {
        const int ps = procs_soa[s * count + i];
        const int pd = procs_soa[d * count + i];
        const double t =
            network.topology().link_unchecked(ps, pd).transfer_time(l.bytes);
        cost_[s * count + i] += t;
        cost_[d * count + i] += t;
      }
    }
    for (std::size_t i = 0; i < count; ++i) {
      double makespan = p == 0 ? 0.0 : cost_[i];
      for (std::size_t a = 1; a < p; ++a) {
        makespan = std::max(makespan, cost_[a * count + i]);
      }
      out[i] = makespan;
    }
    return;
  }

  compute_canonical_pairs(plan, procs_soa, count, network);
  const std::size_t q_count = plan.pairs_.size();
  time_.assign(p * count, 0.0);
  busy_.assign(q_count * count, 0.0);
  frame_depth_ = 0;

  // Par frames touch only the marker's footprint rows. A busy row is the
  // candidate's canonical slot of the pair, in the frame as in busy_, so
  // pairs aliasing one physical link share one frame entry.
  const auto open_frame = [&]() -> Frame& {
    if (frame_depth_ == frames_.size()) frames_.emplace_back();
    Frame& f = frames_[frame_depth_++];
    if (f.snap_time.size() < time_.size()) {
      f.snap_time.resize(time_.size());
      f.acc_time.resize(time_.size());
    }
    if (f.snap_busy.size() < busy_.size()) {
      f.snap_busy.resize(busy_.size());
      f.acc_busy.resize(busy_.size());
    }
    return f;
  };
  const auto busy_slot = [&](std::size_t q, std::size_t i) {
    return static_cast<std::size_t>(canon_[q * count + i]) * count + i;
  };
  // Transfer `op` of candidate `i`, priced from the live rows: its busy
  // slot and finish time.
  const auto transfer = [&](const PlanOp& op, std::size_t i) {
    const auto q = static_cast<std::size_t>(op.pair);
    const std::size_t slot = busy_slot(q, i);
    const double start = std::max(
        time_[static_cast<std::size_t>(op.a) * count + i], busy_[slot]);
    return std::pair{slot, start + (latency_[q * count + i] +
                                    op.value / bandwidth_[q * count + i])};
  };
  const double send = options.send_overhead_s;
  const double recv = options.recv_overhead_s;

  for (const PlanOp& op : plan.ops_) {
    switch (op.kind) {
      case PlanOp::Kind::kCompute: {
        const std::size_t base = static_cast<std::size_t>(op.a) * count;
        for (std::size_t i = 0; i < count; ++i) {
          time_[base + i] += op.value / speed_[base + i];
        }
        break;
      }
      case PlanOp::Kind::kTransfer: {
        const std::size_t s = static_cast<std::size_t>(op.a) * count;
        const std::size_t d = static_cast<std::size_t>(op.b) * count;
        for (std::size_t i = 0; i < count; ++i) {
          const auto [slot, finish] = transfer(op, i);
          busy_[slot] = finish;
          time_[s + i] += send;
          time_[d + i] = std::max(time_[d + i], finish) + recv;
        }
        break;
      }
      // A one-op segment starts from the live rows, which hold the block's
      // entry values, and folds its rows into the innermost frame's running
      // max with the max(acc, v) a kParIterBegin applies, leaving the live
      // rows as they are.
      case PlanOp::Kind::kParCompute: {
        Frame& f = frames_[frame_depth_ - 1];
        const std::size_t base = static_cast<std::size_t>(op.a) * count;
        for (std::size_t j = base; j < base + count; ++j) {
          f.acc_time[j] =
              std::max(f.acc_time[j], time_[j] + op.value / speed_[j]);
        }
        break;
      }
      case PlanOp::Kind::kParTransfer: {
        Frame& f = frames_[frame_depth_ - 1];
        const std::size_t s = static_cast<std::size_t>(op.a) * count;
        const std::size_t d = static_cast<std::size_t>(op.b) * count;
        for (std::size_t i = 0; i < count; ++i) {
          const auto [slot, finish] = transfer(op, i);
          f.acc_busy[slot] = std::max(f.acc_busy[slot], finish);
          f.acc_time[s + i] = std::max(f.acc_time[s + i], time_[s + i] + send);
          f.acc_time[d + i] = std::max(
              f.acc_time[d + i], std::max(time_[d + i], finish) + recv);
        }
        break;
      }
      case PlanOp::Kind::kParBegin: {
        Frame& f = open_frame();
        for (int a : plan.time_rows(op)) {
          const std::size_t base = static_cast<std::size_t>(a) * count;
          for (std::size_t j = base; j < base + count; ++j) {
            f.snap_time[j] = f.acc_time[j] = time_[j];
          }
        }
        for (int q : plan.pair_rows(op)) {
          for (std::size_t i = 0; i < count; ++i) {
            const std::size_t j = busy_slot(static_cast<std::size_t>(q), i);
            f.snap_busy[j] = f.acc_busy[j] = busy_[j];
          }
        }
        break;
      }
      case PlanOp::Kind::kParIterBegin: {
        Frame& f = frames_[frame_depth_ - 1];
        for (int a : plan.time_rows(op)) {
          const std::size_t base = static_cast<std::size_t>(a) * count;
          for (std::size_t j = base; j < base + count; ++j) {
            f.acc_time[j] = std::max(f.acc_time[j], time_[j]);
            time_[j] = f.snap_time[j];
          }
        }
        for (int q : plan.pair_rows(op)) {
          for (std::size_t i = 0; i < count; ++i) {
            const std::size_t j = busy_slot(static_cast<std::size_t>(q), i);
            f.acc_busy[j] = std::max(f.acc_busy[j], busy_[j]);
            busy_[j] = f.snap_busy[j];
          }
        }
        break;
      }
      case PlanOp::Kind::kParEnd: {
        // Folding the last segment and adopting the running max is one max
        // over the block's rows: a row the last segment did not write holds
        // its snapshot, which the running max already covers.
        const Frame& f = frames_[--frame_depth_];
        for (int a : plan.time_rows(op)) {
          const std::size_t base = static_cast<std::size_t>(a) * count;
          for (std::size_t j = base; j < base + count; ++j) {
            time_[j] = std::max(f.acc_time[j], time_[j]);
          }
        }
        for (int q : plan.pair_rows(op)) {
          for (std::size_t i = 0; i < count; ++i) {
            const std::size_t j = busy_slot(static_cast<std::size_t>(q), i);
            busy_[j] = std::max(f.acc_busy[j], busy_[j]);
          }
        }
        break;
      }
    }
  }

  for (std::size_t i = 0; i < count; ++i) {
    double makespan = p == 0 ? 0.0 : time_[i];
    for (std::size_t a = 1; a < p; ++a) {
      makespan = std::max(makespan, time_[a * count + i]);
    }
    out[i] = makespan;
  }
}

void Plan::evaluate_batch(std::span<const int> procs_soa, std::size_t count,
                          const hnoc::NetworkModel& network,
                          EstimateOptions options,
                          std::span<double> out) const {
  static thread_local BatchEvaluator evaluator;
  evaluator.evaluate(*this, procs_soa, count, network, options, out);
}

// --- PlanCache --------------------------------------------------------------

std::shared_ptr<const Plan> PlanCache::get(const pmdl::ModelInstance& instance,
                                           bool* compiled,
                                           double* compile_seconds) {
  const std::uint64_t fp = instance_fingerprint(instance);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = table_.find(fp);
    if (it != table_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (compiled != nullptr) *compiled = false;
      if (compile_seconds != nullptr) *compile_seconds = 0.0;
      return it->second;
    }
  }
  // Compile outside the lock: a scheme replay can be expensive and parallel
  // first sights of different models must not serialise. Concurrent misses
  // of the same instance both compile; the first insert wins and the loser's
  // plan is dropped (plans of one instance are interchangeable).
  const auto begin = std::chrono::steady_clock::now();
  auto plan = std::make_shared<const Plan>(instance);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = table_.emplace(fp, plan);
    if (!inserted) plan = it->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (compiled != nullptr) *compiled = true;
  if (compile_seconds != nullptr) *compile_seconds = seconds;
  return plan;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  table_.clear();
}

}  // namespace hmpi::est
