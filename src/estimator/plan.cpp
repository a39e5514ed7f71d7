#include "estimator/plan.hpp"

#include <algorithm>
#include <chrono>

#include "estimator/fingerprint.hpp"
#include "support/error.hpp"

namespace hmpi::est {

namespace {

/// Records one scheme replay as the flat op list. Self transfers are
/// dropped and the percentage factors folded in here, so the evaluators
/// never look at the instance again.
class Recorder final : public pmdl::ScheduleSink {
 public:
  Recorder(const pmdl::ModelInstance& instance, std::vector<PlanOp>& ops)
      : instance_(&instance), ops_(&ops) {}

  void compute(std::span<const long long> coords, double percent) override {
    const auto a = static_cast<std::size_t>(instance_->flatten(coords));
    const double units = instance_->node_volumes()[a] * percent / 100.0;
    ops_->push_back({PlanOp::Kind::kCompute, static_cast<int>(a), -1, units});
  }

  void transfer(std::span<const long long> src, std::span<const long long> dst,
                double percent) override {
    const auto s = static_cast<std::size_t>(instance_->flatten(src));
    const auto d = static_cast<std::size_t>(instance_->flatten(dst));
    if (s == d) return;  // self transfer: no cost in the model
    double bytes = 0.0;
    auto it = instance_->link_bytes().find(
        {static_cast<int>(s), static_cast<int>(d)});
    if (it != instance_->link_bytes().end()) {
      bytes = it->second * percent / 100.0;
    }
    // A missing link entry still pays latency and overheads (bytes = 0).
    ops_->push_back({PlanOp::Kind::kTransfer, static_cast<int>(s),
                     static_cast<int>(d), bytes});
  }

  void par_begin() override {
    ops_->push_back({PlanOp::Kind::kParBegin, -1, -1, 0.0});
  }
  void par_iter_begin() override {
    ops_->push_back({PlanOp::Kind::kParIterBegin, -1, -1, 0.0});
  }
  void par_end() override {
    ops_->push_back({PlanOp::Kind::kParEnd, -1, -1, 0.0});
  }

 private:
  const pmdl::ModelInstance* instance_;
  std::vector<PlanOp>* ops_;
};

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
  Recorder recorder(instance, ops_);
  instance.run_scheme(recorder);
  // Distinct abstract transfer pairs (first-appearance order) and each
  // transfer op's pair index — the batch evaluator's compact busy keying.
  std::unordered_map<std::uint64_t, int> pair_index;
  op_pair_.assign(ops_.size(), -1);
  for (std::size_t k = 0; k < ops_.size(); ++k) {
    const PlanOp& op = ops_[k];
    if (op.kind != PlanOp::Kind::kTransfer) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(op.a)) << 32) |
        static_cast<std::uint32_t>(op.b);
    auto [it, inserted] =
        pair_index.emplace(key, static_cast<int>(pairs_.size()));
    if (inserted) pairs_.push_back({op.a, op.b});
    op_pair_[k] = it->second;
  }
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
  canon_.resize(q_count * count);
  latency_.resize(q_count * count);
  bandwidth_.resize(q_count * count);

  // Open-addressing capacity: power of two >= 2 * Q, so probes stay short.
  std::size_t capacity = 8;
  while (capacity < 2 * q_count) capacity *= 2;
  if (probe_key_.size() != capacity) {
    probe_key_.assign(capacity, 0);
    probe_gen_.assign(capacity, 0);
    probe_pair_.assign(capacity, 0);
    generation_ = 0;
  }

  for (std::size_t i = 0; i < count; ++i) {
    ++generation_;
    if (generation_ == 0) {  // stamp wrapped: reset the table once
      std::fill(probe_gen_.begin(), probe_gen_.end(), 0u);
      generation_ = 1;
    }
    for (std::size_t q = 0; q < q_count; ++q) {
      const auto s = static_cast<std::size_t>(plan.pairs_[q].first);
      const auto d = static_cast<std::size_t>(plan.pairs_[q].second);
      const int ps = procs_soa[s * count + i];
      const int pd = procs_soa[d * count + i];
      const std::uint64_t key =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ps)) << 32) |
          static_cast<std::uint32_t>(pd);
      // SplitMix64 finaliser as the probe hash (same mixing as fp_mix).
      std::uint64_t h = key + 0x9e3779b97f4a7c15ULL;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
      std::size_t slot = static_cast<std::size_t>(h) & (capacity - 1);
      int canonical = static_cast<int>(q);
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
      canon_[q * count + i] = canonical;
      const hnoc::LinkParams& link = network.link(ps, pd);
      latency_[q * count + i] = link.latency_s;
      bandwidth_[q * count + i] = link.bandwidth_bps;
    }
  }
}

void BatchEvaluator::evaluate(const Plan& plan, std::span<const int> procs_soa,
                              std::size_t count,
                              const hnoc::NetworkModel& network,
                              EstimateOptions options, std::span<double> out) {
  if (count == 0) return;
  const auto p = static_cast<std::size_t>(plan.num_procs_);
  support::require(procs_soa.size() == p * count,
                   "batch mapping block must be |slots| x count");
  support::require(out.size() >= count,
                   "batch output span smaller than the candidate count");
  for (int proc : procs_soa) {
    support::require(proc >= 0 && proc < network.size(),
                     "mapping references a processor outside the network");
  }

  // Speeds, gathered once per (slot, candidate).
  speed_.resize(p * count);
  for (std::size_t j = 0; j < p * count; ++j) {
    speed_[j] = network.speed(procs_soa[j]);
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
        const double t = network.link(ps, pd).transfer_time(l.bytes);
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

  const auto merge_rows = [](std::vector<double>& into,
                             const std::vector<double>& from) {
    for (std::size_t j = 0; j < into.size(); ++j) {
      into[j] = std::max(into[j], from[j]);
    }
  };

  for (std::size_t k = 0; k < plan.ops_.size(); ++k) {
    const PlanOp& op = plan.ops_[k];
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
        const std::size_t q = static_cast<std::size_t>(plan.op_pair_[k]) * count;
        for (std::size_t i = 0; i < count; ++i) {
          double& slot =
              busy_[static_cast<std::size_t>(canon_[q + i]) * count + i];
          const double start = std::max(time_[s + i], slot);
          const double finish =
              start + (latency_[q + i] + op.value / bandwidth_[q + i]);
          slot = finish;
          time_[s + i] += options.send_overhead_s;
          time_[d + i] = std::max(time_[d + i], finish) + options.recv_overhead_s;
        }
        break;
      }
      case PlanOp::Kind::kParBegin: {
        if (frame_depth_ == frames_.size()) frames_.emplace_back();
        Frame& f = frames_[frame_depth_++];
        f.snap_time.assign(time_.begin(), time_.end());
        f.snap_busy.assign(busy_.begin(), busy_.end());
        f.acc_time.assign(time_.begin(), time_.end());
        f.acc_busy.assign(busy_.begin(), busy_.end());
        break;
      }
      case PlanOp::Kind::kParIterBegin: {
        Frame& f = frames_[frame_depth_ - 1];
        merge_rows(f.acc_time, time_);
        merge_rows(f.acc_busy, busy_);
        time_.assign(f.snap_time.begin(), f.snap_time.end());
        busy_.assign(f.snap_busy.begin(), f.snap_busy.end());
        break;
      }
      case PlanOp::Kind::kParEnd: {
        Frame& f = frames_[frame_depth_ - 1];
        merge_rows(f.acc_time, time_);
        merge_rows(f.acc_busy, busy_);
        time_.swap(f.acc_time);
        busy_.swap(f.acc_busy);
        --frame_depth_;
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
