#include "reference/estimator.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace hmpi::est::reference {

namespace {

void check_mapping(const pmdl::ModelInstance& instance,
                   std::span<const int> mapping,
                   const hnoc::NetworkModel& network) {
  support::require(static_cast<int>(mapping.size()) == instance.size(),
                   "mapping size must equal the number of abstract processors");
  for (int p : mapping) {
    support::require(p >= 0 && p < network.size(),
                     "mapping references a processor outside the network");
  }
}

}  // namespace

TimelineMachine::TimelineMachine(const pmdl::ModelInstance& instance,
                                 std::span<const int> mapping,
                                 const hnoc::NetworkModel& network,
                                 EstimateOptions options)
    : instance_(&instance),
      mapping_(mapping.begin(), mapping.end()),
      network_(&network),
      options_(options) {
  check_mapping(instance, mapping, network);
  state_.time.assign(static_cast<std::size_t>(instance.size()), 0.0);
}

void TimelineMachine::merge_max(State& into, const State& from) {
  for (std::size_t i = 0; i < into.time.size(); ++i) {
    into.time[i] = std::max(into.time[i], from.time[i]);
  }
  for (const auto& [key, busy] : from.link_busy) {
    double& slot = into.link_busy[key];
    slot = std::max(slot, busy);
  }
}

void TimelineMachine::compute(std::span<const long long> coords, double percent) {
  const auto a = static_cast<std::size_t>(instance_->flatten(coords));
  const int proc = mapping_[a];
  const double volume = instance_->node_volumes()[a] * percent / 100.0;
  state_.time[a] += volume / network_->speed(proc);
}

void TimelineMachine::transfer(std::span<const long long> src,
                               std::span<const long long> dst, double percent) {
  const auto s = static_cast<std::size_t>(instance_->flatten(src));
  const auto d = static_cast<std::size_t>(instance_->flatten(dst));
  if (s == d) return;  // self transfer: no cost in the model

  double bytes = 0.0;
  auto it = instance_->link_bytes().find(
      {static_cast<int>(s), static_cast<int>(d)});
  if (it != instance_->link_bytes().end()) bytes = it->second * percent / 100.0;

  const int ps = mapping_[s];
  const int pd = mapping_[d];
  const hnoc::LinkParams& link = network_->link(ps, pd);

  double& busy = state_.link_busy[{ps, pd}];
  const double start = std::max(state_.time[s], busy);
  const double finish = start + link.transfer_time(bytes);
  busy = finish;
  state_.time[s] += options_.send_overhead_s;
  state_.time[d] = std::max(state_.time[d], finish) + options_.recv_overhead_s;
}

void TimelineMachine::par_begin() {
  snapshots_.push_back(state_);
  accumulators_.push_back(state_);
}

void TimelineMachine::par_iter_begin() {
  support::require(!snapshots_.empty(), "par_iter_begin outside a par block");
  merge_max(accumulators_.back(), state_);
  state_ = snapshots_.back();
}

void TimelineMachine::par_end() {
  support::require(!snapshots_.empty(), "par_end outside a par block");
  merge_max(accumulators_.back(), state_);
  state_ = std::move(accumulators_.back());
  accumulators_.pop_back();
  snapshots_.pop_back();
}

double TimelineMachine::makespan() const {
  return state_.time.empty()
             ? 0.0
             : *std::max_element(state_.time.begin(), state_.time.end());
}

double estimate_time(const pmdl::ModelInstance& instance,
                     std::span<const int> mapping,
                     const hnoc::NetworkModel& network,
                     EstimateOptions options) {
  check_mapping(instance, mapping, network);

  if (instance.has_scheme()) {
    TimelineMachine machine(instance, mapping, network, options);
    instance.run_scheme(machine);
    return machine.makespan();
  }

  // No scheme: bound each processor by its computation plus every transfer it
  // participates in, run back to back.
  std::vector<double> cost(static_cast<std::size_t>(instance.size()), 0.0);
  for (int a = 0; a < instance.size(); ++a) {
    cost[static_cast<std::size_t>(a)] =
        instance.node_volume(a) /
        network.speed(mapping[static_cast<std::size_t>(a)]);
  }
  for (const auto& [pair, bytes] : instance.link_bytes()) {
    const int ps = mapping[static_cast<std::size_t>(pair.first)];
    const int pd = mapping[static_cast<std::size_t>(pair.second)];
    const double t = network.link(ps, pd).transfer_time(bytes);
    cost[static_cast<std::size_t>(pair.first)] += t;
    cost[static_cast<std::size_t>(pair.second)] += t;
  }
  return cost.empty() ? 0.0 : *std::max_element(cost.begin(), cost.end());
}

}  // namespace hmpi::est::reference
