#include "coll/policy.hpp"

namespace hmpi::coll {

namespace {

constexpr const char* kOpNames[kNumCollOps] = {
    "bcast", "reduce", "allreduce", "reduce_scatter", "allgather", "barrier",
};

// Indexed by [op][algo]; algo 0 is always "auto".
constexpr const char* kBcastNames[] = {"auto", "flat", "binomial", "chain",
                                       "two_level"};
constexpr const char* kReduceNames[] = {"auto", "flat", "binomial",
                                        "rabenseifner"};
constexpr const char* kAllreduceNames[] = {"auto", "reduce_bcast",
                                           "recursive_doubling",
                                           "rabenseifner"};
constexpr const char* kReduceScatterNames[] = {"auto", "pairwise",
                                               "recursive_halving"};
constexpr const char* kAllgatherNames[] = {"auto", "gather_bcast", "ring",
                                           "recursive_doubling"};
constexpr const char* kBarrierNames[] = {"auto", "dissemination",
                                         "tournament"};

struct OpTable {
  const char* const* names;
  int count;  // concrete algorithms, excluding "auto"
};

OpTable table_of(CollOp op) noexcept {
  switch (op) {
    case CollOp::kBcast:
      return {kBcastNames, 4};
    case CollOp::kReduce:
      return {kReduceNames, 3};
    case CollOp::kAllreduce:
      return {kAllreduceNames, 3};
    case CollOp::kReduceScatter:
      return {kReduceScatterNames, 2};
    case CollOp::kAllgather:
      return {kAllgatherNames, 3};
    case CollOp::kBarrier:
      return {kBarrierNames, 2};
  }
  return {kBcastNames, 0};
}

}  // namespace

int CollPolicy::choice(CollOp op) const noexcept {
  switch (op) {
    case CollOp::kBcast:
      return static_cast<int>(bcast);
    case CollOp::kReduce:
      return static_cast<int>(reduce);
    case CollOp::kAllreduce:
      return static_cast<int>(allreduce);
    case CollOp::kReduceScatter:
      return static_cast<int>(reduce_scatter);
    case CollOp::kAllgather:
      return static_cast<int>(allgather);
    case CollOp::kBarrier:
      return static_cast<int>(barrier);
  }
  return 0;
}

void CollPolicy::set_choice(CollOp op, int algo) {
  if (algo < 0 || algo > algo_count(op)) algo = 0;
  switch (op) {
    case CollOp::kBcast:
      bcast = static_cast<BcastAlgo>(algo);
      break;
    case CollOp::kReduce:
      reduce = static_cast<ReduceAlgo>(algo);
      break;
    case CollOp::kAllreduce:
      allreduce = static_cast<AllreduceAlgo>(algo);
      break;
    case CollOp::kReduceScatter:
      reduce_scatter = static_cast<ReduceScatterAlgo>(algo);
      break;
    case CollOp::kAllgather:
      allgather = static_cast<AllgatherAlgo>(algo);
      break;
    case CollOp::kBarrier:
      barrier = static_cast<BarrierAlgo>(algo);
      break;
  }
}

int legacy_default(CollOp op) noexcept {
  switch (op) {
    case CollOp::kBcast:
      return static_cast<int>(BcastAlgo::kBinomial);
    case CollOp::kReduce:
      return static_cast<int>(ReduceAlgo::kBinomial);
    case CollOp::kAllreduce:
      return static_cast<int>(AllreduceAlgo::kReduceBcast);
    case CollOp::kReduceScatter:
      return static_cast<int>(ReduceScatterAlgo::kPairwise);
    case CollOp::kAllgather:
      return static_cast<int>(AllgatherAlgo::kGatherBcast);
    case CollOp::kBarrier:
      return static_cast<int>(BarrierAlgo::kDissemination);
  }
  return 1;
}

int algo_count(CollOp op) noexcept { return table_of(op).count; }

const char* op_name(CollOp op) {
  const int i = static_cast<int>(op);
  return (i >= 0 && i < kNumCollOps) ? kOpNames[i] : "unknown";
}

const char* algo_name(CollOp op, int algo) {
  const OpTable t = table_of(op);
  return (algo >= 0 && algo <= t.count) ? t.names[algo] : "unknown";
}

int algo_from_name(CollOp op, const std::string& name) {
  const OpTable t = table_of(op);
  for (int a = 0; a <= t.count; ++a) {
    if (name == t.names[a]) return a;
  }
  return -1;
}

bool names_collective(std::string_view op, std::string_view algo) {
  for (int i = 0; i < kNumCollOps; ++i) {
    if (op == kOpNames[i]) {
      return algo.empty() ||
             algo_from_name(static_cast<CollOp>(i), std::string(algo)) >= 1;
    }
  }
  return false;
}

}  // namespace hmpi::coll
