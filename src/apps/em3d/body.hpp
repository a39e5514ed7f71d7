// EM3D problem representation and workload generator (paper §3).
//
// The application simulates the interaction of electric and magnetic fields
// on a three-dimensional object decomposed into a few large subbodies. Each
// subbody holds E nodes (electric field values) and H nodes (magnetic field
// values); dependencies form a bipartite graph (E nodes depend only on H
// nodes and vice versa). The decomposition keeps most dependencies local;
// the few remote dependencies define the communication pattern, summarised
// by the dep matrix used as the performance-model parameter:
// dep[i][j] = number of nodal values of subbody j that subbody i needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/matrix.hpp"

namespace hmpi::apps::em3d {

/// Reference to a node in another (or the same) subbody.
struct NodeRef {
  int subbody = 0;
  int index = 0;  ///< Index within the referenced field array.
};

/// Per-node rows of a fixed length (the generator's degree), stored in one
/// contiguous array: row i is flat()[i * degree, (i + 1) * degree). Indexing
/// and iteration yield one std::span<const T> per node.
template <typename T>
class Rows {
 public:
  class iterator {
   public:
    iterator(const T* row, std::size_t degree) : row_(row), degree_(degree) {}

    std::span<const T> operator*() const { return {row_, degree_}; }
    iterator& operator++() {
      row_ += degree_;
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    const T* row_;
    std::size_t degree_;
  };

  Rows() = default;
  /// Takes `flat.size() / degree` rows of `degree` entries each.
  Rows(std::vector<T> flat, std::size_t degree)
      : flat_(std::move(flat)), degree_(degree) {}

  /// Row (node) count.
  std::size_t size() const { return degree_ == 0 ? 0 : flat_.size() / degree_; }
  std::span<const T> operator[](std::size_t row) const {
    return {flat_.data() + row * degree_, degree_};
  }
  iterator begin() const { return {flat_.data(), degree_}; }
  iterator end() const { return {flat_.data() + flat_.size(), degree_}; }
  /// Every row, back to back.
  std::span<const T> flat() const { return flat_; }

 private:
  std::vector<T> flat_;
  std::size_t degree_ = 0;
};

/// One subbody of the decomposed object.
struct Subbody {
  /// Field values; e_values[i] is E node i, h_values[i] is H node i.
  std::vector<double> e_values;
  std::vector<double> h_values;

  /// Bipartite dependencies, `degree` per node: e_deps[i] lists the H nodes
  /// E node i reads and e_weights[i] their weights, entry for entry;
  /// h_deps[i] and h_weights[i] likewise list the E nodes H node i reads.
  Rows<NodeRef> e_deps;
  Rows<double> e_weights;
  Rows<NodeRef> h_deps;
  Rows<double> h_weights;

  int nodes() const {
    return static_cast<int>(e_values.size() + h_values.size());
  }
};

/// The whole decomposed system plus its communication summary.
struct System {
  std::vector<Subbody> bodies;

  /// dep(i, j) = nodal values of subbody j needed by subbody i per iteration
  /// (E-phase H values + H-phase E values) — the model's dep parameter.
  support::Matrix<int> dep;

  /// For the exchange phases: remote_h_needed(i, j) lists the H-node indices
  /// of subbody j that subbody i's E nodes read (sorted, unique); likewise
  /// remote_e_needed for the H phase.
  support::Matrix<std::vector<int>> remote_h_needed;
  support::Matrix<std::vector<int>> remote_e_needed;

  int subbody_count() const { return static_cast<int>(bodies.size()); }

  /// Node counts per subbody (the model's d parameter).
  std::vector<long long> node_counts() const;

  /// Flattened dep matrix, row-major (the model's dep parameter).
  std::vector<long long> dep_flat() const;

  /// Sum of all field values (placement-independent result check).
  double checksum() const;
};

/// Generator parameters.
struct GeneratorConfig {
  /// Node count per subbody (E and H nodes are split evenly). Sizes may
  /// differ wildly across subbodies — that is what makes EM3D irregular.
  std::vector<int> nodes_per_subbody;
  /// Dependencies per node (bipartite out-degree).
  int degree = 5;
  /// Fraction of dependencies that reference a different subbody.
  double remote_fraction = 0.05;
  std::uint64_t seed = 1;
};

/// Builds a deterministic EM3D system (same seed => same system).
System generate(const GeneratorConfig& config);

}  // namespace hmpi::apps::em3d
