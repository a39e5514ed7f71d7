// Performance models: the artefacts the HMPI runtime consumes.
//
// The paper's toolchain compiles a performance-model definition into "a set
// of functions [that] make up an algorithm-specific part of the HMPI runtime
// system" (§2). Here that artefact is a ModelInstance: the model evaluated
// for concrete parameter values, exposing
//   * the abstract-processor arrangement (shape),
//   * per-processor computation volumes in benchmark units (node),
//   * per-pair communication volumes in bytes (link),
//   * the parent's coordinates, and
//   * the scheme, replayable against any ScheduleSink (the estimator's
//     timeline machine, or a recorder in tests).
//
// A Model is the reusable definition: either parsed from PMDL text (the
// paper's language) or built programmatically (the "embedded" alternative).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "pmdl/ast.hpp"
#include "pmdl/value.hpp"

namespace hmpi::pmdl {

/// Native (host C++) function callable from a scheme, e.g. the paper's
/// GetProcessor. Arguments are passed in `args`; `&x` arguments are written
/// back to the caller's variable after the call.
using NativeFn = std::function<void(std::vector<Value>& args)>;

/// Receiver of scheme activations. The evaluator walks the scheme AST and
/// reports computations, transfers, and parallel-composition structure.
class ScheduleSink {
 public:
  virtual ~ScheduleSink() = default;

  /// `percent %% [coords]` — the processor at `coords` performs `percent`
  /// percent of its total computation volume.
  virtual void compute(std::span<const long long> coords, double percent) = 0;

  /// `percent %% [src] -> [dst]` — `percent` percent of the total volume on
  /// link src->dst is transferred.
  virtual void transfer(std::span<const long long> src,
                        std::span<const long long> dst, double percent) = 0;

  /// A `par` loop begins: subsequent iterations are parallel alternatives.
  virtual void par_begin() = 0;
  /// The next `par` iteration begins (reset to the loop-entry timeline).
  virtual void par_iter_begin() = 0;
  /// The `par` loop ends: merge all iteration timelines.
  virtual void par_end() = 0;
};

/// A positional model parameter: an int scalar or a flattened int array.
using ParamValue = std::variant<long long, std::vector<long long>>;

/// Convenience constructors for parameter packs.
inline ParamValue scalar(long long v) { return ParamValue(v); }
inline ParamValue array(std::vector<long long> v) { return ParamValue(std::move(v)); }

class Model;
class InstanceBuilder;

/// A performance model evaluated for concrete parameters (see file comment).
class ModelInstance {
 public:
  /// Extents of the coordinate system (e.g. {p} or {m, m}).
  const std::vector<long long>& shape() const noexcept { return shape_; }

  /// Total number of abstract processors (product of shape).
  int size() const noexcept { return static_cast<int>(volumes_.size()); }

  /// Computation volume of abstract processor `index` in benchmark units.
  double node_volume(int index) const;
  const std::vector<double>& node_volumes() const noexcept { return volumes_; }

  /// Total bytes transferred per directed abstract-processor pair.
  const std::map<std::pair<int, int>, double>& link_bytes() const noexcept {
    return links_;
  }

  /// Flattened index of the parent abstract processor.
  int parent_index() const noexcept { return parent_; }

  bool has_scheme() const noexcept { return static_cast<bool>(scheme_); }

  /// Replays the scheme against `sink`. Throws PmdlError if there is none.
  void run_scheme(ScheduleSink& sink) const;

  /// Row-major flattening of coordinates (bounds-checked).
  long long flatten(std::span<const long long> coords) const;
  std::vector<long long> unflatten(long long index) const;

  const std::string& model_name() const noexcept { return name_; }

  /// Human-readable summary: shape, per-processor volumes, link table,
  /// parent, aggregate totals. For diagnostics and tooling.
  std::string summary() const;

 private:
  friend class Model;
  friend class InstanceBuilder;

  ModelInstance() = default;

  std::string name_;
  std::vector<long long> shape_;
  std::vector<double> volumes_;
  std::map<std::pair<int, int>, double> links_;
  int parent_ = 0;
  std::function<void(ScheduleSink&)> scheme_;
};

/// A reusable performance-model definition.
class Model {
 public:
  /// Factory signature for programmatic models.
  using Factory = std::function<ModelInstance(std::span<const ParamValue>)>;

  /// Compiles a PMDL source text (the paper's model definition language).
  static Model from_source(std::string_view source);

  /// Wraps a C++ factory producing instances directly (embedded alternative
  /// to the DSL; `param_count` is the expected number of parameters).
  static Model from_factory(std::string name, std::size_t param_count,
                            Factory factory);

  const std::string& name() const noexcept { return name_; }
  std::size_t param_count() const noexcept { return param_count_; }

  /// Registers a host function callable from the scheme (e.g. GetProcessor).
  /// Must be called before instantiate(): an instance binds the natives
  /// registered when it is created.
  void register_native(const std::string& name, NativeFn fn);

  /// Evaluates the model for concrete parameters.
  ModelInstance instantiate(std::span<const ParamValue> params) const;
  ModelInstance instantiate(std::initializer_list<ParamValue> params) const {
    return instantiate(std::span<const ParamValue>(params.begin(), params.size()));
  }

 private:
  Model() = default;

  std::string name_;
  std::size_t param_count_ = 0;
  std::shared_ptr<const ast::Algorithm> ast_;  // null for factory models
  Factory factory_;                            // null for AST models
  std::map<std::string, NativeFn> natives_;
  /// The AST's struct types, in ast::Algorithm::structs order.
  std::vector<std::shared_ptr<const StructInfo>> structs_;
};

/// Builds a ModelInstance directly (programmatic models and tests).
class InstanceBuilder {
 public:
  explicit InstanceBuilder(std::string name);

  InstanceBuilder& shape(std::vector<long long> dims);
  /// Sets the computation volume of the processor at flat `index`.
  InstanceBuilder& node_volume(int index, double units);
  /// Adds (or raises to) `bytes` on the directed link src->dst (flat indices).
  InstanceBuilder& link(int src, int dst, double bytes);
  InstanceBuilder& parent(int index);
  /// Scheme as a C++ callable; optional (estimation falls back to a default).
  InstanceBuilder& scheme(std::function<void(ScheduleSink&)> fn);

  ModelInstance build();

 private:
  ModelInstance instance_;
  bool shape_set_ = false;
};

}  // namespace hmpi::pmdl
