#include "pmdl/model.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "pmdl/eval.hpp"
#include "pmdl/parser.hpp"
#include "pmdl/sema.hpp"

namespace hmpi::pmdl {

// --- ModelInstance -----------------------------------------------------------

double ModelInstance::node_volume(int index) const {
  support::require(index >= 0 && index < size(), "abstract processor index out of range");
  return volumes_[static_cast<std::size_t>(index)];
}

namespace {

/// Forwards a scheme's stream to `sink`, rejecting an activation percentage
/// that is not finite and non-negative: every consumer of the stream prices
/// times from it, and a NaN or negative time has no meaning there.
class CheckedSink final : public ScheduleSink {
 public:
  CheckedSink(ScheduleSink& sink, const std::string& model)
      : sink_(&sink), model_(&model) {}

  void compute(std::span<const long long> coords, double percent) override {
    check(percent);
    sink_->compute(coords, percent);
  }
  void transfer(std::span<const long long> src, std::span<const long long> dst,
                double percent) override {
    check(percent);
    sink_->transfer(src, dst, percent);
  }
  void par_begin() override { sink_->par_begin(); }
  void par_iter_begin() override { sink_->par_iter_begin(); }
  void par_end() override { sink_->par_end(); }

 private:
  void check(double percent) const {
    if (std::isfinite(percent) && percent >= 0.0) return;
    std::ostringstream what;
    what << "model '" << *model_ << "': activation percentage " << percent
         << " is not finite and non-negative";
    throw InvalidArgument(what.str());
  }

  ScheduleSink* sink_;
  const std::string* model_;
};

}  // namespace

void ModelInstance::run_scheme(ScheduleSink& sink) const {
  if (!scheme_) throw PmdlError("model '" + name_ + "' has no scheme");
  CheckedSink checked(sink, name_);
  scheme_(checked);
}

long long ModelInstance::flatten(std::span<const long long> coords) const {
  support::require(coords.size() == shape_.size(),
                   "coordinate count does not match the model shape");
  long long index = 0;
  for (std::size_t d = 0; d < shape_.size(); ++d) {
    support::require(coords[d] >= 0 && coords[d] < shape_[d],
                     "coordinate out of range");
    index = index * shape_[d] + coords[d];
  }
  return index;
}

std::vector<long long> ModelInstance::unflatten(long long index) const {
  support::require(index >= 0 && index < size(), "flat index out of range");
  std::vector<long long> coords(shape_.size());
  for (std::size_t d = shape_.size(); d-- > 0;) {
    coords[d] = index % shape_[d];
    index /= shape_[d];
  }
  return coords;
}

std::string ModelInstance::summary() const {
  std::ostringstream os;
  os << "model " << name_ << ": shape (";
  for (std::size_t d = 0; d < shape_.size(); ++d) {
    os << (d ? " x " : "") << shape_[d];
  }
  os << "), " << size() << " abstract processor(s), parent #" << parent_
     << ", scheme " << (scheme_ ? "present" : "absent") << "\n";

  double total_volume = 0.0;
  for (int a = 0; a < size(); ++a) {
    const auto coords = unflatten(a);
    os << "  node #" << a << " [";
    for (std::size_t d = 0; d < coords.size(); ++d) {
      os << (d ? "," : "") << coords[d];
    }
    os << "]: " << volumes_[static_cast<std::size_t>(a)] << " units\n";
    total_volume += volumes_[static_cast<std::size_t>(a)];
  }
  double total_bytes = 0.0;
  for (const auto& [pair, bytes] : links_) {
    os << "  link #" << pair.first << " -> #" << pair.second << ": " << bytes
       << " bytes\n";
    total_bytes += bytes;
  }
  os << "  totals: " << total_volume << " units computed, " << total_bytes
     << " bytes transferred\n";
  return os.str();
}

// --- Model -------------------------------------------------------------------

Model Model::from_source(std::string_view source) {
  std::shared_ptr<ast::Algorithm> algo = parse(source);
  validate(*algo);
  Model m;
  m.ast_ = std::move(algo);
  m.name_ = m.ast_->name;
  m.param_count_ = m.ast_->params.size();
  for (const ast::StructDef& def : m.ast_->structs) {
    m.structs_.push_back(std::make_shared<const StructInfo>(
        StructInfo{def.name, def.fields}));
  }
  return m;
}

Model Model::from_factory(std::string name, std::size_t param_count,
                          Factory factory) {
  support::require(static_cast<bool>(factory), "factory must not be empty");
  Model m;
  m.name_ = std::move(name);
  m.param_count_ = param_count;
  m.factory_ = std::move(factory);
  return m;
}

void Model::register_native(const std::string& name, NativeFn fn) {
  support::require(static_cast<bool>(fn), "native function must not be empty");
  natives_[name] = std::move(fn);
}

namespace {

/// Iterates all coordinate tuples of `extents` in row-major order.
template <typename Fn>
void for_each_tuple(std::span<const long long> extents, Fn&& fn) {
  std::vector<long long> tuple(extents.size(), 0);
  for (;;) {
    fn(std::span<const long long>(tuple));
    std::size_t d = extents.size();
    while (d-- > 0) {
      if (++tuple[d] < extents[d]) break;
      tuple[d] = 0;
      if (d == 0) return;
    }
    if (extents.empty()) return;
  }
}

long long flatten_coords(std::span<const long long> coords,
                         std::span<const long long> shape) {
  long long index = 0;
  for (std::size_t d = 0; d < shape.size(); ++d) index = index * shape[d] + coords[d];
  return index;
}

/// Puts the values of `tuple` into the slots of `vars`.
void bind_tuple(const std::vector<ast::CoordVar>& vars,
                std::span<const long long> tuple, std::span<Value> frame) {
  for (std::size_t d = 0; d < vars.size(); ++d) {
    frame[static_cast<std::size_t>(vars[d].slot)] = Value(tuple[d]);
  }
}

/// The extents that `vars` declare, each positive; multiplies them into
/// `tuples`, which may not exceed kMaxLoopIterations.
std::vector<long long> eval_extents(const std::vector<ast::CoordVar>& vars,
                                    EvalCtx& ctx, const char* what,
                                    long long& tuples) {
  std::vector<long long> extents;
  for (const ast::CoordVar& var : vars) {
    const long long extent = as_int(eval_expr(*var.extent, ctx));
    if (extent <= 0) {
      throw PmdlError(std::string(what) + " '" + var.name +
                          "' has non-positive extent " + std::to_string(extent),
                      var.pos.line, var.pos.column);
    }
    if (__builtin_mul_overflow(tuples, extent, &tuples) ||
        tuples > kMaxLoopIterations) {
      throw PmdlError(std::string(what) + "s span more than " +
                          std::to_string(kMaxLoopIterations) + " tuples",
                      var.pos.line, var.pos.column);
    }
    extents.push_back(extent);
  }
  return extents;
}

}  // namespace

ModelInstance Model::instantiate(std::span<const ParamValue> params) const {
  if (params.size() != param_count_) {
    throw PmdlError("model '" + name_ + "' expects " +
                    std::to_string(param_count_) + " parameters, got " +
                    std::to_string(params.size()));
  }
  if (factory_) return factory_(params);

  const ast::Algorithm& algo = *ast_;

  // One frame for the whole instantiation, laid out by validate(): the
  // parameters first, then the coordinate and link-iterator variables.
  std::vector<Value> frame(static_cast<std::size_t>(algo.frame_size));
  std::vector<NativeFn> natives;
  for (const std::string& name : algo.natives) {
    auto it = natives_.find(name);
    natives.push_back(it == natives_.end() ? NativeFn() : it->second);
  }
  EvalCtx ctx;
  ctx.frame = frame;
  ctx.natives = natives;
  ctx.structs = structs_;

  // Bind parameters. Array dimension expressions may reference earlier
  // parameters (e.g. `int d[p]`).
  for (std::size_t i = 0; i < algo.params.size(); ++i) {
    const ast::Param& decl = algo.params[i];
    Value& slot = frame[static_cast<std::size_t>(decl.slot)];
    if (decl.dims.empty()) {
      const auto* scalar_value = std::get_if<long long>(&params[i]);
      if (scalar_value == nullptr) {
        throw PmdlError("parameter '" + decl.name + "' expects a scalar",
                        decl.pos.line, decl.pos.column);
      }
      slot = Value(*scalar_value);
    } else {
      const auto* array_value = std::get_if<std::vector<long long>>(&params[i]);
      if (array_value == nullptr) {
        throw PmdlError("parameter '" + decl.name + "' expects an array",
                        decl.pos.line, decl.pos.column);
      }
      auto data = std::make_shared<ArrayData>();
      long long expected = 1;
      for (const ast::ExprPtr& dim : decl.dims) {
        const long long extent = as_int(eval_expr(*dim, ctx));
        if (extent <= 0) {
          throw PmdlError("parameter '" + decl.name + "' has non-positive dimension",
                          decl.pos.line, decl.pos.column);
        }
        if (__builtin_mul_overflow(expected, extent, &expected)) {
          throw PmdlError("parameter '" + decl.name + "' has too many elements",
                          decl.pos.line, decl.pos.column);
        }
        data->dims.push_back(extent);
      }
      if (static_cast<long long>(array_value->size()) != expected) {
        throw PmdlError("parameter '" + decl.name + "' expects " +
                            std::to_string(expected) + " elements, got " +
                            std::to_string(array_value->size()),
                        decl.pos.line, decl.pos.column);
      }
      data->data = *array_value;
      slot = Value(ArrayRef{std::move(data), 0, 0});
    }
  }

  ModelInstance instance;
  instance.name_ = name_;

  // Coordinate system.
  long long total = 1;
  instance.shape_ = eval_extents(algo.coords, ctx, "coordinate", total);
  ctx.shape = instance.shape_;

  // Node volumes: first matching clause wins; no match means zero volume.
  instance.volumes_.assign(static_cast<std::size_t>(total), 0.0);
  for_each_tuple(instance.shape_, [&](std::span<const long long> tuple) {
    bind_tuple(algo.coords, tuple, frame);
    for (const ast::NodeClause& clause : algo.node_clauses) {
      if (truthy(eval_expr(*clause.cond, ctx))) {
        const double volume = as_double(eval_expr(*clause.volume, ctx));
        if (volume < 0.0) {
          throw PmdlError("negative node volume", clause.pos.line,
                          clause.pos.column);
        }
        instance.volumes_[static_cast<std::size_t>(
            flatten_coords(tuple, instance.shape_))] = volume;
        break;
      }
    }
  });

  // Links: iterate coordinates x link-iterator variables; a matching clause
  // *defines* the volume for the (src, dst) pair (max on re-definition).
  if (!algo.link_clauses.empty()) {
    long long tuples = total;  // (processor, link iterator) tuples
    const std::vector<long long> iter_extents =
        eval_extents(algo.link_iters, ctx, "link iterator", tuples);
    const std::size_t rank = instance.shape_.size();
    std::vector<long long> endpoints(2 * rank);
    const std::span<const long long> src(endpoints.data(), rank);
    const std::span<const long long> dst(endpoints.data() + rank, rank);
    for_each_tuple(instance.shape_, [&](std::span<const long long> tuple) {
      bind_tuple(algo.coords, tuple, frame);
      for_each_tuple(iter_extents, [&](std::span<const long long> iters) {
        bind_tuple(algo.link_iters, iters, frame);
        for (const ast::LinkClause& clause : algo.link_clauses) {
          if (!truthy(eval_expr(*clause.cond, ctx))) continue;
          eval_coords(clause.src_coords, "link endpoint coordinate",
                      clause.pos, ctx, endpoints.data());
          eval_coords(clause.dst_coords, "link endpoint coordinate",
                      clause.pos, ctx, endpoints.data() + rank);
          const double bytes = as_double(eval_expr(*clause.bytes, ctx));
          if (bytes < 0.0) {
            throw PmdlError("negative link volume", clause.pos.line,
                            clause.pos.column);
          }
          const auto key = std::make_pair(
              static_cast<int>(flatten_coords(src, instance.shape_)),
              static_cast<int>(flatten_coords(dst, instance.shape_)));
          if (key.first != key.second && bytes > 0.0) {
            double& slot = instance.links_[key];
            slot = std::max(slot, bytes);
          }
        }
      });
    });
  }

  // Parent (defaults to the processor at all-zero coordinates).
  if (!algo.parent_coords.empty()) {
    std::vector<long long> coords(algo.parent_coords.size());
    eval_coords(algo.parent_coords, "parent coordinate", algo.pos, ctx,
                coords.data());
    instance.parent_ = static_cast<int>(flatten_coords(coords, instance.shape_));
  }

  // Scheme: replay the AST against the sink on demand. Each replay starts
  // from the parameters as the clauses left them, in a fresh frame (schemes
  // mutate their locals).
  if (algo.scheme) {
    frame.resize(algo.params.size());
    instance.scheme_ = [ast = ast_, params = std::move(frame),
                        natives = std::move(natives), structs = structs_,
                        shape = instance.shape_](ScheduleSink& sink) {
      std::vector<Value> replay(static_cast<std::size_t>(ast->frame_size));
      std::copy(params.begin(), params.end(), replay.begin());
      EvalCtx ctx;
      ctx.frame = replay;
      ctx.natives = natives;
      ctx.structs = structs;
      ctx.sink = &sink;
      ctx.shape = shape;
      exec_stmt(*ast->scheme, ctx);
    };
  }

  return instance;
}

// --- InstanceBuilder ----------------------------------------------------------

InstanceBuilder::InstanceBuilder(std::string name) {
  instance_.name_ = std::move(name);
}

InstanceBuilder& InstanceBuilder::shape(std::vector<long long> dims) {
  support::require(!dims.empty(), "shape needs at least one dimension");
  long long total = 1;
  for (long long d : dims) {
    support::require(d > 0, "shape extents must be positive");
    total *= d;
  }
  instance_.shape_ = std::move(dims);
  instance_.volumes_.assign(static_cast<std::size_t>(total), 0.0);
  shape_set_ = true;
  return *this;
}

InstanceBuilder& InstanceBuilder::node_volume(int index, double units) {
  support::require(shape_set_, "set the shape before node volumes");
  support::require(index >= 0 && index < instance_.size(), "node index out of range");
  support::require(units >= 0.0 && std::isfinite(units),
                   "node volume must be finite and non-negative");
  instance_.volumes_[static_cast<std::size_t>(index)] = units;
  return *this;
}

InstanceBuilder& InstanceBuilder::link(int src, int dst, double bytes) {
  support::require(shape_set_, "set the shape before links");
  support::require(src >= 0 && src < instance_.size() && dst >= 0 &&
                       dst < instance_.size(),
                   "link endpoint out of range");
  support::require(src != dst, "self links are not allowed");
  support::require(bytes >= 0.0 && std::isfinite(bytes),
                   "link volume must be finite and non-negative");
  if (bytes > 0.0) {
    double& slot = instance_.links_[{src, dst}];
    slot = std::max(slot, bytes);
  }
  return *this;
}

InstanceBuilder& InstanceBuilder::parent(int index) {
  support::require(shape_set_, "set the shape before the parent");
  support::require(index >= 0 && index < instance_.size(), "parent index out of range");
  instance_.parent_ = index;
  return *this;
}

InstanceBuilder& InstanceBuilder::scheme(std::function<void(ScheduleSink&)> fn) {
  instance_.scheme_ = std::move(fn);
  return *this;
}

ModelInstance InstanceBuilder::build() {
  support::require(shape_set_, "InstanceBuilder requires a shape");
  return std::move(instance_);
}

}  // namespace hmpi::pmdl
