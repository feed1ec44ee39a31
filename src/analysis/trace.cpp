#include "analysis/trace.h"

#include <atomic>
#include <exception>

namespace dg::analysis {

namespace {

Dim dim_of(int extent) {
  return extent == kMetaBatch ? Dim::sym("B") : Dim::of(extent);
}

/// Whether a rule-derived dim describes a kernel's concrete extent. Derived
/// symbols ("B+5") are not evaluated and pass.
bool agrees(const Dim& d, int extent) {
  if (d.concrete()) return d.value == extent;
  return d.name != "B" || extent == kMetaBatch;
}

}  // namespace

Trace::Trace(SymGraph& graph, std::set<std::string>* dedup)
    : g_(graph), dedup_(dedup != nullptr ? *dedup : local_dedup_) {
  static std::atomic<std::uint64_t> next_id{0};
  id_ = ++next_id;
}

void Trace::tag(const nn::detail::Node* node, const SymNode* n) const {
  node->meta_tag = n;
  node->meta_trace = id_;
}

Shape Trace::shape_of(const nn::Matrix& m) const {
  return {dim_of(m.rows()), dim_of(m.cols())};
}

void Trace::bind_params(
    std::span<const std::pair<std::string, nn::Var>> named) {
  for (size_t i = 0; i < named.size(); ++i) {
    const nn::Var& p = named[i].second;
    const SymNode* n =
        g_.param(named[i].first, shape_of(p.value()), static_cast<int>(i));
    tag(p.node(), n);
    params_.push_back(n);
  }
}

void Trace::run(const std::function<void()>& fn) {
  try {
    nn::MetaModeGuard meta(this);
    fn();
  } catch (const std::exception& e) {
    backward_ok_ = false;
    if (dedup_.empty() && !has_errors(g_.diagnostics())) {
      g_.diagnostics().push_back(
          {Severity::kError, "trace-error",
           std::string("the traced model code threw: ") + e.what(), "trace",
           {}});
    }
    dedup_.insert("trace-error");
  }
}

const SymNode* Trace::node(const nn::Var& v) const {
  const nn::detail::Node* n = v.node();
  return n != nullptr && n->meta_trace == id_
             ? static_cast<const SymNode*>(n->meta_tag)
             : nullptr;
}

const SymNode* Trace::lookup(const nn::detail::Node* node) {
  if (node->meta_trace == id_) {
    return static_cast<const SymNode*>(node->meta_tag);
  }
  // A node this trace did not see created (e.g. a constant built before it
  // began) is a leaf of this graph: a parameter if gradients flow into it,
  // an input otherwise.
  const Shape s = shape_of(node->value);
  const SymNode* n =
      node->requires_grad ? g_.param("", s) : g_.input("", s);
  tag(node, n);
  return n;
}

void Trace::emit(const std::string& key, Diagnostic d) {
  if (dedup_.insert(key).second) g_.diagnostics().push_back(std::move(d));
}

void Trace::on_node(const nn::detail::Node* node, Op op,
                    std::span<const nn::Var> parents,
                    const OpAttrs& call_attrs) {
  const Shape out = shape_of(node->value);
  if (op == Op::kLeaf) {
    tag(node, g_.param("", out));
    return;
  }
  std::vector<const SymNode*>& ps = parents_;
  ps.clear();
  for (const nn::Var& p : parents) ps.push_back(lookup(p.node()));
  OpAttrs attrs = call_attrs;
  attrs.rows = out.rows;
  attrs.cols = out.cols;
  const SymNode* n = g_.apply(op, ps, attrs);
  tag(node, n);
  // The registry's rule and the kernel that really ran must agree: drift
  // between the two is a registry bug the analyzer would otherwise hide.
  if (!n->poisoned && (!agrees(n->shape.rows, node->value.rows()) ||
                       !agrees(n->shape.cols, node->value.cols()))) {
    const std::string name = nn::op_def(op).name;
    emit("shape-rule:" + name,
         {Severity::kError, "shape-mismatch",
          "registry shape rule gives " + n->shape.str() +
              "; the kernel produced " + out.str(),
          name, SymGraph::path(n)});
  }
}

void Trace::on_backward(const nn::detail::Node* node, const nn::Var& gout,
                        bool create_graph, std::vector<nn::Var>& grads) {
  const SymNode* n = lookup(node);
  const OpInfo& info = g_.registry()[n->op];
  if (create_graph && info.diff == DiffClass::kFirstOrderOnly) {
    backward_ok_ = false;
    emit(std::string("no-double-backward:") + info.name,
         {Severity::kError, "no-double-backward",
          "op is first-order only but this backward pass runs with "
          "create_graph=true: WGAN-GP's gradient penalty differentiates "
          "through its gradient",
          info.name, SymGraph::path(n)});
  }
  if (info.fault) info.fault(grads, gout);
  for (size_t i = 0; i < grads.size() && i < node->parents.size(); ++i) {
    const nn::Var& parent = node->parents[i];
    if (!grads[i].defined() || !parent.requires_grad() ||
        grads[i].value().same_shape(parent.value())) {
      continue;
    }
    backward_ok_ = false;
    emit(std::string("adjoint-shape:") + info.name,
         {Severity::kError, "adjoint-shape",
          "adjoint produced a " + shape_of(grads[i].value()).str() +
              " gradient for parent " + std::to_string(i) + " of shape " +
              shape_of(parent.value()).str(),
          info.name, SymGraph::path(n)});
    grads[i] = nn::Var();
  }
}

void Trace::on_accumulate(const nn::detail::Node* sum) {
  adds_.push_back(lookup(sum));
}

void Trace::on_grad_slot(const nn::detail::Node* leaf) {
  slots_.push_back(lookup(leaf));
}

}  // namespace dg::analysis
