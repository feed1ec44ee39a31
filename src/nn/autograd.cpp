#include "nn/autograd.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "nn/check.h"
#include "obs/profile.h"

namespace dg::nn {

namespace detail {
thread_local constinit bool g_meta_mode = false;
}

namespace {
thread_local bool g_grad_enabled = true;
thread_local OpObserverGuard::Callback* g_op_observer = nullptr;
thread_local MetaRecorder* g_meta_recorder = nullptr;
}

NoGradGuard::NoGradGuard() : prev_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = prev_; }
bool grad_enabled() { return g_grad_enabled; }

MetaModeGuard::MetaModeGuard(MetaRecorder* recorder)
    : prev_mode_(detail::g_meta_mode), prev_recorder_(g_meta_recorder) {
  detail::g_meta_mode = true;
  g_meta_recorder = recorder;
}

MetaModeGuard::~MetaModeGuard() {
  detail::g_meta_mode = prev_mode_;
  g_meta_recorder = prev_recorder_;
}

bool meta_mode() { return detail::g_meta_mode; }

OpObserverGuard::OpObserverGuard(Callback cb)
    : cb_(std::move(cb)), prev_(g_op_observer) {
  g_op_observer = &cb_;
}

OpObserverGuard::~OpObserverGuard() { g_op_observer = prev_; }

Var::Var(Matrix value, bool requires_grad) {
  n_ = std::make_shared<detail::Node>();
  n_->value = std::move(value);
  n_->requires_grad = requires_grad;
  if (g_meta_recorder != nullptr) {
    g_meta_recorder->on_node(n_.get(), Op::kLeaf, {}, {});
  }
}

const Matrix& Var::value() const {
  if (!n_) throw std::logic_error("Var::value on undefined Var");
  return n_->value;
}

Matrix& Var::mutable_value() {
  if (!n_) throw std::logic_error("Var::mutable_value on undefined Var");
  if (n_->backward) throw std::logic_error("mutable_value on non-leaf Var");
  return n_->value;
}

void Var::set_requires_grad(bool enabled) {
  if (!n_) throw std::logic_error("set_requires_grad on undefined Var");
  if (n_->backward) throw std::logic_error("set_requires_grad on non-leaf Var");
  n_->requires_grad = enabled;
}

Var Var::detach() const { return constant(value()); }

Var Var::grad() const {
  if (!n_ || !n_->grad_slot) return {};
  Var g;
  g.n_ = n_->grad_slot;
  return g;
}

void Var::clear_grad() {
  if (n_) n_->grad_slot.reset();
}

void Var::set_grad(Matrix g) {
  if (!n_) throw std::logic_error("set_grad on undefined Var");
  if (!g.same_shape(n_->value)) {
    throw std::invalid_argument("set_grad: gradient shape mismatch");
  }
  n_->grad_slot = std::make_shared<detail::Node>();
  n_->grad_slot->op = op_def(Op::kGrad).name;
  n_->grad_slot->value = std::move(g);
}

/// Creates an op-result node. If grad mode is off, no parent needs a
/// gradient or the op has no backward rule, the result is a plain constant
/// and the graph edge is dropped.
Var make_op(const OpDef& row, Matrix value, std::vector<Var> parents,
            BackwardRule backward, const OpAttrs& attrs) {
  const bool meta = detail::g_meta_mode;
  const char* const op = row.name;
#ifdef DG_OBS_ENABLED
  // Op boundary for the profiler: by the time make_op runs, the op's forward
  // value has materialized, so this call closes the op's wall-time interval
  // on this thread (see obs/profile.h). Must run before `value`/`parents`
  // are moved into the node.
  if (!meta && obs::Profiler::enabled()) {
    Dims dims[8];
    std::size_t np = 0;
    for (const Var& p : parents) {
      if (np == 8) break;
      if (p.defined()) dims[np++] = {p.value().rows(), p.value().cols()};
    }
    const std::span<const Dims> in(dims, np);
    const Dims out{value.rows(), value.cols()};
    obs::Profiler::note_op(op, row.flops(in, out), op_bytes(in, out));
  }
#endif
  if (!meta && g_op_observer != nullptr) {
    (*g_op_observer)(op, value.rows(), value.cols());
  }
  bool needs = false;
  if (g_grad_enabled && backward) {
    for (const Var& p : parents) needs = needs || p.requires_grad();
  }
  Var out;
  out.n_ = std::make_shared<detail::Node>();
  out.n_->value = std::move(value);
  out.n_->requires_grad = needs;
  out.n_->op = op;
  if (g_meta_recorder != nullptr) {
    g_meta_recorder->on_node(out.n_.get(), row.op, parents, attrs);
  }
  if (needs) {
    out.n_->parents = std::move(parents);
    out.n_->backward = std::move(backward);
  }
  if (!meta && anomaly_enabled()) detail::anomaly_check_forward(out.n_.get());
  return out;
}

Var constant(Matrix m) {
  return make_op(op_def(Op::kConstant), std::move(m), {}, nullptr);
}
Var ones(int rows, int cols) { return constant(Matrix(rows, cols, 1.0f)); }
Var zeros(int rows, int cols) { return constant(Matrix(rows, cols, 0.0f)); }

// ---------------------------------------------------------------- backward

namespace {

/// Iterative post-order topological sort over the requires_grad subgraph.
std::vector<detail::Node*> topo_order(detail::Node* root) {
  std::vector<detail::Node*> order;
  std::unordered_set<detail::Node*> visited;
  struct Frame {
    detail::Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (root->requires_grad) stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      detail::Node* p = f.node->parents[f.next_parent++].node();
      if (p && p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.push_back({p, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
  return order;  // children appear after parents when reversed
}

/// The nodes whose gradient a backward pass reads. Var::backward requests
/// every leaf, so there that is every node that requires grad.
/// autograd::grad requests only its inputs: a node is needed if it is one
/// of them or one is reachable from it through parents. The set is local to
/// the pass (two threads may back-propagate through shared leaves), and a
/// lookup is a binary search over the pass's nodes, so it allocates nothing
/// per node.
class NeededSet {
 public:
  /// Every node that requires grad.
  NeededSet() = default;

  /// The nodes of `order` (post-order, parents first) from which an input
  /// is reachable: one forward sweep sees every parent before its child.
  NeededSet(const std::vector<detail::Node*>& order,
            std::span<const Var> inputs)
      : all_(false), nodes_(order) {
    std::sort(nodes_.begin(), nodes_.end(), std::less<>{});
    flags_.assign(nodes_.size(), false);
    for (detail::Node* n : order) {
      bool need = std::any_of(inputs.begin(), inputs.end(),
                              [n](const Var& in) { return in.node() == n; });
      for (const Var& p : n->parents) need = need || contains(p.node());
      flags_[index(n)] = need;
    }
  }

  bool contains(const detail::Node* n) const {
    if (n == nullptr || !n->requires_grad) return false;
    if (all_) return true;
    const std::size_t i = index(n);
    return i < nodes_.size() && flags_[i];
  }

 private:
  /// Position of `n` in nodes_, or nodes_.size() when absent.
  std::size_t index(const detail::Node* n) const {
    const auto it =
        std::lower_bound(nodes_.begin(), nodes_.end(), n, std::less<>{});
    return it != nodes_.end() && *it == n
               ? static_cast<std::size_t>(it - nodes_.begin())
               : nodes_.size();
  }

  bool all_ = true;
  std::vector<detail::Node*> nodes_;  // the pass's nodes, by address
  std::vector<bool> flags_;           // aligned with nodes_
};

/// Runs reverse-mode accumulation towards `inputs` (every leaf when
/// absent); returns the node->grad map of the needed nodes.
std::unordered_map<detail::Node*, Var> run_backward(
    const Var& out, bool create_graph,
    std::optional<std::span<const Var>> inputs) {
  if (!out.defined()) throw std::logic_error("backward on undefined Var");
  if (out.value().rows() != 1 || out.value().cols() != 1) {
    throw std::invalid_argument("backward requires a scalar (1x1) output");
  }
  std::unordered_map<detail::Node*, Var> grads;
  if (!out.requires_grad()) return grads;

  MetaRecorder* const recorder = g_meta_recorder;
  const bool checking = !detail::g_meta_mode && anomaly_enabled();
  if (checking) detail::anomaly_count_backward_run();

  auto order = topo_order(out.node());
  const NeededSet needed = inputs ? NeededSet(order, *inputs) : NeededSet();
  grads[out.node()] = constant(Matrix(1, 1, 1.0f));

  // One flag buffer for the whole pass, as wide as the widest node.
  std::size_t widest = 0;
  for (const detail::Node* n : order) {
    widest = std::max(widest, n->parents.size());
  }
  const auto needs = std::make_unique<bool[]>(widest);

  std::unique_ptr<NoGradGuard> guard;
  if (!create_graph) guard = std::make_unique<NoGradGuard>();

  // order is post-order (parents before children); walk it backwards so each
  // node's gradient is complete before its backward rule fires.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    detail::Node* node = *it;
    auto git = grads.find(node);
    if (git == grads.end() || !node->backward) continue;
    const std::size_t np = node->parents.size();
    bool any = false;
    for (size_t i = 0; i < np; ++i) {
      needs[i] = needed.contains(node->parents[i].node());
      any = any || needs[i];
    }
    if (!any) continue;  // nothing below this node is read
    const Var gout = git->second;
    std::vector<Var> pgrads;
    {
      detail::BackwardContext ctx(node->op);
      pgrads = node->backward(gout, std::span<const bool>(needs.get(), np));
    }
    if (recorder != nullptr) {
      recorder->on_backward(node, gout, create_graph, pgrads);
    }
    if (pgrads.size() != np) {
      throw std::logic_error(std::string("backward rule of '") + node->op +
                             "' returned wrong arity");
    }
    for (size_t i = 0; i < np; ++i) {
      const Var& parent = node->parents[i];
      if (!needs[i] || !pgrads[i].defined()) continue;
      if (checking) {
        detail::anomaly_check_backward_grad(node, i, parent.node(),
                                            pgrads[i].node());
      }
      if (!pgrads[i].value().same_shape(parent.value())) {
        throw std::logic_error(std::string("gradient shape mismatch in "
                                           "backward rule of '") +
                               node->op + "'");
      }
      auto [slot, inserted] = grads.try_emplace(parent.node(), pgrads[i]);
      if (!inserted) {
        slot->second = add(slot->second, pgrads[i]);
        if (recorder != nullptr) recorder->on_accumulate(slot->second.node());
      }
    }
  }
  if (checking) detail::anomaly_audit_tape(order);
  return grads;
}

}  // namespace

void Var::backward(bool create_graph) const {
  auto grads = run_backward(*this, create_graph, std::nullopt);
  MetaRecorder* const recorder = g_meta_recorder;
  const bool checking = !detail::g_meta_mode && anomaly_enabled();
  for (auto& [node, g] : grads) {
    if (node->backward) continue;  // only leaves keep grads
    if (!node->grad_slot) {
      node->grad_slot = std::make_shared<detail::Node>();
      node->grad_slot->op = op_def(Op::kGrad).name;
      node->grad_slot->value = g.value();
    } else {
      if (checking) detail::anomaly_note_stale_grad(node);
      node->grad_slot->value = dg::nn::add(node->grad_slot->value, g.value());
    }
    if (recorder != nullptr) recorder->on_grad_slot(node);
  }
}

namespace autograd {
std::vector<Var> grad(const Var& out, std::span<const Var> inputs,
                      bool create_graph) {
  auto grads = run_backward(out, create_graph, inputs);
  std::vector<Var> result;
  result.reserve(inputs.size());
  for (const Var& in : inputs) {
    auto it = grads.find(in.node());
    result.push_back(it == grads.end() ? Var{} : it->second);
  }
  return result;
}
}  // namespace autograd

// ---------------------------------------------------------------- ops

namespace {
/// A rule's per-parent flags (see BackwardRule). Single-parent rules take
/// them unnamed: the engine runs a rule only when a parent is flagged.
using Needs = std::span<const bool>;

/// An elementwise op of one parent: its forward of a's value, with its
/// backward rule.
Var unary(Op op, const Var& a, BackwardRule rule) {
  const Matrix& v = a.value();
  return make_op(op_def(op), run_op(op, {&v}, {v.rows(), v.cols()}), {a},
                 std::move(rule));
}
}  // namespace

Var add(const Var& a, const Var& b) {
  return make_op(op_def(Op::kAdd), dg::nn::add(a.value(), b.value()), {a, b},
                 [](const Var& g, Needs) { return std::vector<Var>{g, g}; });
}

Var sub(const Var& a, const Var& b) {
  return make_op(op_def(Op::kSub), dg::nn::sub(a.value(), b.value()), {a, b},
                 [](const Var& g, Needs needs) {
                   return std::vector<Var>{g, needs[1] ? neg(g) : Var{}};
                 });
}

Var neg(const Var& a) {
  return unary(Op::kNeg, a,
               [](const Var& g, Needs) { return std::vector<Var>{neg(g)}; });
}

Var mul(const Var& a, const Var& b) {
  return make_op(op_def(Op::kMul), dg::nn::mul(a.value(), b.value()), {a, b},
                 [a, b](const Var& g, Needs needs) {
                   return std::vector<Var>{needs[0] ? mul(g, b) : Var{},
                                           needs[1] ? mul(g, a) : Var{}};
                 });
}

Var div(const Var& a, const Var& b) {
  return make_op(op_def(Op::kDiv), dg::nn::div(a.value(), b.value()), {a, b},
                 [a, b](const Var& g, Needs needs) {
                   Var da = needs[0] ? div(g, b) : Var{};
                   Var db = needs[1] ? neg(div(mul(g, a), mul(b, b))) : Var{};
                   return std::vector<Var>{da, db};
                 });
}

Var add_scalar(const Var& a, float s) {
  return make_op(op_def(Op::kAddScalar), dg::nn::add_scalar(a.value(), s), {a},
                 [](const Var& g, Needs) { return std::vector<Var>{g}; },
                 {.scalar = s});
}

Var mul_scalar(const Var& a, float s) {
  return make_op(op_def(Op::kMulScalar), dg::nn::mul_scalar(a.value(), s), {a},
                 [s](const Var& g, Needs) {
                   return std::vector<Var>{mul_scalar(g, s)};
                 },
                 {.scalar = s});
}

// The products' rules read the transposed operand in place: g·bᵀ is
// matmul_nt(g, b) and aᵀ·g is matmul_tn(a, g), whose kernels give the bytes
// of matmul(g, transpose(b)) and matmul(transpose(a), g). The rules of
// matmul_nt and matmul_tn are those compositions' rules written out, so a
// second-order pass (the gradient penalty) builds the same products at the
// same points of the walk. They keep one transpose: b's gradient of a·bᵀ is
// (aᵀ·G)ᵀ, because matmul_tn(G, a) would skip on G's zeros rather than a's
// and multiply G·a, which differs on ±0, infinite and NaN operands.

Var matmul(const Var& a, const Var& b) {
  return make_op(op_def(Op::kMatmul), dg::nn::matmul(a.value(), b.value()), {a, b},
                 [a, b](const Var& g, Needs needs) {
                   Var da = needs[0] ? matmul_nt(g, b) : Var{};
                   Var db = needs[1] ? matmul_tn(a, g) : Var{};
                   return std::vector<Var>{da, db};
                 });
}

Var matmul_nt(const Var& a, const Var& b) {
  return make_op(op_def(Op::kMatmulNT),
                 dg::nn::matmul_nt(a.value(), b.value()), {a, b},
                 [a, b](const Var& g, Needs needs) {
                   Var da = needs[0] ? matmul(g, b) : Var{};
                   Var db = needs[1] ? transpose(matmul_tn(a, g)) : Var{};
                   return std::vector<Var>{da, db};
                 });
}

Var matmul_tn(const Var& a, const Var& b) {
  return make_op(op_def(Op::kMatmulTN),
                 dg::nn::matmul_tn(a.value(), b.value()), {a, b},
                 [a, b](const Var& g, Needs needs) {
                   Var da = needs[0] ? transpose(matmul_nt(g, b)) : Var{};
                   Var db = needs[1] ? matmul(a, g) : Var{};
                   return std::vector<Var>{da, db};
                 });
}

Var transpose(const Var& a) {
  return make_op(op_def(Op::kTranspose), dg::nn::transpose(a.value()), {a},
                 [](const Var& g, Needs) {
                   return std::vector<Var>{transpose(g)};
                 });
}

Var affine(const Var& x, const Var& w, const Var& b) {
  // Backward is expressed in public ops, so the rule stays differentiable
  // (second-order WGAN-GP flows through the critic's affine layers).
  return make_op(op_def(Op::kAffine),
                 dg::nn::affine(x.value(), w.value(), b.value()), {x, w, b},
                 [x, w](const Var& g, Needs needs) {
                   return std::vector<Var>{needs[0] ? matmul_nt(g, w) : Var{},
                                           needs[1] ? matmul_tn(x, g) : Var{},
                                           needs[2] ? col_sum(g) : Var{}};
                 });
}

Var lstm_gates(const Var& x, const Var& wx, const Var& h, const Var& wh,
               const Var& b) {
  return make_op(
      op_def(Op::kLstmGates),
      dg::nn::lstm_gates(x.value(), wx.value(), h.value(), wh.value(),
                         b.value()),
      {x, wx, h, wh, b}, [x, wx, h, wh](const Var& g, Needs needs) {
        return std::vector<Var>{needs[0] ? matmul_nt(g, wx) : Var{},
                                needs[1] ? matmul_tn(x, g) : Var{},
                                needs[2] ? matmul_nt(g, wh) : Var{},
                                needs[3] ? matmul_tn(h, g) : Var{},
                                needs[4] ? col_sum(g) : Var{}};
      });
}

Var add_rowvec(const Var& x, const Var& b) {
  return make_op(op_def(Op::kAddRowvec),
                 dg::nn::add_rowvec(x.value(), b.value()), {x, b},
                 [](const Var& g, Needs needs) {
                   return std::vector<Var>{g, needs[1] ? col_sum(g) : Var{}};
                 });
}

Var add_colvec(const Var& x, const Var& v) {
  return make_op(op_def(Op::kAddColvec),
                 dg::nn::add_colvec(x.value(), v.value()), {x, v},
                 [](const Var& g, Needs needs) {
                   return std::vector<Var>{g, needs[1] ? row_sum(g) : Var{}};
                 });
}

Var mul_colvec(const Var& x, const Var& v) {
  return make_op(op_def(Op::kMulColvec),
                 dg::nn::mul_colvec(x.value(), v.value()), {x, v},
                 [x, v](const Var& g, Needs needs) {
                   Var dx = needs[0] ? mul_colvec(g, v) : Var{};
                   Var dv = needs[1] ? row_sum(mul(g, x)) : Var{};
                   return std::vector<Var>{dx, dv};
                 });
}

Var mul_rowvec(const Var& x, const Var& m) {
  return make_op(op_def(Op::kMulRowvec),
                 dg::nn::mul_rowvec(x.value(), m.value()), {x, m},
                 [x, m](const Var& g, Needs needs) {
                   Var dx = needs[0] ? mul_rowvec(g, m) : Var{};
                   Var dm = needs[1] ? col_sum(mul(g, x)) : Var{};
                   return std::vector<Var>{dx, dm};
                 });
}

Var broadcast_scalar(const Var& s, int rows, int cols) {
  if (s.rows() != 1 || s.cols() != 1) {
    throw std::invalid_argument("broadcast_scalar: input must be 1x1");
  }
  return make_op(op_def(Op::kBroadcastScalar),
                 run_op(Op::kBroadcastScalar, {&s.value()}, {rows, cols}), {s},
                 [](const Var& g, Needs) { return std::vector<Var>{sum(g)}; });
}

Var row_sum(const Var& a) {
  const int n = a.rows(), d = a.cols();
  return make_op(op_def(Op::kRowSum), dg::nn::row_sum(a.value()), {a},
                 [n, d](const Var& g, Needs) {
                   return std::vector<Var>{mul_colvec(ones(n, d), g)};
                 });
}

Var col_sum(const Var& a) {
  const int n = a.rows(), d = a.cols();
  return make_op(op_def(Op::kColSum), dg::nn::col_sum(a.value()), {a},
                 [n, d](const Var& g, Needs) {
                   return std::vector<Var>{add_rowvec(zeros(n, d), g)};
                 });
}

Var sum(const Var& a) {
  const int n = a.rows(), d = a.cols();
  return make_op(op_def(Op::kSum), run_op(Op::kSum, {&a.value()}, {1, 1}), {a},
                 [n, d](const Var& g, Needs) {
                   return std::vector<Var>{broadcast_scalar(g, n, d)};
                 });
}

Var mean(const Var& a) {
  const float inv =
      1.0f / static_cast<float>(static_cast<std::size_t>(a.rows()) * a.cols());
  return mul_scalar(sum(a), inv);
}

Var neg_row_max(const Var& a) {
  return make_op(op_def(Op::kNegRowMax), dg::nn::neg_row_max(a.value()), {a},
                 nullptr);
}

Var relu(const Var& a) {
  // The mask is locally constant, so it is correct to treat it as data.
  return unary(Op::kRelu, a, [a](const Var& g, Needs) {
    return std::vector<Var>{
        mul(g, constant(map_ew(simd::EwFn::kStep, a.value())))};
  });
}

Var tanh_(const Var& a) {
  // Recompute tanh(a) in the backward pass instead of capturing the output
  // Var (which would create a shared_ptr cycle node->backward->node).
  return unary(Op::kTanh, a, [a](const Var& g, Needs) {
    Var y = tanh_(a);
    return std::vector<Var>{mul(g, add_scalar(neg(square(y)), 1.0f))};
  });
}

Var sigmoid(const Var& a) {
  return unary(Op::kSigmoid, a, [a](const Var& g, Needs) {
    Var s = sigmoid(a);
    return std::vector<Var>{mul(g, mul(s, add_scalar(neg(s), 1.0f)))};
  });
}

Var exp_(const Var& a) {
  return unary(Op::kExp, a, [a](const Var& g, Needs) {
    return std::vector<Var>{mul(g, exp_(a))};
  });
}

Var log_(const Var& a) {
  return unary(Op::kLog, a, [a](const Var& g, Needs) {
    return std::vector<Var>{div(g, a)};
  });
}

Var sqrt_(const Var& a) {
  return unary(Op::kSqrt, a, [a](const Var& g, Needs) {
    return std::vector<Var>{mul_scalar(div(g, sqrt_(a)), 0.5f)};
  });
}

Var square(const Var& a) {
  return unary(Op::kSquare, a, [a](const Var& g, Needs) {
    return std::vector<Var>{mul_scalar(mul(g, a), 2.0f)};
  });
}

Var abs_(const Var& a) {
  return unary(Op::kAbs, a, [a](const Var& g, Needs) {
    return std::vector<Var>{
        mul(g, constant(map_ew(simd::EwFn::kSign, a.value())))};
  });
}

Var recip(const Var& a) {
  // d(1/a) = -g / (a * a): the quotient rule's divisor term for a numerator
  // of ones (g * 1 == g), in the same op order, so its bytes match the ones
  // div(ones, a) backpropagates.
  return unary(Op::kRecip, a, [a](const Var& g, Needs) {
    return std::vector<Var>{neg(div(g, mul(a, a)))};
  });
}

namespace {
/// concat_cols (by_cols) or concat_rows: the parts joined along one axis;
/// the backward slices each needed part's span of the gradient back out.
Var concat(std::span<const Var> parts, bool by_cols) {
  std::vector<const Matrix*> mats;
  std::vector<Var> parents(parts.begin(), parts.end());
  std::vector<int> extents;
  for (const Var& p : parts) {
    mats.push_back(&p.value());
    extents.push_back(by_cols ? p.cols() : p.rows());
  }
  return make_op(
      op_def(by_cols ? Op::kConcatCols : Op::kConcatRows),
      by_cols ? dg::nn::concat_cols(mats) : dg::nn::concat_rows(mats),
      std::move(parents), [extents, by_cols](const Var& g, Needs needs) {
        std::vector<Var> out;
        int off = 0;
        for (size_t i = 0; i < extents.size(); ++i) {
          const int end = off + extents[i];
          out.push_back(!needs[i] ? Var{}
                        : by_cols ? slice_cols(g, off, end)
                                  : slice_rows(g, off, end));
          off = end;
        }
        return out;
      });
}
}  // namespace

Var concat_cols(std::span<const Var> parts) { return concat(parts, true); }

Var concat_rows(std::span<const Var> parts) { return concat(parts, false); }

Var slice_cols(const Var& a, int c0, int c1) {
  const int total = a.cols();
  return make_op(op_def(Op::kSliceCols), dg::nn::slice_cols(a.value(), c0, c1), {a},
                 [c0, c1, total](const Var& g, Needs) {
                   return std::vector<Var>{pad_cols(g, c0, total - c1)};
                 },
                 {.i0 = c0, .i1 = c1});
}

Var slice_rows(const Var& a, int r0, int r1) {
  const int total = a.rows();
  return make_op(op_def(Op::kSliceRows), dg::nn::slice_rows(a.value(), r0, r1), {a},
                 [r0, r1, total](const Var& g, Needs) {
                   return std::vector<Var>{pad_rows(g, r0, total - r1)};
                 },
                 {.i0 = r0, .i1 = r1});
}

Var pad_cols(const Var& a, int left, int right) {
  const int c0 = left, c1 = left + a.cols();
  const OpAttrs attrs{.i0 = left, .i1 = right};
  return make_op(
      op_def(Op::kPadCols),
      run_op(Op::kPadCols, {&a.value()}, {a.rows(), c1 + right}, attrs), {a},
      [c0, c1](const Var& g, Needs) {
        return std::vector<Var>{slice_cols(g, c0, c1)};
      },
      attrs);
}

Var pad_rows(const Var& a, int top, int bottom) {
  const int r0 = top, r1 = top + a.rows();
  const OpAttrs attrs{.i0 = top, .i1 = bottom};
  return make_op(
      op_def(Op::kPadRows),
      run_op(Op::kPadRows, {&a.value()}, {r1 + bottom, a.cols()}, attrs), {a},
      [r0, r1](const Var& g, Needs) {
        return std::vector<Var>{slice_rows(g, r0, r1)};
      },
      attrs);
}

Var softmax_rows(const Var& a) {
  // Shift by the (constant) row max for numerical stability; the shift does
  // not change the softmax value or its gradient. These six ops are the
  // generation tape's micro-ops one for one, so tape replay stays
  // bit-identical to this forward on every tier.
  Var e = exp_(add_colvec(a, neg_row_max(a)));
  return mul_colvec(e, recip(row_sum(e)));
}

Var row_l2_norm(const Var& a, float eps) {
  return sqrt_(add_scalar(row_sum(square(a)), eps));
}

}  // namespace dg::nn
