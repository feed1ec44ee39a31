// Reverse-mode automatic differentiation on a dynamically built graph.
//
// The one unusual requirement (inherited from the paper) is the WGAN-GP
// gradient penalty, which differentiates *through a gradient*. Every op's
// backward rule is therefore expressed in terms of the same public op set:
// when backward runs with create_graph=true the computed gradients are
// themselves differentiable graph nodes, so second-order gradients come out
// of the same machinery. When create_graph=false a NoGradGuard suppresses
// graph construction during backward, keeping first-order training cheap.
//
// The same engine also runs under a MetaModeGuard: matrices are then
// shape-only, no kernel does arithmetic, and every node the real code
// creates (forward ops, backward-rule ops, gradient accumulations, grad-slot
// writes) is reported to a MetaRecorder instead. The static analyzer
// (analysis/trace.h) traces the real model code this way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "nn/matrix.h"
#include "nn/ops.h"

namespace dg::nn {

class Var;

/// A backward rule: maps a node's output-gradient to one gradient per
/// parent, aligned with its parents. `needs[i]` says whether the running
/// backward pass reads parent i's gradient: false for a constant, a frozen
/// leaf, or (under autograd::grad) a parent from which no requested input
/// is reachable. A rule builds no op for an unflagged parent: it returns an
/// undefined Var there (or the output-gradient itself, which costs
/// nothing), and the engine drops whatever it returns for that parent. A
/// flagged gradient is built by the same ops in the same order whatever the
/// other flags say, so the flags change which nodes exist, never the bytes
/// of a gradient that is read.
using BackwardRule = std::function<std::vector<Var>(
    const Var& gout, std::span<const bool> needs)>;

namespace detail {
struct Node {
  Node();
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Matrix value;
  bool requires_grad = false;
  /// Name of the op row that produced this node ("leaf" for user-created
  /// Vars, "constant" for constants). Static strings only, and for messages
  /// only: the anomaly checker's attribution (nn/check.h) and the engine's
  /// errors. The analyzer receives the row's Op (MetaRecorder::on_node).
  const char* op = "leaf";
  std::vector<Var> parents;
  /// This node's backward rule (an undefined Var in its result means "no
  /// gradient for this parent"); empty for leaves and constants.
  BackwardRule backward;
  /// Accumulated gradient for leaf nodes, populated by backward().
  std::shared_ptr<Node> grad_slot;
  /// Meta mode only: a MetaRecorder's handle for this node, meaningful
  /// while `meta_trace` holds that recorder's trace id.
  mutable const void* meta_tag = nullptr;
  mutable std::uint64_t meta_trace = 0;
};

/// Number of Node objects currently alive in the process. The tape is pure
/// shared_ptr ownership, so after all Vars referencing a graph go out of
/// scope this must return to its prior value — the anomaly checker's
/// tape-leak audit is built on this invariant.
std::size_t live_node_count();
}  // namespace detail

/// Value-semantic handle to a graph node. Copies share the node.
class Var {
 public:
  Var() = default;
  explicit Var(Matrix value, bool requires_grad = false);

  bool defined() const { return n_ != nullptr; }
  const Matrix& value() const;
  /// In-place access for optimizers. Must only be used on leaves.
  Matrix& mutable_value();

  bool requires_grad() const { return n_ && n_->requires_grad; }
  bool is_leaf() const { return n_ && !n_->backward; }

  /// Toggles gradient tracking. Leaves only (used to freeze modules so an
  /// unrelated optimizer's backward pass cannot pollute their grad slots).
  void set_requires_grad(bool enabled);

  int rows() const { return value().rows(); }
  int cols() const { return value().cols(); }

  /// Same value, cut off from the graph (never requires grad).
  Var detach() const;

  /// Gradient accumulated by the last backward() call(s); undefined if none.
  Var grad() const;
  void clear_grad();
  /// Replaces the grad() slot with `g` (same shape as the value): for
  /// gradients computed outside backward(), such as DP-SGD's noised average.
  void set_grad(Matrix g);

  /// Backpropagates from this scalar (1x1) Var, accumulating gradients into
  /// the grad() slot of every reachable leaf that requires grad.
  void backward(bool create_graph = false) const;

  detail::Node* node() const { return n_.get(); }

 private:
  friend Var make_op(const OpDef& row, Matrix value,
                     std::vector<Var> parents, BackwardRule backward,
                     const OpAttrs& attrs);
  std::shared_ptr<detail::Node> n_;
};

/// The extension point every op below is built on: wraps `value` in a graph
/// node named after its op's row (nn/ops.h) whose backward rule maps the
/// output-gradient to per-parent gradients, building only those its `needs`
/// flags ask for (see BackwardRule), and reports its call-site `attrs` to a
/// MetaRecorder. If grad mode is off, no parent requires grad, or the op
/// has no backward rule (nullptr), parents and the rule are dropped and the
/// result is a constant.
Var make_op(const OpDef& row, Matrix value, std::vector<Var> parents,
            BackwardRule backward, const OpAttrs& attrs = kNoAttrs);

/// RAII: installs a thread-local observer notified of every op node this
/// thread records (op name + result dims), nested-guard safe; silent under
/// meta mode. The differential tests in tests/analysis use this to capture
/// the real executor's op stream and compare it against the analyzer's
/// meta-mode trace of the same code.
class OpObserverGuard {
 public:
  using Callback = std::function<void(const char* op, int rows, int cols)>;
  explicit OpObserverGuard(Callback cb);
  ~OpObserverGuard();
  OpObserverGuard(const OpObserverGuard&) = delete;
  OpObserverGuard& operator=(const OpObserverGuard&) = delete;

 private:
  Callback cb_;
  Callback* prev_;
};

/// Receives the graph a MetaModeGuard'd thread builds. Implemented by the
/// static analyzer (analysis/trace.h); the engine only reports to it.
class MetaRecorder {
 public:
  virtual ~MetaRecorder() = default;
  /// A node came into existence: an op result from make_op (its row's op,
  /// parents and attributes, reported before a no-grad op drops them) or
  /// a leaf from the Var constructor (Op::kLeaf, no parents).
  virtual void on_node(const detail::Node* node, Op op,
                       std::span<const Var> parents,
                       const OpAttrs& attrs) = 0;
  /// The backward pass reached `node` with output gradient `gout`, and the
  /// op's real backward rule returned `grads` (one per parent, undefined
  /// for each parent the pass does not read; see BackwardRule). The
  /// recorder may rewrite or drop entries before the engine accumulates
  /// them; in particular it drops any gradient whose shape disagrees with
  /// its parent's, which the engine would otherwise throw on.
  virtual void on_backward(const detail::Node* node, const Var& gout,
                           bool create_graph, std::vector<Var>& grads) = 0;
  /// `sum` merged a second gradient contribution into an existing entry of
  /// the backward pass's gradient map.
  virtual void on_accumulate(const detail::Node* sum) = 0;
  /// Var::backward wrote the grad() slot of `leaf`.
  virtual void on_grad_slot(const detail::Node* leaf) = 0;
};

/// RAII: meta mode for this thread (nested-guard safe). Matrices created
/// meanwhile are shape-only (nn/matrix.h), kernels skip their arithmetic,
/// RNG matrix draws consume nothing, and the profiler, op observers and
/// anomaly checks stay silent. With a recorder, every node is reported to
/// it; without one (e.g. while constructing a model whose weights should
/// cost nothing) nodes are only shaped.
class MetaModeGuard {
 public:
  explicit MetaModeGuard(MetaRecorder* recorder = nullptr);
  ~MetaModeGuard();
  MetaModeGuard(const MetaModeGuard&) = delete;
  MetaModeGuard& operator=(const MetaModeGuard&) = delete;

 private:
  bool prev_mode_;
  MetaRecorder* prev_recorder_;
};

bool meta_mode();

/// RAII guard disabling graph construction (like torch.no_grad()).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

bool grad_enabled();

// ---- graph construction ----

Var constant(Matrix m);
Var ones(int rows, int cols);
Var zeros(int rows, int cols);

// ---- elementwise ----
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var neg(const Var& a);
Var mul(const Var& a, const Var& b);
Var div(const Var& a, const Var& b);
Var add_scalar(const Var& a, float s);
Var mul_scalar(const Var& a, float s);

// ---- linear algebra ----
Var matmul(const Var& a, const Var& b);
/// a·bᵀ for a [n,k] and b [m,k], reading b in place: the bytes of
/// matmul(a, transpose(b)).
Var matmul_nt(const Var& a, const Var& b);
/// aᵀ·b for a [n,k] and b [n,m], reading a in place: the bytes of
/// matmul(transpose(a), b).
Var matmul_tn(const Var& a, const Var& b);
Var transpose(const Var& a);
/// x*w + b (bias [1,m] broadcast over rows), fused forward kernel.
Var affine(const Var& x, const Var& w, const Var& b);
/// x*wx + h*wh + b, the LSTM gate pre-activation, fused forward kernel.
Var lstm_gates(const Var& x, const Var& wx, const Var& h, const Var& wh,
               const Var& b);

// ---- broadcasts ----
Var add_rowvec(const Var& x, const Var& b);  // b: [1,d]
Var add_colvec(const Var& x, const Var& v);  // v: [n,1]
Var mul_colvec(const Var& x, const Var& v);  // v: [n,1]
Var mul_rowvec(const Var& x, const Var& m);  // m: [1,d]
Var broadcast_scalar(const Var& s, int rows, int cols);  // s: [1,1]

// ---- reductions ----
Var row_sum(const Var& a);  // -> [n,1]
Var col_sum(const Var& a);  // -> [1,d]
Var sum(const Var& a);      // -> [1,1]
Var mean(const Var& a);     // -> [1,1]
/// Per row: minus the row maximum -> [n,1]. Has no backward rule, so its
/// result is a constant: softmax_rows uses it as a shift its value and
/// gradient are invariant to.
Var neg_row_max(const Var& a);

// ---- nonlinearities ----
Var relu(const Var& a);
Var tanh_(const Var& a);
Var sigmoid(const Var& a);
Var exp_(const Var& a);
Var log_(const Var& a);
Var sqrt_(const Var& a);
Var square(const Var& a);
Var abs_(const Var& a);
Var recip(const Var& a);  // 1 / a

// ---- shape ----
Var concat_cols(std::span<const Var> parts);
Var concat_rows(std::span<const Var> parts);
Var slice_cols(const Var& a, int c0, int c1);
Var slice_rows(const Var& a, int r0, int r1);
Var pad_cols(const Var& a, int left, int right);
Var pad_rows(const Var& a, int top, int bottom);

// ---- compositions used everywhere ----
Var softmax_rows(const Var& a);
/// Row-wise L2 norm with numerical floor: sqrt(row_sum(a^2) + eps) -> [n,1].
Var row_l2_norm(const Var& a, float eps = 1e-12f);

namespace autograd {
/// Gradients of scalar `out` w.r.t. `inputs`, without touching any leaf's
/// grad() slot. With create_graph=true the results are differentiable.
/// Only nodes from which a requested input is reachable are expanded, so
/// e.g. a critic's gradient w.r.t. its input builds no weight gradients.
std::vector<Var> grad(const Var& out, std::span<const Var> inputs,
                      bool create_graph = false);
}  // namespace autograd

}  // namespace dg::nn
