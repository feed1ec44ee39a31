// Meta-execution recorder: fills a SymGraph by running the real nn/core code
// under nn::MetaModeGuard. The engine reports every node the code creates —
// forward ops, the ops its real backward rules build, the gradient
// accumulations of run_backward and the grad-slot writes of Var::backward —
// and the recorder re-derives each node's symbolic shape from the registry's
// shape rule, so the analyzer audits exactly the graph training runs.
//
// Batch dimension: traced code runs at the batch extent kMetaBatch, and
// every extent equal to it is recorded as the symbol "B". Matrices are
// shape-only under meta mode, so the size costs nothing.
//
// Backward audits, applied where the engine traverses a node:
//  * "no-double-backward" — a kFirstOrderOnly op reached by a pass running
//    with create_graph=true (the WGAN-GP gradient penalty);
//  * "adjoint-shape" — a rule returned a gradient whose shape is not its
//    parent's; the gradient is dropped (the real engine would throw), so one
//    defect is one finding;
//  * the registry's GradFault, if set, rewrites the rule's gradients first
//    (seeded-defect negative controls).
// Findings are deduplicated per (code, op), optionally across several traces.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diag.h"
#include "analysis/symbolic.h"
#include "nn/autograd.h"

namespace dg::analysis {

/// The batch extent traced code runs at. No buildable model has a layer
/// this wide, so the extent identifies the batch dimension unambiguously.
inline constexpr int kMetaBatch = 999'983;

class Trace final : public nn::MetaRecorder {
 public:
  /// Records into `graph`. `dedup` shares finding deduplication with other
  /// traces of the same analysis (one finding per defect class overall).
  explicit Trace(SymGraph& graph, std::set<std::string>* dedup = nullptr);

  /// Records the model's parameters as labeled leaves, in
  /// named_parameters() order.
  void bind_params(std::span<const std::pair<std::string, nn::Var>> named);

  /// Runs `fn` under meta mode with this trace recording. An exception the
  /// traced code throws becomes one "trace-error" finding, unless an
  /// earlier error finding (in this graph or a trace sharing `dedup`)
  /// already explains it.
  void run(const std::function<void()>& fn);

  /// The symbolic node of a Var this trace recorded (nullptr if unseen).
  const SymNode* node(const nn::Var& v) const;

  /// The bound parameter leaves, in named_parameters() order.
  const std::vector<const SymNode*>& params() const { return params_; }
  /// Leaves whose grad slot Var::backward wrote, in write order.
  const std::vector<const SymNode*>& grad_slots() const { return slots_; }
  /// The in-graph gradient accumulations (an "add" per second upstream
  /// contribution), in engine order.
  const std::vector<const SymNode*>& accumulations() const { return adds_; }
  /// False once a backward-pass finding was reported or the traced code
  /// threw (the grad slots are then incomplete for a known reason).
  bool backward_ok() const { return backward_ok_; }

  void on_node(const nn::detail::Node* node, Op op,
               std::span<const nn::Var> parents,
               const OpAttrs& call_attrs) override;
  void on_backward(const nn::detail::Node* node, const nn::Var& gout,
                   bool create_graph, std::vector<nn::Var>& grads) override;
  void on_accumulate(const nn::detail::Node* sum) override;
  void on_grad_slot(const nn::detail::Node* leaf) override;

 private:
  Shape shape_of(const nn::Matrix& m) const;
  /// Records `n` as the symbolic node of `node` (in the node's meta tag).
  void tag(const nn::detail::Node* node, const SymNode* n) const;
  const SymNode* lookup(const nn::detail::Node* node);
  void emit(const std::string& key, Diagnostic d);

  SymGraph& g_;
  std::set<std::string> local_dedup_;
  std::set<std::string>& dedup_;
  std::uint64_t id_;  ///< unique per trace; marks the nodes it tagged
  std::vector<const SymNode*> params_;
  std::vector<const SymNode*> slots_;
  std::vector<const SymNode*> adds_;
  std::vector<const SymNode*> parents_;  ///< on_node's operands, reused
  bool backward_ok_ = true;
};

}  // namespace dg::analysis
