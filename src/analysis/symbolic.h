// Symbolic graph: the shape-only image of an autograd graph. Nodes carry
// their nn::Op and symbolic shapes (the batch dimension is the symbol "B")
// derived by the registry's shape rules. analysis/trace.h fills a SymGraph
// by recording the real nn/core code under meta mode; the analyzer's audits,
// census and tape lowering all read it. Op names appear only in what it
// renders: diagnostics, graph paths and op_counts().
//
// Error containment: a failing node is *poisoned*, not fatal. Its shape
// keeps the rule's best guess where possible, downstream nodes that consume
// it are silently poisoned too, and exactly one diagnostic is emitted at the
// point of first failure — so one bad dim yields one finding, not a cascade.
#pragma once

#include <deque>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "analysis/diag.h"
#include "analysis/registry.h"

namespace dg::analysis {

struct SymNode {
  int id = 0;
  Op op = Op::kLeaf;
  Shape shape;
  std::vector<const SymNode*> parents;
  /// Human label for leaves ("attr_gen.l0.w") and named inputs.
  std::string label;
  /// Model parameters: position in DoppelGanger::named_parameters().
  int param = -1;
  bool poisoned = false;
  OpAttrs attrs;
};

class SymGraph {
 public:
  explicit SymGraph(const OpRegistry* registry = &OpRegistry::builtin())
      : registry_(registry) {}

  /// Leaf — Op::kLeaf; `index` is its position in named_parameters() when
  /// it is a model parameter.
  const SymNode* param(std::string label, Shape shape, int index = -1);

  /// Non-parameter input (noise, data, state) — Op::kConstant.
  const SymNode* input(std::string label, Shape shape);

  /// Apply an op. Emits at most one diagnostic per new failure (arity or
  /// shape rule); poisoned parents propagate without further noise.
  const SymNode* apply(Op op, std::span<const SymNode* const> parents,
                       const OpAttrs& attrs = {});

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  std::vector<Diagnostic>& diagnostics() { return diags_; }

  /// First-parent walk rendered like nn::check: "mul <- exp <- leaf(w)".
  static std::string path(const SymNode* node, int max_depth = 8);

  /// Multiset of op names over the whole graph (rendered from the rows).
  std::map<std::string, int> op_counts() const;

  int size() const { return static_cast<int>(nodes_.size()); }
  const SymNode* node(int id) const {
    return &nodes_[static_cast<size_t>(id)];
  }
  const OpRegistry& registry() const { return *registry_; }

 private:
  SymNode* push(SymNode n);

  const OpRegistry* registry_;
  std::deque<SymNode> nodes_;  ///< stable addresses, indexed by id
  std::vector<Diagnostic> diags_;
  std::vector<Shape> shapes_;  ///< apply()'s operand shapes, reused
};

}  // namespace dg::analysis
