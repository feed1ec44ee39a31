#include "analysis/symbolic.h"

#include <array>
#include <utility>

namespace dg::analysis {

SymNode* SymGraph::push(SymNode n) {
  n.id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(n));
  return &nodes_.back();
}

const SymNode* SymGraph::param(std::string label, Shape shape, int index) {
  SymNode n;
  n.op = Op::kLeaf;
  n.shape = shape;
  n.label = std::move(label);
  n.param = index;
  n.attrs.rows = shape.rows;
  n.attrs.cols = shape.cols;
  return push(std::move(n));
}

const SymNode* SymGraph::input(std::string label, Shape shape) {
  SymNode n;
  n.op = Op::kConstant;
  n.shape = shape;
  n.label = std::move(label);
  n.attrs.rows = shape.rows;
  n.attrs.cols = shape.cols;
  return push(std::move(n));
}

const SymNode* SymGraph::apply(Op op, std::span<const SymNode* const> parents,
                               const OpAttrs& attrs) {
  SymNode n;
  n.op = op;
  n.parents.assign(parents.begin(), parents.end());
  n.attrs = attrs;

  // Poison propagation: an already-reported failure upstream silences this
  // node — one root cause, one diagnostic.
  for (const SymNode* p : parents) {
    if (p->poisoned) {
      n.poisoned = true;
      if (!parents.empty()) n.shape = parents[0]->shape;
      return push(std::move(n));
    }
  }

  const OpInfo& info = (*registry_)[op];
  const int arity = static_cast<int>(parents.size());
  if (arity < info.min_arity ||
      (info.max_arity >= 0 && arity > info.max_arity)) {
    n.poisoned = true;
    SymNode* stored = push(std::move(n));
    diags_.push_back({Severity::kError, "shape-mismatch",
                      "op applied to " + std::to_string(arity) +
                          " inputs; expects " +
                          std::to_string(info.min_arity) +
                          (info.max_arity < 0
                               ? "+"
                               : (info.max_arity == info.min_arity
                                      ? ""
                                      : ".." + std::to_string(
                                                   info.max_arity))),
                      info.name, path(stored)});
    return stored;
  }

  shapes_.clear();
  for (const SymNode* p : parents) shapes_.push_back(p->shape);

  ShapeResult res = info.shape(shapes_, attrs);
  if (!res.shape) {
    n.poisoned = true;
    if (!parents.empty()) n.shape = parents[0]->shape;
    SymNode* stored = push(std::move(n));
    diags_.push_back({Severity::kError, "shape-mismatch", res.error,
                      info.name, path(stored)});
    return stored;
  }
  n.shape = *res.shape;
  return push(std::move(n));
}

std::string SymGraph::path(const SymNode* node, int max_depth) {
  std::string out;
  const SymNode* cur = node;
  for (int depth = 0; cur != nullptr && depth < max_depth; ++depth) {
    if (depth > 0) out += " <- ";
    out += nn::op_def(cur->op).name;
    if (!cur->label.empty()) out += "(" + cur->label + ")";
    cur = cur->parents.empty() ? nullptr : cur->parents.front();
  }
  if (cur != nullptr) out += " <- ...";
  return out;
}

std::map<std::string, int> SymGraph::op_counts() const {
  std::array<int, nn::kNumOps> counts{};
  for (const SymNode& n : nodes_) ++counts[static_cast<size_t>(n.op)];
  std::map<std::string, int> out;
  for (const nn::OpDef& row : nn::op_table()) {
    const int c = counts[static_cast<size_t>(row.op)];
    if (c > 0) out[row.name] = c;
  }
  return out;
}

}  // namespace dg::analysis
