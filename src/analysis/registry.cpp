#include "analysis/registry.h"

#include <utility>

namespace dg::analysis {

const OpInfo* OpRegistry::find(std::string_view name) const {
  auto it = ops_.find(name);
  return it == ops_.end() ? nullptr : &it->second;
}

void OpRegistry::add(OpInfo info) {
  ops_.insert_or_assign(info.name, std::move(info));
}

std::vector<std::string> OpRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(ops_.size());
  for (const auto& [name, info] : ops_) out.push_back(name);
  return out;
}

const OpRegistry& OpRegistry::builtin() {
  static const OpRegistry r = [] {
    OpRegistry reg;
    for (const nn::OpDef& row : nn::op_table()) reg.add({row, {}});
    return reg;
  }();
  return r;
}

}  // namespace dg::analysis
