#include "analysis/registry.h"

namespace dg::analysis {

OpRegistry::OpRegistry() {
  for (const nn::OpDef& row : nn::op_table()) (*this)[row.op] = {row, {}};
}

const OpRegistry& OpRegistry::builtin() {
  static const OpRegistry r;
  return r;
}

}  // namespace dg::analysis
