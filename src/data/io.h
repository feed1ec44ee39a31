// Plain-text persistence for schemas and datasets so real data can flow in
// and out of the library (and through the dgcli tool): a line-based schema
// format and a long-format CSV for datasets.
//
// CSV layout (one row per timestep):
//   object_id,<attr names...>,t,<feature names...>
// Attribute cells repeat on every row of an object; categorical values are
// written as label strings.
#pragma once

#include <iosfwd>
#include <string>

#include "data/types.h"

namespace dg::data {

void save_schema(std::ostream& os, const Schema& schema);
/// Throws std::runtime_error ("io: ...") on a malformed schema, including a
/// field name used twice (attributes and features share one namespace) and
/// a label repeated within a categorical field.
Schema load_schema(std::istream& is);
void save_schema_file(const std::string& path, const Schema& schema);
Schema load_schema_file(const std::string& path);

void save_csv(std::ostream& os, const Schema& schema, const Dataset& data);
Dataset load_csv(std::istream& is, const Schema& schema);
void save_csv_file(const std::string& path, const Schema& schema,
                   const Dataset& data);
Dataset load_csv_file(const std::string& path, const Schema& schema);

/// Compact binary dataset format (little-endian, host float layout):
/// magic line, object count, then per object its raw attribute row, the
/// series length T, and T*K raw feature floats. ~6x smaller and ~20x
/// faster than the long-format CSV for bulk `dgcli generate` output; the
/// schema travels separately, exactly like the CSV path.
void save_binary(std::ostream& os, const Schema& schema, const Dataset& data);
Dataset load_binary(std::istream& is, const Schema& schema);
void save_binary_file(const std::string& path, const Schema& schema,
                      const Dataset& data);
Dataset load_binary_file(const std::string& path, const Schema& schema);

}  // namespace dg::data
