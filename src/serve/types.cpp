#include "serve/types.h"

#include <cmath>
#include <stdexcept>

namespace dg::serve {

namespace {

int attr_index(const data::Schema& schema, const std::string& name) {
  for (int i = 0; i < schema.num_attributes(); ++i) {
    if (schema.attributes[static_cast<size_t>(i)].name == name) return i;
  }
  throw std::invalid_argument("serve: unknown attribute '" + name + "'");
}

float resolve_label(const data::FieldSpec& spec, const std::string& label) {
  for (size_t c = 0; c < spec.labels.size(); ++c) {
    if (spec.labels[c] == label) return static_cast<float>(c);
  }
  throw std::invalid_argument("serve: unknown label '" + label + "' for '" +
                              spec.name + "'");
}

}  // namespace

void resolve_request(GenRequest& req, const data::Schema& schema) {
  if (req.count < 1 || req.count > kMaxRequestCount) {
    throw std::invalid_argument("serve: count outside [1, " +
                                std::to_string(kMaxRequestCount) + "]");
  }
  if (req.max_len < 0 || req.max_len > schema.max_timesteps) {
    throw std::invalid_argument("serve: max_len outside [0, schema max]");
  }
  if (req.max_attempts < 1) {
    throw std::invalid_argument("serve: max_attempts must be >= 1");
  }
  if (!req.where.empty() &&
      std::int64_t{req.count} * req.max_attempts > kMaxRequestDraws) {
    throw std::invalid_argument("serve: n x attempts exceeds " +
                                std::to_string(kMaxRequestDraws) +
                                " for a request with a where");
  }
  for (FixedAttr& f : req.fixed) {
    const data::FieldSpec& spec =
        schema.attributes[static_cast<size_t>(attr_index(schema, f.attr))];
    if (!f.label.empty()) {
      if (spec.type != data::FieldType::Categorical) {
        throw std::invalid_argument("serve: label given for continuous '" +
                                    f.attr + "'");
      }
      f.value = resolve_label(spec, f.label);
    } else if (spec.type == data::FieldType::Categorical) {
      // No int cast here (one of an out-of-range float is undefined): the
      // bounds accept exactly the values truncation maps into [0, n).
      if (!(f.value > -1.0f &&
            f.value < static_cast<float>(spec.n_categories))) {
        throw std::invalid_argument("serve: category out of range for '" +
                                    f.attr + "'");
      }
    }
  }
  for (AttrPredicate& p : req.where) {
    const data::FieldSpec& spec =
        schema.attributes[static_cast<size_t>(attr_index(schema, p.attr))];
    if (!p.label.empty()) {
      if (spec.type != data::FieldType::Categorical) {
        throw std::invalid_argument("serve: label given for continuous '" +
                                    p.attr + "'");
      }
      p.value = resolve_label(spec, p.label);
    }
    if (spec.type == data::FieldType::Categorical &&
        (p.op == AttrPredicate::Op::Le || p.op == AttrPredicate::Op::Ge)) {
      throw std::invalid_argument("serve: ordered predicate on categorical '" +
                                  p.attr + "'");
    }
  }
}

bool matches(const data::Object& o, const data::Schema& schema,
             const std::vector<AttrPredicate>& where) {
  for (const AttrPredicate& p : where) {
    const int idx = attr_index(schema, p.attr);
    const float v = o.attributes[static_cast<size_t>(idx)];
    const bool ok = [&] {
      switch (p.op) {
        case AttrPredicate::Op::Eq:
          return v == p.value;
        case AttrPredicate::Op::Ne:
          return v != p.value;
        case AttrPredicate::Op::Le:
          return v <= p.value;
        case AttrPredicate::Op::Ge:
          return v >= p.value;
      }
      return false;
    }();
    if (!ok) return false;
  }
  return true;
}

}  // namespace dg::serve
