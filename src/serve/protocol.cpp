#include "serve/protocol.h"

#include <optional>
#include <stdexcept>

#include "obs/json_string.h"

namespace dg::serve {

namespace {

AttrPredicate::Op op_from_string(const std::string& s) {
  if (s == "eq") return AttrPredicate::Op::Eq;
  if (s == "ne") return AttrPredicate::Op::Ne;
  if (s == "le") return AttrPredicate::Op::Le;
  if (s == "ge") return AttrPredicate::Op::Ge;
  throw std::runtime_error("protocol: unknown predicate op '" + s + "'");
}

const char* op_to_string(AttrPredicate::Op op) {
  switch (op) {
    case AttrPredicate::Op::Eq: return "eq";
    case AttrPredicate::Op::Ne: return "ne";
    case AttrPredicate::Op::Le: return "le";
    case AttrPredicate::Op::Ge: return "ge";
  }
  return "eq";
}

const data::FieldSpec& attr_spec(const data::Schema& schema,
                                 const std::string& name) {
  for (const data::FieldSpec& a : schema.attributes) {
    if (a.name == name) return a;
  }
  throw std::runtime_error("protocol: unknown attribute '" + name + "'");
}

// Request integers arrive as doubles, and casting a double outside the
// target type's range is undefined, so each is range-checked first; the
// cast then truncates toward zero. Absent or non-numeric fields take the
// default.
std::uint64_t u64_field(const json::Value& v, const char* key) {
  if (const auto x = to_u64(v.number_or(key, 0))) return *x;
  throw std::runtime_error(std::string("protocol: '") + key +
                           "' is not an unsigned 64-bit integer");
}

int int_field(const json::Value& v, const char* key, int fallback) {
  const double x = v.number_or(key, fallback);
  if (!(x > -0x1p31 - 1.0 && x < 0x1p31)) {
    throw std::runtime_error(std::string("protocol: '") + key +
                             "' is outside the int range");
  }
  return static_cast<int>(x);
}

}  // namespace

std::optional<std::uint64_t> to_u64(double x) {
  if (!(x > -1.0 && x < 0x1p64)) return std::nullopt;
  return static_cast<std::uint64_t>(x);
}

std::uint64_t request_id(const json::Value& v) {
  return to_u64(v.number_or("id", 0)).value_or(0);
}

GenRequest request_from_json(const json::Value& v) {
  if (!v.is_object()) throw std::runtime_error("protocol: request not an object");
  GenRequest req;
  req.id = u64_field(v, "id");
  req.seed = u64_field(v, "seed");
  req.count = int_field(v, "n", 1);
  req.max_len = int_field(v, "max_len", 0);
  req.max_attempts = int_field(v, "attempts", 16);
  if (const json::Value* fixed = v.find("fixed")) {
    for (const auto& [name, val] : fixed->as_object()) {
      FixedAttr f;
      f.attr = name;
      if (val.is_string()) {
        f.label = val.as_string();
      } else {
        f.value = static_cast<float>(val.as_number());
      }
      req.fixed.push_back(std::move(f));
    }
  }
  if (const json::Value* trace = v.find("trace")) {
    // Optional distributed-trace context; a malformed field degrades to
    // "unsampled" rather than rejecting the request.
    if (trace->is_object()) {
      req.trace.trace_id = obs::trace_id_from_hex(trace->string_or("id", ""));
      req.trace.parent_span =
          obs::trace_id_from_hex(trace->string_or("parent", ""));
    }
  }
  if (const json::Value* where = v.find("where")) {
    for (const json::Value& e : where->as_array()) {
      AttrPredicate p;
      p.attr = e.string_or("attr", "");
      if (p.attr.empty()) throw std::runtime_error("protocol: predicate without attr");
      p.op = op_from_string(e.string_or("op", "eq"));
      const json::Value* val = e.find("value");
      if (!val) throw std::runtime_error("protocol: predicate without value");
      if (val->is_string()) {
        p.label = val->as_string();
      } else {
        p.value = static_cast<float>(val->as_number());
      }
      req.where.push_back(std::move(p));
    }
  }
  return req;
}

json::Value request_to_json(const GenRequest& req) {
  json::Value v{json::Object{}};
  v.set("op", "generate");
  v.set("id", req.id);
  v.set("seed", req.seed);
  v.set("n", req.count);
  if (req.max_len > 0) v.set("max_len", req.max_len);
  v.set("attempts", req.max_attempts);
  if (!req.fixed.empty()) {
    json::Value fixed{json::Object{}};
    for (const FixedAttr& f : req.fixed) {
      fixed.set(f.attr, f.label.empty() ? json::Value(static_cast<double>(f.value))
                                        : json::Value(f.label));
    }
    v.set("fixed", std::move(fixed));
  }
  if (!req.where.empty()) {
    json::Array where;
    for (const AttrPredicate& p : req.where) {
      json::Value e{json::Object{}};
      e.set("attr", p.attr);
      e.set("op", op_to_string(p.op));
      e.set("value", p.label.empty() ? json::Value(static_cast<double>(p.value))
                                     : json::Value(p.label));
      where.push_back(std::move(e));
    }
    v.set("where", std::move(where));
  }
  if (req.trace.sampled()) {
    json::Value trace{json::Object{}};
    trace.set("id", obs::trace_id_hex(req.trace.trace_id));
    if (req.trace.parent_span != 0) {
      trace.set("parent", obs::trace_id_hex(req.trace.parent_span));
    }
    v.set("trace", std::move(trace));
  }
  return v;
}

json::Value object_to_json(const data::Object& o, const data::Schema& schema) {
  json::Value attrs{json::Object{}};
  for (size_t j = 0; j < schema.attributes.size(); ++j) {
    const data::FieldSpec& a = schema.attributes[j];
    const float raw = o.attributes[j];
    if (a.type == data::FieldType::Categorical) {
      const int c = static_cast<int>(raw);
      if (c >= 0 && c < static_cast<int>(a.labels.size())) {
        attrs.set(a.name, a.labels[static_cast<size_t>(c)]);
      } else {
        attrs.set(a.name, static_cast<double>(c));
      }
    } else {
      attrs.set(a.name, static_cast<double>(raw));
    }
  }
  json::Array features;
  features.reserve(o.features.size());
  for (const auto& rec : o.features) {
    json::Array row;
    row.reserve(rec.size());
    for (const float x : rec) row.push_back(static_cast<double>(x));
    features.push_back(std::move(row));
  }
  json::Value v{json::Object{}};
  v.set("attributes", std::move(attrs));
  v.set("features", std::move(features));
  return v;
}

data::Object object_from_json(const json::Value& v, const data::Schema& schema) {
  data::Object o;
  const json::Value* attrs = v.find("attributes");
  if (!attrs) throw std::runtime_error("protocol: object without attributes");
  o.attributes.reserve(schema.attributes.size());
  for (const data::FieldSpec& a : schema.attributes) {
    const json::Value* val = attrs->find(a.name);
    if (!val) throw std::runtime_error("protocol: object missing '" + a.name + "'");
    if (val->is_string()) {
      const data::FieldSpec& spec = attr_spec(schema, a.name);
      float idx = -1.0f;
      for (size_t c = 0; c < spec.labels.size(); ++c) {
        if (spec.labels[c] == val->as_string()) idx = static_cast<float>(c);
      }
      if (idx < 0) throw std::runtime_error("protocol: unknown label for '" + a.name + "'");
      o.attributes.push_back(idx);
    } else {
      o.attributes.push_back(static_cast<float>(val->as_number()));
    }
  }
  const json::Value* features = v.find("features");
  if (!features) throw std::runtime_error("protocol: object without features");
  for (const json::Value& row : features->as_array()) {
    std::vector<float> rec;
    rec.reserve(row.as_array().size());
    for (const json::Value& x : row.as_array()) {
      rec.push_back(static_cast<float>(x.as_number()));
    }
    o.features.push_back(std::move(rec));
  }
  return o;
}

namespace {

void append_object(std::string& out, const data::Object& o,
                   const data::Schema& schema) {
  out += "{\"attributes\":{";
  for (size_t j = 0; j < schema.attributes.size(); ++j) {
    const data::FieldSpec& a = schema.attributes[j];
    if (j > 0) out += ',';
    obs::append_json_string(out, a.name);
    out += ':';
    const float raw = o.attributes[j];
    if (a.type == data::FieldType::Categorical) {
      const int c = static_cast<int>(raw);
      if (c >= 0 && c < static_cast<int>(a.labels.size())) {
        obs::append_json_string(out, a.labels[static_cast<size_t>(c)]);
      } else {
        json::append_number(out, static_cast<double>(c));
      }
    } else {
      json::append_number(out, static_cast<double>(raw));
    }
  }
  out += "},\"features\":[";
  for (size_t t = 0; t < o.features.size(); ++t) {
    if (t > 0) out += ',';
    out += '[';
    const std::vector<float>& rec = o.features[t];
    for (size_t k = 0; k < rec.size(); ++k) {
      if (k > 0) out += ',';
      json::append_number(out, static_cast<double>(rec[k]));
    }
    out += ']';
  }
  out += "]}";
}

void append_string_field(std::string& out, const char* key,
                         const std::string& value) {
  if (value.empty()) return;
  out += ",\"";
  out += key;
  out += "\":";
  obs::append_json_string(out, value);
}

}  // namespace

void append_response(std::string& out, const GenResponse& resp,
                     const data::Schema& schema) {
  // The fields and their order are response_to_json's; the numbers go
  // through the double conversions json::Value applies there.
  out += "{\"id\":";
  json::append_number(out, static_cast<double>(resp.id));
  out += resp.ok ? ",\"ok\":true" : ",\"ok\":false";
  out += resp.complete ? ",\"complete\":true" : ",\"complete\":false";
  append_string_field(out, "error", resp.error);
  append_string_field(out, "code", resp.code);
  append_string_field(out, "package_hash", resp.package_hash);
  append_string_field(out, "trace", resp.trace_id);
  out += ",\"rejected\":";
  json::append_number(out, static_cast<double>(resp.series_rejected));
  out += ",\"latency_ms\":";
  json::append_number(out, resp.latency_ms);
  out += ",\"objects\":[";
  for (size_t i = 0; i < resp.objects.size(); ++i) {
    if (i > 0) out += ',';
    append_object(out, resp.objects[i], schema);
  }
  out += "]}";
}

json::Value response_to_json(const GenResponse& resp, const data::Schema& schema) {
  json::Value v{json::Object{}};
  v.set("id", resp.id);
  v.set("ok", resp.ok);
  v.set("complete", resp.complete);
  if (!resp.error.empty()) v.set("error", resp.error);
  if (!resp.code.empty()) v.set("code", resp.code);
  if (!resp.package_hash.empty()) v.set("package_hash", resp.package_hash);
  if (!resp.trace_id.empty()) v.set("trace", resp.trace_id);
  v.set("rejected", static_cast<double>(resp.series_rejected));
  v.set("latency_ms", resp.latency_ms);
  json::Array objects;
  objects.reserve(resp.objects.size());
  for (const data::Object& o : resp.objects) {
    objects.push_back(object_to_json(o, schema));
  }
  v.set("objects", std::move(objects));
  return v;
}

GenResponse response_from_json(const json::Value& v, const data::Schema& schema) {
  GenResponse resp;
  resp.id = static_cast<std::uint64_t>(v.number_or("id", 0));
  resp.ok = v.bool_or("ok", false);
  resp.complete = v.bool_or("complete", false);
  resp.error = v.string_or("error", "");
  resp.code = v.string_or("code", "");
  resp.package_hash = v.string_or("package_hash", "");
  resp.trace_id = v.string_or("trace", "");
  resp.series_rejected = static_cast<long long>(v.number_or("rejected", 0));
  resp.latency_ms = v.number_or("latency_ms", 0.0);
  if (const json::Value* objects = v.find("objects")) {
    for (const json::Value& o : objects->as_array()) {
      resp.objects.push_back(object_from_json(o, schema));
    }
  }
  return resp;
}

json::Value stats_to_json(const StatsSnapshot& s) {
  json::Value v{json::Object{}};
  v.set("requests", s.requests);
  v.set("responses", s.responses);
  v.set("series_completed", s.series_completed);
  v.set("series_rejected", s.series_rejected);
  v.set("rnn_steps", s.rnn_steps);
  v.set("slot_steps_active", s.slot_steps_active);
  v.set("slot_steps_total", s.slot_steps_total);
  v.set("queue_depth", s.queue_depth);
  v.set("package_reloads", s.package_reloads);
  v.set("reload_rejected", s.reload_rejected);
  v.set("occupancy", s.occupancy);
  v.set("p50_latency_ms", s.p50_latency_ms);
  v.set("p99_latency_ms", s.p99_latency_ms);
  if (!s.package_hash.empty()) v.set("package_hash", s.package_hash);
  return v;
}

StatsSnapshot stats_from_json(const json::Value& v) {
  StatsSnapshot s;
  s.requests = static_cast<std::uint64_t>(v.number_or("requests", 0));
  s.responses = static_cast<std::uint64_t>(v.number_or("responses", 0));
  s.series_completed =
      static_cast<std::uint64_t>(v.number_or("series_completed", 0));
  s.series_rejected =
      static_cast<std::uint64_t>(v.number_or("series_rejected", 0));
  s.rnn_steps = static_cast<std::uint64_t>(v.number_or("rnn_steps", 0));
  s.slot_steps_active =
      static_cast<std::uint64_t>(v.number_or("slot_steps_active", 0));
  s.slot_steps_total =
      static_cast<std::uint64_t>(v.number_or("slot_steps_total", 0));
  s.queue_depth = static_cast<std::uint64_t>(v.number_or("queue_depth", 0));
  s.package_reloads =
      static_cast<std::uint64_t>(v.number_or("package_reloads", 0));
  s.reload_rejected =
      static_cast<std::uint64_t>(v.number_or("reload_rejected", 0));
  s.occupancy = v.number_or("occupancy", 0.0);
  s.p50_latency_ms = v.number_or("p50_latency_ms", 0.0);
  s.p99_latency_ms = v.number_or("p99_latency_ms", 0.0);
  s.package_hash = v.string_or("package_hash", "");
  return s;
}

obs::RegistrySnapshot registry_snapshot_from_json(const json::Value& v) {
  obs::RegistrySnapshot snap;
  if (const json::Value* counters = v.find("counters")) {
    for (const auto& [name, val] : counters->as_object()) {
      snap.counters.emplace_back(
          name, static_cast<std::uint64_t>(val.as_number()));
    }
  }
  if (const json::Value* gauges = v.find("gauges")) {
    for (const auto& [name, val] : gauges->as_object()) {
      snap.gauges.emplace_back(name, val.as_number());
    }
  }
  if (const json::Value* hists = v.find("histograms")) {
    for (const auto& [name, val] : hists->as_object()) {
      obs::HistogramSnapshot h;
      h.count = static_cast<std::uint64_t>(val.number_or("count", 0));
      h.sum = val.number_or("sum", 0.0);
      h.min = val.number_or("min", 0.0);
      h.max = val.number_or("max", 0.0);
      h.p50 = val.number_or("p50", 0.0);
      h.p90 = val.number_or("p90", 0.0);
      h.p99 = val.number_or("p99", 0.0);
      h.window_filled =
          static_cast<std::size_t>(val.number_or("window", 0));
      if (const json::Value* bounds = val.find("bounds")) {
        for (const json::Value& b : bounds->as_array()) {
          h.bounds.push_back(b.as_number());
        }
      }
      if (const json::Value* buckets = val.find("buckets")) {
        for (const json::Value& b : buckets->as_array()) {
          h.buckets.push_back(static_cast<std::uint64_t>(b.as_number()));
        }
      }
      if (const json::Value* exemplars = val.find("exemplars")) {
        for (const json::Value& e : exemplars->as_array()) {
          const auto bucket =
              static_cast<std::size_t>(e.number_or("bucket", 0));
          if (bucket >= h.buckets.size()) continue;
          if (h.exemplars.empty()) h.exemplars.resize(h.buckets.size());
          h.exemplars[bucket] = obs::Exemplar{
              obs::trace_id_from_hex(e.string_or("trace", "")),
              e.number_or("v", 0.0)};
        }
      }
      snap.histograms.emplace_back(name, std::move(h));
    }
  }
  return snap;
}

json::Value trace_events_to_json(const std::vector<obs::TraceEvent>& events) {
  json::Array arr;
  arr.reserve(events.size());
  for (const obs::TraceEvent& e : events) {
    json::Value v{json::Object{}};
    v.set("name", e.name);
    v.set("cat", e.category);
    v.set("tid", e.tid);
    v.set("ts_us", e.ts_us);
    v.set("dur_us", e.dur_us);
    v.set("depth", e.depth);
    if (e.trace_id != 0) {
      v.set("trace", obs::trace_id_hex(e.trace_id));
      v.set("span", obs::trace_id_hex(e.span_id));
      if (e.parent_span != 0) {
        v.set("parent", obs::trace_id_hex(e.parent_span));
      }
    }
    arr.push_back(std::move(v));
  }
  return json::Value{std::move(arr)};
}

std::vector<obs::TraceEvent> trace_events_from_json(const json::Value& v) {
  std::vector<obs::TraceEvent> out;
  for (const json::Value& ev : v.as_array()) {
    obs::TraceEvent e;
    e.name = ev.string_or("name", "");
    e.category = ev.string_or("cat", "");
    e.tid = static_cast<std::uint64_t>(ev.number_or("tid", 0));
    e.ts_us = static_cast<std::int64_t>(ev.number_or("ts_us", 0));
    e.dur_us = static_cast<std::int64_t>(ev.number_or("dur_us", 0));
    e.depth = static_cast<int>(ev.number_or("depth", 0));
    e.trace_id = obs::trace_id_from_hex(ev.string_or("trace", ""));
    e.span_id = obs::trace_id_from_hex(ev.string_or("span", ""));
    e.parent_span = obs::trace_id_from_hex(ev.string_or("parent", ""));
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace dg::serve
