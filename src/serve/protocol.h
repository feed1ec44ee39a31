// Wire protocol: newline-delimited JSON over TCP. One request object per
// line, one response object per line, in order. Ops:
//
//   {"op":"generate","id":1,"seed":7,"n":4,"max_len":40,"attempts":16,
//    "fixed":{"code":"FAIL"},
//    "where":[{"attr":"dc","op":"eq","value":"s1"}]}
//   {"op":"stats"}
//   {"op":"schema"}
//   {"op":"clock"}   -> {"ok":true,"steady_us":N}   epoch-offset handshake
//   {"op":"trace"}   -> {"ok":true,"steady_us":N,"dropped":N,"events":[...]}
//                       drains the process span buffer
//
// Unknown top-level fields are ignored on both sides (parsers read known
// names and skip the rest), so optional additions — `trace` context on a
// generate request, `trace` id on a reply — flow through old peers intact.
//
// `fixed` maps attribute name -> raw value (number) or categorical label
// (string). `where` entries compare a decoded attribute with op one of
// eq|ne|le|ge; `value` is a number or a categorical label string. Objects
// travel as {"attributes":{name:value-or-label}, "features":[[rec]...]}.
//
// `attempts` (default 16) is how many draws each series of a request with a
// `where` may take before it is reported rejected; without a `where` it is
// unused. A request with a `where` whose n x attempts exceeds
// kMaxRequestDraws (4096 x 16, serve/types.h) is refused as bad_request.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "data/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "serve/types.h"

namespace dg::serve {

/// Parses a generate-op request line (schema resolution of labels happens
/// later, in resolve_request). Throws std::runtime_error on malformed input,
/// including an integer field outside its type's range.
GenRequest request_from_json(const json::Value& v);
/// The request's `id` when it is a valid one, else 0: what an error reply
/// to a request request_from_json refused echoes.
std::uint64_t request_id(const json::Value& v);
/// `x` as an unsigned 64-bit integer, truncated toward zero, or nullopt when
/// it is outside that range (or NaN): wire integers arrive as doubles, and
/// casting one outside the target's range is undefined.
std::optional<std::uint64_t> to_u64(double x);
json::Value request_to_json(const GenRequest& req);

/// Appends `resp` to `out` as one generate reply line (no newline), in one
/// pass with no intermediate document. The one producer of generate replies
/// on the wire: the server's generate handler and the router's error
/// replies. The bytes are json::dump(response_to_json(resp, schema)); the
/// reply starts with `{"id":` and writes `objects` last, which the router's
/// byte scans rely on (serve/shard/cache.h). Attribute names and the labels
/// of a field are unique in a schema load_schema accepts; with repeats, the
/// oracle's json::Value::set would fold what this writer writes twice.
void append_response(std::string& out, const GenResponse& resp,
                     const data::Schema& schema);

/// The reply as a document: the oracle tests/serve/test_protocol.cpp holds
/// append_response to, byte for byte.
json::Value response_to_json(const GenResponse& resp, const data::Schema& schema);
GenResponse response_from_json(const json::Value& v, const data::Schema& schema);

json::Value object_to_json(const data::Object& o, const data::Schema& schema);
data::Object object_from_json(const json::Value& v, const data::Schema& schema);

json::Value stats_to_json(const StatsSnapshot& s);
StatsSnapshot stats_from_json(const json::Value& v);

/// Inverse of obs::to_json(RegistrySnapshot) for the subset the wire carries
/// (counters, gauges, histograms with bounds/buckets). The router uses it to
/// re-ingest per-worker "metrics" replies for fleet-wide aggregation.
obs::RegistrySnapshot registry_snapshot_from_json(const json::Value& v);

/// Span buffer on the wire (the `trace` op payload): each event is
/// {"name","cat","tid","ts_us","dur_us","depth"} plus hex "trace"/"span"/
/// "parent" ids, omitted when zero. Timestamps stay in the emitting
/// process's trace timebase; alignment happens at merge.
json::Value trace_events_to_json(const std::vector<obs::TraceEvent>& events);
std::vector<obs::TraceEvent> trace_events_from_json(const json::Value& v);

}  // namespace dg::serve
