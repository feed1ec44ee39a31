// Request/response vocabulary of the generation service (Fig 2's consumer
// side): a released model package answers three request shapes —
//   plain        n series from a request-private seed
//   fixed        attributes clamped to given raw values before generation
//   conditional  rejection-sampled against attribute predicates
// All three are expressed by one GenRequest; the distinction is just which
// optional fields are populated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/types.h"
#include "obs/tracectx.h"

namespace dg::serve {

/// Attribute predicate evaluated on *decoded* objects (category index /
/// raw continuous value). `label` may name a category instead of `value`;
/// it is resolved against the schema when the request is admitted.
struct AttrPredicate {
  enum class Op { Eq, Ne, Le, Ge };
  std::string attr;
  Op op = Op::Eq;
  float value = 0.0f;
  std::string label;  // non-empty: categorical label, resolved to `value`
};

/// One fixed-attribute clamp (see DoppelGanger::sample_context_fixed).
struct FixedAttr {
  std::string attr;
  float value = 0.0f;
  std::string label;  // non-empty: categorical label, resolved to `value`
};

struct GenRequest {
  std::uint64_t id = 0;    // echoed in the response
  std::uint64_t seed = 0;  // request-private RNG stream root
  int count = 1;           // series to generate
  int max_len = 0;         // per-series record cap; 0 = schema max_timesteps
  int max_attempts = 16;   // per-series rejection budget (conditional only)
  std::vector<FixedAttr> fixed;
  std::vector<AttrPredicate> where;
  // Distributed-trace context stamped by the shard router on sampled
  // requests (trace_id == 0 ⇒ unsampled). Carried on the wire as an
  // optional `trace` field, omitted when absent — old workers and clients
  // never see it. Not a generation input: two requests differing only in
  // trace produce byte-identical series.
  obs::TraceContext trace;
};

/// Machine-readable failure classes carried next to the free-text `error`.
/// Old clients keep reading `ok`/`error`; new clients (the shard router)
/// branch on `code` instead of parsing prose.
namespace error_code {
inline constexpr const char* kShed = "shed";             // admission refused
inline constexpr const char* kDraining = "draining";     // shutting down
inline constexpr const char* kBadRequest = "bad_request";  // malformed input
inline constexpr const char* kWorkerDown = "worker_down";  // no healthy worker
}  // namespace error_code

struct GenResponse {
  std::uint64_t id = 0;
  bool ok = false;        // request admitted and executed
  bool complete = false;  // all `count` series produced (conditional may not)
  std::string error;      // set when !ok, or a note when !complete
  std::string code;       // machine-readable class when !ok (error_code::*)
  data::Dataset objects;
  long long series_rejected = 0;  // rejection-sampling discards
  double latency_ms = 0.0;
  // Content hash of the package that produced the series (hex FNV-1a-64;
  // "" when serving an injected model with no package file). The shard
  // cache keys on it: same hash + same request ⇒ byte-identical series.
  std::string package_hash;
  // Echo of the request's trace id (hex, "" when unsampled) so a client
  // holding a slow reply can pull the matching span tree via `trace`.
  std::string trace_id;
};

/// Counter snapshot for the /stats endpoint. Occupancy is the fraction of
/// slot-steps that carried an active series — the number the continuous
/// batching design exists to push toward 1.0.
struct StatsSnapshot {
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t series_completed = 0;
  std::uint64_t series_rejected = 0;
  std::uint64_t rnn_steps = 0;          // batched LSTM steps executed
  std::uint64_t slot_steps_active = 0;  // lane-steps that carried a series
  std::uint64_t slot_steps_total = 0;   // lane-steps paid for (width * steps)
  std::uint64_t queue_depth = 0;
  std::uint64_t package_reloads = 0;
  std::uint64_t reload_rejected = 0;  // hot reloads refused by preflight
  double occupancy = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  std::string package_hash;  // hex FNV-1a-64 of the served package ("" = none)
};

/// Most series one generate request may ask for: an engine allocates the
/// whole reply up front.
inline constexpr int kMaxRequestCount = 4096;

/// Most draws one request with a `where` may cost: it retries each rejected
/// series up to `attempts` times, so n x attempts may not exceed the draws
/// of the largest request at the default 16 attempts. Without the bound, a
/// predicate no series can meet, sent with a huge `attempts`, holds an
/// engine's slots almost indefinitely.
inline constexpr std::int64_t kMaxRequestDraws =
    std::int64_t{kMaxRequestCount} * 16;

/// Resolves label-valued predicates/fixed attrs against the schema and
/// validates field names and ranges. Throws std::invalid_argument on
/// unknown names, bad labels, out-of-range values (a count outside
/// [1, kMaxRequestCount], a category index past the field's, a request
/// with a `where` whose n x attempts exceeds kMaxRequestDraws) or type
/// mismatches (e.g. Le on a categorical field).
void resolve_request(GenRequest& req, const data::Schema& schema);

/// True when the decoded object satisfies every predicate.
bool matches(const data::Object& o, const data::Schema& schema,
             const std::vector<AttrPredicate>& where);

}  // namespace dg::serve
