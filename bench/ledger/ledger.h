// dg_ledger: one process per workload of the performance ledger (see
// README.md). Each workload builds its inputs from the seed, sets up, runs
// the work --seconds sizes (a fixed number of iterations or rounds, or a
// fixed wall time of serving), checks its outputs and fills a Result;
// main.cpp prints the Result as one JSON line that run.py turns into the
// report.
//
// Untraced runs report the end-to-end metrics. A traced run turns on the
// span collector and the op/kernel profiler that src/ already feeds, and
// adds timed calls into public functions from outside; nothing here adds a
// span or counter to the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/doppelganger.h"
#include "data/types.h"
#include "obs/trace.h"
#include "serve/json.h"

namespace dg::ledger {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shortened sizes for the ctest smoke run: one set-up, small rounds.
  bool smoke = false;
  std::string configs;  // directory holding the committed .schema/.cfg pairs
  std::string work;     // writable directory for model packages

  /// Set-ups per run (their median is setup_s): `n`, or 1 in smoke mode.
  int setup_repeats(int n) const { return smoke ? 1 : n; }
};

/// One reported number with its unit and the count of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t n = 1;
};
using Metrics = std::map<std::string, Metric>;

struct Result {
  Metrics metrics;  // end-to-end
  Metrics layers;   // per-layer: traced-run numbers and counters
  /// Traced runs: a disjoint split of one unit of work (training iteration,
  /// generation round, served request) into layers, in ms. The parts sum to
  /// the unit's traced time; compare.py diffs these trees.
  std::map<std::string, double> self_ms;
  serve::json::Value info{serve::json::Object{}};  // fingerprints, rate ladder
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few failed checks

  /// Counts `n` checked operations of which `bad` failed.
  void tally(std::uint64_t n, std::uint64_t bad, const std::string& what);
  void check(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }
};

double ms_since(Clock::time_point t0);
double median(std::vector<double> v);
/// Nearest-rank quantile, the definition obs histograms use.
double quantile(std::vector<double> v, double q);
/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();
/// CPU time of the calling thread, and of the whole process, in ms.
double thread_cpu_ms();
double process_cpu_ms();

/// Milliseconds of CPU one pace chunk takes on the nominal host.
inline constexpr double kPaceNominalMs = 1.0;

/// Host pace. A shared host runs the same code tens of percent faster or
/// slower from one minute to the next: other tenants load the sibling
/// hyperthreads and the shared caches. A pace chunk is a fixed piece of
/// arithmetic and memory traffic in pace.cpp, which calls none of the
/// repository's libraries.
/// Chunks run between units of work, on the threads that do the work, and
/// their CPU time measures the host's speed at that moment. scale() turns
/// a time measured alongside into the time on a host where one chunk takes
/// kPaceNominalMs.
class Pace {
 public:
  /// Runs `chunks` chunks on the calling thread and returns their CPU ms.
  static double run_chunks(int chunks);
  /// Runs `chunks` chunks on the calling thread and records them; any
  /// number of threads may tick one Pace at once.
  void tick(int chunks);
  /// Mean CPU ms per recorded chunk.
  double chunk_ms() const;
  double scale() const;

 private:
  mutable std::mutex mu_;
  double cpu_ms_ = 0.0;
  int chunks_ = 0;
};

/// Median of `reps` set-up times at the nominal pace, in s. Each round
/// runs `reset` (untimed: it tears down the previous round's state), a pace
/// measurement of its own, then `setup` (timed).
template <typename Reset, typename Setup>
double paced_setup_s(int reps, Reset&& reset, Setup&& setup) {
  constexpr int kChunks = 10;
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    reset();
    const double chunk_ms = Pace::run_chunks(kChunks) / kChunks;
    const auto t0 = Clock::now();
    setup();
    s.push_back(ms_since(t0) / 1e3 * kPaceNominalMs / chunk_ms);
  }
  return median(std::move(s));
}

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset);
/// fnv1a over the bytes of `n` floats.
std::uint64_t fnv1a(const float* p, std::size_t n, std::uint64_t h = kFnvOffset);
/// Hash of every attribute and feature value's bytes: equal hashes mean
/// byte-identical datasets.
std::uint64_t fingerprint(const data::Dataset& d, std::uint64_t h = kFnvOffset);
std::string hex(std::uint64_t v);

/// Series that break the schema, hold a non-finite value, or whose length
/// is outside [1, max_len].
std::uint64_t count_invalid(const data::Dataset& d, const data::Schema& schema,
                            int max_len);

/// Loads examples/configs/<name>.schema and throws unless the synthetic
/// data's schema serializes to exactly the committed text, so a silent
/// change to either cannot change the model under test.
data::Schema committed_schema(const Options& o, const std::string& name,
                              const data::Schema& synth);
core::DoppelGangerConfig committed_config(const Options& o,
                                          const std::string& name);

/// Biases an untrained generator's continue/end flag logits so series run
/// to their caps; untrained flags end most series after a record or two.
void bias_flags_to_full_length(core::DoppelGanger& model);

/// Span collection and op/kernel profiling for a traced run. Spans are
/// drained into memory periodically so the library's span ring never wraps.
class TraceCapture {
 public:
  explicit TraceCapture(bool on) : on_(on) {}
  ~TraceCapture();
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  bool on() const { return on_; }
  /// Starts collecting when the capture is on.
  void start();
  void drain();
  /// Stops collection; the spans stay in events().
  void stop();
  const std::vector<obs::TraceEvent>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  bool on_;
  bool running_ = false;
  std::vector<obs::TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// Kernel and op rows of the profiler, rolled up per unit of work, plus
/// the unit's time outside the timed kernels.
void add_profile_layers(Result& r, double units, double unit_ms);

/// Timed calls into public functions from outside: both analyzers, tape
/// lowering, the codec, the three generation-step paths, and a single
/// thread matmul peak.
void add_probe_layers(Result& r, const core::DoppelGanger& model,
                      const data::Dataset& data);

Result run_train(const Options& o, bool gcut_dp);
Result run_generate(const Options& o);
Result run_serve(const Options& o);

}  // namespace dg::ledger
