#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json_string.h"
#include "obs/tracectx.h"

namespace dg::obs {

double exact_quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest-rank: the smallest value with at least ceil(q*n) samples <= it.
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank > 0) --rank;  // to 0-based index
  rank = std::min(rank, values.size() - 1);
  return values[rank];
}

std::vector<double> Histogram::default_bounds() {
  std::vector<double> b;
  for (double u = 0.01; u < 1e5; u *= 4.0) b.push_back(u);
  return b;
}

Histogram::Histogram(HistogramOptions opts)
    : bounds_(opts.bounds.empty() ? default_bounds() : std::move(opts.bounds)),
      buckets_(bounds_.size() + 1, 0),
      window_cap_(opts.window) {
  window_.reserve(window_cap_);
}

void Histogram::record(double v, std::uint64_t trace_id) {
  MutexLock lock(mu_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  ++buckets_[bucket];
  if (trace_id != 0) {
    if (exemplars_.empty()) exemplars_.resize(buckets_.size());
    Exemplar& ex = exemplars_[bucket];
    if (ex.trace_id == 0 || v >= ex.value) ex = Exemplar{trace_id, v};
  }
  if (count_ == 0 || v < min_) min_ = v;
  if (count_ == 0 || v > max_) max_ = v;
  ++count_;
  sum_ += v;
  if (window_cap_ == 0) return;
  if (window_.size() < window_cap_) {
    window_.push_back(v);
  } else {
    window_[pos_] = v;
    pos_ = (pos_ + 1) % window_cap_;
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  std::vector<double> window_copy;
  {
    MutexLock lock(mu_);
    s.count = count_;
    s.sum = sum_;
    s.min = min_;
    s.max = max_;
    s.bounds = bounds_;
    s.buckets = buckets_;
    s.exemplars = exemplars_;
    // Only the filled portion of the ring participates in the order
    // statistics; window_ never contains unwritten slots by construction
    // (it grows element-by-element up to window_cap_).
    window_copy = window_;
  }
  s.window_filled = window_copy.size();
  if (!window_copy.empty()) {
    std::sort(window_copy.begin(), window_copy.end());
    const auto at = [&](double q) {
      const double n = static_cast<double>(window_copy.size());
      std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
      if (rank > 0) --rank;
      return window_copy[std::min(rank, window_copy.size() - 1)];
    };
    s.p50 = at(0.50);
    s.p90 = at(0.90);
    s.p99 = at(0.99);
  }
  return s;
}

void Histogram::reset() {
  MutexLock lock(mu_);
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
  window_.clear();
  pos_ = 0;
  exemplars_.clear();
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

Counter& Registry::counter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name, HistogramOptions opts) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(opts)))
             .first;
  }
  return *it->second;
}

RegistrySnapshot Registry::snapshot() const {
  RegistrySnapshot s;
  MutexLock lock(mu_);
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->get());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->get());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.emplace_back(name, h->snapshot());
  }
  return s;
}

void Registry::reset() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

namespace {

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::string to_json(const RegistrySnapshot& snap) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_number(out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"count\":" + std::to_string(h.count);
    out += ",\"sum\":";
    append_number(out, h.sum);
    out += ",\"min\":";
    append_number(out, h.min);
    out += ",\"max\":";
    append_number(out, h.max);
    out += ",\"p50\":";
    append_number(out, h.p50);
    out += ",\"p90\":";
    append_number(out, h.p90);
    out += ",\"p99\":";
    append_number(out, h.p99);
    out += ",\"window\":" + std::to_string(h.window_filled);
    out += ",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out += ',';
      append_number(out, h.bounds[i]);
    }
    out += "],\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(h.buckets[i]);
    }
    out += ']';
    // Omitted-when-absent, and sparse: only buckets holding an exemplar.
    bool any_ex = false;
    for (const Exemplar& ex : h.exemplars) any_ex |= ex.trace_id != 0;
    if (any_ex) {
      out += ",\"exemplars\":[";
      bool ex_first = true;
      for (std::size_t i = 0; i < h.exemplars.size(); ++i) {
        if (h.exemplars[i].trace_id == 0) continue;
        if (!ex_first) out += ',';
        ex_first = false;
        out += "{\"bucket\":" + std::to_string(i);
        out += ",\"trace\":";
        append_json_string(out, trace_id_hex(h.exemplars[i].trace_id));
        out += ",\"v\":";
        append_number(out, h.exemplars[i].value);
        out += '}';
      }
      out += ']';
    }
    out += '}';
  }
  out += "}}";
  return out;
}

namespace {

// Nearest-rank quantile over a merged bucket CDF: the upper bound of the
// first bucket whose cumulative count reaches ceil(q * total). The overflow
// bucket (past the last bound) reports the lifetime max instead — there is
// no finite upper bound to name.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& buckets,
                       std::uint64_t total, double max_seen, double q) {
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank && rank > 0) {
      // Clamp to the lifetime max: a sparsely-filled bucket's upper bound
      // can exceed every sample actually seen.
      return i < bounds.size() ? std::min(bounds[i], max_seen) : max_seen;
    }
  }
  return max_seen;
}

}  // namespace

RegistrySnapshot merge_snapshots(const std::vector<RegistrySnapshot>& parts) {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  struct HistAcc {
    HistogramSnapshot h;
    bool bounds_ok = true;   // all parts so far shared one bounds vector
    bool started = false;
    double fallback_p50 = 0.0, fallback_p90 = 0.0, fallback_p99 = 0.0;
  };
  std::map<std::string, HistAcc> hists;

  for (const RegistrySnapshot& p : parts) {
    for (const auto& [name, v] : p.counters) counters[name] += v;
    for (const auto& [name, v] : p.gauges) gauges[name] += v;
    for (const auto& [name, h] : p.histograms) {
      HistAcc& acc = hists[name];
      if (!acc.started) {
        acc.h.bounds = h.bounds;
        acc.h.buckets.assign(h.bounds.size() + 1, 0);
        acc.h.min = h.min;
        acc.h.max = h.max;
        acc.started = true;
      }
      if (h.count > 0) {
        if (acc.h.count == 0 || h.min < acc.h.min) acc.h.min = h.min;
        if (acc.h.count == 0 || h.max > acc.h.max) acc.h.max = h.max;
      }
      acc.h.count += h.count;
      acc.h.sum += h.sum;
      acc.h.window_filled += h.window_filled;
      if (h.bounds == acc.h.bounds && h.buckets.size() == acc.h.buckets.size()) {
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
          acc.h.buckets[i] += h.buckets[i];
        }
        if (!h.exemplars.empty()) {
          if (acc.h.exemplars.empty()) {
            acc.h.exemplars.resize(acc.h.buckets.size());
          }
          const std::size_t n =
              std::min(h.exemplars.size(), acc.h.exemplars.size());
          for (std::size_t i = 0; i < n; ++i) {
            const Exemplar& ex = h.exemplars[i];
            if (ex.trace_id == 0) continue;
            Exemplar& dst = acc.h.exemplars[i];
            if (dst.trace_id == 0 || ex.value > dst.value) dst = ex;
          }
        }
      } else {
        acc.bounds_ok = false;
      }
      acc.fallback_p50 = std::max(acc.fallback_p50, h.p50);
      acc.fallback_p90 = std::max(acc.fallback_p90, h.p90);
      acc.fallback_p99 = std::max(acc.fallback_p99, h.p99);
    }
  }

  RegistrySnapshot out;
  out.counters.assign(counters.begin(), counters.end());
  out.gauges.assign(gauges.begin(), gauges.end());
  out.histograms.reserve(hists.size());
  for (auto& [name, acc] : hists) {
    if (acc.bounds_ok) {
      acc.h.p50 = bucket_quantile(acc.h.bounds, acc.h.buckets, acc.h.count,
                                  acc.h.max, 0.50);
      acc.h.p90 = bucket_quantile(acc.h.bounds, acc.h.buckets, acc.h.count,
                                  acc.h.max, 0.90);
      acc.h.p99 = bucket_quantile(acc.h.bounds, acc.h.buckets, acc.h.count,
                                  acc.h.max, 0.99);
    } else {
      acc.h.p50 = acc.fallback_p50;
      acc.h.p90 = acc.fallback_p90;
      acc.h.p99 = acc.fallback_p99;
      acc.h.exemplars.clear();  // bucket indices don't line up across bounds
    }
    out.histograms.emplace_back(name, std::move(acc.h));
  }
  return out;
}

}  // namespace dg::obs
