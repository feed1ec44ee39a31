// Seed-addressed generation cache for the shard router.
//
// Correctness argument (why a cache is even allowed in front of a
// generator): a series is a pure function of (package bytes, request seed,
// attribute mode, caps). The sampler forks one RNG stream per series from
// the request seed and the tape/SIMD tiers are bit-identical across thread
// counts and slot widths, so two executions of the same request against the
// same weights produce byte-identical objects — on any worker, at any
// replica count. The cache key is exactly that function's domain: the
// package content hash plus the canonicalized request (client-chosen `id`
// zeroed — it is an echo field, not an input to generation). A hit is
// therefore not an approximation; it IS the answer the worker would have
// produced.
//
// Invalidation: the router drops the whole cache whenever the fleet's
// consensus package hash changes (rolling reload), and refuses to insert
// replies whose own package_hash disagrees with the consensus — a reply
// generated mid-rollout by a not-yet-upgraded worker can never be served
// under the new package's identity.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "serve/types.h"

namespace dg::serve::shard {

/// Canonical cache key: package hash + '\n' + the request's wire form with
/// `id` zeroed. Returns "" (uncacheable) when the hash is empty — a fleet
/// serving injected models, or no consensus during a rolling reload.
std::string cache_key(const std::string& package_hash, const GenRequest& req);

/// Whether the router may cache `reply`, a generate reply line, under the
/// fleet's consensus package hash: the request succeeded (`ok`), every
/// series came back (`complete`), and the producing package is the
/// fleet's. False for an empty `fleet_hash` (no consensus). Decided by byte
/// scans, not a DOM parse: a reply carries count*len*k series floats, and
/// parsing them to read three header fields costs more than the routing.
/// Sound for the output of append_response (serve/protocol.h), the one
/// writer of generate replies, only. It escapes '"' inside strings, so a
/// bare `"key":` is always a key, and it writes `objects` last, so the
/// scans stop there: an attribute a schema names `ok` or `package_hash` is
/// data inside the objects, not a reply field.
bool reply_cacheable(std::string_view reply, std::string_view fleet_hash);

/// Rewrites the `id` field of a cached reply line to the requesting
/// client's id. Replies are written by append_response, which always
/// starts with `{"id":<n>,...`, so this is a prefix splice; a full JSON
/// round-trip fallback covers anything else.
std::string rewrite_reply_id(const std::string& reply, std::uint64_t id);

/// Thread-safe LRU over complete reply lines (verbatim worker output).
/// Hit/miss/eviction accounting lives in the router's registry, not here.
class GenCache {
 public:
  /// capacity 0 disables the cache (lookup always misses, insert drops).
  explicit GenCache(std::size_t capacity) : capacity_(capacity) {}

  GenCache(const GenCache&) = delete;
  GenCache& operator=(const GenCache&) = delete;

  /// True on hit; copies the cached reply line out and marks it
  /// most-recently-used.
  bool lookup(const std::string& key, std::string& reply_out);

  /// Inserts (or refreshes) a reply. Returns true when an old entry was
  /// evicted to make room.
  bool insert(const std::string& key, std::string reply);

  /// Drops everything; returns the number of entries removed.
  std::size_t invalidate();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  using Entry = std::pair<std::string, std::string>;  // key, reply

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace dg::serve::shard
