#include "serve/shard/cache.h"

#include <cctype>

#include "serve/protocol.h"

namespace dg::serve::shard {

std::string cache_key(const std::string& package_hash, const GenRequest& req) {
  if (package_hash.empty()) return {};
  GenRequest canonical = req;
  canonical.id = 0;   // echo field, not a generation input
  canonical.trace = {};  // observability identity, not a generation input
  return package_hash + "\n" + json::dump(request_to_json(canonical));
}

bool reply_cacheable(std::string_view reply, std::string_view fleet_hash) {
  if (fleet_hash.empty()) return false;
  const std::string_view header = reply.substr(0, reply.find("\"objects\":"));
  if (header.find("\"ok\":true") == std::string_view::npos ||
      header.find("\"complete\":true") == std::string_view::npos) {
    return false;
  }
  constexpr std::string_view kHash = "\"package_hash\":\"";
  const std::size_t p = header.find(kHash);
  if (p == std::string_view::npos) return false;
  const std::size_t start = p + kHash.size();
  // package_hash is bare hex, never escaped.
  const std::size_t end = header.find('"', start);
  return end != std::string_view::npos &&
         header.substr(start, end - start) == fleet_hash;
}

std::string rewrite_reply_id(const std::string& reply, std::uint64_t id) {
  static constexpr const char kPrefix[] = "{\"id\":";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (reply.compare(0, kPrefixLen, kPrefix) == 0) {
    std::size_t end = kPrefixLen;
    while (end < reply.size() &&
           std::isdigit(static_cast<unsigned char>(reply[end]))) {
      ++end;
    }
    if (end > kPrefixLen) {
      return kPrefix + std::to_string(id) + reply.substr(end);
    }
  }
  json::Value v = json::parse(reply);
  v.set("id", id);
  return json::dump(v);
}

bool GenCache::lookup(const std::string& key, std::string& reply_out) {
  if (capacity_ == 0 || key.empty()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);
  reply_out = it->second->second;
  return true;
}

bool GenCache::insert(const std::string& key, std::string reply) {
  if (capacity_ == 0 || key.empty()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(reply);
    lru_.splice(lru_.begin(), lru_, it->second);
    return false;
  }
  lru_.emplace_front(key, std::move(reply));
  index_.emplace(key, lru_.begin());
  if (lru_.size() <= capacity_) return false;
  index_.erase(lru_.back().first);
  lru_.pop_back();
  return true;
}

std::size_t GenCache::invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = lru_.size();
  index_.clear();
  lru_.clear();
  return n;
}

std::size_t GenCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace dg::serve::shard
