#include "src/engine/plan_cache.h"

#include "src/util/check.h"

namespace minuet {

namespace {

// SplitMix64-style mixing; good avalanche, no external deps.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t FingerprintCoords(std::span<const Coord3> coords) {
  // Order-sensitive chained hash: h_{i+1} = mix(h_i ^ mix(key_i)). Packed keys
  // are unique per coordinate, so equal fingerprints mean (with overwhelming
  // probability) the same coordinates in the same presentation order.
  uint64_t h = Mix64(static_cast<uint64_t>(coords.size()));
  for (const Coord3& c : coords) {
    h = Mix64(h ^ Mix64(PackCoord(c)));
  }
  return h;
}

size_t PlanKeyHash::operator()(const PlanKey& key) const {
  uint64_t h = Mix64(key.coord_fingerprint ^ Mix64(key.config_fingerprint));
  for (char ch : key.device) {
    h = Mix64(h ^ static_cast<uint64_t>(static_cast<unsigned char>(ch)));
  }
  return static_cast<size_t>(h);
}

PlanCache::PlanCache(size_t capacity) : capacity_(capacity) {
  MINUET_CHECK(capacity_ > 0) << "PlanCache capacity must be positive";
}

std::shared_ptr<const ExecutionPlan> PlanCache::Lookup(const PlanKey& key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most-recently-used
  return it->second->second;
}

void PlanCache::Insert(const PlanKey& key, std::shared_ptr<const ExecutionPlan> plan) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.emplace_front(key, std::move(plan));
  index_.emplace(key, lru_.begin());
}

}  // namespace minuet
