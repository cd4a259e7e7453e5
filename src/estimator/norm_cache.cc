#include "estimator/norm_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace lpb {
namespace {

// Approximate heap footprint of one cached entry: the key is stored twice
// (map node + LRU list node), plus the norms vector and node overheads.
size_t EntryBytes(const ShardedNormCache::Key& key,
                  const std::vector<double>& norms) {
  const size_t key_bytes = std::get<0>(key).size() +
                           std::get<1>(key).size() * sizeof(int) +
                           std::get<2>(key).size() * sizeof(int) +
                           sizeof(ShardedNormCache::Key);
  return 2 * key_bytes + norms.size() * sizeof(double) + 128;
}

}  // namespace

ShardedNormCache::ShardedNormCache(NormCacheOptions options)
    : options_(options) {
  const int shards = std::max(1, options_.shards);
  shards_.reserve(shards);
  for (int s = 0; s < shards; ++s) shards_.push_back(std::make_unique<Shard>());
  if (options_.byte_budget > 0) {
    per_shard_budget_ = std::max<size_t>(1, options_.byte_budget / shards);
  }
}

size_t ShardedNormCache::ShardIndexOf(const std::string& relation) const {
  return std::hash<std::string>{}(relation) % shards_.size();
}

ShardedNormCache::Shard& ShardedNormCache::ShardOf(
    const std::string& relation) {
  return *shards_[ShardIndexOf(relation)];
}

const ShardedNormCache::Shard& ShardedNormCache::ShardOf(
    const std::string& relation) const {
  return *shards_[ShardIndexOf(relation)];
}

ShardedNormCache::Lookup ShardedNormCache::GetLocked(Shard& shard,
                                                     const Key& key) {
  Lookup out;
  auto gen_it = shard.relation_generation.find(std::get<0>(key));
  out.generation =
      gen_it == shard.relation_generation.end() ? 0 : gen_it->second;
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    return out;
  }
  // Refresh recency: splice the entry's node to the back of the LRU list.
  shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
  ++shard.hits;
  out.found = true;
  out.norms = it->second.norms;
  return out;
}

ShardedNormCache::Lookup ShardedNormCache::Get(const Key& key) {
  Shard& shard = ShardOf(std::get<0>(key));
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.lock_acquisitions;
  return GetLocked(shard, key);
}

void ShardedNormCache::PutLocked(Shard& shard, const Key& key,
                                 std::vector<double> norms,
                                 uint64_t generation) {
  auto gen_it = shard.relation_generation.find(std::get<0>(key));
  const uint64_t current =
      gen_it == shard.relation_generation.end() ? 0 : gen_it->second;
  if (current != generation) return;  // this relation was invalidated
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // A racing thread computed the same entry; identical values, so just
    // refresh recency.
    shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
    return;
  }
  Entry entry;
  entry.bytes = EntryBytes(key, norms);
  entry.norms = std::move(norms);
  entry.lru_it = shard.lru.insert(shard.lru.end(), key);
  shard.bytes += entry.bytes;
  shard.map.emplace(key, std::move(entry));
  if (per_shard_budget_ == 0) return;
  while (shard.bytes > per_shard_budget_ && shard.map.size() > 1) {
    // Evict from the LRU front; never evict the entry just inserted (the
    // size() > 1 guard), so an oversized single entry still serves.
    auto victim = shard.map.find(shard.lru.front());
    shard.bytes -= victim->second.bytes;
    shard.lru.pop_front();
    shard.map.erase(victim);
    ++shard.evictions;
  }
}

void ShardedNormCache::Put(const Key& key, std::vector<double> norms,
                           uint64_t generation) {
  Shard& shard = ShardOf(std::get<0>(key));
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.lock_acquisitions;
  PutLocked(shard, key, std::move(norms), generation);
}

template <typename RelationOf>
std::vector<size_t> ShardedNormCache::ShardOrder(
    size_t n, RelationOf relation_of, std::vector<size_t>& starts) const {
  // A counting sort of 0..n-1 by shard, stable, so each shard's keys keep
  // their input order: positions starts[s] .. starts[s + 1] of the result
  // are shard s's.
  std::vector<uint32_t> shard(n);
  starts.assign(shards_.size() + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    shard[i] = static_cast<uint32_t>(ShardIndexOf(relation_of(i)));
    ++starts[shard[i] + 1];
  }
  for (size_t s = 0; s < shards_.size(); ++s) starts[s + 1] += starts[s];
  std::vector<size_t> order(n);
  std::vector<size_t> next(starts.begin(), starts.end() - 1);
  for (size_t i = 0; i < n; ++i) order[next[shard[i]]++] = i;
  return order;
}

std::vector<ShardedNormCache::Lookup> ShardedNormCache::GetBatch(
    std::span<const Key> keys) {
  std::vector<Lookup> out(keys.size());
  // Visit each touched shard once. Shards are locked one at a time in
  // index order (never nested), so batches racing each other or scalar
  // calls cannot deadlock.
  std::vector<size_t> starts;
  const std::vector<size_t> order = ShardOrder(
      keys.size(),
      [&](size_t i) -> const std::string& { return std::get<0>(keys[i]); },
      starts);
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (starts[s] == starts[s + 1]) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.lock_acquisitions;
    for (size_t k = starts[s]; k < starts[s + 1]; ++k) {
      out[order[k]] = GetLocked(shard, keys[order[k]]);
    }
  }
  return out;
}

void ShardedNormCache::PutBatch(std::vector<PutItem> items) {
  std::vector<size_t> starts;
  const std::vector<size_t> order = ShardOrder(
      items.size(),
      [&](size_t i) -> const std::string& {
        return std::get<0>(items[i].key);
      },
      starts);
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (starts[s] == starts[s + 1]) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.lock_acquisitions;
    for (size_t k = starts[s]; k < starts[s + 1]; ++k) {
      PutItem& item = items[order[k]];
      PutLocked(shard, item.key, std::move(item.norms), item.generation);
    }
  }
}

void ShardedNormCache::InvalidateRelation(const std::string& relation) {
  Shard& shard = ShardOf(relation);
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.lock_acquisitions;
  // In-flight computations for this relation must not re-insert; other
  // relations in the shard are unaffected.
  ++shard.relation_generation[relation];
  for (auto it = shard.map.begin(); it != shard.map.end();) {
    if (std::get<0>(it->first) == relation) {
      shard.bytes -= it->second.bytes;
      shard.lru.erase(it->second.lru_it);
      it = shard.map.erase(it);
    } else {
      ++it;
    }
  }
}

size_t ShardedNormCache::Size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

size_t ShardedNormCache::Bytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->bytes;
  }
  return total;
}

uint64_t ShardedNormCache::Evictions() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->evictions;
  }
  return total;
}

uint64_t ShardedNormCache::Hits() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->hits;
  }
  return total;
}

uint64_t ShardedNormCache::Misses() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->misses;
  }
  return total;
}

uint64_t ShardedNormCache::LockAcquisitions() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lock_acquisitions;
  }
  return total;
}

}  // namespace lpb
