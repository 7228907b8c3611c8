#include "serve/monitor.h"

#include <cstddef>
#include <cstdio>

#include "fault/failpoint.h"
#include "trace/trace.h"

namespace ccovid::serve {

// ------------------------------------------------------- result cache

std::uint64_t CachedResult::compute_digest() const {
  std::uint64_t h = fnv1a64(&probability, sizeof(probability));
  const std::uint8_t pos = positive ? 1 : 0;
  h = fnv1a64(&pos, sizeof(pos), h);
  h = fnv1a64(&threshold, sizeof(threshold), h);
  h = fnv1a64(&infection_burden, sizeof(infection_burden), h);
  h = fnv1a64(&lung_voxels, sizeof(lung_voxels), h);
  h = fnv1a64(&infected_voxels, sizeof(infected_voxels), h);
  return h;
}

std::uint64_t ResultCache::scan_key(const Tensor& volume_hu,
                                    bool use_enhancement, double threshold,
                                    core::Precision precision,
                                    bool graph_fusion, std::uint64_t epoch) {
  return fold_key(volume_digest(volume_hu), use_enhancement, threshold,
                  precision, graph_fusion, epoch);
}

std::uint64_t ResultCache::volume_digest(const Tensor& volume_hu) {
  // Volume bytes first (the bulk, through the word-parallel XXH64),
  // then its shape: equal bytes under a different shape are a
  // different scan.
  const std::size_t bytes =
      volume_hu.defined()
          ? static_cast<std::size_t>(volume_hu.numel()) * sizeof(real_t)
          : 0;
  std::uint64_t h = xxh64(volume_hu.data(), bytes);
  for (int d = 0; d < volume_hu.rank(); ++d) {
    const index_t extent = volume_hu.dim(d);
    h = fnv1a64(&extent, sizeof(extent), h);
  }
  return h;
}

std::uint64_t ResultCache::fold_key(std::uint64_t volume_digest,
                                    bool use_enhancement, double threshold,
                                    core::Precision precision,
                                    bool graph_fusion, std::uint64_t epoch) {
  // Every serving knob the output bits depend on, folded in with FNV-1a.
  std::uint64_t h = volume_digest;
  const std::uint8_t flags =
      static_cast<std::uint8_t>((use_enhancement ? 1 : 0) |
                                (graph_fusion ? 2 : 0));
  h = fnv1a64(&flags, sizeof(flags), h);
  h = fnv1a64(&threshold, sizeof(threshold), h);
  const std::int32_t prec = static_cast<std::int32_t>(precision);
  h = fnv1a64(&prec, sizeof(prec), h);
  h = fnv1a64(&epoch, sizeof(epoch), h);
  return h;
}

std::optional<CachedResult> ResultCache::lookup(std::uint64_t key) {
  if (auto f = CCOVID_FAILPOINT_FIRED("serve.cache.lookup")) {
    if (f.action == fault::Action::kError) {
      // Lookup degraded (e.g. the cache's backing store is briefly
      // unreachable): a miss, never an error — recompute covers it.
      degraded_lookups.fetch_add(1, std::memory_order_relaxed);
      misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  if (auto f = CCOVID_FAILPOINT_FIRED("serve.cache.evict")) {
    if (f.action == fault::Action::kError) {
      // Forced eviction of the entry we were about to hit: the request
      // must degrade to recompute exactly as if capacity had taken it.
      lru_.erase(it->second.lru_it);
      map_.erase(it);
      forced_evictions.fetch_add(1, std::memory_order_relaxed);
      misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
  }
  if (auto f = CCOVID_FAILPOINT_FIRED("serve.cache.poison")) {
    if (f.action == fault::Action::kCorrupt) {
      // Damage the STORED payload (not the copy we hand out) before
      // verification — the self-digest check below must catch it.
      fault::corrupt_bytes(&it->second.result,
                           offsetof(CachedResult, self_digest), f.seed,
                           f.count);
    }
  }
  if (it->second.result.compute_digest() != it->second.result.self_digest) {
    // Poisoned entry: drop it and miss. Serving it would hand the
    // client bits no recomputation could reproduce.
    TRACE_INSTANT_ID("serve.cache.poisoned", key);
    lru_.erase(it->second.lru_it);
    map_.erase(it);
    poisoned_dropped.fetch_add(1, std::memory_order_relaxed);
    misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  hits.fetch_add(1, std::memory_order_relaxed);
  return it->second.result;
}

void ResultCache::insert(std::uint64_t key, CachedResult r,
                         std::uint64_t at_epoch) {
  if (auto f = CCOVID_FAILPOINT_FIRED("serve.cache.invalidate")) {
    if (f.action == fault::Action::kError) {
      // Invalidation lands between this request's compute and its
      // insert — the epoch check below must drop the insert.
      invalidate("failpoint:serve.cache.invalidate");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (at_epoch != epoch_.load(std::memory_order_acquire)) {
    // Computed under a configuration that has since been invalidated:
    // inserting would resurrect retired bits under a key future
    // requests (new epoch) can never form — but dropping is still the
    // only safe choice, because the entry's payload may describe
    // weights that no longer exist.
    stale_inserts.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (opt_.cache_capacity == 0) return;
  auto it = map_.find(key);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    it->second.result = r;
    return;
  }
  while (map_.size() >= opt_.cache_capacity) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    evictions.fetch_add(1, std::memory_order_relaxed);
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{r, lru_.begin()});
  inserts.fetch_add(1, std::memory_order_relaxed);
}

void ResultCache::invalidate(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  // Epoch first: any in-flight request sampled the old epoch, so both
  // its future lookups (key mismatch) and its insert (epoch mismatch)
  // die — then the entries themselves go.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  invalidated_entries.fetch_add(map_.size(), std::memory_order_relaxed);
  invalidations.fetch_add(1, std::memory_order_relaxed);
  map_.clear();
  lru_.clear();
  last_reason_ = reason;
  TRACE_INSTANT_ID("serve.cache.invalidate",
                   epoch_.load(std::memory_order_relaxed));
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::string ResultCache::last_invalidate_reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_reason_;
}

// ------------------------------------------------------ session store

void SessionStore::expire_locked(double now_s) {
  if (opt_.session_ttl_s <= 0.0) return;
  // Lazy sweep from the cold end of the LRU list; stops at the first
  // live session, so the amortized cost per observe is O(1).
  while (!lru_.empty()) {
    auto it = map_.find(lru_.back());
    if (it == map_.end()) {
      lru_.pop_back();
      continue;
    }
    if (now_s - it->second.last_touch_s <= opt_.session_ttl_s) break;
    lru_.pop_back();
    map_.erase(it);
    expired.fetch_add(1, std::memory_order_relaxed);
  }
}

ScanDelta SessionStore::observe(std::uint64_t patient_id, double burden,
                                double now_s, const SessionPrior* prior) {
  std::lock_guard<std::mutex> lock(mu_);
  expire_locked(now_s);
  if (auto f = CCOVID_FAILPOINT_FIRED("serve.session.drop")) {
    if (f.action == fault::Action::kError) {
      auto it = map_.find(patient_id);
      if (it != map_.end()) {
        lru_.erase(it->second.lru_it);
        map_.erase(it);
        dropped.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  auto it = map_.find(patient_id);
  if (it == map_.end()) {
    while (map_.size() >= opt_.session_capacity && !lru_.empty()) {
      auto victim = map_.find(lru_.back());
      lru_.pop_back();
      if (victim != map_.end()) {
        map_.erase(victim);
        evicted.fetch_add(1, std::memory_order_relaxed);
      }
    }
    lru_.push_front(patient_id);
    it = map_.emplace(patient_id, Session{}).first;
    it->second.lru_it = lru_.begin();
    if (prior != nullptr && prior->seq > 1) {
      // A follow-up scan arriving at a store with no record: a fresh
      // worker after failover, or a record lost to TTL/eviction/drop.
      // The authoritative prior rebuilds continuity exactly.
      rebuilt.fetch_add(1, std::memory_order_relaxed);
    } else {
      created.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  }
  Session& s = it->second;
  s.last_touch_s = now_s;

  ScanDelta d;
  d.burden = burden;
  if (prior != nullptr) {
    // Routing layer owns ordinals and priors: use its bits verbatim so
    // failover re-dispatch reproduces the identical delta, then make
    // the local record agree (the rebuild).
    d.seq = prior->seq;
    d.first = prior->seq <= 1;
    if (!d.first) {
      d.delta_vs_prev = burden - prior->prev_burden;
      d.delta_vs_baseline = burden - prior->baseline_burden;
      s.baseline_burden = prior->baseline_burden;
    } else {
      s.baseline_burden = burden;
    }
    s.seq = d.seq;
  } else {
    d.seq = ++s.seq;
    d.first = d.seq == 1;
    if (d.first) {
      s.baseline_burden = burden;
    } else {
      d.delta_vs_prev = burden - s.prev_burden;
      d.delta_vs_baseline = burden - s.baseline_burden;
    }
  }
  s.prev_burden = burden;
  s.history.push_front(d);
  while (s.history.size() > opt_.history_capacity) s.history.pop_back();
  scans.fetch_add(1, std::memory_order_relaxed);
  return d;
}

std::optional<SessionPrior> SessionStore::snapshot(std::uint64_t patient_id,
                                                   double now_s) {
  std::lock_guard<std::mutex> lock(mu_);
  expire_locked(now_s);
  auto it = map_.find(patient_id);
  if (it == map_.end()) return std::nullopt;
  SessionPrior p;
  p.seq = it->second.seq;
  p.prev_burden = it->second.prev_burden;
  p.baseline_burden = it->second.baseline_burden;
  return p;
}

std::size_t SessionStore::patients() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

// ------------------------------------------------------------ monitor

std::string Monitor::stats_json() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"cache\":{\"size\":%zu,\"epoch\":%llu,\"hits\":%llu,"
      "\"misses\":%llu,\"inserts\":%llu,\"evictions\":%llu,"
      "\"invalidations\":%llu,\"invalidated_entries\":%llu,"
      "\"stale_inserts\":%llu,\"poisoned_dropped\":%llu,"
      "\"forced_evictions\":%llu,\"degraded_lookups\":%llu},"
      "\"session\":{\"patients\":%zu,\"scans\":%llu,\"created\":%llu,"
      "\"rebuilt\":%llu,\"expired\":%llu,\"evicted\":%llu,"
      "\"dropped\":%llu}}",
      cache_.size(),
      static_cast<unsigned long long>(cache_.epoch()),
      static_cast<unsigned long long>(cache_.hits.load()),
      static_cast<unsigned long long>(cache_.misses.load()),
      static_cast<unsigned long long>(cache_.inserts.load()),
      static_cast<unsigned long long>(cache_.evictions.load()),
      static_cast<unsigned long long>(cache_.invalidations.load()),
      static_cast<unsigned long long>(cache_.invalidated_entries.load()),
      static_cast<unsigned long long>(cache_.stale_inserts.load()),
      static_cast<unsigned long long>(cache_.poisoned_dropped.load()),
      static_cast<unsigned long long>(cache_.forced_evictions.load()),
      static_cast<unsigned long long>(cache_.degraded_lookups.load()),
      sessions_.patients(),
      static_cast<unsigned long long>(sessions_.scans.load()),
      static_cast<unsigned long long>(sessions_.created.load()),
      static_cast<unsigned long long>(sessions_.rebuilt.load()),
      static_cast<unsigned long long>(sessions_.expired.load()),
      static_cast<unsigned long long>(sessions_.evicted.load()),
      static_cast<unsigned long long>(sessions_.dropped.load()));
  return buf;
}

}  // namespace ccovid::serve
