// Streaming longitudinal monitoring (ROADMAP item 5b): the state the
// paper's "monitoring" claim needs on top of the stateless serving
// stack — a per-patient session store, a content-addressed result
// cache, and the infection-burden delta engine.
//
//   submit(patient, scan) ──► ScanKey = XXH64(volume bytes)
//                                       ⊕ enhancement ⊕ threshold bits
//                                       ⊕ precision ⊕ cache epoch
//                               │
//                   ┌───────────┴───────────┐
//                   ▼ hit (self-digest ok)  ▼ miss / poisoned / evicted
//             cached Diagnosis        pipeline recompute ──► insert
//                   └───────────┬───────────┘
//                               ▼
//                  SessionStore::observe(patient, burden)
//                               │ delta vs prev + baseline
//                               ▼
//                  DiagnoseResponse{burden, Δprev, Δbaseline, seq}
//
// Cache correctness contract (chaos-gated in CI, see
// tests/chaos/chaos_monitor.cpp and the monitor-determinism job):
//
//   - a hit returns the EXACT bits a recomputation would produce: the
//     key covers every input the pipeline result depends on (volume
//     bytes, workflow shape, storage precision), and keys
//     carry the cache epoch so entries computed under a retired
//     configuration can never be read back;
//   - entries self-verify: each stores an FNV digest of its payload,
//     re-checked on every hit. A poisoned entry (bit-flipped by the
//     serve.cache.poison failpoint or a real memory fault) fails the
//     check, is dropped, and the request degrades to recompute — stale
//     or damaged bits are never served;
//   - invalidation orders against in-flight work: invalidate() bumps
//     the epoch FIRST, then clears; an insert racing the invalidation
//     carries the old epoch and is dropped (stale_inserts counter)
//     instead of resurrecting a pre-invalidation result.
//
// Session correctness contract: deltas telescope. For one patient,
// sum(burden_delta over scans 2..N) == burden_N - burden_1, each scan
// ordinal appears exactly once, and this holds across worker death
// because the ROUTING layer owns the ordinals: the front door numbers
// scans and ships (seq, prev burden, baseline burden) inside the
// request, so a failed-over request re-sent verbatim to a fresh worker
// yields bit-identical deltas (no lost, no double-counted scans). The
// worker's own store is a rebuildable cache of that history, used only
// when no authoritative prior rides the request (single-process mode).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/digest.h"
#include "core/precision.h"
#include "core/tensor.h"

namespace ccovid::serve {

struct MonitorOptions {
  std::size_t cache_capacity = 256;    ///< result-cache entries (LRU)
  std::size_t session_capacity = 1024; ///< tracked patients (LRU)
  std::size_t history_capacity = 64;   ///< scans remembered per patient
  /// Sessions idle longer than this are expired lazily on the next
  /// store access. 0 = never expire.
  double session_ttl_s = 0.0;
};

/// One cached diagnosis: the payload a hit must reproduce bit-for-bit.
/// `self_digest` is FNV over every payload field; lookup() re-derives
/// it so damaged entries are detected instead of served.
struct CachedResult {
  double probability = 0.0;
  bool positive = false;
  double threshold = 0.5;
  double infection_burden = 0.0;
  std::uint64_t lung_voxels = 0;
  std::uint64_t infected_voxels = 0;
  std::uint64_t self_digest = 0;

  std::uint64_t compute_digest() const;
  void seal() { self_digest = compute_digest(); }
};

/// Per-scan longitudinal result of SessionStore::observe.
struct ScanDelta {
  std::uint64_t seq = 0;  ///< 1-based scan ordinal for this patient
  double burden = 0.0;
  double delta_vs_prev = 0.0;      ///< 0 for the first scan
  double delta_vs_baseline = 0.0;  ///< 0 for the first scan
  bool first = false;
};

/// Authoritative prior handed down by the routing layer (see
/// ServeOptions::has_prior); seq is the ordinal the routing layer
/// assigned to THIS scan.
struct SessionPrior {
  std::uint64_t seq = 0;
  double prev_burden = 0.0;
  double baseline_burden = 0.0;
};

/// Content-addressed result cache with LRU eviction, self-verifying
/// entries, and epoch-ordered invalidation. Thread-safe; every counter
/// is monotonic.
class ResultCache {
 public:
  explicit ResultCache(const MonitorOptions& opt) : opt_(opt) {}

  /// Key of one (scan, serving configuration) cell. XXH64 of the volume
  /// bytes, folded (FNV-1a) with the volume's shape and every knob the
  /// output bits depend on, plus `epoch` so invalidation retires all
  /// outstanding keys at once. Lives only in memory: no file or frame
  /// stores it. Equals fold_key(volume_digest(volume_hu), ...).
  static std::uint64_t scan_key(const Tensor& volume_hu,
                                bool use_enhancement, double threshold,
                                core::Precision precision, bool graph_fusion,
                                std::uint64_t epoch);

  /// The volume half of scan_key: XXH64 of the bytes, folded with the
  /// shape. It is the bulk of a key's cost and depends on no serving
  /// knob or epoch, so the server takes it at admission, on the
  /// submitter's thread.
  static std::uint64_t volume_digest(const Tensor& volume_hu);

  /// The cheap half of scan_key: folds the serving knobs and `epoch`
  /// into a volume_digest. The server always passes `graph_fusion`
  /// true (networks always run their fused graph); the field stays so
  /// that the key bits do not move.
  static std::uint64_t fold_key(std::uint64_t volume_digest,
                                bool use_enhancement, double threshold,
                                core::Precision precision, bool graph_fusion,
                                std::uint64_t epoch);

  /// Current epoch; sample it ONCE per request, before lookup, and pass
  /// the same value to insert() — that ordering is what makes
  /// invalidate-mid-request safe.
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Verified lookup. Failpoints: `serve.cache.lookup` (error → forced
  /// miss), `serve.cache.evict` (error → entry force-evicted, miss),
  /// `serve.cache.poison` (corrupt → stored payload bytes damaged
  /// before verification; the self-digest check must catch it).
  std::optional<CachedResult> lookup(std::uint64_t key);

  /// Inserts a sealed result computed under `at_epoch`. Dropped (and
  /// counted in stale_inserts) when an invalidation happened since the
  /// epoch was sampled. Failpoint: `serve.cache.invalidate` (error →
  /// invalidate("failpoint") runs first, so this very insert is the
  /// one that gets dropped).
  void insert(std::uint64_t key, CachedResult r, std::uint64_t at_epoch);

  /// Retires every entry and all outstanding epochs (weight reload,
  /// precision/config change, operator request). Named reasons land in
  /// the stats JSON.
  void invalidate(const std::string& reason);

  std::size_t size() const;

  // Counters (relaxed monotonic).
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> inserts{0};
  std::atomic<std::uint64_t> evictions{0};      ///< capacity LRU
  std::atomic<std::uint64_t> invalidations{0};  ///< invalidate() calls
  std::atomic<std::uint64_t> invalidated_entries{0};
  std::atomic<std::uint64_t> stale_inserts{0};  ///< dropped by epoch check
  std::atomic<std::uint64_t> poisoned_dropped{0};
  std::atomic<std::uint64_t> forced_evictions{0};  ///< serve.cache.evict
  std::atomic<std::uint64_t> degraded_lookups{0};  ///< serve.cache.lookup

  std::string last_invalidate_reason() const;

 private:
  struct Entry {
    CachedResult result;
    std::list<std::uint64_t>::iterator lru_it;
  };

  MonitorOptions opt_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> map_;
  std::list<std::uint64_t> lru_;  ///< front = most recently used
  std::atomic<std::uint64_t> epoch_{0};
  std::string last_reason_;
};

/// Per-patient longitudinal session store: bounded scan history, LRU
/// patient eviction, lazy TTL expiry. Thread-safe.
class SessionStore {
 public:
  explicit SessionStore(const MonitorOptions& opt) : opt_(opt) {}

  /// Records one scan and returns its deltas. When `prior` is non-null
  /// the routing layer's (seq, prev, baseline) are authoritative — the
  /// local record is rebuilt from them (failover recovery); otherwise
  /// the local history assigns the ordinal. `now_s` is any monotonic
  /// clock (tests drive it manually for TTL determinism). Failpoint:
  /// `serve.session.drop` (error → this patient's local record is
  /// dropped first, exercising the rebuild path).
  ScanDelta observe(std::uint64_t patient_id, double burden, double now_s,
                    const SessionPrior* prior);

  /// Last-known (seq, prev, baseline) for a patient; nullopt when the
  /// session is absent or expired.
  std::optional<SessionPrior> snapshot(std::uint64_t patient_id,
                                       double now_s);

  std::size_t patients() const;

  // Counters (relaxed monotonic).
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> created{0};
  std::atomic<std::uint64_t> rebuilt{0};  ///< recreated from a prior
  std::atomic<std::uint64_t> expired{0};  ///< TTL
  std::atomic<std::uint64_t> evicted{0};  ///< capacity LRU
  std::atomic<std::uint64_t> dropped{0};  ///< serve.session.drop

 private:
  struct Session {
    std::uint64_t seq = 0;          ///< last assigned ordinal
    double baseline_burden = 0.0;   ///< first scan's burden
    double prev_burden = 0.0;       ///< most recent scan's burden
    double last_touch_s = 0.0;
    std::list<ScanDelta> history;   ///< newest front, bounded
    std::list<std::uint64_t>::iterator lru_it;
  };

  void expire_locked(double now_s);

  MonitorOptions opt_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Session> map_;
  std::list<std::uint64_t> lru_;  ///< front = most recently used
};

/// The serving-side bundle: one cache + one session store + the stats
/// fragment the server splices into its JSON.
class Monitor {
 public:
  explicit Monitor(MonitorOptions opt)
      : opt_(opt), cache_(opt), sessions_(opt) {}

  MonitorOptions& options() { return opt_; }
  ResultCache& cache() { return cache_; }
  SessionStore& sessions() { return sessions_; }

  /// `"monitor":{...}` value — cache and session counters, sized for
  /// the chaos suites and the bench gate to assert on.
  std::string stats_json() const;

 private:
  MonitorOptions opt_;
  ResultCache cache_;
  SessionStore sessions_;
};

}  // namespace ccovid::serve
