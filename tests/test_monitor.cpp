// Monitoring-mode suite (`ctest -L fast`): the serve/monitor.h unit
// contracts — content-addressed key sensitivity, hit-equals-recompute
// bitwise, LRU eviction, epoch-ordered invalidation (racing inserts
// dropped), self-digest verification, session delta telescoping, the
// authoritative-prior rebuild path, TTL/capacity bounds — plus the
// InferenceServer integration: cache_hit responses bitwise-identical to
// the recomputed first scan, per-patient deltas in responses, and the
// "monitor" fragment in stats JSON — and the batch contract: a failed
// miss never fails its batch's hits, a patient's scans in one batch
// keep their submission order, and the keying width moves no cache
// fault schedule. The fault-schedule scenarios (poison,
// invalidate-mid-request, worker kill) live in
// tests/chaos/chaos_monitor.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <vector>

#include "core/precision.h"
#include "data/phantom.h"
#include "fault/failpoint.h"
#include "nn/layers.h"
#include "serve/monitor.h"
#include "serve/server.h"

namespace ccovid {
namespace {

using namespace std::chrono_literals;
using serve::CachedResult;
using serve::MonitorOptions;
using serve::ResultCache;
using serve::ScanDelta;
using serve::SessionPrior;
using serve::SessionStore;

CachedResult sealed(double prob, double burden) {
  CachedResult r;
  r.probability = prob;
  r.positive = prob >= r.threshold;
  r.infection_burden = burden;
  r.lung_voxels = 100;
  r.infected_voxels = static_cast<std::uint64_t>(burden * 100);
  r.seal();
  return r;
}

// ---------------------------------------------------------- scan keys

TEST(ScanKey, CoversEveryInputTheOutputDependsOn) {
  Tensor v({2, 4, 4});
  for (index_t i = 0; i < v.numel(); ++i) v.data()[i] = real_t(i);
  const auto base = [&] {
    return ResultCache::scan_key(v, true, 0.5, core::Precision::kF32,
                                 false, 0);
  };
  const std::uint64_t k = base();
  EXPECT_EQ(k, base()) << "key must be a pure function of its inputs";
  EXPECT_EQ(k, ResultCache::fold_key(ResultCache::volume_digest(v), true,
                                     0.5, core::Precision::kF32, false, 0))
      << "the server's admission-time split must give the same key";

  Tensor v2 = v.clone();
  v2.data()[3] += 1.0f;
  EXPECT_NE(k, ResultCache::scan_key(v2, true, 0.5, core::Precision::kF32,
                                     false, 0))
      << "a single changed voxel must change the key";
  EXPECT_NE(k, ResultCache::scan_key(v, false, 0.5, core::Precision::kF32,
                                     false, 0));
  EXPECT_NE(k, ResultCache::scan_key(v, true, 0.25, core::Precision::kF32,
                                     false, 0));
  EXPECT_NE(k, ResultCache::scan_key(v, true, 0.5, core::Precision::kF16,
                                     false, 0));
  EXPECT_NE(k, ResultCache::scan_key(v, true, 0.5, core::Precision::kF32,
                                     true, 0));
  EXPECT_NE(k, ResultCache::scan_key(v, true, 0.5, core::Precision::kF32,
                                     false, 1));

  // -0.0f and +0.0f compare equal but are different bits, and the
  // pipeline's output bits may follow the sign.
  Tensor neg = v.clone();
  neg.data()[0] = -0.0f;
  ASSERT_EQ(v.data()[0], neg.data()[0]);
  EXPECT_NE(k, ResultCache::scan_key(neg, true, 0.5, core::Precision::kF32,
                                     false, 0))
      << "a zero's sign bit must change the key";

  // The same bytes under another shape are another scan.
  EXPECT_NE(k, ResultCache::scan_key(v.reshape(Shape({4, 2, 4})), true,
                                     0.5, core::Precision::kF32, false, 0))
      << "the volume's shape must change the key";

  // 3 x 3 x 3 voxels are 108 bytes: three 32-byte stripes, one 8-byte
  // and one 4-byte tail word. A change in the 4-byte tail (the last
  // voxel) or in the last 8-byte word must move the key.
  Tensor odd({3, 3, 3});
  for (index_t i = 0; i < odd.numel(); ++i) odd.data()[i] = real_t(i);
  const auto odd_key = [&](const Tensor& t) {
    return ResultCache::scan_key(t, true, 0.5, core::Precision::kF32,
                                 false, 0);
  };
  const std::uint64_t ko = odd_key(odd);
  for (const index_t voxel : {index_t{24}, index_t{25}, index_t{26}}) {
    Tensor changed = odd.clone();
    changed.data()[voxel] = -changed.data()[voxel] - 1.0f;
    EXPECT_NE(ko, odd_key(changed)) << "voxel " << voxel;
  }
}

// -------------------------------------------------------- result cache

TEST(ResultCache, HitReturnsTheExactInsertedBits) {
  ResultCache cache(MonitorOptions{});
  const CachedResult in = sealed(0.62517, 0.31250);
  cache.insert(1234, in, cache.epoch());
  const auto out = cache.lookup(1234);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(0, std::memcmp(&out->probability, &in.probability,
                           sizeof(double)));
  EXPECT_EQ(0, std::memcmp(&out->infection_burden, &in.infection_burden,
                           sizeof(double)));
  EXPECT_EQ(out->lung_voxels, in.lung_voxels);
  EXPECT_EQ(cache.hits.load(), 1u);
  EXPECT_EQ(cache.misses.load(), 0u);
}

TEST(ResultCache, LruEvictsColdestAtCapacity) {
  MonitorOptions opt;
  opt.cache_capacity = 2;
  ResultCache cache(opt);
  cache.insert(1, sealed(0.1, 0.1), 0);
  cache.insert(2, sealed(0.2, 0.2), 0);
  ASSERT_TRUE(cache.lookup(1).has_value());  // 1 is now hottest
  cache.insert(3, sealed(0.3, 0.3), 0);      // evicts 2, the cold end
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
  EXPECT_EQ(cache.evictions.load(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, InvalidateBumpsEpochAndDropsRacingInserts) {
  ResultCache cache(MonitorOptions{});
  const std::uint64_t e0 = cache.epoch();
  cache.insert(7, sealed(0.5, 0.5), e0);
  EXPECT_EQ(cache.size(), 1u);

  // A request samples the epoch, then an invalidation lands before its
  // insert: the insert must be dropped, not resurrect retired bits.
  const std::uint64_t sampled = cache.epoch();
  cache.invalidate("weights reloaded");
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.epoch(), e0 + 1);
  EXPECT_EQ(cache.last_invalidate_reason(), "weights reloaded");
  EXPECT_EQ(cache.invalidated_entries.load(), 1u);

  cache.insert(8, sealed(0.6, 0.6), sampled);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stale_inserts.load(), 1u);

  // An insert carrying the NEW epoch lands normally.
  cache.insert(8, sealed(0.6, 0.6), cache.epoch());
  EXPECT_TRUE(cache.lookup(8).has_value());
}

TEST(ResultCache, SelfDigestDetectsDamagedPayloads) {
  CachedResult r = sealed(0.75, 0.25);
  EXPECT_EQ(r.compute_digest(), r.self_digest);
  r.infection_burden += 1e-9;  // one damaged payload bit-pattern
  EXPECT_NE(r.compute_digest(), r.self_digest);
}

// ------------------------------------------------------- session store

TEST(SessionStore, DeltasTelescopeAcrossAScanSeries) {
  SessionStore store(MonitorOptions{});
  const std::vector<double> burdens = {0.10, 0.25, 0.40, 0.30, 0.05};
  double sum_deltas = 0.0;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < burdens.size(); ++i) {
    const ScanDelta d = store.observe(42, burdens[i], 0.0, nullptr);
    EXPECT_EQ(d.seq, i + 1);
    seq = d.seq;
    EXPECT_EQ(d.first, i == 0);
    if (i > 0) {
      EXPECT_DOUBLE_EQ(d.delta_vs_prev, burdens[i] - burdens[i - 1]);
      EXPECT_DOUBLE_EQ(d.delta_vs_baseline, burdens[i] - burdens[0]);
      sum_deltas += d.delta_vs_prev;
    }
  }
  // The telescoping invariant the chaos suite re-checks under faults.
  EXPECT_DOUBLE_EQ(sum_deltas, burdens.back() - burdens.front());
  EXPECT_EQ(seq, burdens.size());
  EXPECT_EQ(store.patients(), 1u);
  EXPECT_EQ(store.scans.load(), burdens.size());
}

TEST(SessionStore, AuthoritativePriorRebuildsAFreshStoreBitwise) {
  // A worker observes scans 1..2, then "dies"; the replacement store is
  // empty, but the routing layer re-sends (seq, prev, baseline) — the
  // delta for scan 3 must come out bit-identical.
  MonitorOptions opt;
  SessionStore original(opt);
  original.observe(9, 0.20, 0.0, nullptr);
  original.observe(9, 0.35, 0.0, nullptr);
  const auto snap = original.snapshot(9, 0.0);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->seq, 2u);
  EXPECT_DOUBLE_EQ(snap->prev_burden, 0.35);
  EXPECT_DOUBLE_EQ(snap->baseline_burden, 0.20);

  SessionPrior prior;
  prior.seq = 3;
  prior.prev_burden = snap->prev_burden;
  prior.baseline_burden = snap->baseline_burden;

  const ScanDelta on_original = original.observe(9, 0.50, 0.0, &prior);
  SessionStore fresh(opt);
  const ScanDelta on_fresh = fresh.observe(9, 0.50, 0.0, &prior);

  EXPECT_EQ(on_fresh.seq, on_original.seq);
  EXPECT_EQ(0, std::memcmp(&on_fresh.delta_vs_prev,
                           &on_original.delta_vs_prev, sizeof(double)));
  EXPECT_EQ(0, std::memcmp(&on_fresh.delta_vs_baseline,
                           &on_original.delta_vs_baseline, sizeof(double)));
  EXPECT_EQ(fresh.rebuilt.load(), 1u);
  EXPECT_EQ(fresh.created.load(), 0u);
}

TEST(SessionStore, TtlExpiresIdleSessionsLazily) {
  MonitorOptions opt;
  opt.session_ttl_s = 10.0;
  SessionStore store(opt);
  store.observe(1, 0.1, 0.0, nullptr);
  store.observe(2, 0.2, 5.0, nullptr);
  EXPECT_EQ(store.patients(), 2u);
  // t=12: patient 1 (idle 12s) expires, patient 2 (idle 7s) survives.
  EXPECT_TRUE(store.snapshot(2, 12.0).has_value());
  EXPECT_FALSE(store.snapshot(1, 12.0).has_value());
  EXPECT_EQ(store.expired.load(), 1u);
  // The expired patient's next scan starts a new series at seq 1.
  EXPECT_EQ(store.observe(1, 0.3, 12.0, nullptr).seq, 1u);
}

TEST(SessionStore, CapacityEvictsLruPatient) {
  MonitorOptions opt;
  opt.session_capacity = 2;
  SessionStore store(opt);
  store.observe(1, 0.1, 0.0, nullptr);
  store.observe(2, 0.2, 0.0, nullptr);
  store.observe(1, 0.15, 0.0, nullptr);  // 1 is hottest
  store.observe(3, 0.3, 0.0, nullptr);   // evicts 2
  EXPECT_EQ(store.patients(), 2u);
  EXPECT_FALSE(store.snapshot(2, 0.0).has_value());
  EXPECT_TRUE(store.snapshot(1, 0.0).has_value());
  EXPECT_EQ(store.evicted.load(), 1u);
}

// --------------------------------------------------- server integration

std::shared_ptr<const pipeline::ComputeCovid19Pipeline> tiny_pipeline() {
  nn::seed_init_rng(3);
  auto enh =
      std::make_shared<pipeline::EnhancementAI>(nn::DDnetConfig::tiny());
  auto seg = std::make_shared<pipeline::SegmentationAI>();
  auto cls = std::make_shared<pipeline::ClassificationAI>();
  enh->network().set_training(false);
  seg->network().set_training(false);
  cls->network().set_training(false);
  return std::make_shared<const pipeline::ComputeCovid19Pipeline>(enh, seg,
                                                                  cls);
}

serve::ServerOptions monitor_options() {
  serve::ServerOptions opt;
  opt.workers = 1;
  opt.max_batch = 1;
  opt.batch_delay = std::chrono::microseconds(100);
  opt.monitor = true;
  return opt;
}

serve::DiagnoseResponse roundtrip(serve::InferenceServer& server,
                                  const Tensor& vol,
                                  std::uint64_t patient_id) {
  serve::ServeOptions so;
  so.patient_id = patient_id;
  auto fut = server.submit(vol, so);
  EXPECT_EQ(fut.wait_for(30s), std::future_status::ready);
  return fut.get();
}

TEST(MonitorServer, CacheHitIsBitwiseIdenticalToRecompute) {
  Rng rng(11);
  const auto vol = data::make_volume(2, 8, true, rng);
  serve::InferenceServer server(tiny_pipeline(), monitor_options());

  const auto first = roundtrip(server, vol.hu, 50);
  ASSERT_EQ(first.status, serve::RequestStatus::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.infection_burden, 0.0);

  const auto second = roundtrip(server, vol.hu, 50);
  ASSERT_EQ(second.status, serve::RequestStatus::kOk);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(0, std::memcmp(&first.diagnosis.probability,
                           &second.diagnosis.probability, sizeof(double)));
  EXPECT_EQ(0, std::memcmp(&first.infection_burden,
                           &second.infection_burden, sizeof(double)));
  EXPECT_EQ(first.diagnosis.positive, second.diagnosis.positive);

  ASSERT_NE(server.monitor(), nullptr);
  EXPECT_EQ(server.monitor()->cache().hits.load(), 1u);
  // Identical volume, one scan apart: the delta must be exactly zero.
  EXPECT_EQ(second.scan_seq, 2u);
  EXPECT_EQ(second.burden_delta, 0.0);
  server.shutdown();
}

TEST(MonitorServer, InvalidationForcesRecomputeNeverStaleBits) {
  Rng rng(11);
  const auto vol = data::make_volume(2, 8, false, rng);
  serve::InferenceServer server(tiny_pipeline(), monitor_options());

  const auto first = roundtrip(server, vol.hu, 60);
  ASSERT_EQ(first.status, serve::RequestStatus::kOk);
  server.monitor()->cache().invalidate("test: config change");
  const auto second = roundtrip(server, vol.hu, 60);
  ASSERT_EQ(second.status, serve::RequestStatus::kOk);
  EXPECT_FALSE(second.cache_hit) << "invalidation must force recompute";
  // Same volume, same weights: recompute reproduces the same bits.
  EXPECT_EQ(0, std::memcmp(&first.diagnosis.probability,
                           &second.diagnosis.probability, sizeof(double)));
  EXPECT_EQ(server.monitor()->cache().invalidations.load(), 1u);
  server.shutdown();
}

TEST(MonitorServer, PerPatientDeltasRideTheResponse) {
  Rng rng(11);
  const auto a = data::make_volume(2, 8, false, rng);
  const auto b = data::make_volume(2, 8, true, rng);
  serve::InferenceServer server(tiny_pipeline(), monitor_options());

  const auto s1 = roundtrip(server, a.hu, 70);
  const auto s2 = roundtrip(server, b.hu, 70);
  ASSERT_EQ(s2.status, serve::RequestStatus::kOk);
  EXPECT_EQ(s1.scan_seq, 1u);
  EXPECT_EQ(s2.scan_seq, 2u);
  EXPECT_DOUBLE_EQ(s2.burden_delta,
                   s2.infection_burden - s1.infection_burden);
  EXPECT_DOUBLE_EQ(s2.baseline_delta, s2.burden_delta);

  // A stateless request (patient_id 0) is untouched by monitoring.
  serve::ServeOptions stateless;
  auto fut = server.submit(a.hu, stateless);
  const auto r = fut.get();
  EXPECT_EQ(r.scan_seq, 0u);

  const std::string json = server.stats_json();
  EXPECT_NE(json.find("\"monitor\":{\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"session\":{\"patients\":1"), std::string::npos);
  server.shutdown();
}

TEST(MonitorServer, MonitorOffKeepsResponsesStateless) {
  Rng rng(11);
  const auto vol = data::make_volume(2, 8, true, rng);
  serve::ServerOptions opt = monitor_options();
  opt.monitor = false;
  serve::InferenceServer server(tiny_pipeline(), opt);
  EXPECT_EQ(server.monitor(), nullptr);
  const auto r = roundtrip(server, vol.hu, 80);
  ASSERT_EQ(r.status, serve::RequestStatus::kOk);
  EXPECT_EQ(r.scan_seq, 0u);
  EXPECT_FALSE(r.cache_hit);
  // The burden metric itself still rides the diagnosis (the pipeline
  // computes it unconditionally).
  EXPECT_GT(r.diagnosis.infection_burden, 0.0);
  EXPECT_EQ(server.stats_json().find("\"monitor\""), std::string::npos);
  server.shutdown();
}

// ------------------------------------------------ batch answer order

/// Monitored server whose micro-batches hold `max_batch` requests
/// submitted back to back: the batch delay is long enough that they
/// always meet, short enough that a lone warm-up scan flushes quickly.
serve::ServerOptions batched_options(std::size_t max_batch) {
  serve::ServerOptions opt = monitor_options();
  opt.max_batch = max_batch;
  opt.batch_delay = std::chrono::milliseconds(250);
  return opt;
}

struct Scan {
  const Tensor* volume;
  std::uint64_t patient_id;
};

/// Submits every scan back to back and waits for all the responses.
std::vector<serve::DiagnoseResponse> submit_together(
    serve::InferenceServer& server, const std::vector<Scan>& scans) {
  std::vector<std::future<serve::DiagnoseResponse>> futs;
  for (const Scan& s : scans) {
    serve::ServeOptions so;
    so.patient_id = s.patient_id;
    futs.push_back(server.submit(*s.volume, so));
  }
  std::vector<serve::DiagnoseResponse> out;
  for (auto& f : futs) {
    EXPECT_EQ(f.wait_for(30s), std::future_status::ready);
    out.push_back(f.get());
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(MonitorBatch, FailedMissNeverFailsItsBatchsHit) {
  Rng rng(11);
  const auto warm = data::make_volume(2, 8, true, rng);
  const auto fresh = data::make_volume(2, 8, false, rng);
  serve::ServerOptions opt = batched_options(2);
  opt.max_retries = 0;
  opt.degrade_on_failure = false;
  serve::InferenceServer server(tiny_pipeline(), opt);
  const auto first = submit_together(server, {{&warm.hu, 0}}).front();
  ASSERT_EQ(first.status, serve::RequestStatus::kOk);

  fault::Registry::instance().reset();
  fault::Registry::instance().configure("serve.worker.exec=error");
  const auto rs = submit_together(server, {{&warm.hu, 0}, {&fresh.hu, 0}});
  fault::Registry::instance().reset();
  server.shutdown();

  ASSERT_EQ(rs[0].status, serve::RequestStatus::kOk) << rs[0].error;
  EXPECT_TRUE(rs[0].cache_hit);
  EXPECT_EQ(rs[0].batch_size, 2u) << "scans must share one batch";
  EXPECT_TRUE(same_bits(rs[0].diagnosis.probability,
                        first.diagnosis.probability));
  EXPECT_TRUE(same_bits(rs[0].infection_burden, first.infection_burden));
  EXPECT_EQ(rs[0].retries, 0) << "a hit never executed";
  EXPECT_EQ(rs[1].status, serve::RequestStatus::kError);
  EXPECT_FALSE(rs[1].cache_hit);
  // The failed miss rode in the same batch and reports its facts.
  EXPECT_EQ(rs[1].batch_size, rs[0].batch_size);
  EXPECT_GT(rs[1].queue_s, 0.0);
  EXPECT_EQ(rs[1].execute_s, rs[0].execute_s);
  EXPECT_EQ(server.stats().queue_wait.count(), 3u)
      << "every picked-up request records its queue wait";
}

TEST(MonitorBatch, SamePatientHitWaitsForItsEarlierMiss) {
  Rng rng(11);
  const auto warm = data::make_volume(2, 8, true, rng);
  const auto fresh = data::make_volume(2, 8, false, rng);
  serve::InferenceServer server(tiny_pipeline(), batched_options(2));
  ASSERT_EQ(submit_together(server, {{&warm.hu, 0}}).front().status,
            serve::RequestStatus::kOk);

  constexpr double kStallS = 0.4;
  fault::Registry::instance().reset();
  fault::Registry::instance().configure("serve.worker.exec=delay(400ms)");
  // Patient 31: a new scan (miss), then a repeat of a cached one (hit).
  const auto rs = submit_together(server, {{&fresh.hu, 31}, {&warm.hu, 31}});
  fault::Registry::instance().reset();
  server.shutdown();

  ASSERT_EQ(rs[0].status, serve::RequestStatus::kOk);
  ASSERT_EQ(rs[1].status, serve::RequestStatus::kOk);
  EXPECT_FALSE(rs[0].cache_hit);
  EXPECT_TRUE(rs[1].cache_hit);
  EXPECT_EQ(rs[1].batch_size, 2u) << "scans must share one batch";
  EXPECT_GT(rs[1].total_s, kStallS) << "the hit kept its patient's order";
  EXPECT_EQ(rs[0].scan_seq, 1u);
  EXPECT_EQ(rs[1].scan_seq, 2u);
  EXPECT_EQ(rs[0].burden_delta, 0.0);
  EXPECT_TRUE(same_bits(rs[1].burden_delta,
                        rs[1].infection_burden - rs[0].infection_burden));
  EXPECT_TRUE(same_bits(rs[1].baseline_delta, rs[1].burden_delta));
}

struct WidthRun {
  std::vector<serve::DiagnoseResponse> responses;
  std::uint64_t degraded_lookups = 0, hits = 0, misses = 0;
};

/// Rescans four cached volumes in one batch under a seeded
/// lookup-outage schedule. The cache is filled directly through
/// scan_key and the forced miss fails at `serve.worker.exec`, so no
/// pipeline runs. `inner_threads` is the worker's ParallelPin width;
/// the keys' volume digests are taken at admission and the lookups run
/// serially, so the width must move nothing.
WidthRun rescan_at_width(int inner_threads, const std::vector<Tensor>& vols) {
  fault::Registry::instance().reset();
  fault::Registry::instance().set_seed(7);
  serve::ServerOptions opt = batched_options(vols.size());
  opt.inner_threads = inner_threads;
  opt.max_retries = 0;
  opt.degrade_on_failure = false;
  serve::InferenceServer server(tiny_pipeline(), opt);
  ResultCache& cache = server.monitor()->cache();
  std::vector<Scan> scans;
  for (std::size_t i = 0; i < vols.size(); ++i) {
    const double x = 0.125 * static_cast<double>(i + 1);
    cache.insert(ResultCache::scan_key(vols[i], true, 0.5,
                                       core::active_precision(),
                                       /*graph_fusion=*/true, cache.epoch()),
                 sealed(x, x / 2), cache.epoch());
    scans.push_back({&vols[i], 40 + i});
  }
  fault::Registry::instance().configure(
      "serve.cache.lookup=nth(2)*error;serve.worker.exec=error");
  WidthRun out;
  out.responses = submit_together(server, scans);
  fault::Registry::instance().reset();
  out.degraded_lookups = cache.degraded_lookups.load();
  out.hits = cache.hits.load();
  out.misses = cache.misses.load();
  server.shutdown();
  return out;
}

TEST(MonitorBatch, KeyingWidthDoesNotMoveTheFaultSchedule) {
  std::vector<Tensor> vols;
  for (int v = 0; v < 4; ++v) {
    Tensor t({16, 128, 128});
    for (index_t i = 0; i < t.numel(); ++i) {
      t.data()[i] = real_t((i * 7 + v * 13) % 251);
    }
    vols.push_back(std::move(t));
  }
  const WidthRun narrow = rescan_at_width(1, vols);
  ASSERT_EQ(narrow.responses.size(), 4u);
  // nth(2) forces the batch's second lookup to miss; that miss fails.
  EXPECT_EQ(narrow.degraded_lookups, 1u);
  EXPECT_EQ(narrow.hits, 3u);
  EXPECT_EQ(narrow.misses, 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& r = narrow.responses[i];
    EXPECT_EQ(r.status, i == 1 ? serve::RequestStatus::kError
                               : serve::RequestStatus::kOk);
    EXPECT_EQ(r.cache_hit, i != 1) << "request " << i;
    if (r.cache_hit) {
      EXPECT_EQ(r.batch_size, 4u) << "rescans must share one batch";
    }
  }
  // A few wide runs give any width-dependent ordering the chance to
  // show.
  for (int rep = 0; rep < 3; ++rep) {
    const WidthRun wide = rescan_at_width(4, vols);
    ASSERT_EQ(wide.responses.size(), 4u);
    EXPECT_EQ(narrow.degraded_lookups, wide.degraded_lookups);
    EXPECT_EQ(narrow.hits, wide.hits);
    EXPECT_EQ(narrow.misses, wide.misses);
    for (std::size_t i = 0; i < 4; ++i) {
      const auto& a = narrow.responses[i];
      const auto& b = wide.responses[i];
      EXPECT_EQ(a.status, b.status) << "request " << i;
      EXPECT_EQ(a.cache_hit, b.cache_hit) << "request " << i;
      EXPECT_EQ(a.scan_seq, b.scan_seq);
      EXPECT_EQ(a.diagnosis.positive, b.diagnosis.positive);
      EXPECT_EQ(a.diagnosis.lung_voxels, b.diagnosis.lung_voxels);
      EXPECT_EQ(a.diagnosis.infected_voxels, b.diagnosis.infected_voxels);
      EXPECT_TRUE(
          same_bits(a.diagnosis.probability, b.diagnosis.probability));
      EXPECT_TRUE(same_bits(a.infection_burden, b.infection_burden));
      EXPECT_TRUE(same_bits(a.burden_delta, b.burden_delta));
      EXPECT_TRUE(same_bits(a.baseline_delta, b.baseline_delta));
    }
  }
}

}  // namespace
}  // namespace ccovid
