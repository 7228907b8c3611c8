// Serving-runtime suite: bounded-queue semantics, dynamic-batcher flush
// policy (size vs deadline vs compatibility), worker-pool execution,
// latency histograms, thread-safe KernelProfile, and the end-to-end
// InferenceServer contracts — backpressure rejection, deadline timeout,
// graceful-shutdown drain, and bitwise-identical diagnoses for any
// worker count / batch composition.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "data/phantom.h"
#include "nn/layers.h"
#include "serve/server.h"

namespace ccovid {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- queue

TEST(BoundedQueue, FifoAndCapacity) {
  serve::BoundedQueue<int> q(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(q.try_push(std::move(a)));
  EXPECT_TRUE(q.try_push(std::move(b)));
  EXPECT_EQ(q.size(), 2u);
  // Full: push fails and the value is NOT consumed.
  EXPECT_FALSE(q.try_push(std::move(c)));
  EXPECT_EQ(c, 3);
  auto x = q.pop();
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, 1);
  EXPECT_EQ(*q.pop(), 2);
}

TEST(BoundedQueue, CloseDrainsThenSignalsShutdown) {
  serve::BoundedQueue<int> q(4);
  int a = 7;
  ASSERT_TRUE(q.try_push(std::move(a)));
  q.close();
  int rejected = 9;
  EXPECT_FALSE(q.try_push(std::move(rejected)));  // no admissions
  auto x = q.pop();  // drain semantics: existing items still come out
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, 7);
  EXPECT_FALSE(q.pop().has_value());  // closed + empty => nullopt
}

TEST(BoundedQueue, PopBlocksUntilProducer) {
  serve::BoundedQueue<int> q(1);
  std::thread producer([&] {
    std::this_thread::sleep_for(20ms);
    int v = 42;
    q.push(std::move(v));
  });
  auto x = q.pop();  // must block, not spuriously return
  producer.join();
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, 42);
}

// -------------------------------------------------------------- batcher

serve::RequestPtr make_request(std::uint64_t id, bool enhance) {
  auto r = std::make_unique<serve::Request>();
  r->id = id;
  r->options.use_enhancement = enhance;
  r->submit_time = serve::Clock::now();
  return r;
}

TEST(DynamicBatcher, FlushesOnSizeWithoutWaiting) {
  serve::BoundedQueue<serve::RequestPtr> q(8);
  // Generous delay: if the batcher waited for it, the test would notice.
  serve::DynamicBatcher b(q, {3, std::chrono::microseconds(500000)});
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.try_push(make_request(i, true)));
  }
  const auto t0 = serve::Clock::now();
  auto batch = b.next_batch();
  const auto waited = serve::Clock::now() - t0;
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_LT(waited, 200ms);  // flushed on size, not on the 500ms delay
}

TEST(DynamicBatcher, FlushesOnDeadlineWhenUnderfull) {
  serve::BoundedQueue<serve::RequestPtr> q(8);
  serve::DynamicBatcher b(q, {4, std::chrono::microseconds(5000)});
  ASSERT_TRUE(q.try_push(make_request(0, true)));
  ASSERT_TRUE(q.try_push(make_request(1, true)));
  auto batch = b.next_batch();
  // Two compatible requests, no third within max_delay: partial flush.
  EXPECT_EQ(batch.size(), 2u);
}

TEST(DynamicBatcher, IncompatibleRequestSeedsNextBatch) {
  serve::BoundedQueue<serve::RequestPtr> q(8);
  serve::DynamicBatcher b(q, {4, std::chrono::microseconds(2000)});
  ASSERT_TRUE(q.try_push(make_request(0, true)));
  ASSERT_TRUE(q.try_push(make_request(1, false)));  // incompatible
  ASSERT_TRUE(q.try_push(make_request(2, false)));
  auto first = b.next_batch();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0]->id, 0u);
  auto second = b.next_batch();  // held request + its companion
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0]->id, 1u);
  EXPECT_EQ(second[1]->id, 2u);
  q.close();
  EXPECT_TRUE(b.next_batch().empty());  // shutdown signal
}

// ---------------------------------------------------------- worker pool

TEST(WorkerPool, ForEachCoversEveryIndexOnce) {
  serve::WorkerPool::Options opt;
  opt.workers = 4;
  serve::WorkerPool pool(opt);
  std::vector<std::atomic<int>> hits(64);
  pool.for_each(64, [&](index_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, WorkersPinKernelWidth) {
  serve::WorkerPool::Options opt;
  opt.workers = 2;
  opt.inner_threads = 1;
  serve::WorkerPool pool(opt);
  std::atomic<int> width{-1};
  pool.submit([&] { width.store(thread_num_threads()); });
  pool.wait_idle();
  EXPECT_EQ(width.load(), 1);
  // The pin is thread-local: the caller is unaffected.
  EXPECT_EQ(thread_num_threads(), 0);
}

TEST(ParallelPin, RestoresPreviousWidth) {
  EXPECT_EQ(thread_num_threads(), 0);
  {
    ParallelPin pin(1);
    EXPECT_EQ(thread_num_threads(), 1);
    {
      ParallelPin inner(3);
      EXPECT_EQ(thread_num_threads(), 3);
    }
    EXPECT_EQ(thread_num_threads(), 1);
  }
  EXPECT_EQ(thread_num_threads(), 0);
}

// ------------------------------------------------------- observability

TEST(LatencyHistogram, QuantilesWithinBucketError) {
  serve::LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.record(1e-3 * i);  // 1..100 ms
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean_seconds(), 0.0505, 1e-3);
  EXPECT_NEAR(h.min_seconds(), 1e-3, 1e-4);
  EXPECT_NEAR(h.max_seconds(), 0.1, 1e-3);
  // Geometric buckets with ratio 1.25: <= 25% relative error.
  EXPECT_NEAR(h.quantile(0.5), 0.050, 0.0125);
  EXPECT_NEAR(h.quantile(0.95), 0.095, 0.024);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(LatencyHistogram, MergeFoldsSamplesBeforeQuantileExtraction) {
  // Regression: percentiles must be extracted from the MERGED sample
  // set, never computed per worker and then combined — a quantile of
  // per-worker quantiles is not a quantile of the workload. Two workers
  // with disjoint load mixes make the difference unmissable.
  serve::LatencyHistogram fast_worker, slow_worker;
  for (int i = 0; i < 100; ++i) fast_worker.record(1e-3);   // 1 ms
  for (int i = 0; i < 100; ++i) slow_worker.record(100e-3); // 100 ms
  // Per-worker p99s are ~1ms and ~100ms; any combination of those two
  // numbers (mean: ~50ms) misstates the workload.
  serve::LatencyHistogram merged;
  merged.merge(fast_worker);
  merged.merge(slow_worker);
  EXPECT_EQ(merged.count(), 200u);
  EXPECT_NEAR(merged.min_seconds(), 1e-3, 1e-4);
  EXPECT_NEAR(merged.max_seconds(), 100e-3, 1e-3);
  EXPECT_NEAR(merged.sum_seconds(), 100 * 1e-3 + 100 * 100e-3, 1e-3);
  // Workload truth: 50% of requests were fast, so p25 sits on the fast
  // mode and p99 on the slow mode (25% geometric-bucket error bound).
  EXPECT_NEAR(merged.quantile(0.25), 1e-3, 0.25e-3);
  EXPECT_NEAR(merged.quantile(0.99), 100e-3, 25e-3);
  // A wrongly averaged per-worker p99 would land near 50ms — assert the
  // merged view is nowhere near it.
  EXPECT_GT(merged.quantile(0.99), 75e-3);
  // Merging into a non-empty histogram accumulates rather than replaces.
  serve::LatencyHistogram more;
  more.record(1e-3);
  more.merge(merged);
  EXPECT_EQ(more.count(), 201u);
}

TEST(KernelProfile, ConcurrentAddsAreLossless) {
  KernelProfile prof;
  constexpr int kThreads = 8, kAdds = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&prof] {
      for (int i = 0; i < kAdds; ++i) prof.add("stage", 1e-3);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_NEAR(prof.total("stage"), kThreads * kAdds * 1e-3, 1e-6);
  EXPECT_NEAR(prof.grand_total(), kThreads * kAdds * 1e-3, 1e-6);
}

// ------------------------------------------------------------- server

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

std::vector<data::PhantomVolume> tiny_volumes(std::size_t n) {
  Rng rng(11);
  std::vector<data::PhantomVolume> vols;
  for (std::size_t i = 0; i < n; ++i) {
    vols.push_back(data::make_volume(2, 8, i % 2 == 1, rng));
  }
  return vols;
}

TEST(InferenceServer, CompletesAndReportsStats) {
  serve::ServerOptions opt;
  opt.workers = 2;
  opt.max_batch = 2;
  auto vols = tiny_volumes(4);
  serve::InferenceServer server(tiny_pipeline(), opt);
  std::vector<std::future<serve::DiagnoseResponse>> futs;
  for (const auto& v : vols) futs.push_back(server.submit(v.hu));
  for (auto& f : futs) {
    const auto r = f.get();
    EXPECT_EQ(r.status, serve::RequestStatus::kOk);
    EXPECT_GE(r.batch_size, 1u);
    EXPECT_GT(r.total_s, 0.0);
    EXPECT_GE(r.total_s, r.execute_s);
  }
  server.shutdown();
  const auto& s = server.stats();
  EXPECT_EQ(s.submitted.load(), 4u);
  EXPECT_EQ(s.completed.load(), 4u);
  EXPECT_EQ(s.batched_volumes.load(), 4u);
  EXPECT_GE(s.batches.load(), 2u);
  EXPECT_EQ(s.total.count(), 4u);
  // Stage totals flow into the KernelProfile-style breakdown.
  EXPECT_GT(s.stage_totals.total("classify"), 0.0);
  const std::string json = server.stats_json();
  EXPECT_NE(json.find("\"completed\":4"), std::string::npos);
  EXPECT_NE(json.find("\"total\""), std::string::npos);
  // The JSON percentiles come from the single merged histogram: its
  // sample count must equal the workload (all workers' completions),
  // not any one worker's share.
  EXPECT_NE(json.find("\"total\":{\"count\":4"), std::string::npos) << json;
}

TEST(InferenceServer, BackpressureRejectsWhenQueueFull) {
  serve::ServerOptions opt;
  opt.workers = 1;
  opt.max_batch = 1;
  opt.queue_capacity = 1;
  opt.device_stall_s = 0.05;  // keep the single worker busy
  auto vols = tiny_volumes(1);
  serve::InferenceServer server(tiny_pipeline(), opt);
  std::vector<std::future<serve::DiagnoseResponse>> futs;
  for (int i = 0; i < 12; ++i) futs.push_back(server.submit(vols[0].hu));
  std::size_t ok = 0, rejected = 0;
  for (auto& f : futs) {
    const auto r = f.get();  // every future is fulfilled either way
    if (r.status == serve::RequestStatus::kOk) ++ok;
    if (r.status == serve::RequestStatus::kRejected) ++rejected;
  }
  server.shutdown();
  EXPECT_GT(ok, 0u);
  EXPECT_GT(rejected, 0u);  // fast-fail, not unbounded buffering
  EXPECT_EQ(ok + rejected, 12u);
  EXPECT_EQ(server.stats().rejected_queue_full.load(), rejected);
}

TEST(InferenceServer, DeadlineExpiresQueuedRequests) {
  serve::ServerOptions opt;
  opt.workers = 1;
  opt.max_batch = 1;
  opt.queue_capacity = 16;
  opt.device_stall_s = 0.05;
  opt.default_deadline = std::chrono::milliseconds(30);
  auto vols = tiny_volumes(1);
  serve::InferenceServer server(tiny_pipeline(), opt);
  std::vector<std::future<serve::DiagnoseResponse>> futs;
  for (int i = 0; i < 6; ++i) futs.push_back(server.submit(vols[0].hu));
  std::size_t ok = 0, timed_out = 0;
  for (auto& f : futs) {
    const auto r = f.get();
    if (r.status == serve::RequestStatus::kOk) ++ok;
    if (r.status == serve::RequestStatus::kTimedOut) ++timed_out;
  }
  server.shutdown();
  EXPECT_GT(ok, 0u);        // the head of the line still completes
  EXPECT_GT(timed_out, 0u); // the tail expired while queued
  EXPECT_EQ(server.stats().timed_out.load(), timed_out);
}

TEST(InferenceServer, GracefulShutdownDrainsAdmitted) {
  serve::ServerOptions opt;
  opt.workers = 2;
  opt.max_batch = 2;
  opt.queue_capacity = 32;
  auto vols = tiny_volumes(6);
  serve::InferenceServer server(tiny_pipeline(), opt);
  std::vector<std::future<serve::DiagnoseResponse>> futs;
  for (const auto& v : vols) futs.push_back(server.submit(v.hu));
  server.shutdown();  // must drain, not drop
  for (auto& f : futs) {
    EXPECT_EQ(f.get().status, serve::RequestStatus::kOk);
  }
  EXPECT_FALSE(server.accepting());
  auto late = server.submit(vols[0].hu);
  EXPECT_EQ(late.get().status, serve::RequestStatus::kShutdown);
  EXPECT_EQ(server.stats().completed.load(), 6u);
  EXPECT_EQ(server.stats().rejected_shutdown.load(), 1u);
}

// The determinism contract: any worker count, any batch composition,
// bitwise-identical to a direct single-threaded diagnose().
TEST(InferenceServer, BitwiseDeterministicAcrossWorkerCounts) {
  auto pipe = tiny_pipeline();
  auto vols = tiny_volumes(6);

  std::vector<double> reference;
  for (const auto& v : vols) {
    reference.push_back(pipe->diagnose(v.hu, true).probability);
  }

  struct Config { int workers; std::size_t batch; };
  for (const Config cfg : {Config{1, 1}, Config{2, 3}, Config{4, 2}}) {
    serve::ServerOptions opt;
    opt.workers = cfg.workers;
    opt.max_batch = cfg.batch;
    serve::InferenceServer server(pipe, opt);
    std::vector<std::future<serve::DiagnoseResponse>> futs;
    for (const auto& v : vols) futs.push_back(server.submit(v.hu));
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const auto r = futs[i].get();
      ASSERT_EQ(r.status, serve::RequestStatus::kOk);
      // Bitwise, not approximate: == on purpose.
      EXPECT_EQ(r.diagnosis.probability, reference[i])
          << "workers=" << cfg.workers << " batch=" << cfg.batch
          << " volume=" << i;
    }
    server.shutdown();
  }
}

TEST(Pipeline, ParallelScoreVolumesMatchesSerial) {
  auto pipe = tiny_pipeline();
  auto vols = tiny_volumes(5);
  std::vector<Tensor> hu;
  for (const auto& v : vols) hu.push_back(v.hu);
  const auto serial = pipe->score_volumes(hu, true, 1);
  const auto parallel = pipe->score_volumes(hu, true, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]);  // bitwise
  }
}

}  // namespace
}  // namespace ccovid
