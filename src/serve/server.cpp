#include "serve/server.h"

#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/finite.h"
#include "core/precision.h"
#include "fault/failpoint.h"
#include "trace/export.h"
#include "trace/trace.h"

namespace ccovid::serve {

InferenceServer::InferenceServer(
    std::shared_ptr<const pipeline::ComputeCovid19Pipeline> pipeline,
    ServerOptions opt)
    : opt_(opt),
      pipeline_(pipeline ? std::move(pipeline)
                         : throw std::invalid_argument(
                               "InferenceServer: null pipeline")),
      queue_(opt.queue_capacity),
      batcher_(queue_, BatcherOptions{opt.max_batch, opt.batch_delay}),
      // Pool backlog of 1: the batcher pre-stages at most one batch, so
      // overload accumulates in the admission queue (where rejection and
      // deadline triage apply) instead of hiding in the pool.
      pool_(WorkerPool::Options{opt.workers, opt.inner_threads, 1}),
      start_time_(Clock::now()) {
  if (opt_.monitor) monitor_ = std::make_unique<Monitor>(opt_.monitor_opts);
  batcher_thread_ = std::thread([this] { batcher_loop(); });
}

InferenceServer::~InferenceServer() { shutdown(); }

double InferenceServer::uptime_s() const {
  return std::chrono::duration<double>(Clock::now() - start_time_).count();
}

std::string InferenceServer::stats_json() const {
  std::string out = stats_.json(queue_depth(), uptime_s());
  // Injected-fault counters ride along so operators (and the chaos
  // harness) can tell injected failures from organic ones.
  const std::string fp = fault::Registry::instance().json();
  if (fp != "{}") out.insert(out.size() - 1, ",\"failpoints\":" + fp);
  if (monitor_) {
    out.insert(out.size() - 1, ",\"monitor\":" + monitor_->stats_json());
  }
  // Trace summary (per-span count/total/p50/p99): aggregation merges
  // every thread's ring into one duration set per span name BEFORE
  // extracting quantiles, so the reported percentiles are workload
  // quantiles even when inner threads outnumber workers.
  if (trace::enabled()) {
    out.insert(out.size() - 1,
               ",\"trace\":" + trace::summary_json(trace::snapshot()));
  }
  return out;
}

void InferenceServer::respond(RequestPtr req, DiagnoseResponse r) {
  r.request_id = req->id;
  r.total_s =
      std::chrono::duration<double>(Clock::now() - req->submit_time).count();
  req->promise.set_value(std::move(r));
}

std::future<DiagnoseResponse> InferenceServer::submit(const Tensor& volume_hu,
                                                      ServeOptions options) {
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  if (options.deadline.count() == 0) {
    options.deadline = opt_.default_deadline;
  }

  auto req = std::make_unique<Request>();
  req->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // Admission span on the submitter thread; the worker re-emits the same
  // request id from execute/respond, stitching the request's timeline
  // across threads.
  TRACE_SPAN_ID("serve.admit", req->id);
  req->volume_hu = volume_hu;  // shallow copy, shared storage
  // Monitoring mode: the volume half of the cache key is hashed here, on
  // the submitter's thread, so concurrent callers hash in parallel and a
  // request never waits for its batch-mates' hashes.
  if (monitor_) req->volume_digest = ResultCache::volume_digest(volume_hu);
  req->options = std::move(options);
  req->submit_time = Clock::now();
  std::future<DiagnoseResponse> fut = req->promise.get_future();

  if (!accepting_.load(std::memory_order_acquire)) {
    stats_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
    DiagnoseResponse r;
    r.status = RequestStatus::kShutdown;
    respond(std::move(req), std::move(r));
    return fut;
  }
  // Admission fault: error schedules simulate queue exhaustion without
  // needing real overload (the request takes the same rejection path);
  // delay schedules stall the submitter so real overload can build.
  bool inject_reject = false;
  if (auto f = CCOVID_FAILPOINT_FIRED("serve.queue.admit")) {
    inject_reject = f.action == fault::Action::kError;
  }
  if (inject_reject || !queue_.try_push(std::move(req))) {
    // try_push leaves ownership with us on failure: overload fast-fail.
    stats_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
    DiagnoseResponse r;
    r.status = RequestStatus::kRejected;
    respond(std::move(req), std::move(r));
    return fut;
  }
  stats_.admitted.fetch_add(1, std::memory_order_relaxed);
  return fut;
}

void InferenceServer::batcher_loop() {
  while (true) {
    std::vector<RequestPtr> batch = batcher_.next_batch();
    if (batch.empty()) break;  // queue closed and drained
    // Dispatch span carries the batch's first request id and covers the
    // (possibly blocking) hand-off to the pool, so backpressure stalls
    // are visible on the batcher lane.
    TRACE_SPAN_ID("serve.batch.dispatch", batch.front()->id);
    stats_.batches.fetch_add(1, std::memory_order_relaxed);
    stats_.batched_volumes.fetch_add(batch.size(),
                                     std::memory_order_relaxed);
    // Wrap the batch in a shared_ptr: std::function requires copyable
    // callables. submit() blocks when every worker is busy and the
    // backlog is full — backpressure reaching back to the admission
    // queue.
    auto shared =
        std::make_shared<std::vector<RequestPtr>>(std::move(batch));
    pool_.submit([this, shared] { execute_batch(std::move(*shared)); });
  }
}

void InferenceServer::execute_batch(std::vector<RequestPtr> batch) {
  TRACE_SPAN_ID("serve.batch.execute", batch.front()->id);
  // Nested pipeline/op/ct spans on this worker inherit the lead request
  // id, so kernel time is attributable to the batch that ran it.
  trace::ScopedCorrelation corr(batch.front()->id);
  const Clock::time_point exec_start = Clock::now();

  // Deadline triage before any compute.
  std::vector<RequestPtr> live;
  live.reserve(batch.size());
  for (auto& req : batch) {
    if (req->expired(exec_start)) {
      stats_.timed_out.fetch_add(1, std::memory_order_relaxed);
      DiagnoseResponse r;
      r.status = RequestStatus::kTimedOut;
      r.queue_s = std::chrono::duration<double>(exec_start -
                                                req->submit_time)
                      .count();
      respond(std::move(req), std::move(r));
    } else {
      live.push_back(std::move(req));
    }
  }
  if (live.empty()) return;

  // Result cache (monitoring mode): sample epoch + configuration ONCE
  // per batch, before any key, and pass the same epoch to insert —
  // invalidations racing this batch retire its keys, so its inserts are
  // dropped instead of resurrecting pre-invalidation results. Each key
  // folds them into the volume digest taken at admission. Hits skip
  // compute entirely; only misses go to the pipeline.
  std::vector<std::uint64_t> keys(live.size(), 0);
  std::vector<std::optional<CachedResult>> cached(live.size());
  std::uint64_t epoch = 0;
  if (monitor_) {
    epoch = monitor_->cache().epoch();
    const core::Precision precision = core::active_precision();
    for (std::size_t i = 0; i < live.size(); ++i) {
      keys[i] = ResultCache::fold_key(
          live[i]->volume_digest, live[i]->options.use_enhancement,
          live[i]->options.threshold, precision, /*graph_fusion=*/true,
          epoch);
      cached[i] = monitor_->cache().lookup(keys[i]);
    }
  }

  constexpr std::size_t kNoItem = static_cast<std::size_t>(-1);
  std::vector<pipeline::BatchItem> items;
  std::vector<std::size_t> item_index(live.size(), kNoItem);
  std::vector<std::size_t> miss_of;  ///< item index -> live index
  items.reserve(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (cached[i]) continue;
    item_index[i] = items.size();
    miss_of.push_back(i);
    items.push_back({&live[i]->volume_hu, live[i]->options.use_enhancement,
                     live[i]->options.threshold});
  }

  // Execution with retry-with-backoff and optional graceful degradation:
  // transient faults (injected or organic) are retried max_retries times
  // with doubling sleeps; if the batch still fails and degradation is
  // enabled, it runs once more with the enhancement stage dropped and
  // responses flagged degraded. Only then do the misses see kError; the
  // batch's hits still answer with their cached bits.
  std::vector<pipeline::StageTimes> times;
  std::vector<pipeline::Diagnosis> results;
  int attempts_failed = 0;
  bool degraded = false;
  std::optional<std::string> failure;
  auto backoff = opt_.retry_backoff;
  while (!items.empty()) {
    try {
      if (auto f = CCOVID_FAILPOINT_FIRED("serve.worker.exec")) {
        if (f.action == fault::Action::kError ||
            f.action == fault::Action::kCorrupt) {
          throw StageError("serve.worker.exec", "injected execution fault");
        }
      }
      times.clear();
      results = pipeline_->diagnose_batch(items, &times);
      break;
    } catch (const std::exception& e) {
      ++attempts_failed;
      if (attempts_failed <= opt_.max_retries) {
        TRACE_INSTANT_ID("serve.retry", live.front()->id);
        stats_.retried.fetch_add(1, std::memory_order_relaxed);
        if (backoff.count() > 0) {
          std::this_thread::sleep_for(backoff);
          backoff *= 2;
        }
        continue;
      }
      if (opt_.degrade_on_failure && !degraded &&
          items.front().use_enhancement) {
        degraded = true;
        TRACE_INSTANT_ID("serve.degraded", live.front()->id);
        for (auto& item : items) item.use_enhancement = false;
        stats_.retried.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      failure = e.what();
      break;
    }
  }

  // Fill the cache from this batch's fresh computations. Degraded runs
  // are NOT cached: the key was derived from the requested workflow
  // (enhancement on) but the bits came from the reduced one, and a hit
  // must always equal an honest recomputation of its key.
  if (monitor_ && !degraded && !failure) {
    for (std::size_t j = 0; j < miss_of.size(); ++j) {
      const pipeline::Diagnosis& d = results[j];
      CachedResult cr;
      cr.probability = d.probability;
      cr.positive = d.positive;
      cr.threshold = d.threshold;
      cr.infection_burden = d.infection_burden;
      cr.lung_voxels = d.lung_voxels;
      cr.infected_voxels = d.infected_voxels;
      cr.seal();
      monitor_->cache().insert(keys[miss_of[j]], cr, epoch);
    }
  }

  if (opt_.device_stall_s > 0.0 && !items.empty() && !failure) {
    // Emulated accelerator residency: the worker blocks as it would on
    // a synchronous device queue running the paper-scale model. Cache
    // hits never touched the device, so only computed volumes stall.
    std::this_thread::sleep_for(std::chrono::duration<double>(
        opt_.device_stall_s * static_cast<double>(items.size())));
  }

  const double execute_s =
      std::chrono::duration<double>(Clock::now() - exec_start).count();

  for (std::size_t i = 0; i < live.size(); ++i) {
    const std::size_t j = item_index[i];
    // Every request of the batch, failed or not, reports the batch's
    // queue wait, execution time and size.
    DiagnoseResponse r;
    r.queue_s = std::chrono::duration<double>(exec_start -
                                              live[i]->submit_time)
                    .count();
    r.execute_s = execute_s;
    r.batch_size = live.size();
    stats_.queue_wait.record(r.queue_s);
    if (failure && j != kNoItem) {
      stats_.failed.fetch_add(1, std::memory_order_relaxed);
      r.status = RequestStatus::kError;
      r.error = *failure;
      respond(std::move(live[i]), std::move(r));
      continue;
    }
    TRACE_SPAN_ID("serve.respond", live[i]->id);
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
    r.status = RequestStatus::kOk;

    if (j == kNoItem) {
      // Cache hit: reconstruct the diagnosis from the verified entry —
      // bitwise identical to what recomputation would have produced.
      // It never executed, so it reports no retries and no degradation.
      const CachedResult& cr = *cached[i];
      r.cache_hit = true;
      r.diagnosis.probability = cr.probability;
      r.diagnosis.positive = cr.positive;
      r.diagnosis.threshold = cr.threshold;
      r.diagnosis.infection_burden = cr.infection_burden;
      r.diagnosis.lung_voxels = cr.lung_voxels;
      r.diagnosis.infected_voxels = cr.infected_voxels;
    } else {
      if (degraded) stats_.degraded.fetch_add(1, std::memory_order_relaxed);
      r.retries = attempts_failed;
      r.degraded = degraded;
      r.diagnosis = results[j];
      r.stages = times[j];
      stats_.prepare.record(times[j].prepare_s);
      if (items[j].use_enhancement) stats_.enhance.record(times[j].enhance_s);
      stats_.segment.record(times[j].segment_s);
      stats_.classify.record(times[j].classify_s);
      stats_.stage_totals.add("prepare", times[j].prepare_s);
      stats_.stage_totals.add("enhance", times[j].enhance_s);
      stats_.stage_totals.add("segment", times[j].segment_s);
      stats_.stage_totals.add("classify", times[j].classify_s);
    }
    r.infection_burden = r.diagnosis.infection_burden;

    // Longitudinal session tracking for requests carrying a patient id.
    // When the routing layer shipped an authoritative prior (failover-
    // safe ordinals), deltas come from those exact bits; otherwise the
    // local session history assigns the ordinal.
    if (monitor_ && live[i]->options.patient_id != 0) {
      SessionPrior prior;
      const SessionPrior* pp = nullptr;
      if (live[i]->options.has_prior) {
        prior.seq = live[i]->options.monitor_seq;
        prior.prev_burden = live[i]->options.prior_burden;
        prior.baseline_burden = live[i]->options.baseline_burden;
        pp = &prior;
      }
      const ScanDelta d = monitor_->sessions().observe(
          live[i]->options.patient_id, r.infection_burden, uptime_s(), pp);
      r.scan_seq = d.seq;
      r.burden_delta = d.delta_vs_prev;
      r.baseline_delta = d.delta_vs_baseline;
    }

    stats_.execute.record(execute_s);

    const Clock::time_point done = Clock::now();
    stats_.total.record(
        std::chrono::duration<double>(done - live[i]->submit_time).count());
    respond(std::move(live[i]), std::move(r));
  }
}

void InferenceServer::shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (shut_down_) return;
  shut_down_ = true;

  accepting_.store(false, std::memory_order_release);
  queue_.close();  // batcher drains the remainder, then exits
  if (batcher_thread_.joinable()) batcher_thread_.join();
  pool_.shutdown();  // drains dispatched batches, then joins workers
}

}  // namespace ccovid::serve
