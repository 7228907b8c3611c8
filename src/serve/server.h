// InferenceServer — the batching inference-serving runtime tying the
// subsystem together:
//
//   submit() ──► BoundedQueue (admission control, fast-fail when full)
//                   │ batcher thread
//                   ▼
//             DynamicBatcher (flush on max_batch or max_delay)
//                   │ one job per micro-batch
//                   ▼
//             WorkerPool (N workers, kernels pinned single-threaded)
//                   │ ComputeCovid19Pipeline::diagnose_batch
//                   ▼
//             promise fulfilment + ServerStats
//
// Model weights are shared immutably: every worker reads the same
// pipeline instance (inference is const and eval-mode networks are
// never written — see pipeline/framework.h), so N workers cost one copy
// of the weights. Per-request scratch lives on the worker's stack, and
// each worker's kernels run single-threaded
// (core/parallel thread pin), which keeps diagnoses bitwise-identical
// for any worker count and any batch composition.
//
// shutdown() is graceful: admissions stop, everything already admitted
// is drained through the batcher and workers, then threads join.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.h"
#include "serve/bounded_queue.h"
#include "serve/monitor.h"
#include "serve/request.h"
#include "serve/stats.h"
#include "serve/worker_pool.h"

namespace ccovid::serve {

struct ServerOptions {
  std::size_t queue_capacity = 64;  ///< admission queue bound
  std::size_t max_batch = 4;
  std::chrono::microseconds batch_delay{2000};
  int workers = 1;
  /// Per-request cap on shared-engine lanes for kernels inside a batch
  /// (see WorkerPool::Options). 0 = uncapped: all workers' kernels
  /// load-balance over one engine and saturate the machine.
  int inner_threads = 0;
  /// Applied to requests whose own deadline is zero. zero = none.
  std::chrono::milliseconds default_deadline{0};
  /// Emulated accelerator residency per volume (seconds): workers sleep
  /// this long per batched volume after computing the result, modeling
  /// the blocking device offload of the paper's GPU/FPGA deployments
  /// (projected by hetero::device_model). 0 = pure-CPU serving.
  double device_stall_s = 0.0;
  /// Failed batch executions are retried up to this many times before
  /// degrading or failing; transient faults (device glitch, injected
  /// failpoint) resolve without surfacing to clients. 0 = fail fast.
  int max_retries = 0;
  /// Sleep before the first retry; doubles on each subsequent one.
  std::chrono::milliseconds retry_backoff{10};
  /// After retries are exhausted, re-run the batch once with the DDnet
  /// enhancement stage disabled (the §5.2.3 reduced workflow) instead of
  /// failing — responses carry degraded=true so clients can tell.
  bool degrade_on_failure = false;
  /// Longitudinal monitoring mode (serve/monitor.h): session store +
  /// content-addressed result cache + per-patient burden deltas for
  /// requests carrying a patient_id. Stateless requests (patient_id 0)
  /// are untouched either way.
  bool monitor = false;
  MonitorOptions monitor_opts;
};

class InferenceServer {
 public:
  /// `pipeline` must already be in eval mode (every network
  /// set_training(false)); workers only read it through the const
  /// pointer.
  InferenceServer(
      std::shared_ptr<const pipeline::ComputeCovid19Pipeline> pipeline,
      ServerOptions opt);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Admits one raw HU volume. Always returns a valid future; overload
  /// and shutdown are reported through DiagnoseResponse::status rather
  /// than exceptions. The tensor is shallow-copied (shared storage).
  std::future<DiagnoseResponse> submit(const Tensor& volume_hu,
                                       ServeOptions options = {});

  /// Graceful: stops admissions, drains queue + in-flight batches,
  /// joins all threads. Idempotent; also run by the destructor.
  void shutdown();

  bool accepting() const {
    return accepting_.load(std::memory_order_acquire);
  }
  /// Non-null when ServerOptions::monitor is set. Exposed so operators
  /// (and chaos suites) can invalidate the cache on weight/config
  /// changes and read the monitoring counters.
  Monitor* monitor() { return monitor_.get(); }
  const Monitor* monitor() const { return monitor_.get(); }
  std::size_t queue_depth() const { return queue_.size(); }
  const ServerOptions& options() const { return opt_; }
  ServerStats& stats() { return stats_; }
  const ServerStats& stats() const { return stats_; }
  double uptime_s() const;
  /// ServerStats::json with live queue depth and uptime filled in.
  std::string stats_json() const;

 private:
  void batcher_loop();
  void execute_batch(std::vector<RequestPtr> batch);
  static void respond(RequestPtr req, DiagnoseResponse r);

  ServerOptions opt_;
  std::shared_ptr<const pipeline::ComputeCovid19Pipeline> pipeline_;
  std::unique_ptr<Monitor> monitor_;  ///< null unless opt_.monitor
  ServerStats stats_;
  BoundedQueue<RequestPtr> queue_;
  DynamicBatcher batcher_;
  WorkerPool pool_;
  std::thread batcher_thread_;
  std::atomic<bool> accepting_{true};
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex shutdown_mu_;
  bool shut_down_ = false;
  Clock::time_point start_time_;
};

}  // namespace ccovid::serve
