// Request/response types of the inference-serving runtime.
//
// A client submits one raw HU volume plus ServeOptions and receives a
// std::future<DiagnoseResponse>. Internally the server moves Request
// objects (volume handle + promise + admission timestamp) through the
// bounded queue into the dynamic batcher and onto the worker pool.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "core/tensor.h"
#include "pipeline/framework.h"

namespace ccovid::serve {

using Clock = std::chrono::steady_clock;

enum class RequestStatus {
  kOk,        ///< diagnosis completed
  kRejected,  ///< admission queue full (backpressure fast-fail)
  kTimedOut,  ///< deadline expired before a worker picked the batch up
  kShutdown,  ///< submitted after shutdown began
  kError,     ///< pipeline threw (bad volume, injected fault, ...)
};

inline const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kTimedOut: return "timed_out";
    case RequestStatus::kShutdown: return "shutdown";
    case RequestStatus::kError: return "error";
  }
  return "unknown";
}

struct ServeOptions {
  bool use_enhancement = true;  ///< run the DDnet stage (§5.2.3 knob)
  double threshold = 0.5;
  /// Drop the request unexecuted if it waits longer than this before a
  /// worker starts its batch. zero = no deadline.
  std::chrono::milliseconds deadline{0};

  // Longitudinal monitoring (serve/monitor.h). patient_id != 0 opts a
  // request into session tracking when the server runs with a Monitor;
  // 0 keeps the stateless one-shot behavior.
  std::uint64_t patient_id = 0;
  /// Authoritative scan ordinal supplied by the routing layer (the
  /// front door numbers a patient's scans so failover re-dispatch can
  /// never double-count); 0 = let the worker's local session assign it.
  std::uint64_t monitor_seq = 0;
  /// When true, prior_burden/baseline_burden carry the patient's last
  /// and first infection-burden values from the routing layer's session
  /// record — the worker computes deltas from these exact bits instead
  /// of its local history, so a freshly failed-over worker produces the
  /// same deltas as the one that died.
  bool has_prior = false;
  double prior_burden = 0.0;
  double baseline_burden = 0.0;
};

struct DiagnoseResponse {
  RequestStatus status = RequestStatus::kError;
  pipeline::Diagnosis diagnosis;     ///< valid when status == kOk
  pipeline::StageTimes stages;       ///< per-stage pipeline breakdown
  double queue_s = 0.0;              ///< admission -> worker pickup
  double execute_s = 0.0;            ///< this request's batch execution
  double total_s = 0.0;              ///< admission -> response
  std::uint64_t request_id = 0;
  std::size_t batch_size = 0;        ///< micro-batch the request rode in
  std::string error;                 ///< set when status == kError
  /// True when the batch only completed after the server dropped the
  /// enhancement stage (ServerOptions::degrade_on_failure): the result
  /// is valid but came from the reduced workflow.
  bool degraded = false;
  /// Failed execution attempts before this response (retry-with-backoff
  /// plus the degraded retry, when they happened).
  int retries = 0;

  // Longitudinal monitoring (serve/monitor.h); meaningful when
  // scan_seq > 0 (the request carried a patient_id and the server ran
  // with a Monitor).
  double infection_burden = 0.0;  ///< this scan's burden (pipeline metric)
  double burden_delta = 0.0;      ///< vs the patient's previous scan
  double baseline_delta = 0.0;    ///< vs the patient's first scan
  std::uint64_t scan_seq = 0;     ///< 1-based per-patient scan ordinal
  bool cache_hit = false;         ///< served from the result cache
};

/// Internal queue entry. The Tensor member is a shallow copy (shared
/// storage), so admission never copies voxel data.
struct Request {
  std::uint64_t id = 0;
  Tensor volume_hu;
  /// ResultCache::volume_digest(volume_hu), taken at admission when the
  /// server runs in monitoring mode; 0 otherwise.
  std::uint64_t volume_digest = 0;
  ServeOptions options;
  Clock::time_point submit_time;
  std::promise<DiagnoseResponse> promise;

  bool expired(Clock::time_point now) const {
    return options.deadline.count() > 0 &&
           now - submit_time > options.deadline;
  }

  /// Two requests may share a micro-batch when they have the same
  /// workflow shape (enhancement on/off). The decision threshold is
  /// per-request and does not affect batching.
  bool compatible(const Request& other) const {
    return options.use_enhancement == other.options.use_enhancement;
  }
};

using RequestPtr = std::unique_ptr<Request>;

}  // namespace ccovid::serve
