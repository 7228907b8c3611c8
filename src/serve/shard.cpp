#include "serve/shard.h"

#include <unistd.h>

#include <chrono>
#include <deque>
#include <stdexcept>
#include <utility>

#include "core/digest.h"
#include "fault/failpoint.h"
#include "net/socket.h"
#include "trace/trace.h"

namespace ccovid::serve {

using net::CommError;
using net::Frame;
using net::FrameType;

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

DiagnoseResponse from_shard(const ShardResponse& sr) {
  DiagnoseResponse r;
  r.status = sr.status;
  r.diagnosis.probability = sr.probability;
  r.diagnosis.positive = sr.positive;
  r.diagnosis.threshold = sr.threshold;
  r.stages.prepare_s = sr.prepare_s;
  r.stages.enhance_s = sr.enhance_s;
  r.stages.segment_s = sr.segment_s;
  r.stages.classify_s = sr.classify_s;
  r.execute_s = sr.execute_s;
  r.request_id = sr.request_id;
  r.error = sr.error;
  r.degraded = sr.degraded;
  r.retries = sr.retries;
  r.infection_burden = sr.infection_burden;
  r.diagnosis.infection_burden = sr.infection_burden;
  r.burden_delta = sr.burden_delta;
  r.baseline_delta = sr.baseline_delta;
  r.scan_seq = sr.scan_seq;
  r.cache_hit = sr.cache_hit;
  return r;
}

ShardResponse to_shard(std::uint64_t request_id, const DiagnoseResponse& r) {
  ShardResponse sr;
  sr.request_id = request_id;
  sr.status = r.status;
  sr.degraded = r.degraded;
  sr.retries = r.retries;
  sr.probability = r.diagnosis.probability;
  sr.positive = r.diagnosis.positive;
  sr.threshold = r.diagnosis.threshold;
  sr.prepare_s = r.stages.prepare_s;
  sr.enhance_s = r.stages.enhance_s;
  sr.segment_s = r.stages.segment_s;
  sr.classify_s = r.stages.classify_s;
  sr.execute_s = r.execute_s;
  sr.infection_burden = r.infection_burden;
  sr.burden_delta = r.burden_delta;
  sr.baseline_delta = r.baseline_delta;
  sr.scan_seq = r.scan_seq;
  sr.cache_hit = r.cache_hit;
  sr.error = r.error;
  return sr;
}

}  // namespace

std::uint32_t route_shard(std::uint64_t patient_id, int shards) {
  const std::uint64_t h = fnv1a64(&patient_id, sizeof(patient_id));
  return static_cast<std::uint32_t>(h % static_cast<std::uint64_t>(shards));
}

// ------------------------------------------------------- front door

struct FrontDoor::Pending {
  std::uint64_t id = 0;
  ShardRequest req;  ///< retained so failover can re-send it verbatim
  Clock::time_point submit;
  std::promise<DiagnoseResponse> promise;
  std::atomic<bool> done{false};
  int failovers = 0;  ///< touched only by the thread that owns dispatch
};

struct FrontDoor::ShardConn {
  std::unique_ptr<net::Transport> t;
  std::thread rx;
  std::atomic<bool> alive{true};
  std::uint32_t pid = 0;
  /// Guards inflight; mutable so stats_json (const) can snapshot depth.
  mutable std::mutex mu;
  std::unordered_map<std::uint64_t, std::shared_ptr<Pending>> inflight;
  ShardCounters counters;
  std::atomic<std::uint64_t> hb_nonce{0};
  /// Heartbeats sent since the last ack (0 = healthy).
  std::atomic<int> hb_outstanding{0};
};

FrontDoor::FrontDoor(std::vector<std::unique_ptr<net::Transport>> workers,
                     FrontDoorOptions opt)
    : opt_(opt) {
  if (workers.empty()) {
    throw std::invalid_argument("FrontDoor: need at least one worker");
  }
  const int n = static_cast<int>(workers.size());
  conns_.reserve(workers.size());
  for (auto& t : workers) {
    auto conn = std::make_unique<ShardConn>();
    conn->t = std::move(t);
    conns_.push_back(std::move(conn));
  }
  // Handshake every shard before any thread starts: a worker that can't
  // say hello within the recv timeout fails construction typed rather
  // than surfacing later as routing errors.
  for (int i = 0; i < n; ++i) {
    auto& c = *conns_[i];
    TRACE_SPAN_ID("shard.handshake", static_cast<std::uint64_t>(i));
    HelloMsg hello;
    hello.shard_id = static_cast<std::uint32_t>(i);
    hello.shard_count = static_cast<std::uint32_t>(n);
    c.t->send(FrameType::kHello, encode(hello));
    Frame f = c.t->recv(opt_.recv_timeout_s);
    if (f.type != FrameType::kHelloAck) {
      throw CommError(CommError::Kind::kCorrupt, 0, i,
                      std::string("handshake: expected hello_ack, got ") +
                          net::to_string(f.type));
    }
    c.pid = decode_hello_ack(f.payload).pid;
  }
  for (int i = 0; i < n; ++i) {
    conns_[i]->rx = std::thread(&FrontDoor::rx_loop, this, i);
  }
  heartbeat_thread_ = std::thread(&FrontDoor::heartbeat_loop, this);
}

FrontDoor::~FrontDoor() { shutdown(); }

bool FrontDoor::resolve(Pending& pending, DiagnoseResponse r) {
  if (pending.done.exchange(true)) return false;
  // exchange() above guarantees exactly-once, so a monitored scan's
  // burden lands in the authoritative record exactly once — failover
  // twins can never double-advance a patient's history.
  if (opt_.monitor && pending.req.patient_id != 0 &&
      r.status == RequestStatus::kOk && r.scan_seq > 0) {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    MonitorRecord& rec = monitor_sessions_[pending.req.patient_id];
    if (rec.completed == 0) rec.baseline_burden = r.infection_burden;
    rec.prev_burden = r.infection_burden;
    ++rec.completed;
  }
  r.total_s = since(pending.submit);
  total_.record(r.total_s);
  pending.promise.set_value(std::move(r));
  return true;
}

std::future<DiagnoseResponse> FrontDoor::submit(std::uint64_t patient_id,
                                                const Tensor& volume_hu,
                                                ServeOptions options) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // Monitoring: number this scan and attach the patient's completed
  // prior burdens BEFORE the request is encoded — the triple rides the
  // wire bytes, so a failover re-send is byte-identical and the deltas
  // a fresh worker computes are bit-identical to the dead worker's.
  if (opt_.monitor && patient_id != 0) {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    MonitorRecord& rec = monitor_sessions_[patient_id];
    options.patient_id = patient_id;
    options.monitor_seq = ++rec.assigned;
    if (rec.completed > 0) {
      options.has_prior = true;
      options.prior_burden = rec.prev_burden;
      options.baseline_burden = rec.baseline_burden;
    }
  }
  auto p = std::make_shared<Pending>();
  p->id = id;
  p->submit = Clock::now();
  p->req = ShardRequest::from_volume(id, patient_id, volume_hu, options);
  auto fut = p->promise.get_future();
  TRACE_SPAN_ID("shard.route", id);
  dispatch(std::move(p), static_cast<int>(route_shard(patient_id, shards())));
  return fut;
}

void FrontDoor::dispatch(std::shared_ptr<Pending> pending, int preferred) {
  const int n = shards();
  for (int k = 0; k < n; ++k) {
    const int s = (preferred + k) % n;
    auto& c = *conns_[s];
    if (!c.alive.load(std::memory_order_acquire)) continue;
    {
      // Register before sending so a response can never race past its
      // own bookkeeping; re-check aliveness under the lock so we never
      // insert into a shard fail_shard has already drained.
      std::lock_guard<std::mutex> lock(c.mu);
      if (!c.alive.load(std::memory_order_acquire)) continue;
      c.inflight[pending->id] = pending;
    }
    c.counters.routed.fetch_add(1, std::memory_order_relaxed);
    try {
      c.t->send(FrameType::kRequest, encode(pending->req));
      return;
    } catch (const CommError& e) {
      bool owned;
      {
        std::lock_guard<std::mutex> lock(c.mu);
        owned = c.inflight.erase(pending->id) > 0;
      }
      fail_shard(s, std::string("send failed: ") + e.what());
      // If another thread's fail_shard drained our entry first, it owns
      // the re-dispatch — bail to avoid routing the request twice.
      if (!owned) return;
      c.counters.failed_over.fetch_add(1, std::memory_order_relaxed);
      if (++pending->failovers > opt_.max_failovers) break;
    }
  }
  DiagnoseResponse r;
  r.status = RequestStatus::kError;
  r.request_id = pending->id;
  r.error = alive_shards() == 0 ? "no live shards"
                                : "failover budget exhausted (" +
                                      std::to_string(pending->failovers) +
                                      " attempts)";
  if (resolve(*pending, std::move(r))) {
    conns_[preferred % n]->counters.failed.fetch_add(
        1, std::memory_order_relaxed);
  }
}

void FrontDoor::fail_shard(int shard, const std::string& why) {
  auto& c = *conns_[shard];
  bool expected = true;
  if (!c.alive.compare_exchange_strong(expected, false)) return;
  TRACE_INSTANT_ID("shard.dead", static_cast<std::uint64_t>(shard));
  c.t->close();
  std::vector<std::shared_ptr<Pending>> orphans;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    orphans.reserve(c.inflight.size());
    for (auto& [id, p] : c.inflight) orphans.push_back(p);
    c.inflight.clear();
  }
  for (auto& p : orphans) {
    if (p->done.load(std::memory_order_acquire)) continue;
    c.counters.failed_over.fetch_add(1, std::memory_order_relaxed);
    if (++p->failovers > opt_.max_failovers) {
      DiagnoseResponse r;
      r.status = RequestStatus::kError;
      r.request_id = p->id;
      r.error = "shard " + std::to_string(shard) + " died (" + why +
                "); failover budget exhausted";
      if (resolve(*p, std::move(r))) {
        c.counters.failed.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    TRACE_INSTANT_ID("shard.failover", p->id);
    dispatch(p, (shard + 1) % shards());
  }
}

void FrontDoor::rx_loop(int shard) {
  auto& c = *conns_[shard];
  while (running_.load(std::memory_order_acquire)) {
    std::optional<Frame> f;
    try {
      f = c.t->recv_for(0.05);
    } catch (const CommError& e) {
      // Corrupt / out-of-sequence inbound traffic means the connection
      // can no longer be trusted — treat like a death, fail over.
      fail_shard(shard, e.what());
      return;
    }
    if (!f) {
      if (!c.t->open()) {
        if (!draining_.load(std::memory_order_acquire)) {
          fail_shard(shard, "connection closed by worker");
        }
        return;
      }
      continue;
    }
    switch (f->type) {
      case FrameType::kResponse: {
        ShardResponse sr;
        try {
          sr = decode_response(f->payload);
        } catch (const CommError& e) {
          fail_shard(shard, e.what());
          return;
        }
        std::shared_ptr<Pending> p;
        {
          std::lock_guard<std::mutex> lock(c.mu);
          auto it = c.inflight.find(sr.request_id);
          if (it != c.inflight.end()) {
            p = it->second;
            c.inflight.erase(it);
          }
        }
        // Unknown id: a late response for a request that already failed
        // over — its twin resolves (or resolved) it, drop this copy.
        if (!p) break;
        if (resolve(*p, from_shard(sr))) {
          auto& ctr = sr.status == RequestStatus::kOk ? c.counters.completed
                                                      : c.counters.failed;
          ctr.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      case FrameType::kHeartbeatAck:
        c.hb_outstanding.store(0, std::memory_order_release);
        break;
      default:
        break;
    }
  }
}

void FrontDoor::heartbeat_loop() {
  const auto interval =
      std::chrono::duration<double>(opt_.heartbeat_interval_s);
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(interval);
    if (!running_.load(std::memory_order_acquire)) break;
    for (int s = 0; s < shards(); ++s) {
      auto& c = *conns_[s];
      if (!c.alive.load(std::memory_order_acquire)) continue;
      const int outstanding = c.hb_outstanding.fetch_add(1) + 1;
      if (outstanding > 1) {
        c.counters.heartbeat_misses.fetch_add(1, std::memory_order_relaxed);
        TRACE_INSTANT_ID("shard.heartbeat_miss", static_cast<std::uint64_t>(s));
      }
      if (outstanding > opt_.heartbeat_miss_limit) {
        fail_shard(s, "heartbeat: " + std::to_string(outstanding - 1) +
                          " consecutive misses");
        continue;
      }
      HeartbeatMsg hb;
      hb.nonce = c.hb_nonce.fetch_add(1) + 1;
      try {
        c.t->send(FrameType::kHeartbeat, encode(hb));
      } catch (const CommError& e) {
        fail_shard(s, std::string("heartbeat send: ") + e.what());
      }
    }
  }
}

void FrontDoor::shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  draining_.store(true, std::memory_order_release);
  // Graceful: ask live workers to drain, then let the rx threads keep
  // collecting responses until the in-flight set empties (bounded).
  for (auto& cp : conns_) {
    if (!cp->alive.load(std::memory_order_acquire)) continue;
    try {
      cp->t->send(FrameType::kShutdown);
    } catch (const CommError&) {
      // Dead anyway; the rx loop will notice and fail over.
    }
  }
  const auto deadline = net::recv_deadline(opt_.recv_timeout_s);
  auto inflight_total = [&] {
    std::size_t n = 0;
    for (auto& cp : conns_) {
      std::lock_guard<std::mutex> lock(cp->mu);
      n += cp->inflight.size();
    }
    return n;
  };
  while (Clock::now() < deadline && inflight_total() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  running_.store(false, std::memory_order_release);
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  for (auto& cp : conns_) cp->t->close();
  for (auto& cp : conns_) {
    if (cp->rx.joinable()) cp->rx.join();
  }
  // Anything still unresolved fails typed — never silently lost.
  for (auto& cp : conns_) {
    std::vector<std::shared_ptr<Pending>> left;
    {
      std::lock_guard<std::mutex> lock(cp->mu);
      for (auto& [id, p] : cp->inflight) left.push_back(p);
      cp->inflight.clear();
    }
    for (auto& p : left) {
      DiagnoseResponse r;
      r.status = RequestStatus::kShutdown;
      r.request_id = p->id;
      r.error = "front door shut down before the response arrived";
      if (resolve(*p, std::move(r))) {
        cp->counters.failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

int FrontDoor::alive_shards() const {
  int n = 0;
  for (auto& cp : conns_) n += cp->alive.load(std::memory_order_acquire);
  return n;
}

std::size_t FrontDoor::monitor_patients() const {
  std::lock_guard<std::mutex> lock(monitor_mu_);
  return monitor_sessions_.size();
}

std::uint64_t FrontDoor::failed_over() const {
  std::uint64_t n = 0;
  for (auto& cp : conns_) {
    n += cp->counters.failed_over.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t FrontDoor::heartbeat_misses() const {
  std::uint64_t n = 0;
  for (auto& cp : conns_) {
    n += cp->counters.heartbeat_misses.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint32_t FrontDoor::worker_pid(int shard) const {
  return conns_[static_cast<std::size_t>(shard)]->pid;
}

std::string FrontDoor::stats_json() const {
  std::uint64_t routed = 0, completed = 0, failed = 0;
  for (auto& cp : conns_) {
    routed += cp->counters.routed.load(std::memory_order_relaxed);
    completed += cp->counters.completed.load(std::memory_order_relaxed);
    failed += cp->counters.failed.load(std::memory_order_relaxed);
  }
  std::string out = "{\"role\":\"front\"";
  out += ",\"shards\":" + std::to_string(shards());
  out += ",\"alive\":" + std::to_string(alive_shards());
  out += ",\"routed\":" + std::to_string(routed);
  out += ",\"completed\":" + std::to_string(completed);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"failed_over\":" + std::to_string(failed_over());
  out += ",\"heartbeat_misses\":" + std::to_string(heartbeat_misses());
  if (opt_.monitor) {
    out += ",\"monitor_patients\":" + std::to_string(monitor_patients());
  }
  out += ",";
  append_histogram_json(out, "total", total_);
  out += ",\"per_shard\":[";
  for (int s = 0; s < shards(); ++s) {
    const auto& c = *conns_[s];
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lock(c.mu);
      depth = c.inflight.size();
    }
    if (s > 0) out += ",";
    out += "{\"shard\":" + std::to_string(s);
    out += ",\"alive\":" +
           std::string(c.alive.load(std::memory_order_acquire) ? "true"
                                                               : "false");
    out += ",\"pid\":" + std::to_string(c.pid);
    out += ",\"routed\":" +
           std::to_string(c.counters.routed.load(std::memory_order_relaxed));
    out += ",\"completed\":" +
           std::to_string(c.counters.completed.load(std::memory_order_relaxed));
    out += ",\"failed\":" +
           std::to_string(c.counters.failed.load(std::memory_order_relaxed));
    out += ",\"failed_over\":" +
           std::to_string(
               c.counters.failed_over.load(std::memory_order_relaxed));
    out += ",\"heartbeat_misses\":" +
           std::to_string(
               c.counters.heartbeat_misses.load(std::memory_order_relaxed));
    out += ",\"inflight\":" + std::to_string(depth);
    out += ",\"frames_sent\":" + std::to_string(c.t->frames_sent());
    out += ",\"frames_received\":" + std::to_string(c.t->frames_received());
    out += ",\"bytes_sent\":" + std::to_string(c.t->bytes_sent());
    out += ",\"bytes_received\":" + std::to_string(c.t->bytes_received());
    out += "}";
  }
  out += "]";
  const std::string fp = fault::Registry::instance().json();
  if (fp != "{}") out += ",\"failpoints\":" + fp;
  out += "}";
  return out;
}

// ----------------------------------------------------------- worker

WorkerRunStats run_shard_worker(
    net::Transport& transport,
    std::shared_ptr<const pipeline::ComputeCovid19Pipeline> pipeline,
    const ShardWorkerOptions& opt) {
  WorkerRunStats st;

  // Handshake: the front door speaks first.
  std::optional<Frame> hf;
  try {
    hf = transport.recv_for(opt.recv_timeout_s);
  } catch (const CommError&) {
    return st;
  }
  if (!hf || hf->type != FrameType::kHello) return st;
  HelloAckMsg ack;
  try {
    ack.shard_id = decode_hello(hf->payload).shard_id;
  } catch (const CommError&) {
    return st;
  }
  ack.pid = static_cast<std::uint32_t>(::getpid());
  try {
    transport.send(FrameType::kHelloAck, encode(ack));
  } catch (const CommError&) {
    return st;
  }

  InferenceServer server(std::move(pipeline), opt.server);
  // FIFO of submitted-but-unanswered requests. The protocol loop only
  // submits and forwards — the InferenceServer's own threads execute —
  // so heartbeats keep flowing while batches run.
  std::deque<std::pair<std::uint64_t, std::future<DiagnoseResponse>>> inflight;
  bool draining = false;
  bool dead = false;

  auto flush_ready = [&]() -> bool {
    while (!inflight.empty() &&
           inflight.front().second.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      const std::uint64_t id = inflight.front().first;
      DiagnoseResponse r = inflight.front().second.get();
      inflight.pop_front();
      try {
        transport.send(FrameType::kResponse, encode(to_shard(id, r)));
      } catch (const CommError&) {
        return false;
      }
    }
    return true;
  };

  while (!dead) {
    if (!flush_ready()) break;
    if (draining && inflight.empty()) {
      st.exit = WorkerExit::kShutdown;
      break;
    }
    std::optional<Frame> f;
    try {
      // Tick fast while responses are pending so they forward promptly.
      f = transport.recv_for(inflight.empty() && !draining ? 0.05 : 0.005);
    } catch (const CommError&) {
      // Corrupt inbound traffic: abandon the connection; the front door
      // sees EOF / silence and fails our in-flight work over.
      break;
    }
    if (!f) {
      if (!transport.open()) break;
      continue;
    }
    switch (f->type) {
      case FrameType::kRequest: {
        TRACE_SPAN("shard.worker.request");
        ShardRequest rq;
        try {
          rq = decode_request(f->payload);
        } catch (const CommError&) {
          dead = true;
          break;
        }
        ServeOptions so;
        so.use_enhancement = rq.use_enhancement;
        so.threshold = rq.threshold;
        so.patient_id = rq.patient_id;
        so.monitor_seq = rq.monitor_seq;
        so.has_prior = rq.has_prior;
        so.prior_burden = rq.prior_burden;
        so.baseline_burden = rq.baseline_burden;
        inflight.emplace_back(rq.request_id,
                              server.submit(rq.to_tensor(), so));
        ++st.served;
        break;
      }
      case FrameType::kHeartbeat: {
        ++st.heartbeats;
        try {
          transport.send(FrameType::kHeartbeatAck, std::move(f->payload));
        } catch (const CommError&) {
          dead = true;
        }
        break;
      }
      case FrameType::kShutdown:
        draining = true;
        break;
      default:
        break;
    }
  }

  // Resolve whatever is still queued; forward best-effort (the peer may
  // already be gone — its failover machinery covers those requests).
  for (auto& [id, fut] : inflight) {
    DiagnoseResponse r = fut.get();
    if (!transport.open()) continue;
    try {
      transport.send(FrameType::kResponse, encode(to_shard(id, r)));
    } catch (const CommError&) {
    }
  }
  server.shutdown();
  return st;
}

std::uint64_t run_worker_listener(
    net::SocketListener& listener,
    std::shared_ptr<const pipeline::ComputeCovid19Pipeline> pipeline,
    const ShardWorkerOptions& opt, double accept_timeout_s) {
  std::uint64_t total = 0;
  for (;;) {
    std::unique_ptr<net::SocketTransport> t =
        listener.accept_for(accept_timeout_s);
    if (!t) return total;  // no front door within the window — give up
    const WorkerRunStats st = run_shard_worker(*t, pipeline, opt);
    total += st.served;
    if (st.exit == WorkerExit::kShutdown) return total;
    // Disconnect (front-door death or restart): re-accept and serve the
    // next incarnation with the same warmed pipeline.
  }
}

}  // namespace ccovid::serve
