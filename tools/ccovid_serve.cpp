// ccovid_serve — run the batching inference-serving runtime against a
// stream of phantom CT volumes (or models trained by ccovid_train).
//
//   ccovid_serve [--volumes N] [--depth D] [--size PX] [--seed S]
//                [--workers W] [--batch B] [--batch-delay-us U]
//                [--queue-cap Q] [--deadline-ms MS] [--stall-ms MS]
//                [--interval-ms MS] [--threshold T] [--no-enhance]
//                [--models DIR] [--json PATH]
//                [--failpoints SPECS] [--fault-seed S]
//                [--retries N] [--degrade] [--recv-timeout S]
//
// --failpoints arms seeded fault schedules (grammar in DESIGN.md, e.g.
// "serve.worker.exec=prob(0.2)*error;serve.queue.admit=nth(3)") so the
// runtime's retry/degradation behavior can be exercised from the shell;
// --fault-seed pins the schedule RNG (defaults to --seed), and
// --retries/--degrade turn on retry-with-backoff and the reduced
// (enhancement-off) fallback workflow.
//
// Sharded multi-process mode (serve/shard.h):
//
//   ccovid_serve --role front --shards N     spawns N worker processes
//       (this binary, --role worker) on Unix sockets, hash-routes the
//       phantom stream across them, health-checks with heartbeats and
//       fails over on worker death. --connect SPEC,SPEC joins
//       pre-started workers instead of spawning (unix:/path or
//       tcp:host:port). --kill-shard K --kill-after M SIGKILLs worker K
//       after M responses (worker-kill chaos); --verify recomputes every
//       volume on an in-process server and checks the probability bits
//       match; --shard-json PATH records a BENCH_shard.json-style
//       summary for scripts/check_bench.py.
//   ccovid_serve --role worker --listen SPEC serves one shard: accepts
//       a front door, runs requests through a local InferenceServer,
//       and re-accepts after a front-door restart.
//
// Without --models the pipeline uses seeded randomly-initialized compact
// networks (deterministic, self-contained demo); with --models it loads
// the ccovid_train weights like ccovid_diagnose does. Volumes alternate
// healthy / COVID-positive phantoms, are submitted --interval-ms apart
// (0 = as fast as possible, exercising admission backpressure), and the
// run ends with a graceful drain plus a ServerStats JSON dump.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/precision.h"
#include "core/simd.h"
#include "data/phantom.h"
#include "fault/failpoint.h"
#include "net/error.h"
#include "net/socket.h"
#include "net/transport.h"
#include "nn/layers.h"
#include "serve/server.h"
#include "serve/shard.h"
#include "serve/shard_spawn.h"
#include "trace/export.h"
#include "trace/trace.h"

using namespace ccovid;

namespace {

struct ToolArgs {
  int volumes = 8;
  index_t depth = 4;
  index_t size = 16;
  std::uint64_t seed = 42;
  int workers = 2;
  std::size_t batch = 4;
  long batch_delay_us = 2000;
  std::size_t queue_cap = 16;
  long deadline_ms = 0;
  double stall_ms = 0.0;
  long interval_ms = 0;
  double threshold = 0.35;
  bool use_enhancement = true;
  std::string models;  // empty = seeded random init
  std::string json_path;
  std::string failpoints;       // empty = no fault injection
  std::uint64_t fault_seed = 0; // 0 = reuse --seed
  int retries = 0;
  bool degrade = false;
  std::string trace_out;  // empty = tracing off

  // Longitudinal monitoring mode (serve/monitor.h).
  bool monitor = false;
  int rescans = 0;             // follow-up scan rounds per patient
  std::size_t cache_cap = 256;
  std::size_t session_cap = 1024;
  double session_ttl_s = 0.0;  // 0 = never expire

  // Sharded mode (serve/shard.h).
  std::string role = "single";  // single | front | worker
  int shards = 2;
  std::string listen_spec;     // worker: endpoint to listen on
  std::string connect_specs;   // front: comma-separated worker endpoints
  int shard_id = 0;            // worker: identity (logging only)
  double recv_timeout_s = ccovid::net::default_recv_timeout_s();
  double hb_interval_ms = 100.0;
  int hb_miss_limit = 5;
  int max_failovers = 2;
  int kill_shard = -1;    // front chaos: SIGKILL this shard's worker...
  long kill_after = 0;    // ...after this many responses arrived
  std::string worker_failpoints;  // front: --failpoints for spawned workers
  std::string shard_json;         // front: BENCH_shard.json-style output
  bool verify = false;            // front: bitwise-check vs local server
  double accept_timeout_s = 30.0; // worker: give up when no front door
  std::string socket_dir = "/tmp";
};

void usage() {
  std::printf(
      "usage: ccovid_serve [--volumes N] [--depth D] [--size PX]\n"
      "                    [--seed S] [--workers W] [--batch B]\n"
      "                    [--batch-delay-us U] [--queue-cap Q]\n"
      "                    [--deadline-ms MS] [--stall-ms MS]\n"
      "                    [--interval-ms MS] [--threshold T]\n"
      "                    [--no-enhance] [--models DIR] [--json PATH]\n"
      "                    [--failpoints SPECS] [--fault-seed S]\n"
      "                    [--retries N] [--degrade] [--threads N]\n"
      "                    [--simd MODE]\n"
      "                    [--precision fp32|fp16|bf16|int8]\n"
      "                    [--trace-out PATH]\n"
      "                    [--recv-timeout S]\n"
      "  monitoring:       [--monitor] [--rescans N] [--cache-cap N]\n"
      "                    [--session-cap N] [--session-ttl S]\n"
      "  sharded:          [--role front|worker|single] [--shards N]\n"
      "                    [--connect SPEC,SPEC] [--listen SPEC]\n"
      "                    [--shard-id K] [--hb-interval-ms MS]\n"
      "                    [--hb-miss-limit N] [--max-failovers N]\n"
      "                    [--kill-shard K] [--kill-after M]\n"
      "                    [--worker-failpoints SPECS] [--verify]\n"
      "                    [--shard-json PATH] [--accept-timeout S]\n"
      "                    [--socket-dir DIR]\n"
      "  SPEC is unix:/path or tcp:host:port\n");
}

bool parse(int argc, char** argv, ToolArgs& a) {
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* arg = argv[i];
    const char* v = nullptr;
    if (!std::strcmp(arg, "--volumes")) {
      if (!(v = next(arg))) return false;
      a.volumes = std::atoi(v);
    } else if (!std::strcmp(arg, "--depth")) {
      if (!(v = next(arg))) return false;
      a.depth = std::atoll(v);
    } else if (!std::strcmp(arg, "--size")) {
      if (!(v = next(arg))) return false;
      a.size = std::atoll(v);
    } else if (!std::strcmp(arg, "--seed")) {
      if (!(v = next(arg))) return false;
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--workers")) {
      if (!(v = next(arg))) return false;
      a.workers = std::atoi(v);
    } else if (!std::strcmp(arg, "--batch")) {
      if (!(v = next(arg))) return false;
      a.batch = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--batch-delay-us")) {
      if (!(v = next(arg))) return false;
      a.batch_delay_us = std::atol(v);
    } else if (!std::strcmp(arg, "--queue-cap")) {
      if (!(v = next(arg))) return false;
      a.queue_cap = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--deadline-ms")) {
      if (!(v = next(arg))) return false;
      a.deadline_ms = std::atol(v);
    } else if (!std::strcmp(arg, "--stall-ms")) {
      if (!(v = next(arg))) return false;
      a.stall_ms = std::atof(v);
    } else if (!std::strcmp(arg, "--interval-ms")) {
      if (!(v = next(arg))) return false;
      a.interval_ms = std::atol(v);
    } else if (!std::strcmp(arg, "--threshold")) {
      if (!(v = next(arg))) return false;
      a.threshold = std::atof(v);
    } else if (!std::strcmp(arg, "--no-enhance")) {
      a.use_enhancement = false;
    } else if (!std::strcmp(arg, "--models")) {
      if (!(v = next(arg))) return false;
      a.models = v;
    } else if (!std::strcmp(arg, "--json")) {
      if (!(v = next(arg))) return false;
      a.json_path = v;
    } else if (!std::strcmp(arg, "--failpoints")) {
      if (!(v = next(arg))) return false;
      a.failpoints = v;
    } else if (!std::strcmp(arg, "--fault-seed")) {
      if (!(v = next(arg))) return false;
      a.fault_seed = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--retries")) {
      if (!(v = next(arg))) return false;
      a.retries = std::atoi(v);
    } else if (!std::strcmp(arg, "--degrade")) {
      a.degrade = true;
    } else if (!std::strcmp(arg, "--monitor")) {
      a.monitor = true;
    } else if (!std::strcmp(arg, "--rescans")) {
      if (!(v = next(arg))) return false;
      a.rescans = std::atoi(v);
    } else if (!std::strcmp(arg, "--cache-cap")) {
      if (!(v = next(arg))) return false;
      a.cache_cap = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--session-cap")) {
      if (!(v = next(arg))) return false;
      a.session_cap = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--session-ttl")) {
      if (!(v = next(arg))) return false;
      a.session_ttl_s = std::atof(v);
    } else if (!std::strcmp(arg, "--threads")) {
      if (!(v = next(arg))) return false;
      set_num_threads(std::atoi(v));
    } else if (!std::strcmp(arg, "--simd")) {
      if (!(v = next(arg))) return false;
      if (!simd::set_backend_spec(v)) {
        std::fprintf(stderr,
                     "--simd: unknown backend '%s' (scalar|sse2|avx2|auto)\n",
                     v);
        return false;
      }
    } else if (!std::strcmp(arg, "--precision")) {
      if (!(v = next(arg))) return false;
      core::Precision p;
      if (!core::parse_precision(v, &p)) {
        std::fprintf(stderr,
                     "--precision: unknown format '%s' "
                     "(fp32|fp16|bf16|int8)\n",
                     v);
        return false;
      }
      core::set_active_precision(p);
    } else if (!std::strcmp(arg, "--trace-out")) {
      if (!(v = next(arg))) return false;
      a.trace_out = v;
      trace::set_level(1);
    } else if (!std::strcmp(arg, "--role")) {
      if (!(v = next(arg))) return false;
      a.role = v;
      if (a.role != "single" && a.role != "front" && a.role != "worker") {
        std::fprintf(stderr, "--role: expected single|front|worker\n");
        return false;
      }
    } else if (!std::strcmp(arg, "--shards")) {
      if (!(v = next(arg))) return false;
      a.shards = std::atoi(v);
    } else if (!std::strcmp(arg, "--listen")) {
      if (!(v = next(arg))) return false;
      a.listen_spec = v;
    } else if (!std::strcmp(arg, "--connect")) {
      if (!(v = next(arg))) return false;
      a.connect_specs = v;
    } else if (!std::strcmp(arg, "--shard-id")) {
      if (!(v = next(arg))) return false;
      a.shard_id = std::atoi(v);
    } else if (!std::strcmp(arg, "--recv-timeout")) {
      if (!(v = next(arg))) return false;
      const std::optional<double> t = net::parse_recv_timeout_s(v);
      if (!t) {
        std::fprintf(stderr, "--recv-timeout: expected seconds in (0, 1e9]\n");
        return false;
      }
      a.recv_timeout_s = *t;
    } else if (!std::strcmp(arg, "--hb-interval-ms")) {
      if (!(v = next(arg))) return false;
      a.hb_interval_ms = std::atof(v);
    } else if (!std::strcmp(arg, "--hb-miss-limit")) {
      if (!(v = next(arg))) return false;
      a.hb_miss_limit = std::atoi(v);
    } else if (!std::strcmp(arg, "--max-failovers")) {
      if (!(v = next(arg))) return false;
      a.max_failovers = std::atoi(v);
    } else if (!std::strcmp(arg, "--kill-shard")) {
      if (!(v = next(arg))) return false;
      a.kill_shard = std::atoi(v);
    } else if (!std::strcmp(arg, "--kill-after")) {
      if (!(v = next(arg))) return false;
      a.kill_after = std::atol(v);
    } else if (!std::strcmp(arg, "--worker-failpoints")) {
      if (!(v = next(arg))) return false;
      a.worker_failpoints = v;
    } else if (!std::strcmp(arg, "--verify")) {
      a.verify = true;
    } else if (!std::strcmp(arg, "--shard-json")) {
      if (!(v = next(arg))) return false;
      a.shard_json = v;
    } else if (!std::strcmp(arg, "--accept-timeout")) {
      if (!(v = next(arg))) return false;
      a.accept_timeout_s = std::atof(v);
    } else if (!std::strcmp(arg, "--socket-dir")) {
      if (!(v = next(arg))) return false;
      a.socket_dir = v;
    } else {
      usage();
      return std::strcmp(arg, "--help") == 0 ? (std::exit(0), false)
                                             : false;
    }
  }
  return true;
}

std::shared_ptr<const pipeline::ComputeCovid19Pipeline> build_pipeline(
    const ToolArgs& a) {
  // Architectures match ccovid_train / ccovid_diagnose.
  nn::DDnetConfig ncfg;
  ncfg.base_channels = 8;
  ncfg.growth = 8;
  ncfg.levels = 2;
  ncfg.dense_layers = 2;
  nn::seed_init_rng(a.seed);
  auto enh = std::make_shared<pipeline::EnhancementAI>(ncfg);
  auto seg = std::make_shared<pipeline::SegmentationAI>();
  auto cls = std::make_shared<pipeline::ClassificationAI>();
  if (!a.models.empty()) {
    try {
      enh->network().load(a.models + "/ddnet.tnsr");
      seg->network().load(a.models + "/ahnet.tnsr");
      cls->network().load(a.models + "/densenet3d.tnsr");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ccovid_serve: cannot load models from %s: %s\n",
                   a.models.c_str(), e.what());
      return nullptr;
    }
  }
  // The registry only serves eval-mode (immutable) models.
  enh->network().set_training(false);
  seg->network().set_training(false);
  cls->network().set_training(false);
  return std::make_shared<const pipeline::ComputeCovid19Pipeline>(enh, seg,
                                                                  cls);
}

serve::ServerOptions server_options(const ToolArgs& a) {
  serve::ServerOptions opt;
  opt.queue_capacity = a.queue_cap;
  opt.max_batch = a.batch;
  opt.batch_delay = std::chrono::microseconds(a.batch_delay_us);
  opt.workers = a.workers;
  opt.default_deadline = std::chrono::milliseconds(a.deadline_ms);
  opt.device_stall_s = a.stall_ms * 1e-3;
  opt.max_retries = a.retries;
  opt.degrade_on_failure = a.degrade;
  opt.monitor = a.monitor;
  opt.monitor_opts.cache_capacity = a.cache_cap;
  opt.monitor_opts.session_capacity = a.session_cap;
  opt.monitor_opts.session_ttl_s = a.session_ttl_s;
  return opt;
}

std::vector<data::PhantomVolume> make_patients(const ToolArgs& a) {
  // Alternating negative / positive phantoms; seeded, so the front
  // door, workers' --verify twin, and the single-process path all see
  // identical voxels.
  Rng rng(a.seed);
  std::vector<data::PhantomVolume> patients;
  patients.reserve(static_cast<std::size_t>(a.volumes));
  for (int i = 0; i < a.volumes; ++i) {
    patients.push_back(data::make_volume(a.depth, a.size, i % 2 == 1, rng));
  }
  return patients;
}

// Follow-up volumes for monitoring mode. Scan rounds alternate: even
// rounds re-submit each patient's baseline volume (deterministic cache
// hits whose bits must equal round 0's recomputation), odd rounds
// submit this distinct follow-up (real burden deltas). Seeded, so every
// process — front door, workers, the --verify twin — sees the same
// voxels.
std::vector<data::PhantomVolume> make_followups(const ToolArgs& a) {
  Rng rng(a.seed ^ 0x6d6f6e69746f72ull);
  std::vector<data::PhantomVolume> scans;
  scans.reserve(static_cast<std::size_t>(a.volumes));
  for (int i = 0; i < a.volumes; ++i) {
    scans.push_back(data::make_volume(a.depth, a.size, i % 2 == 1, rng));
  }
  return scans;
}

std::string format_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", s);
  return buf;
}

// ------------------------------------------------------- worker role

int run_worker(const ToolArgs& a) {
  if (a.listen_spec.empty()) {
    std::fprintf(stderr, "ccovid_serve: --role worker needs --listen\n");
    return 1;
  }
  auto pipe = build_pipeline(a);
  if (!pipe) return 1;
  serve::ShardWorkerOptions wopt;
  wopt.server = server_options(a);
  wopt.recv_timeout_s = a.recv_timeout_s;
  try {
    net::Endpoint ep = net::Endpoint::parse(a.listen_spec);
    net::SocketListener listener(ep);
    std::fprintf(stderr, "ccovid_serve worker %d: listening on %s (pid %d)\n",
                 a.shard_id, listener.endpoint().str().c_str(),
                 static_cast<int>(::getpid()));
    const std::uint64_t served =
        serve::run_worker_listener(listener, std::move(pipe), wopt,
                                   a.accept_timeout_s);
    std::fprintf(stderr, "ccovid_serve worker %d: served %llu request(s)\n",
                 a.shard_id, static_cast<unsigned long long>(served));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccovid_serve worker %d: %s\n", a.shard_id,
                 e.what());
    return 1;
  }
  return 0;
}

// --------------------------------------------------- front-door role

std::vector<std::string> worker_argv(const ToolArgs& a, const std::string& exe,
                                     int shard, const std::string& spec) {
  std::vector<std::string> argv = {
      exe, "--role", "worker", "--listen", spec,
      "--shard-id", std::to_string(shard),
      "--seed", std::to_string(a.seed),
      "--workers", std::to_string(a.workers),
      "--batch", std::to_string(a.batch),
      "--batch-delay-us", std::to_string(a.batch_delay_us),
      "--queue-cap", std::to_string(a.queue_cap),
      "--retries", std::to_string(a.retries),
      "--recv-timeout", format_seconds(a.recv_timeout_s),
  };
  if (a.stall_ms > 0) {
    argv.push_back("--stall-ms");
    argv.push_back(format_seconds(a.stall_ms));
  }
  if (a.degrade) argv.push_back("--degrade");
  if (a.monitor) {
    argv.push_back("--monitor");
    argv.push_back("--cache-cap");
    argv.push_back(std::to_string(a.cache_cap));
    argv.push_back("--session-cap");
    argv.push_back(std::to_string(a.session_cap));
    if (a.session_ttl_s > 0) {
      argv.push_back("--session-ttl");
      argv.push_back(format_seconds(a.session_ttl_s));
    }
  }
  if (core::active_precision() != core::Precision::kF32) {
    // Spawned workers must run the same storage format as the front
    // door's --verify twin, or the bitwise check would compare formats.
    argv.push_back("--precision");
    argv.push_back(core::precision_name(core::active_precision()));
  }
  if (!a.models.empty()) {
    argv.push_back("--models");
    argv.push_back(a.models);
  }
  if (!a.worker_failpoints.empty()) {
    argv.push_back("--failpoints");
    argv.push_back(a.worker_failpoints);
    argv.push_back("--fault-seed");
    argv.push_back(std::to_string(a.fault_seed ? a.fault_seed : a.seed));
  }
  return argv;
}

int run_front(const ToolArgs& a) {
  if (a.shards < 1) {
    std::fprintf(stderr, "ccovid_serve: --shards must be >= 1\n");
    return 1;
  }

  // Worker endpoints: join pre-started ones (--connect) or spawn our
  // own binary in worker role on per-shard Unix sockets.
  std::vector<net::Endpoint> eps;
  std::vector<int> pids;          // spawned workers only
  std::vector<std::string> unix_paths;  // spawned socket files (cleanup)
  if (!a.connect_specs.empty()) {
    std::string specs = a.connect_specs;
    std::size_t pos = 0;
    while (pos != std::string::npos) {
      const std::size_t comma = specs.find(',', pos);
      const std::string one =
          specs.substr(pos, comma == std::string::npos ? comma : comma - pos);
      if (!one.empty()) eps.push_back(net::Endpoint::parse(one));
      pos = comma == std::string::npos ? comma : comma + 1;
    }
    if (eps.empty()) {
      std::fprintf(stderr, "ccovid_serve: --connect: no endpoints\n");
      return 1;
    }
  } else {
    const std::string exe = serve::self_exe_path();
    for (int i = 0; i < a.shards; ++i) {
      const std::string path = a.socket_dir + "/ccovid_shard_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(i) + ".sock";
      const std::string spec = "unix:" + path;
      unix_paths.push_back(path);
      eps.push_back(net::Endpoint::parse(spec));
      pids.push_back(serve::spawn_process(worker_argv(a, exe, i, spec)));
    }
  }
  const int n = static_cast<int>(eps.size());

  auto reap_workers = [&] {
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (serve::wait_process(pids[i], 5.0) == -1) {
        serve::kill_process(pids[i], SIGKILL);
        serve::wait_process(pids[i], 5.0);
      }
    }
    for (const auto& p : unix_paths) ::unlink(p.c_str());
  };

  std::printf("ccovid_serve front: %d shard(s) over %s, %s\n", n,
              eps[0].kind == net::Endpoint::Kind::kUnix ? "unix sockets"
                                                        : "tcp",
              pids.empty() ? "pre-started workers" : "spawned workers");

  int rc = 0;
  bool bitwise_match = true;
  int lost = 0, completed = 0, correct = 0;
  double elapsed = 0.0, single_elapsed = 0.0;
  std::string stats;
  std::uint64_t failed_over = 0, hb_misses = 0;
  try {
    std::vector<std::unique_ptr<net::Transport>> transports;
    for (int i = 0; i < n; ++i) {
      // Generous connect window: spawned workers build their pipeline
      // before binding the listener.
      transports.push_back(net::connect_endpoint(eps[i], 15.0, 0, i));
    }
    serve::FrontDoorOptions fopt;
    fopt.recv_timeout_s = a.recv_timeout_s;
    fopt.heartbeat_interval_s = a.hb_interval_ms * 1e-3;
    fopt.heartbeat_miss_limit = a.hb_miss_limit;
    fopt.max_failovers = a.max_failovers;
    fopt.monitor = a.monitor;
    serve::FrontDoor front(std::move(transports), fopt);

    const auto patients = make_patients(a);
    const auto followups = make_followups(a);
    serve::ServeOptions sopt;
    sopt.use_enhancement = a.use_enhancement;
    sopt.threshold = a.threshold;

    // Monitoring: each round is one scan per patient; the front door is
    // the ordinal authority, and rounds are collected before the next
    // one submits (a patient's follow-up scan never overtakes its
    // predecessor — the sequential-per-patient contract).
    const int rounds = 1 + (a.monitor ? a.rescans : 0);
    std::vector<const data::PhantomVolume*> scans;  // flat submit order
    std::vector<serve::DiagnoseResponse> responses;
    bool killed = false;
    long got = 0;
    WallTimer wall;
    for (int round = 0; round < rounds; ++round) {
      std::vector<std::future<serve::DiagnoseResponse>> futures;
      futures.reserve(patients.size());
      for (std::size_t i = 0; i < patients.size(); ++i) {
        const data::PhantomVolume& vol =
            round % 2 == 0 ? patients[i] : followups[i];
        scans.push_back(&vol);
        // Patient ids are stable across runs so routing is reproducible.
        futures.push_back(front.submit(
            1000 + static_cast<std::uint64_t>(i), vol.hu, sopt));
        if (a.interval_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(a.interval_ms));
        }
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        if (!killed && a.kill_shard >= 0 && a.kill_shard < n &&
            got == a.kill_after) {
          const std::uint32_t pid = front.worker_pid(a.kill_shard);
          if (pid != 0) {
            std::printf("chaos: SIGKILL shard %d (pid %u) after %ld "
                        "response(s)\n",
                        a.kill_shard, pid, got);
            serve::kill_process(static_cast<int>(pid), SIGKILL);
          }
          killed = true;
        }
        responses.push_back(futures[i].get());
        ++got;
        const auto& r = responses.back();
        const bool truth = scans[responses.size() - 1]->label != 0;
        if (r.status == serve::RequestStatus::kOk) {
          ++completed;
          correct += truth == r.diagnosis.positive;
        } else {
          ++lost;
          std::printf("  #%-3llu %-9s %s\n",
                      static_cast<unsigned long long>(r.request_id),
                      serve::to_string(r.status), r.error.c_str());
        }
      }
    }
    elapsed = wall.seconds();
    front.shutdown();
    failed_over = front.failed_over();
    hb_misses = front.heartbeat_misses();
    stats = front.stats_json();

    if (a.verify) {
      // Bitwise check: the same seed builds the same weights here as in
      // every worker, so each probability must match exactly. The twin
      // runs WITHOUT a monitor, so every scan is recomputed — sharded
      // responses served from the result cache must still match it
      // bit-for-bit (the no-stale-bits invariant, end to end).
      auto pipe = build_pipeline(a);
      if (!pipe) return 1;
      serve::ServerOptions lopt = server_options(a);
      lopt.monitor = false;
      serve::InferenceServer local(std::move(pipe), lopt);
      // Submit round-by-round like the serving loop did: the whole
      // scan stream can exceed the admission queue bound.
      WallTimer single_wall;
      std::vector<std::future<serve::DiagnoseResponse>> lf;
      lf.reserve(scans.size());
      for (std::size_t base = 0; base < scans.size();
           base += patients.size()) {
        std::vector<std::future<serve::DiagnoseResponse>> roundf;
        for (std::size_t i = base;
             i < base + patients.size() && i < scans.size(); ++i) {
          roundf.push_back(local.submit(scans[i]->hu, sopt));
        }
        for (auto& f : roundf) f.wait();
        for (auto& f : roundf) lf.push_back(std::move(f));
      }
      for (std::size_t i = 0; i < lf.size(); ++i) {
        const serve::DiagnoseResponse e = lf[i].get();
        if (responses[i].status != serve::RequestStatus::kOk) continue;
        if (e.status != serve::RequestStatus::kOk) {
          bitwise_match = false;
          std::printf("verify: local twin failed at #%zu: %s %s\n", i,
                      serve::to_string(e.status), e.error.c_str());
          continue;
        }
        if (std::memcmp(&e.diagnosis.probability,
                        &responses[i].diagnosis.probability,
                        sizeof(double)) != 0 ||
            e.diagnosis.positive != responses[i].diagnosis.positive) {
          bitwise_match = false;
          std::printf("verify: MISMATCH at #%zu: sharded P=%.17g, "
                      "single P=%.17g\n",
                      i, responses[i].diagnosis.probability,
                      e.diagnosis.probability);
        }
        if (a.monitor &&
            std::memcmp(&e.diagnosis.infection_burden,
                        &responses[i].infection_burden,
                        sizeof(double)) != 0) {
          bitwise_match = false;
          std::printf("verify: BURDEN MISMATCH at #%zu: sharded %.17g "
                      "(cache_hit=%d), single %.17g\n",
                      i, responses[i].infection_burden,
                      responses[i].cache_hit ? 1 : 0,
                      e.diagnosis.infection_burden);
        }
      }
      single_elapsed = single_wall.seconds();
      local.shutdown();
      std::printf("verify: %s (single-process pass: %.2fs)\n",
                  bitwise_match ? "bitwise identical" : "MISMATCH",
                  single_elapsed);
    }

    std::printf("\n%d/%zu completed (%d correct, %d lost, %llu failed "
                "over, %llu heartbeat misses) in %.2fs — %.2f volumes/s\n",
                completed, scans.size(), correct, lost,
                static_cast<unsigned long long>(failed_over),
                static_cast<unsigned long long>(hb_misses), elapsed,
                completed / elapsed);
    std::printf("stats: %s\n", stats.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccovid_serve front: %s\n", e.what());
    rc = 1;
  }
  reap_workers();

  if (!a.json_path.empty() && !stats.empty()) {
    std::FILE* f = std::fopen(a.json_path.c_str(), "w");
    if (f) {
      std::fprintf(f, "%s\n", stats.c_str());
      std::fclose(f);
    }
  }
  if (!a.shard_json.empty() && rc == 0) {
    std::FILE* f = std::fopen(a.shard_json.c_str(), "w");
    if (f) {
      std::fprintf(
          f,
          "{\"shard_runs\":[{\"transport\":\"%s\",\"shards\":%d,"
          "\"volumes\":%d,\"achieved_vps\":%.4f,\"single_vps\":%.4f,"
          "\"bitwise_match\":%s,\"lost\":%d,\"failed_over\":%llu,"
          "\"heartbeat_misses\":%llu,\"killed\":%s}]}\n",
          eps[0].kind == net::Endpoint::Kind::kUnix ? "unix" : "tcp", n,
          a.volumes, completed / (elapsed > 0 ? elapsed : 1.0),
          a.verify && single_elapsed > 0 ? completed / single_elapsed : 0.0,
          bitwise_match ? "true" : "false", lost,
          static_cast<unsigned long long>(failed_over),
          static_cast<unsigned long long>(hb_misses),
          a.kill_shard >= 0 ? "true" : "false");
      std::fclose(f);
      std::printf("shard bench written to %s\n", a.shard_json.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", a.shard_json.c_str());
    }
  }
  if (lost > 0 || !bitwise_match) rc = rc ? rc : 2;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  ToolArgs a;
  if (!parse(argc, argv, a)) return 1;

  const serve::ServerOptions opt = server_options(a);

  if (!a.failpoints.empty()) {
    const std::uint64_t fseed = a.fault_seed ? a.fault_seed : a.seed;
    fault::Registry::instance().set_seed(fseed);
    try {
      const int n = fault::Registry::instance().configure(a.failpoints);
      std::printf("failpoints: %d schedule(s) armed, fault seed %llu\n", n,
                  static_cast<unsigned long long>(fseed));
      if (!fault::kCompiledIn) {
        std::fprintf(stderr,
                     "ccovid_serve: warning: this binary was built with "
                     "CCOVID_DISABLE_FAILPOINTS; armed schedules cannot "
                     "fire\n");
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ccovid_serve: %s\n", e.what());
      return 1;
    }
  }

  if (a.role == "worker") return run_worker(a);
  if (a.role == "front") return run_front(a);

  std::printf("ccovid_serve: %d worker(s), batch<=%zu/%ldus, queue cap %zu"
              "%s%s\n",
              opt.workers, opt.max_batch, a.batch_delay_us,
              opt.queue_capacity,
              a.models.empty() ? ", seeded random-init models"
                               : ", models from ",
              a.models.c_str());

  auto pipe = build_pipeline(a);
  if (!pipe) return 1;
  serve::InferenceServer server(std::move(pipe), opt);

  const std::vector<data::PhantomVolume> patients = make_patients(a);
  const std::vector<data::PhantomVolume> followups = make_followups(a);

  serve::ServeOptions sopt;
  sopt.use_enhancement = a.use_enhancement;
  sopt.threshold = a.threshold;

  // Monitoring: rounds of one scan per patient, collected round by
  // round so a patient's scans observe the session store in order.
  const int rounds = 1 + (a.monitor ? a.rescans : 0);
  std::size_t submitted = 0;
  int correct = 0, completed = 0;
  WallTimer wall;
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::future<serve::DiagnoseResponse>> futures;
    futures.reserve(patients.size());
    for (std::size_t i = 0; i < patients.size(); ++i) {
      const data::PhantomVolume& vol =
          round % 2 == 0 ? patients[i] : followups[i];
      serve::ServeOptions so = sopt;
      if (a.monitor) so.patient_id = 1000 + static_cast<std::uint64_t>(i);
      futures.push_back(server.submit(vol.hu, so));
      ++submitted;
      if (a.interval_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(a.interval_ms));
      }
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const serve::DiagnoseResponse r = futures[i].get();
      const bool truth =
          (round % 2 == 0 ? patients[i] : followups[i]).label != 0;
      if (r.status == serve::RequestStatus::kOk) {
        ++completed;
        const bool ok = truth == r.diagnosis.positive;
        correct += ok;
        char mon[96] = "";
        if (r.scan_seq > 0) {
          std::snprintf(mon, sizeof(mon),
                        " seq=%llu burden=%.4f d=%+.4f%s",
                        static_cast<unsigned long long>(r.scan_seq),
                        r.infection_burden, r.burden_delta,
                        r.cache_hit ? " [hit]" : "");
        }
        std::printf(
            "  #%-3llu %-9s P=%.4f -> %-8s truth=%-8s batch=%zu "
            "queue=%.1fms exec=%.1fms total=%.1fms%s%s%s\n",
            static_cast<unsigned long long>(r.request_id),
            serve::to_string(r.status), r.diagnosis.probability,
            r.diagnosis.positive ? "POSITIVE" : "negative",
            truth ? "POSITIVE" : "negative", r.batch_size, 1e3 * r.queue_s,
            1e3 * r.execute_s, 1e3 * r.total_s,
            r.retries > 0 ? " [retried]" : "",
            r.degraded ? " [degraded]" : "", mon);
      } else {
        std::printf("  #%-3llu %-9s %s\n",
                    static_cast<unsigned long long>(r.request_id),
                    serve::to_string(r.status), r.error.c_str());
      }
    }
  }
  const double elapsed = wall.seconds();
  server.shutdown();

  std::printf("\n%d/%zu completed (%d calls correct) in %.2fs — "
              "%.2f volumes/s\n",
              completed, submitted, correct, elapsed,
              completed / elapsed);
  const std::string stats = server.stats_json();
  std::printf("stats: %s\n", stats.c_str());
  if (trace::enabled()) {
    std::printf("\ntrace spans (merged across threads):\n%s",
                trace::table(trace::aggregate(trace::snapshot())).c_str());
  }
  if (!a.json_path.empty()) {
    std::FILE* f = std::fopen(a.json_path.c_str(), "w");
    if (f) {
      std::fprintf(f, "%s\n", stats.c_str());
      std::fclose(f);
      std::printf("stats written to %s\n", a.json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", a.json_path.c_str());
    }
  }
  if (!a.trace_out.empty()) {
    if (trace::write_chrome_json(a.trace_out)) {
      std::printf("trace written to %s (chrome://tracing)\n",
                  a.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
    }
  }
  return 0;
}
