// perfbench — the repository benchmark: stall-free CT diagnosis,
// longitudinal monitoring and data-parallel DDnet training, measured end
// to end, with a separate traced run that breaks the time down per
// layer. perfbench/README.md defines every workload and metric; run it
// through perfbench/run.py, which builds this binary first.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--corrupt-reference] [--trace-out PATH]
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Every output is checked against a reference computed in this process;
// any mismatch makes "correct" false and the exit code 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "autograd/losses.h"
#include "autograd/optim.h"
#include "core/digest.h"
#include "core/parallel.h"
#include "core/precision.h"
#include "core/simd.h"
#include "ct/hu.h"
#include "data/dataset.h"
#include "data/phantom.h"
#include "dist/collective.h"
#include "dist/ddp.h"
#include "graph/graph.h"
#include "hetero/ddnet_counts.h"
#include "nn/ahnet.h"
#include "nn/ddnet.h"
#include "nn/layers.h"
#include "pipeline/framework.h"
#include "serve/server.h"

extern char** environ;

using namespace ccovid;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- options

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;    ///< tiny sizes, short phases (self-test)
  bool corrupt = false;  ///< damage one reference: the checks must trip
  std::string trace_out;
};

// Workload sizing. The serving configuration is ccovid_serve's default
// (2 workers, max_batch 4, 2 ms batch delay); DDnet is its config too.
struct Sizes {
  index_t depth = 32;
  index_t px = 128;
  index_t ddp_px = 128;
  int setup_reps = 5;  ///< setup_s is the median over these
  int slice_reps = 16;
  int ddp_manual_steps = 6;
};

constexpr std::uint64_t kModelSeed = 42;  // weights: fixed, not workload
constexpr double kThreshold = 0.35;       // ccovid_serve default
constexpr int kPatients = 2;              // pool: baseline + follow-up each
constexpr int kMonitorRounds = 6;
constexpr std::uint64_t kFirstPatient = 1000;

nn::DDnetConfig ddnet_config() {
  nn::DDnetConfig c;
  c.base_channels = 8;
  c.growth = 8;
  c.levels = 2;
  c.dense_layers = 2;
  return c;
}

serve::ServerOptions server_options(bool monitor) {
  serve::ServerOptions o;
  o.queue_capacity = 16;
  o.max_batch = 4;
  o.batch_delay = std::chrono::microseconds(2000);
  o.workers = 2;
  o.device_stall_s = 0.0;
  o.monitor = monitor;
  return o;
}

// ------------------------------------------------------------ statistics

/// Linear interpolation between order statistics (numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ----------------------------------------------------------------- spans
//
// Spans are recorded only by this file, around calls into the modules'
// public functions: name, thread, start, end and the enclosing span.
// They stay in memory and are written out when the run ends.

class SpanLog {
 public:
  struct Span {
    const char* name;
    int thread;
    double t0, t1;  ///< seconds since process start
    int parent;     ///< index of the enclosing span, -1 at the root
  };

  int begin(const char* name) {
    const double t = secs_since(kProcessStart);
    std::lock_guard<std::mutex> lock(mu_);
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({name, thread_id(), t, t,
                      stack().empty() ? -1 : stack().back()});
    stack().push_back(idx);
    return idx;
  }
  void end(int idx) {
    const double t = secs_since(kProcessStart);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(idx)].t1 = t;
    stack().pop_back();
  }

  std::vector<Span> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  /// Durations (ms) of every span called `name`.
  std::vector<double> durations_ms(const char* name) const {
    std::vector<double> out;
    for (const Span& s : snapshot()) {
      if (std::strcmp(s.name, name) == 0) out.push_back(1e3 * (s.t1 - s.t0));
    }
    return out;
  }

 private:
  static int thread_id() {
    static std::atomic<int> next{0};
    thread_local int id = next.fetch_add(1);
    return id;
  }
  static std::vector<int>& stack() {
    thread_local std::vector<int> s;
    return s;
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog g_spans;
bool g_tracing = false;  // set for the traced phase only

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : idx_(g_tracing ? g_spans.begin(name) : -1) {}
  ~ScopedSpan() {
    if (idx_ >= 0) g_spans.end(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int idx_;
};

/// Per-name totals with self time (duration minus the part of it that
/// direct child spans cover), printed after a traced run.
void print_self_times(const std::vector<SpanLog::Span>& spans) {
  struct Row {
    std::string name;
    int count = 0;
    double total = 0.0, self = 0.0;
  };
  std::vector<double> child(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  }
  std::vector<Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(rows.begin(), rows.end(), [&](const Row& r) {
      return r.name == spans[i].name;
    });
    if (it == rows.end()) {
      rows.push_back({spans[i].name});
      it = rows.end() - 1;
    }
    const double dur = spans[i].t1 - spans[i].t0;
    ++it->count;
    it->total += dur;
    it->self += dur - child[i];
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.self > b.self; });
  std::printf("%-26s %7s %11s %11s %11s\n", "span", "count", "total_ms",
              "self_ms", "self_ms/call");
  for (const Row& r : rows) {
    std::printf("%-26s %7d %11.2f %11.2f %11.3f\n", r.name.c_str(), r.count,
                1e3 * r.total, 1e3 * r.self, 1e3 * r.self / r.count);
  }
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanLog::Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 i ? "," : "", s.name, s.thread, 1e6 * s.t0,
                 1e6 * (s.t1 - s.t0));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  long attempted = 0;
  long failed = 0;  ///< non-OK responses + failed correctness checks
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const char* what) {
    ++failed;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what);
  }
};

void print_result(const Result& r) {
  for (const Metric& m : r.metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-32s %16.6f ratio (%ld/%ld)\n", "error_rate",
              r.attempted ? static_cast<double>(r.failed) / r.attempted : 1.0,
              r.failed, r.attempted);
  std::string json = "{\"correct\": ";
  json += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(r.metrics[i].value) ? r.metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + r.metrics[i].name + "\": {\"value\": " +
            num + ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Host and configuration, printed next to every result so a figure
/// from another host or mode is never compared silently.
void print_config(const Args& a) {
  std::string envs;
  for (char** e = environ; *e; ++e) {
    if (std::strncmp(*e, "CCOVID_", 7) == 0) {
      envs += (envs.empty() ? "\"" : ", \"") + std::string(*e) + "\"";
    }
  }
  std::printf(
      "config: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"smoke\": %s, \"nproc\": %ld, \"simd\": \"%s\", "
      "\"lanes\": %d, \"precision\": \"%s\", \"graph_fusion\": %s, "
      "\"build_type\": \"%s\", \"device_stall_s\": 0, \"env\": [%s]}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace, a.smoke ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN),
      simd::backend_name(simd::active_backend()), num_threads(),
      core::precision_name(core::active_precision()),
      graph::fusion_enabled() ? "true" : "false", PERFBENCH_BUILD_TYPE,
      envs.c_str());
}

// ------------------------------------------------------------ client loop

/// Closed loop: `clients` threads each issue their next request only
/// after the previous one returned, until `seconds` have passed; a
/// client stops only between groups of `group` requests. Returns the
/// per-client throughput sum, each client's requests divided by the
/// time from the start to the end of its last request, which avoids
/// counting a partly finished request at the cut.
double closed_loop(int clients, double seconds, long group,
                   const std::function<void(int client, long iter)>& one) {
  const Clock::time_point t0 = Clock::now();
  std::vector<double> rate(static_cast<std::size_t>(clients), 0.0);
  std::vector<std::thread> threads;
  std::mutex err_mu;
  std::string err;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        long n = 0;
        while (n % group != 0 || secs_since(t0) < seconds) one(c, n++);
        rate[static_cast<std::size_t>(c)] =
            n > 0 ? static_cast<double>(n) / secs_since(t0) : 0.0;
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(err_mu);
        err = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!err.empty()) throw std::runtime_error(err);
  double sum = 0.0;
  for (double r : rate) sum += r;
  return sum;
}

// ------------------------------------------------- diagnosis + monitoring

struct Reference {
  bool done = false;
  double probability = 0.0;
  double burden = 0.0;
  std::uint64_t lung = 0, infected = 0;
};

struct Served {
  int vol = 0;
  double threshold = kThreshold;
  double latency_s = 0.0;
  serve::DiagnoseResponse r;
  std::uint64_t patient = 0;
};

struct ServeSetup {
  std::shared_ptr<pipeline::EnhancementAI> enh;
  std::shared_ptr<pipeline::SegmentationAI> seg;
  std::shared_ptr<pipeline::ClassificationAI> cls;
  std::shared_ptr<const pipeline::ComputeCovid19Pipeline> pipe;
  std::vector<data::PhantomVolume> pool;  ///< [2p] baseline, [2p+1] follow-up
  std::vector<Reference> refs;
  std::unique_ptr<serve::InferenceServer> server;
  std::vector<double> phantom_ms;
};

Reference reference_of(const pipeline::ComputeCovid19Pipeline& pipe,
                       const Tensor& hu) {
  const pipeline::Diagnosis d = pipe.diagnose(hu, true, kThreshold);
  return {true, d.probability, d.infection_burden, d.lung_voxels,
          d.infected_voxels};
}

/// Model init, input generation, server start and warm-up: everything
/// between process start and the first timed request. The warm-up is
/// one direct pipeline call, which compiles the DDnet graph at the
/// workload shape without touching the server's result cache; its
/// output doubles as the reference of pool volume 0.
ServeSetup setup_serving(const Args& a, const Sizes& z, bool monitor) {
  ServeSetup s;
  nn::seed_init_rng(kModelSeed);
  s.enh = std::make_shared<pipeline::EnhancementAI>(ddnet_config());
  s.seg = std::make_shared<pipeline::SegmentationAI>();
  s.cls = std::make_shared<pipeline::ClassificationAI>();
  s.enh->network().set_training(false);
  s.seg->network().set_training(false);
  s.cls->network().set_training(false);
  s.pipe = std::make_shared<const pipeline::ComputeCovid19Pipeline>(
      s.enh, s.seg, s.cls);

  // Patient 0 worsens (healthy baseline, positive follow-up); patient 1
  // is positive at both scans with different lesions.
  Rng rng(a.seed);
  for (int p = 0; p < kPatients; ++p) {
    for (int scan = 0; scan < 2; ++scan) {
      const Clock::time_point t = Clock::now();
      s.pool.push_back(data::make_volume(z.depth, z.px, p == 1 || scan == 1,
                                         rng));
      s.phantom_ms.push_back(1e3 * secs_since(t));
    }
  }
  s.refs.resize(s.pool.size());

  serve::ServerOptions opt = server_options(monitor);
  if (opt.device_stall_s != 0.0) {
    throw std::runtime_error("refusing to run with a device stall");
  }
  s.server = std::make_unique<serve::InferenceServer>(s.pipe, opt);
  s.refs[0] = reference_of(*s.pipe, s.pool[0].hu);
  return s;
}

ServeSetup timed_setup(const Args& a, const Sizes& z, bool monitor,
                       double* setup_s) {
  std::vector<double> reps;
  ServeSetup s;
  for (int i = 0; i < z.setup_reps; ++i) {
    s = ServeSetup{};  // the previous rep's server drains and joins here
    const Clock::time_point t = i == 0 ? kProcessStart : Clock::now();
    s = setup_serving(a, z, monitor);
    reps.push_back(secs_since(t));
  }
  *setup_s = median(reps);
  return s;
}

/// Checks one served response against the direct reference of its
/// volume; returns false on any mismatch.
bool check_served(const Served& x, const Reference& ref) {
  const auto& d = x.r.diagnosis;
  return x.r.status == serve::RequestStatus::kOk &&
         same_bits(d.probability, ref.probability) &&
         same_bits(d.infection_burden, ref.burden) &&
         d.lung_voxels == ref.lung && d.infected_voxels == ref.infected &&
         d.positive == (ref.probability >= x.threshold);
}

void fill_references(ServeSetup& s, const std::vector<Served>& served,
                     bool corrupt) {
  for (const Served& x : served) {
    Reference& ref = s.refs[static_cast<std::size_t>(x.vol)];
    if (!ref.done) ref = reference_of(*s.pipe, s.pool[x.vol].hu);
  }
  if (corrupt) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &s.refs[0].probability, sizeof(bits));
    bits ^= 1;  // one ulp: only a bitwise check can see it
    std::memcpy(&s.refs[0].probability, &bits, sizeof(bits));
  }
}

/// The traced stage-by-stage replay of one diagnosis, one span around
/// each public call (or pair of calls) the pipeline makes, with the
/// burden count of pipeline/framework.cpp. Returns probability and
/// burden so they can be compared with the served bits.
std::pair<double, double> replay_stages(const ServeSetup& s,
                                        const Tensor& hu) {
  ScopedSpan root("bench.replay");
  Tensor norm;
  {
    ScopedSpan sp("pipeline.prepare");
    norm = ct::normalize_hu(data::remove_circular_fov_volume(hu));
  }
  {
    ScopedSpan sp("pipeline.enhance");
    norm = s.enh->enhance_volume(norm);
  }
  Tensor masked;
  double burden = 0.0;
  {
    ScopedSpan sp("pipeline.segment");
    const Tensor mask = s.seg->segment(norm);
    masked = nn::AhNet::apply_mask(norm, mask);
    const real_t floor = static_cast<real_t>(
        (pipeline::kInfectionHuThreshold + 1024.0) / (1023.0 + 1024.0));
    std::uint64_t lung = 0, infected = 0;
    for (index_t i = 0; i < mask.numel(); ++i) {
      if (mask.data()[i] > 0.5f) {
        ++lung;
        infected += norm.data()[i] >= floor;
      }
    }
    burden = lung == 0 ? 0.0
                       : static_cast<double>(infected) /
                             static_cast<double>(lung);
  }
  double p = 0.0;
  {
    ScopedSpan sp("pipeline.classify");
    p = s.cls->predict(masked);
  }
  return {p, burden};
}

Served serve_one(serve::InferenceServer& server, const ServeSetup& s, int vol,
                 serve::ServeOptions so) {
  Served x;
  x.vol = vol;
  x.threshold = so.threshold;
  x.patient = so.patient_id;
  ScopedSpan sp("serve.request");
  const Clock::time_point t = Clock::now();
  x.r = server.submit(s.pool[static_cast<std::size_t>(vol)].hu, so).get();
  x.latency_s = secs_since(t);
  return x;
}

struct Phase {
  std::vector<Served> served;
  double throughput = 0.0;
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

/// Stateless diagnosis: `clients` closed-loop clients cycling through
/// the volume pool. With `replay`, each served request is followed by
/// the traced stage-by-stage replay of the same volume, checked
/// against the served bits.
Phase run_diagnose(ServeSetup& s, int clients, double seconds, bool replay,
                   Result& res) {
  Phase ph;
  std::mutex mu;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const int n = static_cast<int>(s.pool.size());
  ph.throughput = closed_loop(clients, seconds, 1, [&](int c, long i) {
    const int vol = static_cast<int>((c + i * clients) % n);
    serve::ServeOptions so;
    so.threshold = kThreshold;
    Served x = serve_one(*s.server, s, vol, so);
    bool replay_ok = true;
    if (replay) {
      const auto [p, burden] =
          replay_stages(s, s.pool[static_cast<std::size_t>(vol)].hu);
      replay_ok = same_bits(p, x.r.diagnosis.probability) &&
                  same_bits(burden, x.r.diagnosis.infection_burden);
    }
    std::lock_guard<std::mutex> lock(mu);
    if (!replay_ok) res.fail("traced replay differs from served bits");
    ph.served.push_back(std::move(x));
  });
  ph.wall_s = secs_since(t0);
  ph.cpu_s = cpu_seconds() - cpu0;
  return ph;
}

/// Longitudinal monitoring: `streams` closed-loop patient streams. Each
/// pass is a fresh patient id scanned kMonitorRounds times, alternating
/// its baseline and follow-up volumes, so rounds 0 and 1 miss the result
/// cache and every later round hits it. Volumes come from the small pool
/// so that reference diagnoses stay cheap; each pass still has a cache
/// key of its own because it uses a distinct decision threshold (the
/// key covers the threshold bits; probability and burden do not depend
/// on it).
Phase run_monitor(ServeSetup& s, int streams, double seconds, long base,
                  Result& res, serve::SessionStore* mirror) {
  Phase ph;
  std::mutex mu;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  ph.throughput =
      closed_loop(streams, seconds, kMonitorRounds, [&](int c, long i) {
    const long pass = base + (i / kMonitorRounds) * streams + c;
    const int round = static_cast<int>(i % kMonitorRounds);
    const int vol = 2 * static_cast<int>(pass % kPatients) + round % 2;
    serve::ServeOptions so;
    so.threshold = kThreshold + static_cast<double>(pass + 1) * 0x1p-24;
    so.patient_id = kFirstPatient + static_cast<std::uint64_t>(pass);
    if (g_tracing) {
      ScopedSpan sp("monitor.scan_key");
      (void)serve::ResultCache::scan_key(
          s.pool[static_cast<std::size_t>(vol)].hu, true, so.threshold,
          core::active_precision(), graph::fusion_enabled(), 0);
    }
    Served x = serve_one(*s.server, s, vol, so);
    if (mirror && x.r.status == serve::RequestStatus::kOk) {
      serve::ScanDelta d;
      {
        ScopedSpan sp("monitor.observe");
        d = mirror->observe(so.patient_id, x.r.infection_burden, 0.0,
                            nullptr);
      }
      if (d.seq != x.r.scan_seq ||
          !same_bits(d.delta_vs_prev, x.r.burden_delta) ||
          !same_bits(d.delta_vs_baseline, x.r.baseline_delta)) {
        std::lock_guard<std::mutex> lock(mu);
        res.fail("session mirror disagrees with served deltas");
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    ph.served.push_back(std::move(x));
  });
  ph.wall_s = secs_since(t0);
  ph.cpu_s = cpu_seconds() - cpu0;
  return ph;
}

/// Per-patient session checks: ordinals 1..R in order, each delta the
/// exact difference of consecutive burdens, and deltas telescoping to
/// last minus first.
void check_sessions(const std::vector<Served>& served, Result& res) {
  std::vector<std::uint64_t> patients;
  for (const Served& x : served) {
    if (std::find(patients.begin(), patients.end(), x.patient) ==
        patients.end()) {
      patients.push_back(x.patient);
    }
  }
  for (std::uint64_t pid : patients) {
    std::vector<const Served*> scans;
    for (const Served& x : served) {
      if (x.patient == pid) scans.push_back(&x);
    }
    std::sort(scans.begin(), scans.end(), [](const Served* l, const Served* r) {
      return l->r.scan_seq < r->r.scan_seq;
    });
    if (scans.size() != static_cast<std::size_t>(kMonitorRounds)) {
      res.fail("patient pass incomplete");
    }
    double telescoped = 0.0;
    for (std::size_t k = 0; k < scans.size(); ++k) {
      const auto& r = scans[k]->r;
      const double prev = k ? scans[k - 1]->r.infection_burden
                            : r.infection_burden;
      const double first = scans[0]->r.infection_burden;
      if (r.scan_seq != k + 1 ||
          !same_bits(r.burden_delta, k ? r.infection_burden - prev : 0.0) ||
          !same_bits(r.baseline_delta, k ? r.infection_burden - first : 0.0)) {
        res.fail("session ordinals or deltas wrong");
      }
      if (k) telescoped += r.burden_delta;
    }
    if (scans.size() > 1 &&
        !same_bits(telescoped, scans.back()->r.infection_burden -
                                   scans[0]->r.infection_burden)) {
      res.fail("session deltas do not telescope");
    }
  }
}

void check_all_served(ServeSetup& s, const std::vector<Served>& served,
                      const Args& a, Result& res) {
  fill_references(s, served, a.corrupt);
  for (const Served& x : served) {
    ++res.attempted;
    if (!check_served(x, s.refs[static_cast<std::size_t>(x.vol)])) {
      res.fail(x.r.status == serve::RequestStatus::kOk
                   ? "served diagnosis differs from the direct reference"
                   : "request not OK");
    }
  }
}

std::vector<double> latencies_ms(const std::vector<Served>& v,
                                 int cache = -1) {
  std::vector<double> out;
  for (const Served& x : v) {
    if (cache < 0 || x.r.cache_hit == (cache == 1)) {
      out.push_back(1e3 * x.latency_s);
    }
  }
  return out;
}

void add_end_to_end(Result& res, double throughput,
                    const std::vector<double>& lat, double setup_s) {
  res.add("throughput_per_s", throughput, "1/s");
  res.add("latency_p50_ms", quantile(lat, 0.5), "ms");
  res.add("latency_p75_ms", quantile(lat, 0.75), "ms");
  res.add("setup_s", setup_s, "s");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Every per-layer metric, zero where the workload bypasses the layer
/// (README.md, "Per-layer metrics").
struct Layers {
  double queue_wait_ms = 0, batch_mean = 0, serve_overhead_ms = 0;
  double prepare_ms = 0, enhance_ms = 0, segment_ms = 0, classify_ms = 0;
  double stage_coverage = 0;
  double slice_ms = 0, compile_ms = 0;
  double gflop_slice = 0, gflops = 0, gbps = 0;
  double cpu_util = 0, cpu_s_item = 0;
  double hit_rate = 0, lookups = 0, hit_ms = 0, miss_ms = 0, scan_key_ms = 0,
         observe_us = 0;
  double fwd_ms = 0, bwd_ms = 0, optim_ms = 0, allreduce_ms = 0,
         allreduce_bytes = 0, sync_ms = 0;
  double phantom_ms = 0, lowdose_ms = 0;
  double trace_overhead = 0;

  void emit(Result& r) const {
    r.add("serve.queue_wait_ms.p50", queue_wait_ms, "ms");
    r.add("serve.batch_size.mean", batch_mean, "count");
    r.add("serve.overhead_ms.p50", serve_overhead_ms, "ms");
    r.add("pipeline.prepare_ms.p50", prepare_ms, "ms");
    r.add("pipeline.enhance_ms.p50", enhance_ms, "ms");
    r.add("pipeline.segment_ms.p50", segment_ms, "ms");
    r.add("pipeline.classify_ms.p50", classify_ms, "ms");
    r.add("pipeline.stage_coverage_frac", stage_coverage, "ratio");
    r.add("nn.ddnet_slice_ms.p50", slice_ms, "ms");
    r.add("graph.compile_ms", compile_ms, "ms");
    r.add("ops.ddnet_gflop_per_slice", gflop_slice, "GFLOP");
    r.add("ops.ddnet_gflops", gflops, "GFLOP/s");
    r.add("ops.ddnet_gbps", gbps, "GB/s");
    r.add("core.cpu_util", cpu_util, "ratio");
    r.add("core.cpu_s_per_item", cpu_s_item, "s");
    r.add("monitor.hit_rate", hit_rate, "ratio");
    r.add("monitor.lookups", lookups, "count");
    r.add("monitor.hit_latency_ms.p50", hit_ms, "ms");
    r.add("monitor.miss_latency_ms.p50", miss_ms, "ms");
    r.add("monitor.scan_key_ms.p50", scan_key_ms, "ms");
    r.add("monitor.observe_us.p50", observe_us, "us");
    r.add("autograd.forward_ms.p50", fwd_ms, "ms");
    r.add("autograd.backward_ms.p50", bwd_ms, "ms");
    r.add("optim.step_ms.p50", optim_ms, "ms");
    r.add("dist.allreduce_ms.p50", allreduce_ms, "ms");
    r.add("dist.allreduce_bytes_per_step", allreduce_bytes, "bytes");
    r.add("dist.sync_ms.p50", sync_ms, "ms");
    r.add("data.phantom_ms", phantom_ms, "ms");
    r.add("ct.lowdose_pair_ms", lowdose_ms, "ms");
    r.add("bench.trace_overhead_frac", trace_overhead, "ratio");
  }
};

void serve_layer_stats(const Phase& ph, Layers& L) {
  std::vector<double> q, b;
  for (const Served& x : ph.served) {
    q.push_back(1e3 * x.r.queue_s);
    b.push_back(static_cast<double>(x.r.batch_size));
  }
  L.queue_wait_ms = median(q);
  L.batch_mean = mean(b);
  L.cpu_util = ph.cpu_s / (ph.wall_s * static_cast<double>(
                                            sysconf(_SC_NPROCESSORS_ONLN)));
  L.cpu_s_item = ph.served.empty()
                     ? 0.0
                     : ph.cpu_s / static_cast<double>(ph.served.size());
}

/// DDnet per-slice time, graph compile time and the computed op/byte
/// counts, on the pool's first volume after it has been normalized.
void ddnet_layer_stats(const ServeSetup& s, const Sizes& z, Layers& L) {
  const Tensor norm =
      ct::normalize_hu(data::remove_circular_fov_volume(s.pool[0].hu));
  const index_t h = z.px, w = z.px;
  std::vector<double> ms;
  for (int i = 0; i < z.slice_reps; ++i) {
    const index_t zi = i % z.depth;
    Tensor slice({h, w});
    std::copy(norm.data() + zi * h * w, norm.data() + (zi + 1) * h * w,
              slice.data());
    const Clock::time_point t = Clock::now();
    {
      ScopedSpan sp("nn.ddnet_slice");
      (void)s.enh->network().enhance(slice);
    }
    ms.push_back(1e3 * secs_since(t));
  }
  L.slice_ms = median(ms);

  // Compile cost: first call on a fresh network (graph capture, fusion,
  // planning, then one run) minus a steady call at the same shape.
  nn::seed_init_rng(kModelSeed);
  nn::DDnet fresh(ddnet_config());
  fresh.set_training(false);
  Tensor slice({h, w});
  std::copy(norm.data(), norm.data() + h * w, slice.data());
  Clock::time_point t = Clock::now();
  {
    ScopedSpan sp("graph.first_call");
    (void)fresh.enhance(slice);
  }
  const double first = 1e3 * secs_since(t);
  std::vector<double> steady;
  for (int i = 0; i < 3; ++i) {
    t = Clock::now();
    (void)fresh.enhance(slice);
    steady.push_back(1e3 * secs_since(t));
  }
  L.compile_ms = first - median(steady);

  const hetero::NetworkCounts c = hetero::count_ddnet(ddnet_config(), h, w);
  const double flops = static_cast<double>(c.conv.flops +
                                           c.deconv_gather.flops +
                                           c.other.flops);
  const double bytes =
      static_cast<double>(core::precision_bytes(core::active_precision())) *
      static_cast<double>(c.conv.global_loads + c.conv.global_stores +
                          c.deconv_gather.global_loads +
                          c.deconv_gather.global_stores +
                          c.other.global_loads + c.other.global_stores);
  L.gflop_slice = flops / 1e9;
  L.gflops = L.slice_ms > 0 ? flops / 1e9 / (L.slice_ms * 1e-3) : 0.0;
  L.gbps = L.slice_ms > 0 ? bytes / 1e9 / (L.slice_ms * 1e-3) : 0.0;
}

void stage_stats(Layers& L, double untraced_p50_ms) {
  L.prepare_ms = median(g_spans.durations_ms("pipeline.prepare"));
  L.enhance_ms = median(g_spans.durations_ms("pipeline.enhance"));
  L.segment_ms = median(g_spans.durations_ms("pipeline.segment"));
  L.classify_ms = median(g_spans.durations_ms("pipeline.classify"));
  const double sum = L.prepare_ms + L.enhance_ms + L.segment_ms + L.classify_ms;
  L.serve_overhead_ms = untraced_p50_ms - sum;
  L.stage_coverage = untraced_p50_ms > 0 ? sum / untraced_p50_ms : 0.0;
}

Result workload_diagnose(const Args& a, const Sizes& z, int clients) {
  Result res;
  double setup_s = 0.0;
  ServeSetup s = timed_setup(a, z, false, &setup_s);
  if (a.trace == 0) {
    Phase ph = run_diagnose(s, clients, a.seconds, false, res);
    s.server->shutdown();
    check_all_served(s, ph.served, a, res);
    add_end_to_end(res, ph.throughput, latencies_ms(ph.served), setup_s);
    return res;
  }
  Layers L;
  L.phantom_ms = median(s.phantom_ms);
  Phase plain = run_diagnose(s, clients, 0.5 * a.seconds, false, res);
  g_tracing = true;
  Phase traced = run_diagnose(s, clients, 0.5 * a.seconds, true, res);
  ddnet_layer_stats(s, z, L);
  g_tracing = false;
  s.server->shutdown();
  std::vector<Served> all = plain.served;
  all.insert(all.end(), traced.served.begin(), traced.served.end());
  check_all_served(s, all, a, res);

  const double untraced_p50 = median(latencies_ms(plain.served));
  serve_layer_stats(plain, L);
  stage_stats(L, untraced_p50);
  L.trace_overhead =
      median(latencies_ms(traced.served)) / untraced_p50 - 1.0;
  L.emit(res);
  return res;
}

Result workload_monitor(const Args& a, const Sizes& z, int streams) {
  Result res;
  double setup_s = 0.0;
  ServeSetup s = timed_setup(a, z, true, &setup_s);
  if (a.trace == 0) {
    Phase ph = run_monitor(s, streams, a.seconds, 0, res, nullptr);
    s.server->shutdown();
    check_all_served(s, ph.served, a, res);
    check_sessions(ph.served, res);
    add_end_to_end(res, ph.throughput, latencies_ms(ph.served), setup_s);
    return res;
  }
  Layers L;
  L.phantom_ms = median(s.phantom_ms);
  Phase plain = run_monitor(s, streams, 0.5 * a.seconds, 0, res, nullptr);
  std::uint64_t last_patient = kFirstPatient;
  for (const Served& x : plain.served) {
    last_patient = std::max(last_patient, x.patient);
  }
  // The warm-up bypasses the server, so the counters cover this half only.
  const serve::ResultCache& cache = s.server->monitor()->cache();
  const double hits = static_cast<double>(cache.hits.load());
  const double lookups = hits + static_cast<double>(cache.misses.load());
  serve::MonitorOptions mopt;
  serve::SessionStore mirror(mopt);
  g_tracing = true;
  Phase traced = run_monitor(s, streams, 0.5 * a.seconds,
                             static_cast<long>(last_patient - kFirstPatient) + 1,
                             res, &mirror);
  g_tracing = false;
  s.server->shutdown();
  std::vector<Served> all = plain.served;
  all.insert(all.end(), traced.served.begin(), traced.served.end());
  check_all_served(s, all, a, res);
  check_sessions(all, res);

  serve_layer_stats(plain, L);
  L.hit_rate = lookups > 0 ? hits / lookups : 0.0;
  L.lookups = lookups;
  L.hit_ms = median(latencies_ms(plain.served, 1));
  L.miss_ms = median(latencies_ms(plain.served, 0));
  L.scan_key_ms = median(g_spans.durations_ms("monitor.scan_key"));
  L.observe_us = 1e3 * median(g_spans.durations_ms("monitor.observe"));
  L.trace_overhead = median(latencies_ms(traced.served)) /
                         median(latencies_ms(plain.served)) -
                     1.0;
  L.emit(res);
  return res;
}

// ------------------------------------------------------------ DDP training

struct TrainSetup {
  std::vector<data::LowDosePair> pairs;
  std::unique_ptr<dist::DdpTrainer> trainer;
  std::vector<double> pair_ms;
  long step = 0;  ///< rotates the samples each step
};

constexpr int kWorld = 2;
constexpr index_t kPerWorkerBatch = 2;
constexpr index_t kGlobalBatch = kWorld * kPerWorkerBatch;
constexpr int kPairs = 8;

autograd::Var sample_loss(nn::Module& model, const data::LowDosePair& pair) {
  auto& net = dynamic_cast<nn::DDnet&>(model);
  const index_t h = pair.low.dim(0), w = pair.low.dim(1);
  autograd::Var x(pair.low.clone().reshape({1, 1, h, w}));
  return autograd::enhancement_loss(net.forward(x),
                                    pair.full.clone().reshape({1, 1, h, w}));
}

/// The trainer's loss: mean per-sample loss over this rank's samples,
/// timed as autograd.forward in the traced phase.
dist::DdpTrainer::LossFn loss_fn(const TrainSetup& t) {
  return [&t](nn::Module& model, int /*rank*/,
              const std::vector<index_t>& samples) {
    ScopedSpan sp("autograd.forward");
    autograd::Var total;
    for (index_t sid : samples) {
      const auto& pair =
          t.pairs[static_cast<std::size_t>((t.step * kGlobalBatch + sid) %
                                           kPairs)];
      autograd::Var l = sample_loss(model, pair);
      total = total.defined() ? autograd::add(total, l) : l;
    }
    return autograd::mul_scalar(
        total, 1.0f / static_cast<real_t>(samples.size()));
  };
}

dist::DdpConfig ddp_config() {
  dist::DdpConfig cfg;
  cfg.world_size = kWorld;
  cfg.per_worker_batch = kPerWorkerBatch;
  cfg.overlap = true;
  return cfg;
}

TrainSetup setup_training(const Args& a, const Sizes& z) {
  TrainSetup t;
  Rng rng(a.seed);
  data::EnhancementDatasetConfig dcfg;
  dcfg.image_px = z.ddp_px;
  dcfg.num_train = 1;
  dcfg.num_val = 0;
  dcfg.num_test = 0;
  for (int i = 0; i < kPairs; ++i) {
    const Clock::time_point c = Clock::now();
    data::EnhancementDataset ds = data::make_enhancement_dataset(dcfg, rng);
    t.pair_ms.push_back(1e3 * secs_since(c));
    t.pairs.push_back(std::move(ds.train.at(0)));
  }
  nn::seed_init_rng(kModelSeed);
  t.trainer = std::make_unique<dist::DdpTrainer>(
      [] { return std::make_shared<nn::DDnet>(ddnet_config()); },
      ddp_config());
  return t;
}

struct Step {
  double wall_s = 0.0;
  dist::EpochStats stats;
};

Step train_step(TrainSetup& t, Rng& rng) {
  Step s;
  const Clock::time_point c = Clock::now();
  s.stats = t.trainer->train_epoch(kGlobalBatch, loss_fn(t), rng);
  s.wall_s = secs_since(c);
  ++t.step;
  return s;
}

std::vector<Step> run_training(TrainSetup& t, double seconds, Rng& rng,
                               double* images_per_s) {
  std::vector<Step> steps;
  const Clock::time_point t0 = Clock::now();
  while (secs_since(t0) < seconds) steps.push_back(train_step(t, rng));
  *images_per_s = static_cast<double>(steps.size() * kGlobalBatch) /
                  secs_since(t0);
  return steps;
}

std::uint64_t params_digest(const nn::Module& m) {
  std::uint64_t h = kFnv1aOffset;
  for (const auto& p : m.parameters()) h = fnv1a64(p.value(), h);
  return h;
}

void check_training(TrainSetup& t, const std::vector<Step>& steps,
                    const Args& a, Result& res) {
  for (const Step& s : steps) {
    ++res.attempted;
    if (!std::isfinite(s.stats.mean_loss) || s.stats.steps != 1) {
      res.fail("training step lost or loss not finite");
    }
  }
  if (a.corrupt) {
    Tensor& w = t.trainer->model(1).parameters().front().value();
    w.data()[0] = std::nextafter(w.data()[0], 1e30f);
  }
  const std::uint64_t d0 = params_digest(t.trainer->model(0));
  for (int r = 1; r < kWorld; ++r) {
    if (params_digest(t.trainer->model(r)) != d0) {
      res.fail("replicas diverged across ranks");
    }
  }
}

/// The layers DdpTrainer::train_epoch calls internally, each timed
/// around its public entry point: kWorld threads each run forward +
/// loss, Var::backward, dist::all_reduce over a gradient-sized buffer
/// and Adam::step on their own replica.
void manual_steps(TrainSetup& t, const Sizes& z, dist::Collective alg,
                  Layers& L) {
  dist::World world(kWorld);
  const index_t elems = t.trainer->gradient_elements();
  // Replicas are built here: weight init draws from one global RNG.
  std::vector<std::unique_ptr<nn::DDnet>> nets;
  for (int r = 0; r < kWorld; ++r) {
    nets.push_back(std::make_unique<nn::DDnet>(ddnet_config()));
    nets.back()->copy_parameters_from(t.trainer->model(0));
    nets.back()->set_training(true);
  }
  std::vector<std::thread> ranks;
  std::string err;
  std::mutex err_mu;
  for (int r = 0; r < kWorld; ++r) {
    ranks.emplace_back([&, r] {
      try {
        nn::DDnet& net = *nets[static_cast<std::size_t>(r)];
        autograd::Adam opt(net.parameters(), 1e-4);
        std::vector<real_t> grad(static_cast<std::size_t>(elems),
                                 static_cast<real_t>(r + 1));
        for (int i = 0; i < z.ddp_manual_steps; ++i) {
          autograd::Var loss;
          {
            ScopedSpan sp("autograd.forward.manual");
            loss = sample_loss(net, t.pairs[static_cast<std::size_t>(
                                        (2 * i + r) % kPairs)]);
            loss = autograd::add(
                loss, sample_loss(net, t.pairs[static_cast<std::size_t>(
                                           (2 * i + r + 1) % kPairs)]));
          }
          {
            ScopedSpan sp("autograd.backward");
            loss.backward();
          }
          {
            ScopedSpan sp("dist.allreduce");
            dist::all_reduce(world, r, grad, alg);
          }
          {
            ScopedSpan sp("optim.step");
            opt.step();
          }
          opt.zero_grad();
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(err_mu);
        err = e.what();
      }
    });
  }
  for (auto& th : ranks) th.join();
  if (!err.empty()) throw std::runtime_error(err);
  L.bwd_ms = median(g_spans.durations_ms("autograd.backward"));
  L.optim_ms = median(g_spans.durations_ms("optim.step"));
  L.allreduce_ms = median(g_spans.durations_ms("dist.allreduce"));
}

Result workload_ddp(const Args& a, const Sizes& z) {
  Result res;
  std::vector<double> reps;
  TrainSetup t;
  Rng rng(a.seed ^ 0x646470ull);
  for (int i = 0; i < z.setup_reps; ++i) {
    t = TrainSetup{};
    const Clock::time_point c = i == 0 ? kProcessStart : Clock::now();
    t = setup_training(a, z);
    const Step warm = train_step(t, rng);  // warm-up step
    if (!std::isfinite(warm.stats.mean_loss)) res.fail("warm-up loss");
    reps.push_back(secs_since(c));
  }
  const double setup_s = median(reps);

  if (a.trace == 0) {
    double ips = 0.0;
    const std::vector<Step> steps = run_training(t, a.seconds, rng, &ips);
    check_training(t, steps, a, res);
    std::vector<double> lat;
    for (const Step& s : steps) lat.push_back(1e3 * s.wall_s);
    add_end_to_end(res, ips, lat, setup_s);
    return res;
  }

  Layers L;
  L.lowdose_ms = median(t.pair_ms);
  double ips = 0.0;
  const double cpu0 = cpu_seconds();
  const Clock::time_point w0 = Clock::now();
  std::vector<Step> plain = run_training(t, 0.5 * a.seconds, rng, &ips);
  const double wall = secs_since(w0), cpu = cpu_seconds() - cpu0;
  g_tracing = true;
  std::vector<Step> traced = run_training(t, 0.5 * a.seconds, rng, &ips);
  const dist::Collective alg = traced.back().stats.collective;
  const double fwd = median(g_spans.durations_ms("autograd.forward"));
  manual_steps(t, z, alg, L);
  g_tracing = false;
  std::vector<Step> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  check_training(t, all, a, res);

  std::vector<double> lat_plain, lat_traced;
  for (const Step& s : plain) lat_plain.push_back(1e3 * s.wall_s);
  for (const Step& s : traced) lat_traced.push_back(1e3 * s.wall_s);
  L.fwd_ms = fwd;
  L.allreduce_bytes =
      static_cast<double>(plain.back().stats.allreduce_bytes_per_rank);
  L.sync_ms = median(lat_plain) - L.fwd_ms - L.bwd_ms - L.optim_ms;
  L.cpu_util =
      cpu / (wall * static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  L.cpu_s_item = cpu / static_cast<double>(plain.size() * kGlobalBatch);
  L.trace_overhead = median(lat_traced) / median(lat_plain) - 1.0;
  L.emit(res);
  return res;
}

// ------------------------------------------------------------------- main

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload urgent_single|ward_batch|"
               "monitor_rescan|ddp_train --seed N --seconds S --trace 0|1\n"
               "                 [--smoke] [--corrupt-reference] "
               "[--trace-out PATH]\n");
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (f == "--smoke") {
      a.smoke = true;
    } else if (f == "--corrupt-reference") {
      a.corrupt = true;
    } else if (f == "--workload" && (v = val())) {
      a.workload = v;
    } else if (f == "--seed" && (v = val())) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (f == "--seconds" && (v = val())) {
      a.seconds = std::atof(v);
    } else if (f == "--trace" && (v = val())) {
      a.trace = std::atoi(v);
    } else if (f == "--trace-out" && (v = val())) {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    usage();
    return 2;
  }
  Sizes z;
  if (a.smoke) {
    z.depth = 4;
    z.px = 16;
    z.ddp_px = 32;
    z.setup_reps = 1;
    z.slice_reps = 2;
    z.ddp_manual_steps = 2;
  }
  // The benchmark is defined at the default storage format and with
  // graph fusion on; another mode would not be comparable.
  if (core::active_precision() != core::Precision::kF32 ||
      !graph::fusion_enabled()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run: precision must be fp32 and "
                 "graph fusion on (check CCOVID_PRECISION / "
                 "CCOVID_GRAPH_FUSION)\n");
    return 2;
  }
  print_config(a);

  Result res;
  try {
    if (a.workload == "urgent_single") {
      res = workload_diagnose(a, z, 1);
    } else if (a.workload == "ward_batch") {
      res = workload_diagnose(a, z, 4);
    } else if (a.workload == "monitor_rescan") {
      res = workload_monitor(a, z, 4);
    } else if (a.workload == "ddp_train") {
      res = workload_ddp(a, z);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (a.trace == 1) {
    const auto spans = g_spans.snapshot();
    print_self_times(spans);
    if (!a.trace_out.empty() && !write_chrome_trace(a.trace_out, spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   a.trace_out.c_str());
    }
  }
  print_result(res);
  return res.failed == 0 && res.attempted > 0 ? 0 : 1;
}
