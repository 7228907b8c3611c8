#include "core/parallel.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/task_engine.h"

namespace ccovid {

namespace {

std::atomic<int> g_num_threads{0};  // 0 = "use default"

thread_local int t_num_threads = 0;  // per-thread override; 0 = none

// Largest thread count the environment may ask for: far above any core
// count, small enough that a typo cannot spawn millions of workers.
constexpr long kMaxEnvThreads = 1024;

/// The whole value must be an integer in [1, kMaxEnvThreads]; anything
/// else warns on stderr and counts as unset (0).
int env_threads(const char* name) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < 1 || v > kMaxEnvThreads) {
    std::fprintf(stderr,
                 "ccovid: %s: bad value '%s' (want an integer in [1, %ld]); "
                 "ignoring it\n",
                 name, s, kMaxEnvThreads);
    return 0;
  }
  return static_cast<int>(v);
}

int default_threads() {
  static const int cached = [] {
    if (const int v = env_threads("CCOVID_NUM_THREADS")) return v;
    if (const int v = env_threads("OMP_NUM_THREADS")) return v;
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
  }();
  return cached;
}

}  // namespace

int num_threads() {
  if (t_num_threads > 0) return t_num_threads;
  const int n = g_num_threads.load(std::memory_order_relaxed);
  return n > 0 ? n : default_threads();
}

void set_num_threads(int n) {
  g_num_threads.store(n, std::memory_order_relaxed);
  // Grow the worker pool eagerly so the first timed kernel after a
  // sweep step does not pay thread-spawn latency.
  if (n > 1) TaskEngine::instance().ensure_workers(n);
}

int thread_num_threads() { return t_num_threads; }

void set_thread_num_threads(int n) { t_num_threads = n > 0 ? n : 0; }

namespace detail {

void parallel_dispatch(index_t begin, index_t end, index_t chunk,
                       void (*fn)(void*, index_t, index_t), void* ctx,
                       int width) {
  TaskEngine::instance().parallel_range(begin, end, chunk, fn, ctx, width);
}

}  // namespace detail

}  // namespace ccovid
