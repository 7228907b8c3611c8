// Structured tracing: thread-local span stacks writing fixed-size
// records into per-thread lock-free ring buffers, snapshot-able without
// stopping writers, exportable as chrome://tracing JSON or an aggregated
// per-span table (src/trace/export.h).
//
//   TRACE_SPAN("fbp.filter");                 // RAII span, ends at scope
//   TRACE_SPAN_ID("serve.request", req_id);   // span with correlation id
//   TRACE_INSTANT_ID("serve.retry", req_id);  // point event
//
// Cost model
// ----------
//  * Disabled (the default): every site compiles to ONE relaxed atomic
//    load of the global level — no lock, no map lookup, no allocation,
//    no clock read. tests/test_trace.cpp asserts the no-allocation part
//    with a counting operator new.
//  * Enabled: one clock read plus five relaxed atomic stores into the
//    calling thread's preallocated ring (the ring itself is allocated
//    once, on the thread's first event). No locks on the hot path; the
//    registry mutex is only taken at ring creation and snapshot time.
//  * Tracing never perturbs numerics: spans only read clocks and write
//    trace records, so golden digests are bitwise identical with tracing
//    fully enabled (asserted by tests/test_golden.cpp).
//
// Levels: 0 = off, 1 = spans + instants (the default once enabled),
// 2 = also task-engine scheduling events (dispatch/steal/park) — those
// fire orders of magnitude more often, so they hide behind TRACE_*_V.
//
// Record names MUST be pointers that outlive the trace registry: string
// literals, or strings owned by a never-destroyed object (failpoint
// names qualify — the fault registry never frees a Failpoint). The ring
// stores the pointer, not a copy, which is what keeps emit() free of
// allocation.
//
// Virtual clock: set CCOVID_TRACE_VCLOCK=1 (or use_virtual_clock(true))
// to replace the steady clock with a global monotonic counter advancing
// 1 µs per event. Trace output of a deterministic single-threaded run is
// then byte-stable across machines and reruns — the property the golden
// trace tests pin down. Under concurrency the interleaving still decides
// which thread draws which tick; vclock keeps the *values* reproducible,
// not the schedule.
//
// Correlation ids: serve stamps each request's id into every span the
// request touches (admission on the submitter thread, execute/respond on
// a worker thread) via ScopedCorrelation, so one request's timeline can
// be stitched across threads in the chrome view. DDP uses the rank as
// the id, giving per-rank lanes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccovid::trace {

enum class Kind : std::uint8_t {
  kSpan = 0,     ///< duration event [t0_ns, t1_ns)
  kInstant = 1,  ///< point event (t1_ns == t0_ns)
};

/// One decoded trace record (the snapshot/export representation; the
/// in-ring layout is a struct of relaxed atomics, see trace.cpp).
struct Event {
  const char* name = nullptr;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint64_t id = 0;      ///< correlation id (0 = none)
  std::uint32_t tid = 0;     ///< small per-thread ordinal, not an OS id
  std::uint16_t depth = 0;   ///< span-stack depth at emit time
  Kind kind = Kind::kSpan;

  double duration_s() const { return 1e-9 * static_cast<double>(t1_ns - t0_ns); }
};

namespace detail {
/// The only state a disabled site touches. 0 = off, 1 = spans,
/// 2 = + engine scheduling events.
extern std::atomic<int> g_level;

void emit_instant(const char* name, std::uint64_t id);
}  // namespace detail

inline bool enabled() {
  return detail::g_level.load(std::memory_order_relaxed) > 0;
}
inline bool verbose() {
  return detail::g_level.load(std::memory_order_relaxed) > 1;
}

int level();
void set_level(int level);

/// Nanoseconds on the trace clock: steady_clock since first use, or the
/// virtual counter when the vclock is on.
std::uint64_t now_ns();

/// Switches to / from the deterministic virtual clock (also switchable
/// via the CCOVID_TRACE_VCLOCK environment variable, read once at
/// startup). Affects subsequent events only.
void use_virtual_clock(bool on);
bool virtual_clock();

/// Per-ring capacity in records for rings created AFTER the call
/// (default 16384, or CCOVID_TRACE_BUF). Must be a power of two; other
/// values are rounded up. Oldest records are overwritten on wrap.
void set_ring_capacity(std::size_t records);

// ----------------------------------------------------------- spans

/// Calling thread's current correlation id (0 = none).
std::uint64_t correlation_id();

/// RAII override of the calling thread's correlation id; spans and
/// instants emitted while alive carry `id` unless they set their own.
class ScopedCorrelation {
 public:
  explicit ScopedCorrelation(std::uint64_t id);
  ~ScopedCorrelation();
  ScopedCorrelation(const ScopedCorrelation&) = delete;
  ScopedCorrelation& operator=(const ScopedCorrelation&) = delete;

 private:
  std::uint64_t prev_;
};

/// RAII span. Construction when disabled is a single relaxed load; the
/// out-of-line begin/end paths only run while tracing is on. A span that
/// outlives a set_level(0) still balances its depth counter and is
/// simply not recorded.
class Span {
 public:
  explicit Span(const char* name) : name_(nullptr) {
    if (enabled()) begin(name, /*id=*/0, /*use_tls_id=*/true);
  }
  Span(const char* name, std::uint64_t id) : name_(nullptr) {
    if (enabled()) begin(name, id, /*use_tls_id=*/false);
  }
  ~Span() {
    if (name_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name, std::uint64_t id, bool use_tls_id);
  void end();

  const char* name_;
  std::uint64_t t0_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint16_t depth_ = 0;
};

// -------------------------------------------------------- snapshot

struct Snapshot {
  /// Events of every thread that ever traced, ordered by (tid, t0_ns,
  /// emit order).
  std::vector<Event> events;
  /// Records overwritten by ring wraparound before this snapshot (lost
  /// oldest-first; sized rings rarely wrap in practice).
  std::uint64_t dropped = 0;
};

/// Copies every thread's ring WITHOUT stopping writers: records a writer
/// may have been overwriting during the copy are discarded (they count
/// as dropped), never returned torn.
Snapshot snapshot();

/// Resets every ring (test support). Concurrent writers lose in-flight
/// records but stay well-defined.
void clear();

/// Current span-stack depth of the calling thread (test support).
int thread_depth();

}  // namespace ccovid::trace

// -------------------------------------------------------------- macros

#define CCOVID_TRACE_CAT2(a, b) a##b
#define CCOVID_TRACE_CAT(a, b) CCOVID_TRACE_CAT2(a, b)

/// RAII span over the rest of the enclosing scope. `name` must outlive
/// the trace registry (string literal or interned string).
#define TRACE_SPAN(name) \
  ::ccovid::trace::Span CCOVID_TRACE_CAT(ccovid_trace_span_, __LINE__)(name)

/// Span carrying an explicit correlation id (request id, rank, ...).
#define TRACE_SPAN_ID(name, id) \
  ::ccovid::trace::Span CCOVID_TRACE_CAT(ccovid_trace_span_, __LINE__)(name, (id))

/// Point event; inherits the thread's correlation id.
#define TRACE_INSTANT(name)                              \
  do {                                                   \
    if (::ccovid::trace::enabled())                      \
      ::ccovid::trace::detail::emit_instant((name), 0);  \
  } while (0)

/// Point event with an explicit correlation id.
#define TRACE_INSTANT_ID(name, id)                           \
  do {                                                       \
    if (::ccovid::trace::enabled())                          \
      ::ccovid::trace::detail::emit_instant((name), (id));   \
  } while (0)

/// Verbosity-gated variants for scheduling-frequency sites (task-engine
/// dispatch/steal/park): recorded only at level >= 2.
#define TRACE_SPAN_V(name)                                      \
  ::ccovid::trace::Span CCOVID_TRACE_CAT(ccovid_trace_span_,    \
                                         __LINE__)(             \
      ::ccovid::trace::verbose() ? (name) : nullptr)

#define TRACE_INSTANT_V(name)                            \
  do {                                                   \
    if (::ccovid::trace::verbose())                      \
      ::ccovid::trace::detail::emit_instant((name), 0);  \
  } while (0)
