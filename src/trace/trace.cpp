#include "trace/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

namespace ccovid::trace {
namespace {

// ------------------------------------------------------------ clock

std::atomic<bool> g_vclock{[] {
  const char* env = std::getenv("CCOVID_TRACE_VCLOCK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}()};

// Virtual time advances 1 µs per draw so chrome's µs timeline shows one
// tick per event regardless of host speed.
std::atomic<std::uint64_t> g_vnow_ns{0};

std::uint64_t steady_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

// ------------------------------------------------------------- ring

// In-ring record. Every field is a relaxed atomic so the snapshot thread
// may read slots a writer is concurrently overwriting without a data
// race; the seq-based discard protocol below rejects any slot whose
// value could have been torn across fields.
struct Slot {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> t0_ns{0};
  std::atomic<std::uint64_t> t1_ns{0};
  std::atomic<std::uint64_t> id{0};
  std::atomic<std::uint16_t> depth{0};
  std::atomic<std::uint8_t> kind{0};
};

std::atomic<std::size_t> g_ring_capacity{16384};

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Single-writer ring: only the owning thread stores; any thread may
// snapshot. head_ counts records ever published (monotonic); slot k
// holds record seq where seq % capacity == k. claim_ runs one ahead of
// head_ while the writer fills a slot — the seqlock "writing" mark.
class ThreadRing {
 public:
  explicit ThreadRing(std::uint32_t tid, std::size_t capacity)
      : tid_(tid), mask_(capacity - 1), slots_(capacity) {}

  std::uint32_t tid() const { return tid_; }

  void emit(const char* name, std::uint64_t t0, std::uint64_t t1,
            std::uint64_t id, std::uint16_t depth, Kind kind) {
    const std::uint64_t seq = head_.load(std::memory_order_relaxed);
    // Claim before overwriting record seq - capacity. The slot stores
    // are releases (pairing with collect's acquire loads) rather than
    // relaxed stores behind a fence, which TSan does not model: a
    // reader that loads any of them also sees claim_ >= seq + 1. On
    // x86 both orderings compile to plain moves.
    claim_.store(seq + 1, std::memory_order_relaxed);
    constexpr auto rel = std::memory_order_release;
    Slot& s = slots_[seq & mask_];
    s.name.store(name, rel);
    s.t0_ns.store(t0, rel);
    s.t1_ns.store(t1, rel);
    s.id.store(id, rel);
    s.depth.store(depth, rel);
    s.kind.store(static_cast<std::uint8_t>(kind), rel);
    // Publish: a snapshot that observes head >= seq+1 may read the slot's
    // fields (they happen-before this release store).
    head_.store(seq + 1, std::memory_order_release);
  }

  // Copies the ring without stopping the writer. Any record the writer
  // may have been overwriting while we copied — i.e. whose slot was
  // claimed for a newer record before the copy finished — is
  // discarded, never torn.
  void collect(std::vector<Event>& out, std::uint64_t& dropped) const {
    const std::size_t cap = mask_ + 1;
    const std::uint64_t h1 = head_.load(std::memory_order_acquire);
    const std::uint64_t lo1 = h1 > cap ? h1 - cap : 0;
    std::vector<Event> local;
    local.reserve(static_cast<std::size_t>(h1 - lo1));
    constexpr auto acq = std::memory_order_acquire;
    for (std::uint64_t seq = lo1; seq < h1; ++seq) {
      const Slot& s = slots_[seq & mask_];
      Event e;
      e.name = s.name.load(acq);
      e.t0_ns = s.t0_ns.load(acq);
      e.t1_ns = s.t1_ns.load(acq);
      e.id = s.id.load(acq);
      e.depth = s.depth.load(acq);
      e.kind = static_cast<Kind>(s.kind.load(acq));
      e.tid = tid_;
      local.push_back(e);
    }
    // Read the claim after the copy: records below lo2 had their slot
    // claimed during the copy and may be torn mixes of old and new
    // fields. That includes record c2 - 1 - cap while the writer is
    // still filling record c2 - 1 (claimed, not yet published). The
    // acquire loads above keep this load behind them.
    const std::uint64_t c2 = claim_.load(std::memory_order_relaxed);
    const std::uint64_t lo2 = c2 > cap ? c2 - cap : 0;
    const std::uint64_t keep_from = std::max(lo1, lo2);
    dropped += keep_from;  // lost to wrap before (lo1) or during (rest) the copy
    for (std::uint64_t seq = lo1; seq < h1; ++seq) {
      if (seq < keep_from) continue;
      const Event& e = local[static_cast<std::size_t>(seq - lo1)];
      if (e.name != nullptr) out.push_back(e);
    }
  }

  std::uint64_t head() const { return head_.load(std::memory_order_acquire); }

  void reset() {
    // Called only from clear(); writers racing with this lose records
    // but every slot field stays individually well-defined (atomics).
    for (Slot& s : slots_) s.name.store(nullptr, std::memory_order_relaxed);
    head_.store(0, std::memory_order_release);
    claim_.store(0, std::memory_order_relaxed);
  }

 private:
  const std::uint32_t tid_;
  const std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> claim_{0};
  std::vector<Slot> slots_;
};

// --------------------------------------------------------- registry

// Rings are owned by a process-lifetime registry (leaked on exit, like
// the fault registry) so a snapshot can still read events of threads
// that have already exited.
struct RingRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadRing>> rings;
  std::uint32_t next_tid = 0;
};

RingRegistry& registry() {
  static RingRegistry* r = new RingRegistry();  // leaked: see comment above
  return *r;
}

ThreadRing* make_ring() {
  RingRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const std::size_t cap =
      round_up_pow2(std::max<std::size_t>(64, g_ring_capacity.load(std::memory_order_relaxed)));
  r.rings.push_back(std::make_unique<ThreadRing>(r.next_tid++, cap));
  return r.rings.back().get();
}

// The TLS pointer is never invalidated: rings live as long as the
// registry, so a cached pointer stays valid even across clear().
ThreadRing* thread_ring() {
  thread_local ThreadRing* ring = make_ring();
  return ring;
}

thread_local int t_depth = 0;
thread_local std::uint64_t t_correlation = 0;

}  // namespace

namespace detail {

std::atomic<int> g_level{0};

void emit_instant(const char* name, std::uint64_t id) {
  if (name == nullptr) return;
  const std::uint64_t t = now_ns();
  thread_ring()->emit(name, t, t, id != 0 ? id : t_correlation,
                      static_cast<std::uint16_t>(t_depth), Kind::kInstant);
}

}  // namespace detail

int level() { return detail::g_level.load(std::memory_order_relaxed); }

void set_level(int lvl) {
  detail::g_level.store(lvl < 0 ? 0 : lvl, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  if (g_vclock.load(std::memory_order_relaxed))
    return g_vnow_ns.fetch_add(1000, std::memory_order_relaxed) + 1000;
  return steady_ns();
}

void use_virtual_clock(bool on) {
  g_vclock.store(on, std::memory_order_relaxed);
  if (on) g_vnow_ns.store(0, std::memory_order_relaxed);
}

bool virtual_clock() { return g_vclock.load(std::memory_order_relaxed); }

void set_ring_capacity(std::size_t records) {
  g_ring_capacity.store(std::max<std::size_t>(64, records),
                        std::memory_order_relaxed);
}

std::uint64_t correlation_id() { return t_correlation; }

ScopedCorrelation::ScopedCorrelation(std::uint64_t id) : prev_(t_correlation) {
  t_correlation = id;
}

ScopedCorrelation::~ScopedCorrelation() { t_correlation = prev_; }

void Span::begin(const char* name, std::uint64_t id, bool use_tls_id) {
  if (name == nullptr) return;  // TRACE_SPAN_V below the verbosity level
  name_ = name;
  id_ = use_tls_id ? t_correlation : id;
  depth_ = static_cast<std::uint16_t>(t_depth);
  ++t_depth;
  t0_ns_ = now_ns();
}

void Span::end() {
  const std::uint64_t t1 = now_ns();
  --t_depth;
  // Spans are recorded at close so the single-writer ring never holds
  // half-open records; nesting is reconstructed from (t0, depth).
  if (enabled())
    thread_ring()->emit(name_, t0_ns_, t1, id_, depth_, Kind::kSpan);
}

Snapshot snapshot() {
  Snapshot snap;
  RingRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& ring : r.rings) ring->collect(snap.events, snap.dropped);
  std::sort(snap.events.begin(), snap.events.end(),
            [](const Event& a, const Event& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.t0_ns < b.t0_ns;
            });
  return snap;
}

void clear() {
  RingRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& ring : r.rings) ring->reset();
  g_vnow_ns.store(0, std::memory_order_relaxed);
}

int thread_depth() { return t_depth; }

}  // namespace ccovid::trace
