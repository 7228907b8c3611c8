// Tracing-subsystem suite (`-L fast` / `-L trace`): span nesting and
// depth balance, ring wraparound accounting, the snapshot-while-writing
// discard protocol under real concurrency, chrome trace-event JSON
// schema checks, virtual-clock byte-stability, request-id propagation
// across the serving runtime's threads, and the no-allocation contract
// of disabled sites and of warmed-up enabled emits (via the counting
// operator new below).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/phantom.h"
#include "nn/layers.h"
#include "serve/server.h"
#include "trace/export.h"
#include "trace/trace.h"

// Counts the calling thread's operator new calls and forwards to malloc.
// Tracing never touches tensors, so the block pool's miss counter would
// measure nothing here; this hook sees every heap allocation a trace
// site could make. Per thread, so other threads' traffic cannot leak in.
namespace {
thread_local std::uint64_t t_new_calls = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_new_calls;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined into a caller, gcc pairs the free() with the
// caller's `new` and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ccovid {
namespace {

constexpr std::size_t kDefaultRingCapacity = 16384;

// Every test starts from a known state: tracing off, rings empty,
// real clock, default ring capacity for any thread spawned later.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_level(0);
    trace::use_virtual_clock(false);
    trace::set_ring_capacity(kDefaultRingCapacity);
    trace::clear();
  }
  void TearDown() override {
    trace::set_level(0);
    trace::use_virtual_clock(false);
    trace::set_ring_capacity(kDefaultRingCapacity);
    trace::clear();
  }
};

std::vector<trace::Event> events_named(const trace::Snapshot& snap,
                                       const char* name) {
  std::vector<trace::Event> out;
  for (const auto& e : snap.events) {
    if (e.name != nullptr && std::strcmp(e.name, name) == 0) {
      out.push_back(e);
    }
  }
  return out;
}

// ------------------------------------------------------ span basics

TEST_F(TraceTest, DisabledSitesRecordNothing) {
  ASSERT_FALSE(trace::enabled());
  {
    TRACE_SPAN("off.span");
    TRACE_INSTANT("off.instant");
  }
  EXPECT_EQ(trace::thread_depth(), 0);
  EXPECT_TRUE(trace::snapshot().events.empty());
}

TEST_F(TraceTest, NestedSpansBalanceAndRecordDepth) {
  trace::set_level(1);
  EXPECT_EQ(trace::thread_depth(), 0);
  {
    TRACE_SPAN("outer");
    EXPECT_EQ(trace::thread_depth(), 1);
    {
      TRACE_SPAN("middle");
      EXPECT_EQ(trace::thread_depth(), 2);
      {
        TRACE_SPAN("inner");
        EXPECT_EQ(trace::thread_depth(), 3);
      }
      EXPECT_EQ(trace::thread_depth(), 2);
    }
    EXPECT_EQ(trace::thread_depth(), 1);
  }
  EXPECT_EQ(trace::thread_depth(), 0);

  const trace::Snapshot snap = trace::snapshot();
  ASSERT_EQ(snap.events.size(), 3u);
  std::map<std::string, trace::Event> by_name;
  for (const auto& e : snap.events) by_name[e.name] = e;
  EXPECT_EQ(by_name.at("outer").depth, 0);
  EXPECT_EQ(by_name.at("middle").depth, 1);
  EXPECT_EQ(by_name.at("inner").depth, 2);
  // Nesting invariant: children are contained in the parent interval.
  EXPECT_GE(by_name.at("inner").t0_ns, by_name.at("middle").t0_ns);
  EXPECT_LE(by_name.at("inner").t1_ns, by_name.at("middle").t1_ns);
  EXPECT_GE(by_name.at("middle").t0_ns, by_name.at("outer").t0_ns);
  EXPECT_LE(by_name.at("middle").t1_ns, by_name.at("outer").t1_ns);
  for (const auto& e : snap.events) {
    EXPECT_EQ(e.kind, trace::Kind::kSpan);
    EXPECT_LE(e.t0_ns, e.t1_ns);
  }
}

TEST_F(TraceTest, SpanOutlivingDisableStillBalancesDepth) {
  trace::set_level(1);
  {
    TRACE_SPAN("doomed");
    EXPECT_EQ(trace::thread_depth(), 1);
    trace::set_level(0);  // disabled mid-span
  }
  // The depth counter balanced, and the span was not recorded.
  EXPECT_EQ(trace::thread_depth(), 0);
  EXPECT_TRUE(events_named(trace::snapshot(), "doomed").empty());
}

TEST_F(TraceTest, InstantsInheritAndOverrideCorrelation) {
  trace::set_level(1);
  EXPECT_EQ(trace::correlation_id(), 0u);
  {
    trace::ScopedCorrelation corr(42);
    EXPECT_EQ(trace::correlation_id(), 42u);
    TRACE_INSTANT("inherit");
    TRACE_INSTANT_ID("override", 7);
    TRACE_SPAN("span.inherit");
  }
  EXPECT_EQ(trace::correlation_id(), 0u);
  const trace::Snapshot snap = trace::snapshot();
  ASSERT_EQ(events_named(snap, "inherit").size(), 1u);
  EXPECT_EQ(events_named(snap, "inherit")[0].id, 42u);
  EXPECT_EQ(events_named(snap, "inherit")[0].kind, trace::Kind::kInstant);
  ASSERT_EQ(events_named(snap, "override").size(), 1u);
  EXPECT_EQ(events_named(snap, "override")[0].id, 7u);
  ASSERT_EQ(events_named(snap, "span.inherit").size(), 1u);
  EXPECT_EQ(events_named(snap, "span.inherit")[0].id, 42u);
}

TEST_F(TraceTest, VerbosityGatedSitesNeedLevelTwo) {
  trace::set_level(1);
  {
    TRACE_SPAN_V("v.span");
    TRACE_INSTANT_V("v.instant");
  }
  EXPECT_TRUE(trace::snapshot().events.empty());
  trace::set_level(2);
  {
    TRACE_SPAN_V("v.span");
    TRACE_INSTANT_V("v.instant");
  }
  const trace::Snapshot snap = trace::snapshot();
  EXPECT_EQ(events_named(snap, "v.span").size(), 1u);
  EXPECT_EQ(events_named(snap, "v.instant").size(), 1u);
}

// ------------------------------------------------------------- ring

TEST_F(TraceTest, WraparoundKeepsNewestAndCountsDropped) {
  trace::set_level(1);
  // Rings pick up the capacity in force when their thread first emits,
  // so the small ring must belong to a fresh thread.
  trace::set_ring_capacity(64);
  constexpr int kEmits = 200;
  std::thread writer([] {
    for (int i = 0; i < kEmits; ++i) TRACE_INSTANT("wrap.evt");
  });
  writer.join();
  trace::set_ring_capacity(kDefaultRingCapacity);

  const trace::Snapshot snap = trace::snapshot();
  const auto evts = events_named(snap, "wrap.evt");
  EXPECT_EQ(evts.size(), 64u);  // exactly one ring of the newest records
  EXPECT_EQ(snap.dropped, static_cast<std::uint64_t>(kEmits - 64));
}

TEST_F(TraceTest, SnapshotWhileWritingNeverReturnsTornRecords) {
  trace::set_level(1);
  // Tiny rings force continuous wraparound, maximizing snapshot/writer
  // slot collisions — the case the discard protocol exists for.
  trace::set_ring_capacity(64);
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop, &started] {
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        TRACE_SPAN("race.span");
        TRACE_INSTANT_ID("race.instant", 99);
        if (first) {
          started.fetch_add(1, std::memory_order_relaxed);
          first = false;
        }
      }
    });
  }
  // Don't start snapshotting (or, worse, stop) until every writer is
  // actually writing — thread startup can outlast 200 empty snapshots.
  while (started.load(std::memory_order_relaxed) < 4) {
    std::this_thread::yield();
  }
  // Snapshot continuously while the writers hammer their rings. Every
  // returned record must be fully-formed: a torn mix of two records
  // would show as t1 < t0 or a wrong-name/kind combination. (A round
  // may legitimately return nothing — a writer that laps the whole
  // ring mid-copy invalidates every slot — so only well-formedness is
  // asserted here, and liveness on the quiescent snapshot below.)
  for (int round = 0; round < 200; ++round) {
    const trace::Snapshot snap = trace::snapshot();
    for (const auto& e : snap.events) {
      ASSERT_NE(e.name, nullptr);
      const bool is_span = std::strcmp(e.name, "race.span") == 0;
      const bool is_instant = std::strcmp(e.name, "race.instant") == 0;
      ASSERT_TRUE(is_span || is_instant) << e.name;
      ASSERT_LE(e.t0_ns, e.t1_ns);
      if (is_span) {
        ASSERT_EQ(e.kind, trace::Kind::kSpan);
      } else {
        ASSERT_EQ(e.kind, trace::Kind::kInstant);
        ASSERT_EQ(e.t0_ns, e.t1_ns);
        ASSERT_EQ(e.id, 99u);
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
  trace::set_ring_capacity(kDefaultRingCapacity);
  // Writers quiescent: the last ring-full of records must survive.
  const trace::Snapshot final_snap = trace::snapshot();
  EXPECT_GT(final_snap.events.size(), 0u);
  EXPECT_GT(final_snap.dropped, 0u);  // tiny rings certainly wrapped
}

// ----------------------------------------------------------- vclock

TEST_F(TraceTest, VirtualClockTicksOneMicrosecondPerEvent) {
  trace::set_level(1);
  trace::use_virtual_clock(true);
  trace::clear();  // resets the virtual counter
  ASSERT_TRUE(trace::virtual_clock());
  {
    TRACE_SPAN("v.outer");   // draw 1 at open ...
    TRACE_INSTANT("v.mid");  // draw 2
  }                          // ... draw 3 at close
  const trace::Snapshot snap = trace::snapshot();
  const auto outer = events_named(snap, "v.outer");
  const auto mid = events_named(snap, "v.mid");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(outer[0].t0_ns, 1000u);
  EXPECT_EQ(mid[0].t0_ns, 2000u);
  EXPECT_EQ(outer[0].t1_ns, 3000u);
}

TEST_F(TraceTest, VirtualClockExportsAreByteStable) {
  trace::set_level(1);
  trace::use_virtual_clock(true);
  auto run = [] {
    trace::clear();
    {
      TRACE_SPAN_ID("stable.a", 5);
      TRACE_INSTANT("stable.b");
    }
    const trace::Snapshot snap = trace::snapshot();
    return std::make_pair(trace::chrome_json(snap),
                          trace::summary_json(snap));
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);    // chrome JSON, byte-for-byte
  EXPECT_EQ(first.second, second.second);  // summary JSON
}

// ---------------------------------------------------------- exports

// Minimal structural JSON check: every brace/bracket balances outside
// string literals and escapes are well-formed. Catches the classic
// hand-rolled-serializer failures (trailing comma handled separately).
bool json_structure_ok(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

TEST_F(TraceTest, ChromeJsonMatchesTraceEventSchema) {
  trace::set_level(1);
  trace::use_virtual_clock(true);
  trace::clear();
  {
    TRACE_SPAN_ID("schema.span", 17);
    TRACE_INSTANT("schema.instant");
  }
  const std::string json = trace::chrome_json(trace::snapshot());
  EXPECT_TRUE(json_structure_ok(json)) << json;
  EXPECT_EQ(json.front(), '[');
  // Array-of-events form: one "X" complete event per span, one "i"
  // instant, both with the fields chrome://tracing requires.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"schema.span\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"schema.instant\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"id\":17"), std::string::npos);
  EXPECT_EQ(json.find(",]"), std::string::npos);  // no trailing commas
  EXPECT_EQ(json.find(",}"), std::string::npos);
}

TEST_F(TraceTest, AggregateMergesAcrossThreadsBeforeQuantiles) {
  trace::set_level(1);
  // Two threads emit different numbers of the same span; the aggregate
  // must pool them (merged count, quantiles over the union) rather than
  // reporting any per-thread view.
  auto burn = [](int spins) {
    volatile int x = 0;
    for (int i = 0; i < spins; ++i) x = x + 1;
  };
  std::thread a([&] {
    for (int i = 0; i < 3; ++i) {
      TRACE_SPAN("agg.work");
      burn(100);
    }
  });
  std::thread b([&] {
    for (int i = 0; i < 5; ++i) {
      TRACE_SPAN("agg.work");
      burn(100);
    }
  });
  a.join();
  b.join();

  const trace::Snapshot snap = trace::snapshot();
  const auto stats = trace::aggregate(snap);
  const auto it = std::find_if(
      stats.begin(), stats.end(),
      [](const trace::SpanStat& s) { return s.name == "agg.work"; });
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->count, 8u);  // 3 + 5, merged across both threads
  EXPECT_GE(it->p99_s, it->p50_s);
  EXPECT_GE(it->total_s, it->p99_s);  // 8 samples: total >= any single one
  // Instants carry no duration and must not pollute the table.
  TRACE_INSTANT("agg.instant");
  for (const auto& s : trace::aggregate(trace::snapshot())) {
    EXPECT_NE(s.name, "agg.instant");
  }
}

TEST_F(TraceTest, SummaryJsonIsStructurallyValid) {
  trace::set_level(1);
  trace::use_virtual_clock(true);
  trace::clear();
  { TRACE_SPAN("sum.a"); }
  { TRACE_SPAN("sum.a"); }
  const std::string json = trace::summary_json(trace::snapshot());
  EXPECT_TRUE(json_structure_ok(json)) << json;
  EXPECT_NE(json.find("\"events\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sum.a\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
}

// ------------------------------------------------- serve integration

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

TEST_F(TraceTest, RequestIdPropagatesAcrossBatcherThreads) {
  trace::set_level(1);
  serve::ServerOptions opt;
  opt.workers = 2;
  opt.max_batch = 2;
  Rng rng(11);
  std::vector<data::PhantomVolume> vols;
  for (int i = 0; i < 4; ++i) {
    vols.push_back(data::make_volume(2, 8, i % 2 == 1, rng));
  }

  std::set<std::uint64_t> ids;
  {
    serve::InferenceServer server(tiny_pipeline(), opt);
    std::vector<std::future<serve::DiagnoseResponse>> futs;
    for (const auto& v : vols) futs.push_back(server.submit(v.hu));
    for (auto& f : futs) {
      const auto r = f.get();
      ASSERT_EQ(r.status, serve::RequestStatus::kOk);
      ids.insert(r.request_id);
    }
    server.shutdown();
  }
  ASSERT_EQ(ids.size(), 4u);

  const trace::Snapshot snap = trace::snapshot();
  const auto admits = events_named(snap, "serve.admit");
  const auto responds = events_named(snap, "serve.respond");
  const auto executes = events_named(snap, "serve.batch.execute");
  EXPECT_EQ(admits.size(), 4u);
  EXPECT_EQ(responds.size(), 4u);
  EXPECT_GE(executes.size(), 1u);

  // Every request's timeline is stitched by its id: admission on the
  // submitter thread, response on a worker thread — different rings,
  // same correlation id.
  for (const std::uint64_t id : ids) {
    const auto admit = std::find_if(
        admits.begin(), admits.end(),
        [id](const trace::Event& e) { return e.id == id; });
    const auto respond = std::find_if(
        responds.begin(), responds.end(),
        [id](const trace::Event& e) { return e.id == id; });
    ASSERT_NE(admit, admits.end()) << "no admit span for request " << id;
    ASSERT_NE(respond, responds.end())
        << "no respond span for request " << id;
    EXPECT_NE(admit->tid, respond->tid)
        << "admit and respond unexpectedly on the same thread";
  }
  // Worker-side kernels inherit the lead request id via
  // ScopedCorrelation, so batch compute is attributable.
  bool kernel_with_request_id = false;
  for (const auto& e : snap.events) {
    if (e.name != nullptr && std::strncmp(e.name, "ops.", 4) == 0 &&
        ids.count(e.id) > 0) {
      kernel_with_request_id = true;
      break;
    }
  }
  EXPECT_TRUE(kernel_with_request_id);

  // The stats JSON grows a merged-before-quantile trace section while
  // tracing is live (satellite of the percentile fix).
  serve::InferenceServer server2(tiny_pipeline(), opt);
  const std::string stats = server2.stats_json();
  EXPECT_NE(stats.find("\"trace\":"), std::string::npos);
  EXPECT_TRUE(json_structure_ok(stats)) << stats;
  server2.shutdown();
}

// ------------------------------------------------------- allocation

TEST_F(TraceTest, DisabledSitesDoNotAllocate) {
  ASSERT_FALSE(trace::enabled());
  const std::uint64_t before = t_new_calls;
  for (int i = 0; i < 100000; ++i) {
    TRACE_SPAN("alloc.span");
    TRACE_SPAN_ID("alloc.span.id", 1);
    TRACE_INSTANT("alloc.instant");
    TRACE_INSTANT_ID("alloc.instant.id", 2);
    TRACE_SPAN_V("alloc.verbose");
  }
  // A disabled site is one relaxed load — the loop must not have
  // reached the heap even once.
  EXPECT_EQ(t_new_calls - before, 0u);
}

TEST_F(TraceTest, EnabledEmitIsAllocationFreeAfterRingWarmup) {
  trace::set_level(1);
  TRACE_INSTANT("warm");  // materializes this thread's ring
  const std::uint64_t before = t_new_calls;
  for (int i = 0; i < 10000; ++i) {
    TRACE_SPAN("steady.span");
    TRACE_INSTANT("steady.instant");
  }
  // emit() writes into the preallocated ring: records wrap, the heap is
  // never touched.
  EXPECT_EQ(t_new_calls - before, 0u);
}

}  // namespace
}  // namespace ccovid
