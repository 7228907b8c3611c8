// Failpoint-registry suite: schedule-grammar parsing, every trigger
// type, thread-scoped filters, seed-driven determinism across reruns,
// the injection utilities, and the compile-out path (fault_disabled_tu
// builds the same hooks with CCOVID_DISABLE_FAILPOINTS).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/tensor.h"
#include "fault/failpoint.h"

namespace ccovid::fault_test {
bool disabled_tu_compiled_in();
bool disabled_tu_hook_fires();
}  // namespace ccovid::fault_test

namespace ccovid::fault {
namespace {

// The registry is process-global: every test starts and ends disarmed.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::instance().reset(); }
  void TearDown() override { Registry::instance().reset(); }
};

// Tests that exercise hook macros need them compiled in; with a global
// -DCCOVID_DISABLE_FAILPOINTS=ON build they skip (the registry, parser,
// and injection-utility tests still run — only the macros vanish).
#define REQUIRE_HOOKS_COMPILED_IN()                                     \
  do {                                                                  \
    if (!kCompiledIn)                                                   \
      GTEST_SKIP() << "failpoint macros compiled out "                  \
                      "(CCOVID_DISABLE_FAILPOINTS)";                    \
  } while (0)

// ------------------------------------------------------------- parsing

TEST_F(FaultTest, ParsesFullGrammar) {
  Schedule s = parse_schedule("nth(3)*thread(1)*delay(50ms)");
  EXPECT_EQ(s.trigger, Schedule::Trigger::kNth);
  EXPECT_EQ(s.k, 3u);
  EXPECT_EQ(s.thread, 1);
  EXPECT_EQ(s.action, Action::kDelay);
  EXPECT_DOUBLE_EQ(s.delay_s, 0.05);

  s = parse_schedule("prob(0.25)*corrupt(8)");
  EXPECT_EQ(s.trigger, Schedule::Trigger::kProb);
  EXPECT_DOUBLE_EQ(s.p, 0.25);
  EXPECT_EQ(s.action, Action::kCorrupt);
  EXPECT_EQ(s.count, 8u);

  // Defaults: always-trigger, error action, any thread.
  s = parse_schedule("error");
  EXPECT_EQ(s.trigger, Schedule::Trigger::kAlways);
  EXPECT_EQ(s.action, Action::kError);
  EXPECT_EQ(s.thread, -1);

  s = parse_schedule("once");
  EXPECT_EQ(s.trigger, Schedule::Trigger::kOnce);
  EXPECT_EQ(s.action, Action::kError);
  EXPECT_TRUE(s.one_shot());

  // Delay units.
  EXPECT_DOUBLE_EQ(parse_schedule("delay(2s)").delay_s, 2.0);
  EXPECT_DOUBLE_EQ(parse_schedule("delay(100us)").delay_s, 1e-4);
  EXPECT_EQ(parse_schedule("nan(4)").action, Action::kNan);
  EXPECT_EQ(parse_schedule("off").action, Action::kNone);
}

TEST_F(FaultTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_schedule(""), std::invalid_argument);
  EXPECT_THROW(parse_schedule("bogus"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("nth(0)"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("nth(x)"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("prob(1.5)"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("once*nth(2)"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("error*delay(1ms)"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("thread(-1)"), std::invalid_argument);
  EXPECT_THROW(parse_schedule("delay(5kg)"), std::invalid_argument);
  // Numbers that do not fit their field: each would otherwise wrap into
  // a value with another meaning (thread -> "any thread", k -> 0).
  for (const char* spec :
       {"thread(1e20)", "thread(inf)", "thread(2147483648)", "nth(1e30)",
        "every(inf)", "after(nan)", "times(18446744073709551616)",
        "nth(9007199254740994)", "corrupt(4294967296)",
        "nan(4294967297)", "delay(inf)", "delay(1e10)",
        "delay(1e13ms)"}) {
    EXPECT_THROW(parse_schedule(spec), std::invalid_argument) << spec;
  }
  EXPECT_EQ(parse_schedule("thread(2147483647)").thread, 2147483647);
  EXPECT_EQ(parse_schedule("nth(9007199254740992)").k,
            std::uint64_t{1} << 53);
  EXPECT_EQ(parse_schedule("corrupt(4294967295)").count, 4294967295u);
  EXPECT_EQ(parse_schedule("delay(1e9)").delay_s, 1e9);
  EXPECT_THROW(Registry::instance().configure("noequalsign"),
               std::invalid_argument);
}

// ------------------------------------------------------------ triggers

TEST_F(FaultTest, DisarmedHookNeverFires) {
  EXPECT_FALSE(Registry::any_armed());
  EXPECT_FALSE(CCOVID_FAILPOINT_FIRED("test.fault.site"));
}

TEST_F(FaultTest, AlwaysTriggerFiresEveryHit) {
  REQUIRE_HOOKS_COMPILED_IN();
  Registry::instance().arm("test.fault.site", "error");
  EXPECT_TRUE(Registry::any_armed());
  for (int i = 0; i < 5; ++i) {
    auto f = CCOVID_FAILPOINT_FIRED("test.fault.site");
    ASSERT_TRUE(f);
    EXPECT_EQ(f.action, Action::kError);
  }
  auto& fp = Registry::instance().handle("test.fault.site");
  EXPECT_EQ(fp.fires(), 5u);
  EXPECT_GE(fp.hits(), 5u);
}

TEST_F(FaultTest, OnceIsOneShot) {
  REQUIRE_HOOKS_COMPILED_IN();
  Registry::instance().arm("test.fault.site", "once*error");
  EXPECT_TRUE(CCOVID_FAILPOINT_FIRED("test.fault.site"));
  // Disarmed after the single fire — the global fast path goes quiet.
  EXPECT_FALSE(Registry::any_armed());
  EXPECT_FALSE(CCOVID_FAILPOINT_FIRED("test.fault.site"));
}

TEST_F(FaultTest, NthFiresExactlyOnKthHit) {
  REQUIRE_HOOKS_COMPILED_IN();
  Registry::instance().arm("test.fault.site", "nth(3)");
  EXPECT_FALSE(CCOVID_FAILPOINT_FIRED("test.fault.site"));
  EXPECT_FALSE(CCOVID_FAILPOINT_FIRED("test.fault.site"));
  EXPECT_TRUE(CCOVID_FAILPOINT_FIRED("test.fault.site"));
  EXPECT_FALSE(CCOVID_FAILPOINT_FIRED("test.fault.site"));
  EXPECT_EQ(Registry::instance().handle("test.fault.site").fires(), 1u);
}

TEST_F(FaultTest, EveryAndAfterAndTimes) {
  REQUIRE_HOOKS_COMPILED_IN();
  Registry::instance().arm("test.fault.site", "every(2)");
  int fired = 0;
  for (int i = 0; i < 6; ++i) {
    if (CCOVID_FAILPOINT_FIRED("test.fault.site")) ++fired;
  }
  EXPECT_EQ(fired, 3);  // hits 2, 4, 6

  Registry::instance().arm("test.fault.site", "after(2)");
  fired = 0;
  for (int i = 0; i < 5; ++i) {
    if (CCOVID_FAILPOINT_FIRED("test.fault.site")) ++fired;
  }
  EXPECT_EQ(fired, 3);  // hits 3, 4, 5 (counters restart on re-arm)

  Registry::instance().arm("test.fault.site", "times(2)");
  fired = 0;
  for (int i = 0; i < 5; ++i) {
    if (CCOVID_FAILPOINT_FIRED("test.fault.site")) ++fired;
  }
  EXPECT_EQ(fired, 2);  // first two hits, then auto-disarm
  EXPECT_FALSE(Registry::any_armed());
}

TEST_F(FaultTest, ThreadFilterUsesScopedOrdinal) {
  REQUIRE_HOOKS_COMPILED_IN();
  Registry::instance().arm("test.fault.site", "thread(2)*error");
  EXPECT_EQ(thread_ordinal(), -1);
  EXPECT_FALSE(CCOVID_FAILPOINT_FIRED("test.fault.site"));  // no ordinal
  {
    ScopedThreadOrdinal o(1);
    EXPECT_FALSE(CCOVID_FAILPOINT_FIRED("test.fault.site"));
    {
      ScopedThreadOrdinal inner(2);  // nests and restores
      EXPECT_TRUE(CCOVID_FAILPOINT_FIRED("test.fault.site"));
    }
    EXPECT_EQ(thread_ordinal(), 1);
  }
  // Ordinals are thread-local: another thread's ordinal is independent.
  bool other_fired = true;
  std::thread t([&] {
    ScopedThreadOrdinal o(3);
    other_fired = static_cast<bool>(CCOVID_FAILPOINT_FIRED("test.fault.site"));
  });
  t.join();
  EXPECT_FALSE(other_fired);
}

TEST_F(FaultTest, DelayActionStallsTheCaller) {
  REQUIRE_HOOKS_COMPILED_IN();
  Registry::instance().arm("test.fault.site", "once*delay(30ms)");
  const auto t0 = std::chrono::steady_clock::now();
  auto f = CCOVID_FAILPOINT_FIRED("test.fault.site");
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(f);
  EXPECT_EQ(f.action, Action::kDelay);
  EXPECT_GE(elapsed, 0.03);
}

// --------------------------------------------------------- determinism

// Replays `hits` evaluations of a prob schedule and returns the fire
// pattern as a bitmask (hit i -> bit i).
std::uint64_t prob_pattern(std::uint64_t seed, int hits) {
  Registry::instance().set_seed(seed);
  Registry::instance().arm("test.fault.prob", "prob(0.4)");
  std::uint64_t pattern = 0;
  for (int i = 0; i < hits; ++i) {
    if (CCOVID_FAILPOINT_FIRED("test.fault.prob")) {
      pattern |= std::uint64_t{1} << i;
    }
  }
  Registry::instance().disarm("test.fault.prob");
  return pattern;
}

TEST_F(FaultTest, ProbScheduleIsSeedDeterministic) {
  REQUIRE_HOOKS_COMPILED_IN();
  const std::uint64_t a1 = prob_pattern(1234, 60);
  const std::uint64_t a2 = prob_pattern(1234, 60);
  EXPECT_EQ(a1, a2);  // same seed -> identical fire sequence
  EXPECT_NE(a1, 0u);                            // p=0.4 over 60 hits:
  EXPECT_NE(a1, (std::uint64_t{1} << 60) - 1);  // some fire, some don't

  const std::uint64_t b = prob_pattern(99, 60);
  EXPECT_NE(a1, b);  // different seed -> different sequence
}

TEST_F(FaultTest, PerFireSeedsAreStableAndDistinct) {
  REQUIRE_HOOKS_COMPILED_IN();
  auto collect = [] {
    Registry::instance().set_seed(777);
    Registry::instance().arm("test.fault.site", "nan(2)");
    std::vector<std::uint64_t> seeds;
    for (int i = 0; i < 4; ++i) {
      auto f = CCOVID_FAILPOINT_FIRED("test.fault.site");
      seeds.push_back(f.seed);
    }
    Registry::instance().disarm("test.fault.site");
    return seeds;
  };
  const auto s1 = collect();
  const auto s2 = collect();
  EXPECT_EQ(s1, s2);  // reproducible run-to-run
  for (std::size_t i = 1; i < s1.size(); ++i) {
    EXPECT_NE(s1[i], s1[i - 1]);  // but distinct per fire
  }
}

TEST_F(FaultTest, CorruptBytesIsDeterministic) {
  std::vector<unsigned char> a(64, 0), b(64, 0), c(64, 0);
  corrupt_bytes(a.data(), a.size(), 42, 4);
  corrupt_bytes(b.data(), b.size(), 42, 4);
  corrupt_bytes(c.data(), c.size(), 43, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  int flipped = 0;
  for (unsigned char x : a) {
    if (x != 0) ++flipped;
  }
  EXPECT_GE(flipped, 1);  // n draws may collide, but at least one bit flips
  EXPECT_LE(flipped, 4);
}

TEST_F(FaultTest, InjectNonfinitePoisonsRequestedCount) {
  Tensor t = Tensor::zeros({8, 8});
  inject_nonfinite(t, /*seed=*/7, /*n=*/5);
  int bad = 0;
  for (index_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(t.data()[i])) ++bad;
  }
  EXPECT_GE(bad, 1);
  EXPECT_LE(bad, 5);
}

// ------------------------------------------------- registry bookkeeping

TEST_F(FaultTest, ConfigureArmsMultipleAndJsonReports) {
  REQUIRE_HOOKS_COMPILED_IN();
  EXPECT_EQ(Registry::instance().configure(
                "test.fault.a=once*error;test.fault.b=every(2)*delay(1us)"),
            2);
  EXPECT_TRUE(Registry::any_armed());
  (void)CCOVID_FAILPOINT_FIRED("test.fault.a");
  const std::string js = Registry::instance().json();
  EXPECT_NE(js.find("\"test.fault.a\""), std::string::npos);
  EXPECT_NE(js.find("\"fires\":1"), std::string::npos);
  EXPECT_NE(js.find("\"test.fault.b\""), std::string::npos);

  Registry::instance().reset();
  EXPECT_FALSE(Registry::any_armed());
  EXPECT_EQ(Registry::instance().json(), "{}");
}

TEST_F(FaultTest, HandleReferencesAreStableAcrossRearm) {
  auto& fp1 = Registry::instance().handle("test.fault.site");
  Registry::instance().arm("test.fault.site", "error");
  Registry::instance().reset();
  Registry::instance().arm("test.fault.site", "once");
  auto& fp2 = Registry::instance().handle("test.fault.site");
  EXPECT_EQ(&fp1, &fp2);  // call-site caching stays valid forever
}

// --------------------------------------------------------- compile-out

TEST_F(FaultTest, DisabledTranslationUnitNeverFires) {
  EXPECT_FALSE(ccovid::fault_test::disabled_tu_compiled_in());
#ifndef CCOVID_DISABLE_FAILPOINTS
  EXPECT_TRUE(kCompiledIn);
#endif
  // Arm the exact name the disabled TU's hook uses — it still cannot
  // fire there, because the macro compiled to nothing.
  Registry::instance().arm("test.disabled.site", "error");
  EXPECT_FALSE(ccovid::fault_test::disabled_tu_hook_fires());
  // The same name from THIS TU does fire — when its hooks compiled in.
  if (kCompiledIn) {
    EXPECT_TRUE(CCOVID_FAILPOINT_FIRED("test.disabled.site"));
  }
}

}  // namespace
}  // namespace ccovid::fault
