// Graph-fusion chaos suite: the serve runtime's resilience invariants
// (tests/chaos/chaos_serve.cpp) must hold when the enhancement stage
// runs through the compiled fused graph (src/graph/), at every storage
// precision, and the full seeded (status, degraded, retries,
// probability-bits) trace digest must replay. The graph's bitwise
// equality with the module walk is the unit battery's subject
// (tests/test_graph.cpp).
//
// The ctest TIMEOUT on this binary is the deadlock backstop: a hung
// drain under the fused path fails the suite instead of wedging CI.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/digest.h"
#include "core/precision.h"
#include "data/phantom.h"
#include "fault/failpoint.h"
#include "nn/layers.h"
#include "serve/server.h"

namespace ccovid {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<const pipeline::ComputeCovid19Pipeline> tiny_pipeline() {
  nn::seed_init_rng(3);
  auto enh = std::make_shared<pipeline::EnhancementAI>(nn::DDnetConfig::tiny());
  auto seg = std::make_shared<pipeline::SegmentationAI>();
  auto cls = std::make_shared<pipeline::ClassificationAI>();
  enh->network().set_training(false);
  seg->network().set_training(false);
  cls->network().set_training(false);
  return std::make_shared<const pipeline::ComputeCovid19Pipeline>(enh, seg,
                                                                  cls);
}

std::vector<data::PhantomVolume> tiny_volumes(std::size_t n) {
  Rng rng(11);
  std::vector<data::PhantomVolume> vols;
  for (std::size_t i = 0; i < n; ++i) {
    vols.push_back(data::make_volume(2, 8, i % 2 == 1, rng));
  }
  return vols;
}

struct ScenarioResult {
  std::vector<serve::DiagnoseResponse> responses;
  std::string stats_json;
  std::uint64_t trace_digest = kFnv1aOffset;
};

// Serialized submission (workers=1, max_batch=1, wait for each
// response) exactly as in chaos_serve.cpp, with the storage precision
// pinned for the server's whole lifetime — the worker thread samples
// the process-wide precision once per request, so the guard must
// outlive the drain.
ScenarioResult run_serialized(core::Precision prec,
                              const std::string& failpoints,
                              std::uint64_t seed, serve::ServerOptions opt,
                              std::size_t n) {
  core::PrecisionGuard pguard(prec);
  fault::Registry::instance().reset();
  fault::Registry::instance().set_seed(seed);
  ScenarioResult out;
  const auto vols = tiny_volumes(n);
  {
    serve::InferenceServer server(tiny_pipeline(), opt);
    fault::Registry::instance().configure(failpoints);
    for (std::size_t i = 0; i < n; ++i) {
      serve::ServeOptions so;
      so.use_enhancement = true;
      auto fut = server.submit(vols[i].hu, so);
      if (fut.wait_for(30s) != std::future_status::ready) {
        ADD_FAILURE() << "request " << i << " never resolved (lost/wedged)";
        fault::Registry::instance().reset();
        return out;
      }
      out.responses.push_back(fut.get());
    }
    out.stats_json = server.stats_json();
    server.shutdown();
  }
  for (const auto& r : out.responses) {
    const unsigned char status = static_cast<unsigned char>(r.status);
    const unsigned char degraded = r.degraded ? 1 : 0;
    out.trace_digest = fnv1a64(&status, 1, out.trace_digest);
    out.trace_digest = fnv1a64(&degraded, 1, out.trace_digest);
    out.trace_digest =
        fnv1a64(&r.retries, sizeof(r.retries), out.trace_digest);
    if (r.status == serve::RequestStatus::kOk) {
      const double p = r.diagnosis.probability;
      out.trace_digest = fnv1a64(&p, sizeof(p), out.trace_digest);
    }
  }
  fault::Registry::instance().reset();
  return out;
}

ScenarioResult run_serialized(const std::string& failpoints,
                              std::uint64_t seed, serve::ServerOptions opt,
                              std::size_t n) {
  return run_serialized(core::Precision::kF32, failpoints, seed, opt, n);
}

serve::ServerOptions serialized_options() {
  serve::ServerOptions opt;
  opt.workers = 1;
  opt.max_batch = 1;
  opt.batch_delay = std::chrono::microseconds(100);
  return opt;
}

class ChaosGraph : public ::testing::Test {
 protected:
  void SetUp() override { fault::Registry::instance().reset(); }
  void TearDown() override { fault::Registry::instance().reset(); }
};

// Fault-free baseline: the fused serve path answers every request on
// the first attempt and none is lost.
TEST_F(ChaosGraph, FaultFreeFusedServeAnswersEveryRequest) {
  const auto fused = run_serialized("", 1, serialized_options(), 4);
  ASSERT_EQ(fused.responses.size(), 4u);
  for (const auto& r : fused.responses) {
    EXPECT_EQ(r.status, serve::RequestStatus::kOk) << r.error;
    EXPECT_EQ(r.retries, 0);
  }
}

// Admission-rejection storm under fusion: every request resolves
// (rejected or completed) and the seeded pattern replays, probability
// bits included.
TEST_F(ChaosGraph, AdmissionStormDigestReplaysSeeded) {
  const std::string fp = "serve.queue.admit=prob(0.4)*error";
  const auto a = run_serialized(fp, 2024, serialized_options(), 12);
  ASSERT_EQ(a.responses.size(), 12u);
  std::size_t rejected = 0, completed = 0;
  for (const auto& r : a.responses) {
    ASSERT_TRUE(r.status == serve::RequestStatus::kRejected ||
                r.status == serve::RequestStatus::kOk)
        << serve::to_string(r.status);
    (r.status == serve::RequestStatus::kRejected ? rejected : completed)++;
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(completed, 0u);

  const auto b = run_serialized(fp, 2024, serialized_options(), 12);
  EXPECT_EQ(a.trace_digest, b.trace_digest) << "fused replay must be seeded";
}

// Sticky NaN injection on the enhancement OUTPUT while the fused graph
// produces it: the finite_check guard must catch the poisoned tensor
// exactly as on the module path, degrade gracefully, and keep client
// responses finite. The seeded trace replays.
TEST_F(ChaosGraph, FusedEnhanceNanDegradesGracefully) {
  auto opt = serialized_options();
  opt.max_retries = 1;
  opt.retry_backoff = std::chrono::milliseconds(1);
  opt.degrade_on_failure = true;
  const std::string fp = "pipeline.enhance.output=every(1)*nan(4)";
  const auto a = run_serialized(fp, 9, opt, 3);
  ASSERT_EQ(a.responses.size(), 3u);
  for (const auto& r : a.responses) {
    EXPECT_EQ(r.status, serve::RequestStatus::kOk) << r.error;
    EXPECT_TRUE(r.degraded);
    EXPECT_GE(r.retries, 1);
    EXPECT_TRUE(std::isfinite(r.diagnosis.probability));
  }
  EXPECT_NE(a.stats_json.find("\"degraded\":3"), std::string::npos)
      << a.stats_json;

  const auto b = run_serialized(fp, 9, opt, 3);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
}

// Retries exhausted under fusion: typed kError responses with the
// injected message, none lost, server survives and drains.
TEST_F(ChaosGraph, FusedExhaustedRetriesFailTyped) {
  auto opt = serialized_options();
  opt.max_retries = 1;
  opt.retry_backoff = std::chrono::milliseconds(1);
  const std::string fp = "serve.worker.exec=error";
  const auto a = run_serialized(fp, 31, opt, 3);
  ASSERT_EQ(a.responses.size(), 3u);
  for (const auto& r : a.responses) {
    EXPECT_EQ(r.status, serve::RequestStatus::kError);
    EXPECT_NE(r.error.find("injected execution fault"), std::string::npos);
  }
  EXPECT_NE(a.stats_json.find("\"failed\":3"), std::string::npos)
      << a.stats_json;

  const auto b = run_serialized(fp, 31, opt, 3);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
}

// ---------------------------------------------------------------
// Low-precision storage chaos: the resilience invariants must hold
// unchanged when the enhancement graph runs fp16 or int8 — the
// failpoint schedule consumes no precision-dependent randomness, and
// a quantized/half executor must degrade, retry and type errors
// exactly like the fp32 one.

// Sticky NaN injection on the enhancement output at fp16 and int8:
// the finite guard catches the poisoned tensor on the low-precision
// graph path too, every request degrades gracefully, none is lost.
TEST_F(ChaosGraph, LowPrecisionEnhanceNanDegradesGracefully) {
  for (const core::Precision prec :
       {core::Precision::kF16, core::Precision::kInt8}) {
    SCOPED_TRACE(core::precision_name(prec));
    auto opt = serialized_options();
    opt.max_retries = 1;
    opt.retry_backoff = std::chrono::milliseconds(1);
    opt.degrade_on_failure = true;
    const std::string fp = "pipeline.enhance.output=every(1)*nan(4)";
    const auto a = run_serialized(prec, fp, 9, opt, 3);
    ASSERT_EQ(a.responses.size(), 3u);
    for (const auto& r : a.responses) {
      EXPECT_EQ(r.status, serve::RequestStatus::kOk) << r.error;
      EXPECT_TRUE(r.degraded);
      EXPECT_GE(r.retries, 1);
      EXPECT_TRUE(std::isfinite(r.diagnosis.probability));
    }
    EXPECT_NE(a.stats_json.find("\"degraded\":3"), std::string::npos)
        << a.stats_json;
  }
}

// Retries exhausted at fp16/int8: typed kError responses, none lost,
// and the seeded trace replays — the fault schedule must be identical
// to the fp32 run's (precision consumes no failpoint randomness).
TEST_F(ChaosGraph, LowPrecisionExhaustedRetriesFailTyped) {
  auto opt = serialized_options();
  opt.max_retries = 1;
  opt.retry_backoff = std::chrono::milliseconds(1);
  const std::string fp = "serve.worker.exec=error";
  const auto f32 = run_serialized(core::Precision::kF32, fp, 31,
                                  opt, 3);
  for (const core::Precision prec :
       {core::Precision::kF16, core::Precision::kInt8}) {
    SCOPED_TRACE(core::precision_name(prec));
    const auto a = run_serialized(prec, fp, 31, opt, 3);
    ASSERT_EQ(a.responses.size(), 3u);
    for (const auto& r : a.responses) {
      EXPECT_EQ(r.status, serve::RequestStatus::kError);
      EXPECT_NE(r.error.find("injected execution fault"),
                std::string::npos);
    }
    EXPECT_EQ(a.trace_digest, f32.trace_digest)
        << "precision leaked into the fault schedule or error typing";
  }
}

// Seeded replay at a fixed low precision: two runs with the same seed
// produce the same full trace digest, probability bits included — the
// quantized pipeline is as deterministic as the fp32 one.
TEST_F(ChaosGraph, LowPrecisionAdmissionStormReplaysSeeded) {
  const std::string fp = "serve.queue.admit=prob(0.4)*error";
  const auto a = run_serialized(core::Precision::kF16, fp, 2024,
                                serialized_options(), 8);
  const auto b = run_serialized(core::Precision::kF16, fp, 2024,
                                serialized_options(), 8);
  ASSERT_EQ(a.responses.size(), 8u);
  EXPECT_EQ(a.trace_digest, b.trace_digest)
      << "fp16 serve replay must be seeded-deterministic";
}

// Mid-stream --precision toggles on ONE live server: every request
// resolves, and each request's probability bits equal a run fully
// pinned at that request's precision — the storage format is sampled
// once per request, so a toggle can never mix formats (or produce a
// hybrid result) within one request.
TEST_F(ChaosGraph, MidStreamPrecisionToggleNeverMixesFormats) {
  using core::Precision;
  const Precision cycle[6] = {Precision::kF32,  Precision::kF16,
                              Precision::kInt8, Precision::kBf16,
                              Precision::kF16,  Precision::kInt8};
  fault::Registry::instance().set_seed(1);
  const auto vols = tiny_volumes(6);
  std::vector<serve::DiagnoseResponse> toggled;
  {
    serve::InferenceServer server(tiny_pipeline(), serialized_options());
    for (std::size_t i = 0; i < 6; ++i) {
      core::PrecisionGuard pguard(cycle[i]);
      auto fut = server.submit(vols[i].hu);
      ASSERT_EQ(fut.wait_for(30s), std::future_status::ready)
          << "request " << i << " lost across a precision toggle";
      toggled.push_back(fut.get());
    }
    server.shutdown();
  }
  for (const Precision prec :
       {Precision::kF32, Precision::kF16, Precision::kBf16,
        Precision::kInt8}) {
    const auto pinned = run_serialized(prec, "", 1,
                                       serialized_options(), 6);
    ASSERT_EQ(pinned.responses.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
      if (cycle[i] != prec) continue;
      ASSERT_EQ(toggled[i].status, serve::RequestStatus::kOk)
          << toggled[i].error;
      const double a = toggled[i].diagnosis.probability;
      const double b = pinned.responses[i].diagnosis.probability;
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0)
          << "request " << i << " at " << core::precision_name(cycle[i])
          << ": bits differ from a run pinned at that precision — the "
             "toggle mixed storage formats within the request";
    }
  }
}

}  // namespace
}  // namespace ccovid
