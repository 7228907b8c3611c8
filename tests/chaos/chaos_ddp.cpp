// DDP chaos suite: runs distributed data-parallel training under seeded
// transport and gradient fault schedules and asserts the core invariant —
// training either converges in lock-step or raises a TYPED error
// (StageError for poisoned gradients, CommError for transport faults);
// it never hangs a collective and never silently diverges. Each
// scenario runs twice with the same schedule seed and compares outcome
// digests, witnessing bitwise reproducibility.
//
// Failpoints are armed AFTER the trainer is constructed so the initial
// weight broadcast stays clean and every schedule targets training-step
// traffic; thread(R) filters pin schedules to rank R's deterministic
// send/step sequence.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "autograd/losses.h"
#include "core/digest.h"
#include "core/finite.h"
#include "core/tensor.h"
#include "dist/comm.h"
#include "dist/ddp.h"
#include "fault/failpoint.h"
#include "nn/ddnet.h"
#include "nn/layers.h"
#include "trace/trace.h"

namespace ccovid {
namespace {

using dist::CommError;
using dist::DdpConfig;
using dist::DdpTrainer;
using dist::EpochStats;

std::shared_ptr<nn::Module> tiny_ddnet_factory() {
  return std::make_shared<nn::DDnet>(nn::DDnetConfig::tiny());
}

struct ToyData {
  std::vector<Tensor> inputs;
  std::vector<Tensor> targets;
};

ToyData make_toy_data(index_t count, index_t hw, std::uint64_t seed) {
  Rng rng(seed);
  ToyData d;
  for (index_t i = 0; i < count; ++i) {
    Tensor target({1, 1, hw, hw});
    rng.fill_uniform(target, 0.2, 0.8);
    Tensor input = target.clone();
    for (index_t j = 0; j < input.numel(); ++j) {
      input.data()[j] += static_cast<real_t>(rng.gaussian(0, 0.1));
    }
    d.inputs.push_back(std::move(input));
    d.targets.push_back(std::move(target));
  }
  return d;
}

DdpTrainer::LossFn toy_loss(const ToyData& data) {
  return [&data](nn::Module& model, int /*rank*/,
                 const std::vector<index_t>& samples) {
    auto& net = dynamic_cast<nn::DDnet&>(model);
    autograd::Var total;
    for (index_t s : samples) {
      autograd::Var x(data.inputs[s].clone());
      autograd::Var pred = net.forward(x);
      autograd::Var loss =
          autograd::enhancement_loss(pred, data.targets[s], 0.1f, 11, 1);
      total = total.defined() ? autograd::add(total, loss) : loss;
    }
    return autograd::mul_scalar(
        total, 1.0f / static_cast<real_t>(samples.size()));
  };
}

std::uint64_t params_digest(nn::Module& m) {
  std::uint64_t h = kFnv1aOffset;
  for (const auto& p : m.parameters()) h = fnv1a64(p.value(), h);
  return h;
}

/// What one seeded scenario run produced, reduced to comparable bits.
struct Outcome {
  enum class Kind { kCompleted, kStageError, kCommError, kOtherError };
  Kind kind = Kind::kOtherError;
  std::string stage;                 ///< StageError::stage()
  int comm_kind = -1;                ///< static_cast<int>(CommError::Kind)
  std::uint64_t digest = kFnv1aOffset;  ///< loss bits + rank-0 params
  bool lock_step = false;            ///< rank params bitwise identical
};

/// One full scenario: fresh registry seed, fresh identically-seeded
/// model replicas, clean broadcast, THEN the fault schedule, one epoch.
/// Never hangs: every fault path below either completes or throws.
Outcome run_ddp_scenario(const std::string& failpoints, std::uint64_t seed,
                         DdpConfig cfg) {
  auto& reg = fault::Registry::instance();
  reg.reset();
  reg.set_seed(seed);
  Outcome out;
  nn::seed_init_rng(100);
  const ToyData data = make_toy_data(4, 16, 101);
  DdpTrainer trainer(tiny_ddnet_factory, cfg);  // clean weight broadcast
  reg.configure(failpoints);
  Rng rng(102);
  try {
    const EpochStats stats = trainer.train_epoch(4, toy_loss(data), rng);
    out.kind = Outcome::Kind::kCompleted;
    out.digest = fnv1a64(&stats.mean_loss, sizeof(stats.mean_loss));
    const std::uint64_t p0 = params_digest(trainer.model(0));
    out.digest = fnv1a64(&p0, sizeof(p0), out.digest);
    out.lock_step = true;
    for (int r = 1; r < cfg.world_size; ++r) {
      out.lock_step = out.lock_step && params_digest(trainer.model(r)) == p0;
    }
  } catch (const StageError& e) {
    out.kind = Outcome::Kind::kStageError;
    out.stage = e.stage();
    out.digest = fnv1a64(out.stage.data(), out.stage.size());
  } catch (const CommError& e) {
    out.kind = Outcome::Kind::kCommError;
    out.comm_kind = static_cast<int>(e.kind());
    out.digest = fnv1a64(&out.comm_kind, sizeof(out.comm_kind));
  }
  reg.reset();
  return out;
}

DdpConfig two_rank_config() {
  DdpConfig cfg;
  cfg.world_size = 2;
  cfg.per_worker_batch = 1;
  cfg.lr = 1e-3;
  return cfg;
}

class ChaosDdp : public ::testing::Test {
 protected:
  void SetUp() override { fault::Registry::instance().reset(); }
  void TearDown() override { fault::Registry::instance().reset(); }
};

// Schedule 1: rank 1 is a straggler (stalls every other step). A slow
// rank must not desynchronize anything: the epoch completes, replicas
// end bitwise lock-step, and the whole run replays bitwise.
TEST_F(ChaosDdp, StragglerRankKeepsLockStep) {
  const std::string fp = "dist.rank.straggler=thread(1)*every(2)*delay(5ms)";
  const Outcome a = run_ddp_scenario(fp, 1, two_rank_config());
  ASSERT_EQ(a.kind, Outcome::Kind::kCompleted);
  EXPECT_TRUE(a.lock_step);
  const Outcome b = run_ddp_scenario(fp, 1, two_rank_config());
  ASSERT_EQ(b.kind, Outcome::Kind::kCompleted);
  EXPECT_EQ(a.digest, b.digest) << "straggler run must replay bitwise";
}

// Schedule 2: rank 0's local gradient is poisoned with NaN before the
// all-reduce. The sum spreads the poison to every rank, so with
// check_finite_grads every rank throws the SAME typed StageError and
// all threads join — divergence is loud, never silent.
TEST_F(ChaosDdp, PoisonedGradientRaisesTypedStageError) {
  auto cfg = two_rank_config();
  cfg.check_finite_grads = true;
  const std::string fp = "dist.grad.corrupt=thread(0)*once*nan(4)";
  const Outcome a = run_ddp_scenario(fp, 7, cfg);
  ASSERT_EQ(a.kind, Outcome::Kind::kStageError);
  EXPECT_EQ(a.stage, "dist.grad.allreduce");
  const Outcome b = run_ddp_scenario(fp, 7, cfg);
  EXPECT_EQ(b.kind, Outcome::Kind::kStageError);
  EXPECT_EQ(a.digest, b.digest);
}

// Control for schedule 2: the SAME poison without the finite check
// completes "successfully" — this is exactly the silent divergence the
// check exists to forbid, kept here as the documented counterexample.
TEST_F(ChaosDdp, WithoutFiniteCheckPoisonIsSilent) {
  auto cfg = two_rank_config();
  cfg.check_finite_grads = false;
  const Outcome a =
      run_ddp_scenario("dist.grad.corrupt=thread(0)*once*nan(4)", 7, cfg);
  EXPECT_EQ(a.kind, Outcome::Kind::kCompleted);
}

// Schedule 3: a message from rank 0 is dropped on the wire. The guarded
// transport turns the resulting hole in the sequence into a typed
// CommError (timeout if nothing else arrives, out-of-order if a
// successor does) instead of wedging the collective forever.
TEST_F(ChaosDdp, DroppedMessageRaisesCommErrorNotHang) {
  auto cfg = two_rank_config();
  cfg.guard.enabled = true;
  cfg.guard.recv_timeout_s = 0.5;
  const std::string fp = "net.frame.drop=thread(0)*nth(2)";
  const Outcome a = run_ddp_scenario(fp, 3, cfg);
  ASSERT_EQ(a.kind, Outcome::Kind::kCommError);
  EXPECT_TRUE(a.comm_kind == static_cast<int>(CommError::Kind::kTimeout) ||
              a.comm_kind == static_cast<int>(CommError::Kind::kOutOfOrder))
      << "drop must surface as timeout or out-of-order, got kind "
      << a.comm_kind;
  const Outcome b = run_ddp_scenario(fp, 3, cfg);
  EXPECT_EQ(b.kind, Outcome::Kind::kCommError);
  EXPECT_EQ(a.comm_kind, b.comm_kind);
}

// Schedule 4: bit-flips on the wire AFTER the checksum was stamped —
// the receiver's FNV check catches it as kCorrupt, deterministically.
TEST_F(ChaosDdp, CorruptedPayloadDetectedByChecksum) {
  auto cfg = two_rank_config();
  cfg.guard.enabled = true;
  cfg.guard.recv_timeout_s = 0.5;
  const std::string fp = "net.frame.corrupt=thread(1)*once*corrupt(3)";
  const Outcome a = run_ddp_scenario(fp, 11, cfg);
  ASSERT_EQ(a.kind, Outcome::Kind::kCommError);
  EXPECT_EQ(a.comm_kind, static_cast<int>(CommError::Kind::kCorrupt));
  const Outcome b = run_ddp_scenario(fp, 11, cfg);
  EXPECT_EQ(b.kind, Outcome::Kind::kCommError);
  EXPECT_EQ(a.digest, b.digest);
}

// Schedule 5: a duplicated send — the receiver sees the same sequence
// number twice and reports kDuplicate instead of consuming a stale
// payload as fresh data. Rank 1's uplink is the one faulted: the
// trainer rethrows the first error in rank order, so the detector
// (rank 0) must outrank the collateral timeout on the faulty rank.
// The dup targets rank 1's FIRST collective send (the deterministic
// ring makes one send per step at world 2), so the stale frame is
// still in the queue when rank 0 reads step 2's traffic.
TEST_F(ChaosDdp, DuplicatedMessageDetectedBySequence) {
  auto cfg = two_rank_config();
  cfg.guard.enabled = true;
  cfg.guard.recv_timeout_s = 0.5;
  const std::string fp = "net.frame.dup=thread(1)*nth(1)";
  const Outcome a = run_ddp_scenario(fp, 13, cfg);
  ASSERT_EQ(a.kind, Outcome::Kind::kCommError);
  EXPECT_EQ(a.comm_kind, static_cast<int>(CommError::Kind::kDuplicate));
  const Outcome b = run_ddp_scenario(fp, 13, cfg);
  EXPECT_EQ(b.kind, Outcome::Kind::kCommError);
  EXPECT_EQ(a.digest, b.digest);
}

// The guard itself must not false-positive: enabled on a fault-free run
// (plus a straggler to stress the timeouts) everything checksums clean,
// the epoch completes, and replicas stay lock-step.
TEST_F(ChaosDdp, GuardIsCleanOnFaultFreeTraffic) {
  auto cfg = two_rank_config();
  cfg.guard.enabled = true;
  cfg.guard.recv_timeout_s = 2.0;
  const std::string fp = "dist.rank.straggler=thread(0)*nth(1)*delay(10ms)";
  const Outcome a = run_ddp_scenario(fp, 17, cfg);
  ASSERT_EQ(a.kind, Outcome::Kind::kCompleted);
  EXPECT_TRUE(a.lock_step);
}

}  // namespace
}  // namespace ccovid

namespace ccovid {
namespace {

// Tracing x DDP: failpoint fires surface as instants at their site, and
// the step phases (compute / allreduce / apply) appear as spans on
// per-rank lanes — each worker's ScopedCorrelation stamps rank+1 into
// its spans, so a two-rank run shows exactly lanes {1, 2}.
TEST_F(ChaosDdp, TraceRecordsFailpointFiresAndStepPhases) {
  trace::set_level(1);
  trace::clear();
  const std::string fp = "dist.rank.straggler=thread(1)*every(2)*delay(1ms)";
  const Outcome a = run_ddp_scenario(fp, 21, two_rank_config());
  const trace::Snapshot snap = trace::snapshot();
  trace::set_level(0);
  trace::clear();
  ASSERT_EQ(a.kind, Outcome::Kind::kCompleted);
  EXPECT_TRUE(a.lock_step);

  std::size_t fires = 0;
  std::set<std::uint64_t> compute_lanes, allreduce_lanes, apply_lanes;
  for (const auto& e : snap.events) {
    if (e.name == nullptr) continue;
    if (std::strcmp(e.name, "dist.rank.straggler") == 0) {
      EXPECT_EQ(e.kind, trace::Kind::kInstant);
      EXPECT_NE(e.id, 0u);  // per-fire seed
      ++fires;
    } else if (std::strcmp(e.name, "ddp.compute") == 0) {
      compute_lanes.insert(e.id);
    } else if (std::strcmp(e.name, "ddp.allreduce") == 0) {
      allreduce_lanes.insert(e.id);
    } else if (std::strcmp(e.name, "ddp.apply") == 0) {
      apply_lanes.insert(e.id);
    }
  }
  EXPECT_GT(fires, 0u) << "every(2) over 4 steps must fire on rank 1";
  const std::set<std::uint64_t> want{1, 2};
  EXPECT_EQ(compute_lanes, want);
  EXPECT_EQ(allreduce_lanes, want);
  EXPECT_EQ(apply_lanes, want);
}

}  // namespace
}  // namespace ccovid
