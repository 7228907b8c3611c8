// Overlap chaos suite: faults injected WHILE bucketed allreduce overlaps
// the still-running async backward pass (dist/ddp.cpp overlap mode).
// The invariant under fire is the same as for plain DDP — every rank
// surfaces the SAME typed error (StageError for poisoned gradients), no
// collective hangs, and the optimizer never half-applies a step — plus
// one more: the overlapped schedule must be observationally equivalent
// to the sequential reduce-after-backward schedule. Completed runs end
// on identical bits, faulted runs end in identical outcomes, and the
// step-level fault schedule fires identically in both modes at the same
// registry seed.
//
// Parity is asserted through STEP-level failpoints (dist.rank.straggler,
// dist.grad.corrupt) only: transport-level schedules like
// net.frame.drop=nth(K) count individual frames, and the overlapped mode
// legitimately makes a different number of sends per step (one per
// bucket), so wire-indexed specs address different frames per mode by
// design.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "autograd/losses.h"
#include "core/digest.h"
#include "core/finite.h"
#include "core/parallel.h"
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
    return autograd::mul_scalar(total,
                                1.0f / static_cast<real_t>(samples.size()));
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
  std::string stage;                    ///< StageError::stage()
  int comm_kind = -1;                   ///< static_cast<int>(CommError::Kind)
  std::uint64_t digest = kFnv1aOffset;  ///< loss bits + per-rank params
  bool lock_step = false;               ///< rank params bitwise identical
  /// fires() of the STEP-level failpoints, in fixed name order — the
  /// fault-schedule digest compared between overlap modes.
  std::uint64_t fault_digest = kFnv1aOffset;
  /// Per-rank post-run parameter digests (no-half-step assertions).
  std::vector<std::uint64_t> rank_params;
};

/// One full scenario: fresh registry seed, fresh identically-seeded
/// model replicas, clean broadcast, THEN the fault schedule, one epoch.
/// Never hangs: every fault path either completes or throws.
/// Pins the process-global lane count for the scenario: rank threads
/// resolve their backward width from it (a per-thread ParallelPin never
/// reaches them), and on a single-core runner the default of 1 would
/// quietly turn every "overlapped" scenario into an inline drain.
class GlobalWidth {
 public:
  explicit GlobalWidth(int n) : prev_(num_threads()) { set_num_threads(n); }
  ~GlobalWidth() { set_num_threads(prev_); }

 private:
  int prev_;
};

Outcome run_overlap_scenario(const std::string& failpoints,
                             std::uint64_t seed, DdpConfig cfg) {
  GlobalWidth width(4);
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
  } catch (const StageError& e) {
    out.kind = Outcome::Kind::kStageError;
    out.stage = e.stage();
    out.digest = fnv1a64(out.stage.data(), out.stage.size());
  } catch (const CommError& e) {
    out.kind = Outcome::Kind::kCommError;
    out.comm_kind = static_cast<int>(e.kind());
    out.digest = fnv1a64(&out.comm_kind, sizeof(out.comm_kind));
  }
  for (int r = 0; r < cfg.world_size; ++r) {
    out.rank_params.push_back(params_digest(trainer.model(r)));
    out.digest = fnv1a64(&out.rank_params.back(),
                         sizeof(out.rank_params.back()), out.digest);
  }
  out.lock_step = true;
  for (int r = 1; r < cfg.world_size; ++r) {
    out.lock_step = out.lock_step && out.rank_params[static_cast<std::size_t>(
                                         r)] == out.rank_params[0];
  }
  for (const char* name : {"dist.rank.straggler", "dist.grad.corrupt"}) {
    const std::uint64_t fires = reg.handle(name).fires();
    out.fault_digest = fnv1a64(name, std::strlen(name), out.fault_digest);
    out.fault_digest = fnv1a64(&fires, sizeof(fires), out.fault_digest);
  }
  reg.reset();
  return out;
}

DdpConfig overlap_config(bool overlap) {
  DdpConfig cfg;
  cfg.world_size = 2;
  cfg.per_worker_batch = 1;
  cfg.lr = 1e-3;
  cfg.overlap = overlap;
  // Small bucket budget => several buckets in flight per step, so a
  // mid-step fault genuinely lands between bucket reductions.
  cfg.bucket_bytes = 4096;
  return cfg;
}

class ChaosOverlap : public ::testing::Test {
 protected:
  void SetUp() override { fault::Registry::instance().reset(); }
  void TearDown() override { fault::Registry::instance().reset(); }
};

// Schedule 1: rank 1 straggles mid-epoch while rank 0's buckets are
// already on the wire. Both modes must complete lock-step, land on the
// SAME bits as each other, and replay bitwise.
TEST_F(ChaosOverlap, StragglerKeepsModesBitwiseEquivalent) {
  const std::string fp = "dist.rank.straggler=thread(1)*every(2)*delay(5ms)";
  const Outcome ov = run_overlap_scenario(fp, 21, overlap_config(true));
  ASSERT_EQ(ov.kind, Outcome::Kind::kCompleted);
  EXPECT_TRUE(ov.lock_step);
  const Outcome seq = run_overlap_scenario(fp, 21, overlap_config(false));
  ASSERT_EQ(seq.kind, Outcome::Kind::kCompleted);
  EXPECT_TRUE(seq.lock_step);
  EXPECT_EQ(ov.digest, seq.digest)
      << "overlapped and sequential gradient sync diverged under a "
         "straggler";
  const Outcome replay = run_overlap_scenario(fp, 21, overlap_config(true));
  EXPECT_EQ(ov.digest, replay.digest) << "overlapped run must replay bitwise";
}

// Schedule 2: a NaN-poisoned gradient reaches the bucketed allreduce
// mid-overlap. The sum spreads the poison, so with check_finite_grads
// EVERY rank throws the SAME typed StageError at the same bucket — no
// hang, no rank left waiting on a collective the other rank abandoned.
TEST_F(ChaosOverlap, PoisonedBucketRaisesSameTypedErrorInBothModes) {
  auto mk = [](bool overlap) {
    auto cfg = overlap_config(overlap);
    cfg.check_finite_grads = true;
    return cfg;
  };
  const std::string fp = "dist.grad.corrupt=thread(0)*once*nan(4)";
  const Outcome ov = run_overlap_scenario(fp, 23, mk(true));
  ASSERT_EQ(ov.kind, Outcome::Kind::kStageError);
  EXPECT_EQ(ov.stage, "dist.grad.allreduce");
  const Outcome seq = run_overlap_scenario(fp, 23, mk(false));
  ASSERT_EQ(seq.kind, Outcome::Kind::kStageError);
  EXPECT_EQ(seq.stage, ov.stage)
      << "modes must surface the fault as the same typed stage";
  const Outcome replay = run_overlap_scenario(fp, 23, mk(true));
  EXPECT_EQ(replay.kind, Outcome::Kind::kStageError);
  EXPECT_EQ(replay.digest, ov.digest);
}

// A fault that aborts the step mid-overlap must leave NO trace of that
// step in the weights: some buckets were already allreduced when the
// poison surfaced, but the optimizer gates on ALL buckets + backward
// completion, so every rank still holds the weights of the last clean
// step — here the initial broadcast state, bitwise.
TEST_F(ChaosOverlap, FaultedStepIsNeverHalfApplied) {
  auto cfg = overlap_config(true);
  cfg.check_finite_grads = true;
  // Poison the FIRST step: the pre-step weights are then exactly the
  // fresh broadcast state, which a clean trainer reproduces.
  const std::string fp = "dist.grad.corrupt=thread(0)*nth(1)*nan(4)";
  const Outcome faulted = run_overlap_scenario(fp, 29, cfg);
  ASSERT_EQ(faulted.kind, Outcome::Kind::kStageError);
  EXPECT_TRUE(faulted.lock_step)
      << "a half-applied step would desynchronize the replicas";

  fault::Registry::instance().reset();
  nn::seed_init_rng(100);
  DdpTrainer pristine(tiny_ddnet_factory, cfg);
  for (int r = 0; r < cfg.world_size; ++r) {
    EXPECT_EQ(faulted.rank_params[static_cast<std::size_t>(r)],
              params_digest(pristine.model(r)))
        << "rank " << r
        << " weights moved despite the step never completing";
  }
}

// The step-level fault schedule itself must be mode-invariant: at the
// same registry seed, the straggler and corrupt failpoints fire the
// same number of times whether gradient sync overlaps backward or runs
// after it (both modes evaluate them once per step, on the rank
// thread). Run WITHOUT the finite check so the corrupt path completes
// and the full schedule plays out in both modes.
TEST_F(ChaosOverlap, FaultTraceDigestIsEqualAcrossModes) {
  const std::string fp =
      "dist.rank.straggler=thread(1)*every(2)*delay(1ms);"
      "dist.grad.corrupt=thread(0)*every(2)*corrupt(2)";
  const Outcome ov = run_overlap_scenario(fp, 31, overlap_config(true));
  const Outcome seq = run_overlap_scenario(fp, 31, overlap_config(false));
  ASSERT_EQ(ov.kind, Outcome::Kind::kCompleted);
  ASSERT_EQ(seq.kind, Outcome::Kind::kCompleted);
  EXPECT_EQ(ov.fault_digest, seq.fault_digest)
      << "step-level failpoints fired differently between overlap modes";
  // The corrupted BITS differ between modes by design — corrupt_bytes
  // picks offsets from the target buffer, and overlap poisons bucket
  // 0's segment where sequential poisons the whole flat gradient. What
  // must hold in both: the corruption still reaches every rank through
  // the sum, keeping the replicas lock-step rather than silently split.
  EXPECT_TRUE(ov.lock_step);
  EXPECT_TRUE(seq.lock_step);
  const Outcome replay = run_overlap_scenario(fp, 31, overlap_config(true));
  EXPECT_EQ(ov.digest, replay.digest)
      << "the corrupted run itself must replay bitwise";
}

// Trace evidence under fire: with level-2 tracing on, an overlapped
// epoch with a straggler armed records the step phases — ddp.compute
// and ddp.apply on every rank lane, plus one ddp.allreduce.bucket span
// per bucket per step nested under ddp.allreduce. The bucket count
// pins that gradient sync really ran bucket-wise (the sequential mode
// reduces once and records no bucket spans).
TEST_F(ChaosOverlap, TraceRecordsBucketedAllreducePhases) {
  auto cfg = overlap_config(true);
  trace::clear();
  trace::set_level(2);
  const Outcome ov = run_overlap_scenario(
      "dist.rank.straggler=thread(1)*once*delay(2ms)", 37, cfg);
  trace::set_level(0);
  ASSERT_EQ(ov.kind, Outcome::Kind::kCompleted);

  nn::seed_init_rng(100);
  DdpTrainer probe(tiny_ddnet_factory, cfg);
  const std::size_t n_buckets = probe.buckets().size();
  ASSERT_GT(n_buckets, 1u) << "bucket budget must split the tiny model";

  const trace::Snapshot snap = trace::snapshot();
  std::size_t compute = 0, apply = 0, bucket_spans = 0, engine_nodes = 0;
  std::set<std::uint64_t> lanes;  // correlation ids of the rank threads
  for (const trace::Event& e : snap.events) {
    const std::string name = e.name ? e.name : "";
    if (name == "ddp.compute") {
      ++compute;
      lanes.insert(e.id);
    } else if (name == "ddp.apply") {
      ++apply;
    } else if (name == "ddp.allreduce.bucket") {
      ++bucket_spans;
    } else if (name == "autograd.node") {
      ++engine_nodes;
    }
  }
  // 4 samples, world 2, batch 1 => 2 steps per rank.
  const std::size_t steps_per_rank = 2, world = 2;
  EXPECT_EQ(compute, steps_per_rank * world);
  EXPECT_EQ(apply, steps_per_rank * world);
  EXPECT_EQ(bucket_spans, n_buckets * steps_per_rank * world)
      << "every bucket's allreduce must be its own traced span";
  EXPECT_GT(engine_nodes, 0u)
      << "level-2 tracing must record the async engine's node spans";
  EXPECT_EQ(lanes, (std::set<std::uint64_t>{1, 2}))
      << "each rank's step phases must land on its own correlation lane";
  trace::clear();
}

}  // namespace
}  // namespace ccovid
