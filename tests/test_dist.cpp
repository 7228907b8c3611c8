// Message-passing runtime and distributed data-parallel trainer: the
// byte Channel under the in-process transport, World point-to-point
// and broadcast, the deterministic allreduce family across world sizes,
// payload lengths and algorithms, DDP replica consistency and its
// equivalence to large-batch single-worker training.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <tuple>

#include "autograd/losses.h"
#include "core/random.h"
#include "dist/collective.h"
#include "dist/comm.h"
#include "dist/ddp.h"
#include "dist/interconnect.h"
#include "net/channel.h"
#include "nn/ddnet.h"

namespace ccovid::dist {
namespace {

TEST(Channel, FifoOrder) {
  net::Channel ch;
  ch.send({1});
  ch.send({2, 3});
  EXPECT_EQ(*ch.recv_for(5.0), net::Bytes{1});
  EXPECT_EQ(*ch.recv_for(5.0), (net::Bytes{2, 3}));
}

TEST(Channel, BlocksUntilMessage) {
  net::Channel ch;
  std::thread producer([&] { ch.send({42}); });
  const std::optional<net::Bytes> m = ch.recv_for(60.0);
  producer.join();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, net::Bytes{42});
}

TEST(World, PointToPoint) {
  World w(2);
  w.send(0, 1, {3.5f, 4.5f});
  const Message m = w.recv(1, 0);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_FLOAT_EQ(m[1], 4.5f);
}

TEST(World, GuardedRecvTimesOutTyped) {
  World w(2);
  GuardOptions g;
  g.enabled = true;
  g.recv_timeout_s = 0.05;
  w.set_guard(g);
  try {
    (void)w.recv(1, 0);
    FAIL() << "recv with no sender must time out";
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), CommError::Kind::kTimeout);
    EXPECT_EQ(e.at(), 1);
    EXPECT_EQ(e.from(), 0);
  }
}

struct AllReduceCase {
  int world;
  index_t length;
};

using SweepParam = std::tuple<AllReduceCase, Collective>;

class AllReduceSweep : public ::testing::TestWithParam<SweepParam> {};

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& [c, alg] = info.param;
  std::string name = "w" + std::to_string(c.world) + "_len" +
                     std::to_string(c.length) + "_" + collective_name(alg);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

TEST_P(AllReduceSweep, MatchesRankOrderFoldBitwise) {
  const auto [c, alg] = GetParam();
  const std::size_t len = static_cast<std::size_t>(c.length);
  // Values spread over 2^-8..2^8 so that a different summation order
  // would round differently.
  Rng rng(static_cast<std::uint64_t>(1000 * c.world + c.length));
  std::vector<std::vector<real_t>> buffers(c.world);
  for (auto& b : buffers) {
    b.resize(len);
    for (real_t& v : b) {
      v = static_cast<real_t>(
          rng.gaussian(0, 1) *
          std::ldexp(1.0, static_cast<int>(rng.uniform_int(-8, 8))));
    }
  }
  // The canonical fold ((c0 + c1) + c2) + ... every algorithm reproduces.
  std::vector<real_t> expected = buffers[0];
  for (int r = 1; r < c.world; ++r) {
    for (std::size_t i = 0; i < len; ++i) expected[i] += buffers[r][i];
  }
  World w(c.world);
  std::vector<std::thread> threads;
  for (int r = 0; r < c.world; ++r) {
    threads.emplace_back(
        [&w, &buffers, r, alg = alg] { all_reduce(w, r, buffers[r], alg); });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < c.world; ++r) {
    ASSERT_EQ(buffers[r].size(), len);
    EXPECT_EQ(std::memcmp(buffers[r].data(), expected.data(),
                          len * sizeof(real_t)),
              0)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, AllReduceSweep,
    ::testing::Combine(
        ::testing::Values(AllReduceCase{1, 16}, AllReduceCase{2, 10},
                          AllReduceCase{3, 7},  // length not divisible
                          AllReduceCase{4, 64}, AllReduceCase{8, 33},
                          AllReduceCase{5, 4},  // length < world
                          AllReduceCase{2, 1}),
        ::testing::Values(Collective::kRing, Collective::kTree,
                          Collective::kBcastHalving)),
    sweep_name);

TEST(World, BroadcastFromEveryRoot) {
  for (int root = 0; root < 3; ++root) {
    World w(3);
    std::vector<std::vector<real_t>> bufs(3, std::vector<real_t>(5, 0.0f));
    for (std::size_t i = 0; i < 5; ++i) {
      bufs[static_cast<std::size_t>(root)][i] =
          static_cast<real_t>(10 * root + static_cast<int>(i));
    }
    std::vector<std::thread> threads;
    for (int r = 0; r < 3; ++r) {
      threads.emplace_back(
          [&w, &bufs, r, root] { w.broadcast(r, root, bufs[r]); });
    }
    for (auto& t : threads) t.join();
    for (int r = 0; r < 3; ++r) {
      for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_FLOAT_EQ(bufs[r][i],
                        static_cast<real_t>(10 * root + static_cast<int>(i)));
      }
    }
  }
}

TEST(World, BroadcastSingleRankNoop) {
  World w(1);
  std::vector<real_t> buf = {1.0f, 2.0f};
  w.broadcast(0, 0, buf);
  EXPECT_FLOAT_EQ(buf[1], 2.0f);
}

// ---------------------------------------------------------- interconnect
TEST(Interconnect, SingleNodeIsFree) {
  InterconnectModel net;
  EXPECT_DOUBLE_EQ(net.allreduce_seconds(1 << 20, 1), 0.0);
}

TEST(Interconnect, CostGrowsWithWorldAndBytes) {
  InterconnectModel net;
  const double t4 = net.allreduce_seconds(1 << 20, 4);
  const double t8 = net.allreduce_seconds(1 << 20, 8);
  EXPECT_GT(t8, t4);
  EXPECT_GT(net.allreduce_seconds(1 << 22, 4), t4);
}

TEST(Interconnect, BandwidthTermDominatesLargeMessages) {
  InterconnectModel net;
  // 100 MB over 10 GbE: ~2*(N-1)/N * 0.08 s — latency negligible.
  const double t = net.allreduce_seconds(100'000'000, 4);
  const double bw_only = 2.0 * 3 * (100'000'000.0 / 4) / net.bandwidth_Bps;
  EXPECT_NEAR(t, bw_only, 0.01 * bw_only + 6 * net.latency_s);
}

// ------------------------------------------------------------------ DDP
std::shared_ptr<nn::Module> tiny_ddnet_factory() {
  // NOTE: callers seed nn::seed_init_rng first for determinism.
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

TEST(Ddp, ReplicasStayInLockStep) {
  nn::seed_init_rng(100);
  DdpConfig cfg;
  cfg.world_size = 2;
  cfg.per_worker_batch = 1;
  cfg.lr = 1e-3;
  DdpTrainer trainer(tiny_ddnet_factory, cfg);
  const ToyData data = make_toy_data(4, 16, 101);
  Rng rng(102);
  trainer.train_epoch(4, toy_loss(data), rng);
  // After synchronized updates, replica parameters must be identical.
  const auto p0 = trainer.model(0).parameters();
  const auto p1 = trainer.model(1).parameters();
  ASSERT_EQ(p0.size(), p1.size());
  for (std::size_t i = 0; i < p0.size(); ++i) {
    EXPECT_LT(max_abs_diff(p0[i].value(), p1[i].value()), 1e-5f);
  }
}

TEST(Ddp, LossDecreasesOverEpochs) {
  nn::seed_init_rng(103);
  DdpConfig cfg;
  cfg.world_size = 2;
  cfg.per_worker_batch = 1;
  cfg.lr = 2e-3;
  DdpTrainer trainer(tiny_ddnet_factory, cfg);
  const ToyData data = make_toy_data(4, 16, 104);
  Rng rng(105);
  const EpochStats first = trainer.train_epoch(4, toy_loss(data), rng);
  EpochStats last{};
  for (int e = 0; e < 4; ++e) {
    last = trainer.train_epoch(4, toy_loss(data), rng);
  }
  EXPECT_LT(last.mean_loss, first.mean_loss);
}

TEST(Ddp, MatchesSingleWorkerLargeBatch) {
  // 2 workers x batch 1 with averaged gradients == 1 worker x batch 2:
  // the defining semantics of synchronous data parallelism.
  const ToyData data = make_toy_data(4, 16, 106);
  Rng rng_a(1), rng_b(1);

  nn::seed_init_rng(107);
  DdpConfig multi;
  multi.world_size = 2;
  multi.per_worker_batch = 1;
  multi.lr = 1e-3;
  DdpTrainer t_multi(tiny_ddnet_factory, multi);

  nn::seed_init_rng(107);  // identical initial weights
  DdpConfig single;
  single.world_size = 1;
  single.per_worker_batch = 2;
  single.lr = 1e-3;
  DdpTrainer t_single(tiny_ddnet_factory, single);

  t_multi.train_epoch(4, toy_loss(data), rng_a);
  t_single.train_epoch(4, toy_loss(data), rng_b);

  const auto pm = t_multi.model(0).parameters();
  const auto ps = t_single.model(0).parameters();
  ASSERT_EQ(pm.size(), ps.size());
  for (std::size_t i = 0; i < pm.size(); ++i) {
    EXPECT_LT(max_abs_diff(pm[i].value(), ps[i].value()), 5e-4f)
        << "parameter " << i;
  }
}

TEST(Ddp, ModeledTimeIncludesCommunication) {
  nn::seed_init_rng(108);
  DdpConfig cfg;
  cfg.world_size = 4;
  cfg.per_worker_batch = 1;
  DdpTrainer trainer(tiny_ddnet_factory, cfg);
  const ToyData data = make_toy_data(4, 16, 109);
  Rng rng(110);
  const EpochStats stats = trainer.train_epoch(4, toy_loss(data), rng);
  EXPECT_GT(stats.modeled_seconds, 0.0);
  EXPECT_GT(stats.allreduce_bytes_per_rank, 0u);
  EXPECT_EQ(stats.steps, 1);  // 4 samples / (4 ranks * batch 1)
}

TEST(Ddp, LrDecayAppliesToAllReplicas) {
  nn::seed_init_rng(111);
  DdpConfig cfg;
  cfg.world_size = 2;
  cfg.lr = 1e-4;
  cfg.lr_decay = 0.8;  // the paper's schedule
  DdpTrainer trainer(tiny_ddnet_factory, cfg);
  trainer.decay_lr();
  trainer.decay_lr();
  // No direct accessor for optimizer lr per rank; train one epoch to
  // ensure the machinery still works after decay.
  const ToyData data = make_toy_data(2, 16, 112);
  Rng rng(113);
  EXPECT_NO_THROW(trainer.train_epoch(2, toy_loss(data), rng));
}

TEST(Ddp, RejectsDatasetSmallerThanGlobalBatch) {
  nn::seed_init_rng(114);
  DdpConfig cfg;
  cfg.world_size = 4;
  cfg.per_worker_batch = 2;
  DdpTrainer trainer(tiny_ddnet_factory, cfg);
  const ToyData data = make_toy_data(4, 16, 115);
  Rng rng(116);
  EXPECT_THROW(trainer.train_epoch(4, toy_loss(data), rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace ccovid::dist
