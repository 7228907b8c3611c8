// Zero-fresh-block steady-state suite: after warm-up, inference — from
// a single conv2d up to full ccovid_serve request handling — takes no
// fresh block from the system heap for tensor storage or arena chunks.
// fresh_system_allocs() (core/alloc_cache.h) counts exactly those pool
// misses; recycled pool hits are free to happen. The pool runs the same
// code under every sanitizer, so these tests run in the asan and tsan
// presets too, and under ASan a read of a freed tensor's block aborts.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <thread>
#include <vector>

#include "core/alloc_cache.h"
#include "core/arena.h"
#include "core/parallel.h"
#include "core/precision.h"
#include "core/random.h"
#include "core/tensor.h"
#include "data/phantom.h"
#include "graph/graph.h"
#include "nn/ddnet.h"
#include "nn/layers.h"
#include "serve/server.h"

namespace ccovid {
namespace {

// ------------------------------------------------------------- arena

TEST(Arena, ScopeRewindsAndChunksAreRetained) {
  ScratchArena& arena = this_thread_arena();
  {
    ArenaScope scope;
    real_t* a = scope.alloc_floats(1000);
    ASSERT_NE(a, nullptr);
    a[0] = 1.0f;
    a[999] = 2.0f;
  }
  const std::size_t cap_after_first = arena.capacity();
  EXPECT_GT(cap_after_first, 0u);
  for (int i = 0; i < 16; ++i) {
    ArenaScope scope;
    real_t* a = scope.alloc_floats(1000);
    double* d = scope.alloc_doubles(500);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(d, nullptr);
  }
  // Same-footprint scopes must reuse the warmed chunk, not grow.
  EXPECT_EQ(arena.capacity(), cap_after_first);
}

TEST(Arena, NestedScopesAreLifo) {
  ArenaScope outer;
  real_t* a = outer.alloc_floats(64);
  a[0] = 7.0f;
  {
    ArenaScope inner;
    real_t* b = inner.alloc_floats(64);
    b[0] = 9.0f;  // lives in the region above `a`
  }
  // After the inner scope rewound, the outer allocation is intact and
  // the next outer allocation reuses the rewound region.
  real_t* c = outer.alloc_floats(64);
  EXPECT_EQ(a[0], 7.0f);
  EXPECT_NE(a, c);
}

TEST(Arena, EmptyArenaReplacesChunksInsteadOfAppending) {
  // A fresh thread, so the arena starts empty.
  std::thread([] {
    ScratchArena& arena = this_thread_arena();
    const std::size_t big = std::size_t{1} << 20;
    { ArenaScope scope; scope.alloc(1024); }  // the initial chunk
    { ArenaScope scope; scope.alloc(big); }   // outgrows it while empty
    EXPECT_EQ(arena.capacity(), big);
    {
      ArenaScope scope;
      scope.alloc(big / 2);
      scope.alloc(big);  // live scratch below: must append
    }
    const std::size_t grown = arena.capacity();
    EXPECT_GT(grown, big);
    { ArenaScope scope; scope.alloc(big); }  // fits: nothing changes
    EXPECT_EQ(arena.capacity(), grown);
  }).join();
}

TEST(Arena, FootprintAfterEnhanceAndSegmentIsTheLargerPlan) {
  // fp32 graphs take no scratch beyond their slab block.
  const core::PrecisionGuard fp32(core::Precision::kF32);
  nn::seed_init_rng(3);
  pipeline::EnhancementAI enh(nn::DDnetConfig::tiny());
  pipeline::SegmentationAI seg;
  enh.network().set_training(false);
  seg.network().set_training(false);
  const index_t px = 64;
  Tensor vol({2, px, px});
  Rng rng(7);
  rng.fill_uniform(vol, 0.0, 1.0);

  // A plan's arena block: its slabs, each padded to a cache line.
  const auto block_bytes = [](const graph::CompiledGraph& cg) {
    return std::size_t(cg.stats().slab_floats) * sizeof(real_t) +
           std::size_t(cg.stats().slabs) * 64;
  };
  const std::size_t ddnet =
      block_bytes(graph::compile(enh.network().build_graph(1, px, px)));
  const std::size_t ahnet =
      block_bytes(graph::compile(seg.network().build_graph(1, px, px)));

  std::size_t capacity = 0;
  std::thread([&] {  // a fresh thread: its arena starts empty
    ParallelPin pin(1);
    for (int i = 0; i < 2; ++i) seg.segment(enh.enhance_volume(vol));
    capacity = this_thread_arena().capacity();
  }).join();
  EXPECT_GT(capacity, 0u);
  EXPECT_LE(capacity, std::max(ddnet, ahnet))
      << "DDnet block " << ddnet << " B, AH-Net block " << ahnet << " B";
}

TEST(Arena, AlignmentIs64Bytes) {
  ArenaScope scope;
  for (int i = 0; i < 8; ++i) {
    void* p = scope.alloc(40);  // deliberately not a multiple of 64
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  }
}

// ------------------------------------------------------- block pools

TEST(AllocCache, TensorStorageIsRecycled) {
  const real_t* first;
  {
    Tensor t({64, 64});
    t.at(0, 0) = 5.0f;
    first = t.data();
  }
  Tensor again({64, 64});
  // Exact-size pool: the freed block comes straight back...
  EXPECT_EQ(again.data(), first);
  // ...and the constructor's zero-init contract still holds.
  EXPECT_EQ(again.at(0, 0), 0.0f);
  EXPECT_EQ(again.abs_max(), 0.0f);
}

#if defined(__SANITIZE_ADDRESS__)
#define CCOVID_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CCOVID_TEST_ASAN 1
#endif
#endif

#ifdef CCOVID_TEST_ASAN
TEST(AllocCacheDeathTest, ReadingAFreedTensorBlockAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const volatile real_t* stale = nullptr;
  {
    Tensor t({64, 64});
    stale = t.data();
  }
  // The pool parks the block with its payload poisoned past the first
  // word (the freelist link); a capped bucket frees it instead. Either
  // way ASan reports the read.
  EXPECT_DEATH(
      { [[maybe_unused]] const real_t v = stale[16]; },
      "use-after-poison|heap-use-after-free");
}
#endif

// ------------------------------------------- steady-state: kernels

// Runs `iters` iterations of `body` after `warmup` warm-up iterations
// and returns how many fresh system allocations the measured window
// performed.
template <typename Body>
std::uint64_t fresh_allocs_steady_state(int warmup, int iters,
                                        Body&& body) {
  for (int i = 0; i < warmup; ++i) body();
  const std::uint64_t before = fresh_system_allocs();
  for (int i = 0; i < iters; ++i) body();
  return fresh_system_allocs() - before;
}

TEST(AllocCache, DdnetEnhanceSteadyStateIsAllocationFree) {
  ParallelPin pin(1);
  nn::seed_init_rng(3);
  nn::DDnet net(nn::DDnetConfig::tiny());
  net.set_training(false);
  Tensor x({16, 16});
  Rng rng(5);
  rng.fill_uniform(x, 0.0, 1.0);
  const std::uint64_t fresh =
      fresh_allocs_steady_state(3, 8, [&] { Tensor y = net.enhance(x); });
  EXPECT_EQ(fresh, 0u) << "DDnet forward allocated from the system heap "
                          "in steady state";
}

TEST(AllocCache, SegmentVolumeSteadyStateIsAllocationFree) {
  ParallelPin pin(1);
  nn::seed_init_rng(3);
  pipeline::SegmentationAI seg;
  seg.network().set_training(false);
  Tensor vol({3, 16, 16});
  Rng rng(5);
  rng.fill_uniform(vol, 0.0, 1.0);
  const std::uint64_t fresh = fresh_allocs_steady_state(
      3, 8, [&] { Tensor mask = seg.segment(vol); });
  EXPECT_EQ(fresh, 0u) << "segment_volume allocated from the system "
                          "heap in steady state";
}

// --------------------------------------------- steady-state: serving

TEST(AllocCache, ServeRequestHandlingSteadyStateIsAllocationFree) {
  nn::seed_init_rng(3);
  auto enh =
      std::make_shared<pipeline::EnhancementAI>(nn::DDnetConfig::tiny());
  auto seg = std::make_shared<pipeline::SegmentationAI>();
  auto cls = std::make_shared<pipeline::ClassificationAI>();
  enh->network().set_training(false);
  seg->network().set_training(false);
  cls->network().set_training(false);
  auto pipe = std::make_shared<const pipeline::ComputeCovid19Pipeline>(
      enh, seg, cls);

  Rng rng(11);
  const data::PhantomVolume vol = data::make_volume(2, 8, true, rng);

  // One worker with serial kernels: every measured allocation happens on
  // the same two long-lived threads (batcher + worker), whose arenas and
  // pools the warm-up below fills. max_batch 1 keeps the micro-batch
  // shape (and so every container size on the hot path) independent of
  // scheduling timing — with larger batches, a batch composition the
  // warm-up never produced would show up as a fresh allocation.
  serve::ServerOptions opt;
  opt.workers = 1;
  opt.inner_threads = 1;
  opt.max_batch = 1;
  serve::InferenceServer server(pipe, opt);

  // Closed loop with one request in flight: a burst would let the
  // admission queue's depth (and with it deque block allocations) vary
  // with scheduling timing, so a loaded machine could grow it past
  // anything the warm-up ever saw.
  const auto drive = [&](int n) {
    for (int i = 0; i < n; ++i) {
      if (server.submit(vol.hu).get().status != serve::RequestStatus::kOk) {
        return false;
      }
    }
    return true;
  };

  ASSERT_TRUE(drive(8));  // warm-up: arenas, pools, queue nodes
  ASSERT_TRUE(drive(8));
  const std::uint64_t before = fresh_system_allocs();
  ASSERT_TRUE(drive(8));
  const std::uint64_t fresh = fresh_system_allocs() - before;
  server.shutdown();
  EXPECT_EQ(fresh, 0u)
      << "steady-state request handling reached the system heap";
}

}  // namespace
}  // namespace ccovid
