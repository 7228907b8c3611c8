// Async-backward engine suite (`ctest -L fast`): a randomized
// backward-graph fuzzer pins the engine's one contract — gradients
// bitwise-equal to the sequential reverse-topological walk — across
// task-engine widths 1/2/8 and SIMD backends scalar/sse2/avx2, over
// seeded DAGs with shared subexpressions, duplicate-operand edges,
// fan-in/fan-out chains, non-differentiable constants recorded as
// parents, and dead branches never reaching the root. Mechanics
// (mode guard, finalize hooks, pre-defined leaf grads, zero steady-state
// allocations) are covered alongside.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "autograd/engine.h"
#include "autograd/functions.h"
#include "core/alloc_cache.h"
#include "core/parallel.h"
#include "core/random.h"
#include "core/simd.h"

namespace ccovid::autograd {
namespace {

constexpr index_t kRows = 4, kCols = 5;

Tensor random_tensor(Rng& rng, double stddev = 0.5) {
  Tensor t({kRows, kCols});
  rng.fill_gaussian(t, 0.0, stddev);
  return t;
}

/// Builds one seeded random DAG over `n_leaves` gradient leaves plus a
/// couple of constant (requires_grad=false) leaves, and returns the
/// scalar root. The same seed rebuilds the identical graph — closures
/// are single-use, so every run gets a fresh tape.
Var build_random_graph(std::uint64_t seed, std::vector<Var>& leaves) {
  Rng rng(seed);
  leaves.clear();
  const int n_leaves = 3 + static_cast<int>(rng.uniform_int(0, 2));
  std::vector<Var> pool;
  for (int i = 0; i < n_leaves; ++i) {
    leaves.emplace_back(random_tensor(rng), /*requires_grad=*/true);
    pool.push_back(leaves.back());
  }
  // Constants: recorded as parents (make_node keeps every defined
  // parent once any operand requires grad) but never receive a
  // gradient — the engine must finalize them without a contribution.
  for (int i = 0; i < 2; ++i) pool.emplace_back(random_tensor(rng), false);

  const int n_ops = 12 + static_cast<int>(rng.uniform_int(0, 15));
  for (int i = 0; i < n_ops; ++i) {
    const auto pick = [&] {
      return pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<index_t>(pool.size()) - 1))];
    };
    Var a = pick();
    Var node;
    switch (rng.uniform_int(0, 7)) {
      case 0:
        node = add(a, pick());
        break;
      case 1:
        node = sub(a, pick());
        break;
      case 2:
        node = mul(a, pick());
        break;
      case 3:
        // Duplicate-operand edge: one closure accumulates twice into
        // the same parent (two intra-closure tags).
        node = mul(a, a);
        break;
      case 4:
        node = sigmoid(a);
        break;
      case 5:
        node = clamp_min(a, -0.25f);
        break;
      case 6:
        node = mul_scalar(add_scalar(a, 0.125f), 0.75f);
        break;
      default:
        // Fan-out through a reshape chain, back to the pool shape.
        node = reshape(reshape(a, Shape{kRows * kCols}),
                       Shape{kRows, kCols});
        break;
    }
    pool.push_back(node);
    // Dead branch: a consumer that never reaches the root. It shares
    // parents with live nodes but is dropped here — the DFS from the
    // root must never see it and its parents' dependency counts must
    // not include it.
    if (rng.uniform_int(0, 3) == 0) {
      Var dead = sigmoid(node);
      (void)dead;
    }
  }
  // Root: fold the newest few nodes so late fan-in exists, then reduce
  // to a scalar.
  Var total = pool.back();
  for (int i = 2; i <= 4 && static_cast<int>(pool.size()) - i >= 0; ++i) {
    total = add(total, pool[pool.size() - static_cast<std::size_t>(i)]);
  }
  return mean(mul(total, total));
}

/// Runs backward over the seed's graph in the given mode and returns
/// every leaf gradient (cloned; undefined grads stay undefined).
std::vector<Tensor> run_backward(std::uint64_t seed, BackwardMode mode) {
  BackwardModeGuard guard(mode);
  std::vector<Var> leaves;
  Var root = build_random_graph(seed, leaves);
  root.backward();
  std::vector<Tensor> grads;
  for (Var& l : leaves) {
    grads.push_back(l.has_grad() ? l.grad().clone() : Tensor());
  }
  return grads;
}

void expect_bitwise_equal(const std::vector<Tensor>& ref,
                          const std::vector<Tensor>& got,
                          const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i].defined(), got[i].defined()) << what << " leaf " << i;
    if (!ref[i].defined()) continue;
    ASSERT_EQ(ref[i].numel(), got[i].numel()) << what << " leaf " << i;
    EXPECT_EQ(std::memcmp(ref[i].data(), got[i].data(),
                          static_cast<std::size_t>(ref[i].numel()) *
                              sizeof(real_t)),
              0)
        << what << ": leaf " << i << " gradient bits diverged";
  }
}

// Steady state must take no fresh pool block: after warm-up, building
// and draining the same-shaped graph recycles every tensor (values,
// gradients, staged clones) through the block pool. Declared FIRST: the
// fuzzer's sweep of graph sizes would otherwise saturate the pool's
// fixed-cap exact-size bins and manufacture churn this test isn't
// about (test_alloc measures the same way — in a clean process).
TEST(AutogradEngine, SteadyStateMakesNoFreshSystemAllocs) {
  ParallelPin pin(8);
  BackwardModeGuard guard(BackwardMode::kAsync);
  // A compact fixed graph, not a fuzzer draw: the contract under test is
  // that the ENGINE recycles (values, gradients, staged clones), so the
  // per-iteration tensor population must stay comfortably inside the
  // pool's fixed per-bin caps — a graph-size stress of those caps
  // belongs to test_alloc, not here.
  auto iterate = [] {
    Rng rng(9);
    std::vector<Var> leaves;
    for (int i = 0; i < 4; ++i) {
      leaves.emplace_back(random_tensor(rng), /*requires_grad=*/true);
    }
    Var total = leaves[0];
    for (int i = 1; i < 4; ++i) {
      total = add(mul(total, leaves[static_cast<std::size_t>(i)]),
                  leaves[static_cast<std::size_t>(i)]);
    }
    Var shared = sigmoid(total);
    Var root = mean(add(mul(shared, shared), total));
    root.backward();
  };
  // Concurrent staging means the peak number of simultaneously-live
  // blocks per size class depends on scheduling, so a late iteration can
  // legitimately grow the pools once more. Warm until a whole window of
  // iterations runs clean; only a pool that never settles fails.
  std::uint64_t delta = ~0ull;
  for (int attempt = 0; attempt < 6 && delta != 0; ++attempt) {
    for (int i = 0; i < 16; ++i) iterate();  // warm the pools
    const std::uint64_t before = fresh_system_allocs();
    for (int i = 0; i < 12; ++i) iterate();
    delta = fresh_system_allocs() - before;
  }
  EXPECT_EQ(delta, 0u)
      << "async backward allocated from the system heap in steady state";
}

// The fuzzer: >= 12 seeded DAGs, async == sequential bitwise at widths
// 1/2/8 under every available SIMD backend. The sequential reference is
// taken once per seed at scalar/width-1; lane determinism (PR 5's
// contract) makes it the reference for every backend cell.
TEST(AutogradEngineFuzz, AsyncBitwiseEqualsSequentialAcrossWidthsAndBackends) {
  const simd::Backend prev = simd::active_backend();
  for (std::uint64_t seed = 1; seed <= 14; ++seed) {
    simd::set_backend(simd::Backend::kScalar);
    ParallelPin pin(1);
    const std::vector<Tensor> ref = run_backward(seed, BackwardMode::kSequential);
    for (const simd::Backend be :
         {simd::Backend::kScalar, simd::Backend::kSse2,
          simd::Backend::kAvx2}) {
      if (!simd::backend_available(be)) continue;
      simd::set_backend(be);
      for (const int width : {1, 2, 8}) {
        ParallelPin wpin(width);
        const std::vector<Tensor> got =
            run_backward(seed, BackwardMode::kAsync);
        expect_bitwise_equal(
            ref, got,
            "seed " + std::to_string(seed) + " backend " +
                simd::backend_name(be) + " width " + std::to_string(width));
      }
    }
  }
  simd::set_backend(prev);
}

// Pre-defined gradient buffers (a leaf after Adam::zero_grad) must take
// the add_-into-zeros path in the same order as the sequential walk.
TEST(AutogradEngine, AccumulatesIntoPredefinedGradBitwise) {
  for (const std::uint64_t seed : {3u, 7u}) {
    std::vector<Tensor> grads[2];
    int m = 0;
    for (const BackwardMode mode :
         {BackwardMode::kSequential, BackwardMode::kAsync}) {
      BackwardModeGuard guard(mode);
      ParallelPin pin(mode == BackwardMode::kAsync ? 8 : 1);
      std::vector<Var> leaves;
      {
        // First pass defines every leaf's grad buffer...
        Var root = build_random_graph(seed, leaves);
        root.backward();
      }
      std::vector<Var> leaves2;
      Var root2 = build_random_graph(seed, leaves2);
      for (std::size_t i = 0; i < leaves2.size(); ++i) {
        // ...which we transplant, zeroed, onto a fresh graph's leaves.
        if (leaves[i].has_grad()) {
          leaves2[i].grad() = leaves[i].grad().clone();
          leaves2[i].zero_grad();
        }
      }
      root2.backward();
      for (Var& l : leaves2) {
        grads[m].push_back(l.has_grad() ? l.grad().clone() : Tensor());
      }
      ++m;
    }
    expect_bitwise_equal(grads[0], grads[1],
                         "predefined-grad seed " + std::to_string(seed));
  }
}

TEST(AutogradEngine, ModeGuardNestsAndRestores) {
  const BackwardMode base = backward_mode();
  {
    BackwardModeGuard a(BackwardMode::kSequential);
    EXPECT_EQ(backward_mode(), BackwardMode::kSequential);
    {
      BackwardModeGuard b(BackwardMode::kAsync);
      EXPECT_EQ(backward_mode(), BackwardMode::kAsync);
    }
    EXPECT_EQ(backward_mode(), BackwardMode::kSequential);
  }
  EXPECT_EQ(backward_mode(), base);
}

/// Every node reachable from `root` through recorded parent edges.
std::set<const detail::VarImpl*> reachable_nodes(const Var& root) {
  std::set<const detail::VarImpl*> seen;
  std::vector<const detail::VarImpl*> stack{root.impl().get()};
  while (!stack.empty()) {
    const detail::VarImpl* n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    for (const auto& p : n->parents) stack.push_back(p.get());
  }
  return seen;
}

// The finalize hook must fire exactly once per REACHABLE graph node —
// the DDP bucket bookkeeping depends on it — and never for dead
// branches (or pool leaves the random graph left unconnected).
TEST(AutogradEngine, FinalizeHookFiresOncePerReachableNode) {
  for (const int width : {1, 8}) {
    ParallelPin pin(width);
    std::vector<Var> leaves;
    Var root = build_random_graph(5, leaves);
    const std::set<const detail::VarImpl*> expect = reachable_nodes(root);
    std::mutex mu;
    std::multiset<const detail::VarImpl*> seen;
    BackwardOptions opts;
    opts.on_node_finalized = [&](const detail::VarImpl* n) {
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(n);
    };
    BackwardRun run =
        backward_start(root.impl(), Tensor::ones(root.shape()), opts);
    run.wait();
    ASSERT_TRUE(run.finished());
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(seen.size(), expect.size()) << "width " << width;
    for (const detail::VarImpl* n : expect) {
      EXPECT_EQ(seen.count(n), 1u)
          << "reachable node finalized != once at width " << width;
    }
  }
}

// on_complete runs "before any waiter wakes": wait() may return only
// after the hook itself returned, since DDP's hook touches caller-owned
// bucket state that the caller tears down once wait() returns. The
// hook outlasts the drain by far, so a wait() keyed on the drain alone
// returns while the hook still sleeps.
TEST(AutogradEngine, WaitReturnsOnlyAfterOnCompleteReturned) {
  ParallelPin pin(4);
  std::vector<Var> leaves;
  Var root = build_random_graph(11, leaves);
  std::atomic<bool> hook_done{false};
  BackwardOptions opts;
  opts.on_complete = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    hook_done.store(true);
  };
  BackwardRun run =
      backward_start(root.impl(), Tensor::ones(root.shape()), opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  run.wait();
  EXPECT_TRUE(hook_done.load()) << "wait() returned before on_complete did";
  EXPECT_TRUE(run.finished());
}

}  // namespace
}  // namespace ccovid::autograd
