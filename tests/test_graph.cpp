// Graph IR + fusion suite (`ctest -L fast`): IR construction and shape
// inference, topological-order determinism, buffer-reuse planner
// invariants, steady-state allocation flatness at every storage
// format, and the fusion-equivalence battery — fused output must be
// BITWISE equal to the unfused compiled schedule, the op-by-op
// reference interpreter, and the nn::Module eval forward, at every
// compiled SIMD backend and task-engine width. The instance-norm op is
// held to batch_norm_train at batch 1, and the AH-Net graph to its
// module walk in both batch-norm modes. The randomized fuzzer at the
// bottom stresses the fusion pass with DAGs containing non-fusible
// interleavings and multi-consumer nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/alloc_cache.h"
#include "core/digest.h"
#include "core/parallel.h"
#include "core/precision.h"
#include "core/random.h"
#include "core/simd.h"
#include "graph/graph.h"
#include "graph_fuzzer.h"
#include "nn/ahnet.h"
#include "nn/ddnet.h"
#include "nn/layers.h"
#include "nn/unet.h"
#include "ops/activations.h"
#include "ops/batchnorm.h"
#include "ops/conv2d.h"
#include "ops/deconv2d.h"

namespace ccovid {
namespace {

using graph::CompileOptions;
using graph::Graph;
using graph::OpKind;
using graph::ValueShape;

Tensor uniform(Rng& rng, Shape shape, real_t lo = -1.0f, real_t hi = 1.0f) {
  Tensor t(std::move(shape));
  rng.fill_uniform(t, lo, hi);
  return t;
}

CompileOptions unfused_options() {
  CompileOptions o;
  o.fuse = false;
  return o;
}

// ------------------------------------------------- IR construction

TEST(GraphIR, ShapeInference) {
  Rng rng(1);
  Graph g;
  const int in = g.add_input({2, 3, 16, 16});
  const int c = g.add_conv2d(in, uniform(rng, {5, 3, 3, 3}),
                             uniform(rng, {5}), /*pad=*/1);
  EXPECT_EQ(g.node(c).shape, (ValueShape{2, 5, 16, 16}));
  const int p = g.add_max_pool(c, ops::Pool2dParams{3, 2, 1});
  EXPECT_EQ(g.node(p).shape, (ValueShape{2, 5, 8, 8}));
  const int u = g.add_unpool(p, 2);
  EXPECT_EQ(g.node(u).shape, (ValueShape{2, 5, 16, 16}));
  const int d = g.add_deconv2d(u, uniform(rng, {5, 4, 5, 5}), Tensor(),
                               /*pad=*/2);
  EXPECT_EQ(g.node(d).shape, (ValueShape{2, 4, 16, 16}));
  const int cat = g.add_concat({c, d});
  EXPECT_EQ(g.node(cat).shape, (ValueShape{2, 9, 16, 16}));
  EXPECT_EQ(g.output(), cat);
  g.mark_output(d);
  EXPECT_EQ(g.output(), d);
}

TEST(GraphIR, ValidationThrows) {
  Rng rng(2);
  Graph g;
  const int in = g.add_input({1, 3, 8, 8});
  // Channel mismatch.
  EXPECT_THROW(g.add_conv2d(in, uniform(rng, {4, 2, 3, 3}), Tensor(), 1),
               std::invalid_argument);
  // Bad bias length.
  EXPECT_THROW(
      g.add_conv2d(in, uniform(rng, {4, 3, 3, 3}), uniform(rng, {3}), 1),
      std::invalid_argument);
  // Non-square kernel.
  EXPECT_THROW(g.add_conv2d(in, uniform(rng, {4, 3, 3, 5}), Tensor(), 1),
               std::invalid_argument);
  // Out-of-range input id.
  EXPECT_THROW(g.add_relu(42), std::invalid_argument);
  // Batch-norm parameter arity.
  EXPECT_THROW(g.add_batchnorm(in, uniform(rng, {2}), uniform(rng, {3}),
                               uniform(rng, {3}), uniform(rng, {3}), 1e-5f),
               std::invalid_argument);
  // Concat spatial mismatch.
  const int pooled = g.add_max_pool(in, ops::Pool2dParams{2, 2, 0});
  EXPECT_THROW(g.add_concat({in, pooled}), std::invalid_argument);
  // Add shape mismatch.
  EXPECT_THROW(g.add_add(in, pooled), std::invalid_argument);
  // Second input node.
  EXPECT_THROW(g.add_input({1, 1, 4, 4}), std::invalid_argument);
}

TEST(GraphIR, ScheduleIsDeterministicAndTopological) {
  Rng rng(3);
  Graph g;
  const int in = g.add_input({1, 2, 8, 8});
  const int c = g.add_conv2d(in, uniform(rng, {2, 2, 3, 3}), Tensor(), 1);
  // Diamond: two consumers of `c`, rejoined by add.
  const int a = g.add_relu(c);
  const int b = g.add_leaky_relu(c, 0.01f);
  const int sum = g.add_add(a, b);
  g.mark_output(sum);

  const std::vector<int> order = g.schedule();
  ASSERT_EQ(order.size(), size_t(g.num_nodes()));
  // Pure function of the graph: identical on every call.
  EXPECT_EQ(order, g.schedule());
  EXPECT_EQ(order, g.schedule());
  // Topological: every node after all of its inputs.
  std::vector<int> pos(size_t(g.num_nodes()));
  for (int i = 0; i < int(order.size()); ++i) pos[size_t(order[i])] = i;
  for (const graph::Node& n : g.nodes()) {
    for (int src : n.inputs) {
      EXPECT_LT(pos[size_t(src)], pos[size_t(n.id)])
          << graph::op_kind_name(n.kind) << " scheduled before its input";
    }
  }
  // Ids are born topologically sorted and the tie-break is min-id, so
  // the canonical order is exactly 0..N-1.
  for (int i = 0; i < int(order.size()); ++i) EXPECT_EQ(order[size_t(i)], i);
}

// -------------------------------------------------- planner invariants

/// Values whose live ranges overlap never overlap in memory — except a
/// concat input the planner produces in place inside its concat.
void expect_no_live_overlap_shares_slab(const graph::CompiledGraph& cg) {
  const auto& plans = cg.plan();
  for (size_t i = 0; i < plans.size(); ++i) {
    for (size_t j = i + 1; j < plans.size(); ++j) {
      const graph::BufferPlan& a = plans[i];
      const graph::BufferPlan& b = plans[j];
      if (a.slab < 0 || b.slab < 0 || a.slab != b.slab) continue;
      if (a.host == b.node || b.host == a.node) continue;
      const bool disjoint = a.last_use < b.def_step ||
                            b.last_use < a.def_step ||
                            a.offset + a.floats <= b.offset ||
                            b.offset + b.floats <= a.offset;
      EXPECT_TRUE(disjoint)
          << "values of nodes " << a.node << " [" << a.def_step << ","
          << a.last_use << "] and " << b.node << " [" << b.def_step << ","
          << b.last_use << "] overlap in slab " << a.slab
          << " while both live";
    }
  }
}

TEST(GraphPlanner, NoTwoLiveValuesShareASlab) {
  nn::seed_init_rng(11);
  nn::DDnet net(nn::DDnetConfig::tiny());
  net.set_training(false);
  const Graph g = net.build_graph(1, 16, 16);

  const graph::CompiledGraph fused = graph::compile(g);
  const graph::CompiledGraph unfused =
      graph::compile(g, unfused_options());
  expect_no_live_overlap_shares_slab(fused);
  expect_no_live_overlap_shares_slab(unfused);

  // Fusion collapsed conv->bn->act chains, so the fused schedule is
  // strictly shorter and the reuse plan never grows.
  EXPECT_GT(fused.stats().fused_away, 0);
  EXPECT_LT(fused.stats().steps, unfused.stats().steps);
  EXPECT_LE(fused.stats().slabs, unfused.stats().slabs);
  EXPECT_GT(fused.stats().slabs, 0);
  // Reuse is real: the slab pool is far smaller than the sum of all
  // intermediate values.
  index_t total_intermediate = 0;
  for (const graph::BufferPlan& p : fused.plan()) {
    if (p.def_step >= 0 && p.slab >= 0) total_intermediate += p.floats;
  }
  EXPECT_LT(fused.stats().slab_floats, total_intermediate);
}

// ------------------------------------------------ fusion equivalence

std::uint64_t run_digest(const graph::CompiledGraph& cg, const Tensor& in) {
  return fnv1a64(cg.run(in));
}

TEST(GraphFusion, DdnetFusedUnfusedReferenceAndModuleAgreeBitwise) {
  const core::PrecisionGuard fp32(core::Precision::kF32);
  nn::seed_init_rng(3);
  nn::DDnet net(nn::DDnetConfig::tiny());
  net.set_training(false);

  Rng rng(5);
  Tensor img({16, 16});
  rng.fill_uniform(img, -1.0f, 1.0f);
  const Tensor in = img.clone().reshape({1, 1, 16, 16});

  const Graph g = net.build_graph(1, 16, 16);
  const graph::CompiledGraph fused = graph::compile(g);
  const graph::CompiledGraph unfused =
      graph::compile(g, unfused_options());

  std::uint64_t module_digest;
  {
    autograd::NoGradGuard no_grad;  // the op-by-op module walk
    module_digest = fnv1a64(net.forward(autograd::Var(in)).value());
  }
  const std::uint64_t reference_digest = fnv1a64(graph::run_reference(g, in));

  EXPECT_EQ(run_digest(unfused, in), module_digest);
  EXPECT_EQ(reference_digest, module_digest);
  EXPECT_EQ(run_digest(fused, in), module_digest);
  // enhance() takes the compiled-graph fast path in eval mode.
  for (const int width : {1, 2, 4, 8}) {
    ParallelPin pin(width);
    EXPECT_EQ(fnv1a64(net.enhance(img)), module_digest) << "width " << width;
  }
}

TEST(GraphFusion, UnetFusedMatchesModuleBitwise) {
  nn::seed_init_rng(7);
  nn::UNetDenoiser net{nn::UNetConfig{}};
  net.set_training(false);

  Rng rng(9);
  Tensor img({12, 12});
  rng.fill_uniform(img, -1.0f, 1.0f);

  std::uint64_t module_digest;
  {
    autograd::NoGradGuard no_grad;
    module_digest = fnv1a64(
        net.forward(autograd::Var(img.clone().reshape({1, 1, 12, 12})))
            .value());
  }
  for (const int width : {1, 2, 4, 8}) {
    ParallelPin pin(width);
    EXPECT_EQ(fnv1a64(net.enhance(img)), module_digest) << "width " << width;
  }
}

TEST(GraphFusion, DdnetDigestStableAcrossBackendsAndWidths) {
  nn::seed_init_rng(3);
  nn::DDnet net(nn::DDnetConfig::tiny());
  net.set_training(false);

  Rng rng(5);
  Tensor in({1, 1, 16, 16});
  rng.fill_uniform(in, -1.0f, 1.0f);
  const Graph g = net.build_graph(1, 16, 16);
  const graph::CompiledGraph fused = graph::compile(g);
  const graph::CompiledGraph unfused =
      graph::compile(g, unfused_options());

  const simd::Backend prev = simd::active_backend();
  std::vector<std::uint64_t> digests;
  for (simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kSse2, simd::Backend::kAvx2}) {
    if (!simd::backend_available(b)) continue;
    simd::set_backend(b);
    for (int width : {1, 2, 8}) {
      ParallelPin pin(width);
      digests.push_back(run_digest(fused, in));
      EXPECT_EQ(digests.back(), run_digest(unfused, in))
          << "fused != unfused at backend " << simd::backend_name(b)
          << " width " << width;
    }
  }
  simd::set_backend(prev);
  ASSERT_FALSE(digests.empty());
  for (std::uint64_t d : digests) EXPECT_EQ(d, digests.front());
}

// ------------------------------------------------------ instance norm

/// Calls body(label) at every compiled SIMD backend x widths 1/2/8.
template <typename Body>
void across_backends_and_widths(Body&& body) {
  const simd::Backend prev = simd::active_backend();
  for (simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kSse2, simd::Backend::kAvx2}) {
    if (!simd::backend_available(b)) continue;
    simd::set_backend(b);
    for (int width : {1, 2, 8}) {
      ParallelPin pin(width);
      body(std::string(simd::backend_name(b)) + " width " +
           std::to_string(width));
    }
  }
  simd::set_backend(prev);
}

TEST(GraphInstanceNorm, MatchesBatchNormTrainAtBatchOneBitwise) {
  Rng rng(23);
  const Tensor w = uniform(rng, {6, 3, 3, 3});
  const Tensor b = uniform(rng, {6});
  const Tensor gamma = uniform(rng, {6}, 0.5f, 1.5f);
  const Tensor beta = uniform(rng, {6});
  const Tensor x = uniform(rng, {1, 3, 12, 12});
  const real_t eps = 1e-5f;

  // conv -> instance norm -> leaky: the chain a conv absorbs whole.
  Graph chain;
  {
    const int in = chain.add_input({1, 3, 12, 12});
    const int c = chain.add_conv2d(in, w, b, 1);
    chain.add_leaky_relu(chain.add_instance_norm(c, gamma, beta, eps),
                         0.01f);
  }
  // A standalone instance norm (its input is the graph input) feeding
  // a relu, and one that is itself the graph output.
  Graph alone, alone_out;
  {
    const Tensor g3 = uniform(rng, {3}, 0.5f, 1.5f);
    const Tensor b3 = uniform(rng, {3});
    alone.add_relu(alone.add_instance_norm(alone.add_input({1, 3, 12, 12}),
                                           g3, b3, eps));
    alone_out.add_instance_norm(alone_out.add_input({1, 3, 12, 12}), g3,
                                b3, eps);
  }

  ops::BatchNormStats st;
  const auto bn_train = [&](const Tensor& t, const Graph& g, int id) {
    return ops::batch_norm_train(t, g.node(id).gamma, g.node(id).beta, st,
                                 eps);
  };
  const std::uint64_t want_chain = fnv1a64(ops::leaky_relu(
      bn_train(ops::conv2d(x, w, b, ops::Conv2dParams{1, 1}), chain, 2),
      0.01f));
  const std::uint64_t want_alone = fnv1a64(ops::relu(bn_train(x, alone, 1)));
  const std::uint64_t want_out = fnv1a64(bn_train(x, alone_out, 1));

  const graph::CompiledGraph chain_fused = graph::compile(chain);
  EXPECT_EQ(chain_fused.stats().steps, 1);  // norm and leaky absorbed
  struct Case {
    const Graph* g;
    std::uint64_t want;
  };
  for (const Case& c : {Case{&chain, want_chain}, Case{&alone, want_alone},
                        Case{&alone_out, want_out}}) {
    EXPECT_EQ(fnv1a64(graph::run_reference(*c.g, x)), c.want);
    const graph::CompiledGraph fused = graph::compile(*c.g);
    const graph::CompiledGraph unfused =
        graph::compile(*c.g, unfused_options());
    across_backends_and_widths([&](const std::string& at) {
      EXPECT_EQ(run_digest(fused, x), c.want) << "fused at " << at;
      EXPECT_EQ(run_digest(unfused, x), c.want) << "unfused at " << at;
    });
  }
}

TEST(GraphInstanceNorm, CompileRejectsItBelowFp32) {
  Rng rng(29);
  Graph g;
  g.add_instance_norm(g.add_input({1, 2, 8, 8}), uniform(rng, {2}),
                      uniform(rng, {2}), 1e-5f);
  const Tensor x = uniform(rng, {1, 2, 8, 8});
  EXPECT_NO_THROW(graph::compile(g));
  for (core::Precision prec : {core::Precision::kF16, core::Precision::kBf16,
                               core::Precision::kInt8}) {
    CompileOptions opt;
    opt.precision = prec;
    // A valid calibration, so int8 fails on the norm, not on its absence.
    opt.calibration = graph::calibrate(g, {x});
    EXPECT_THROW(graph::compile(g, opt), std::invalid_argument)
        << core::precision_name(prec);
  }
}

TEST(GraphFusion, AhnetGraphMatchesModuleWalkInBothNormModes) {
  for (const bool batch_stats : {false, true}) {
    nn::seed_init_rng(31);
    nn::AhNet net;
    Rng rng(37);
    {
      // One training-mode forward moves the running statistics off
      // their identity init, so frozen batch-norm is not trivial.
      autograd::NoGradGuard no_grad;
      net.forward(autograd::Var(uniform(rng, {1, 1, 16, 16}, 0.0f, 1.0f)));
    }
    net.set_training(false);
    net.set_batch_stats_always(batch_stats);
    const Tensor x = uniform(rng, {1, 1, 16, 16}, 0.0f, 1.0f);

    std::uint64_t walk;
    {
      autograd::NoGradGuard no_grad;
      walk = fnv1a64(net.forward(autograd::Var(x)).value());
    }
    const Graph g = net.build_graph(1, 16, 16);
    int inorms = 0;
    for (const graph::Node& n : g.nodes()) {
      inorms += n.kind == OpKind::kInstanceNorm;
    }
    EXPECT_EQ(inorms > 0, batch_stats);
    EXPECT_EQ(fnv1a64(graph::run_reference(g, x)), walk);

    const graph::CompiledGraph fused = graph::compile(g);
    const graph::CompiledGraph unfused = graph::compile(g, unfused_options());
    EXPECT_GT(fused.stats().fused_away, 0);
    // Each decoder level's upsampled trunk is produced inside its concat.
    EXPECT_EQ(std::count_if(fused.plan().begin(), fused.plan().end(),
                            [](const graph::BufferPlan& p) {
                              return p.host >= 0;
                            }),
              2);
    expect_no_live_overlap_shares_slab(fused);
    expect_no_live_overlap_shares_slab(unfused);
    across_backends_and_widths([&](const std::string& at) {
      EXPECT_EQ(run_digest(fused, x), walk)
          << "fused, batch stats " << batch_stats << ", at " << at;
      EXPECT_EQ(run_digest(unfused, x), walk)
          << "unfused, batch stats " << batch_stats << ", at " << at;
    });
  }
}

// -------------------------------------------------- allocation flatness

template <typename Body>
std::uint64_t fresh_allocs_steady_state(int warmup, int iters, Body&& body) {
  for (int i = 0; i < warmup; ++i) body();
  const std::uint64_t before = fresh_system_allocs();
  for (int i = 0; i < iters; ++i) body();
  return fresh_system_allocs() - before;
}

TEST(GraphAlloc, CompiledRunIsAllocationFreeInSteadyState) {
  nn::seed_init_rng(13);
  nn::DDnet net(nn::DDnetConfig::tiny());
  net.set_training(false);
  Rng rng(17);
  Tensor in({1, 1, 16, 16});
  rng.fill_uniform(in, -1.0f, 1.0f);
  const Graph g = net.build_graph(1, 16, 16);

  ParallelPin pin(1);
  for (const core::Precision prec :
       {core::Precision::kF32, core::Precision::kF16,
        core::Precision::kBf16, core::Precision::kInt8}) {
    for (const bool fuse : {true, false}) {
      CompileOptions opt;
      opt.fuse = fuse;
      opt.precision = prec;
      if (prec == core::Precision::kInt8) {
        opt.calibration = graph::calibrate(g, {in});
      }
      const graph::CompiledGraph cg = graph::compile(g, opt);
      const std::uint64_t fresh =
          fresh_allocs_steady_state(3, 8, [&] { Tensor out = cg.run(in); });
      EXPECT_EQ(fresh, 0u)
          << "compiled graph allocated from the system heap in steady "
             "state at "
          << core::precision_name(prec) << (fuse ? " fused" : " unfused");
    }
  }
}

TEST(GraphAlloc, BiaslessConvWithFoldedBnHoistsTheBiasConstant) {
  // Regression: a bias-less conv followed by batch-norm used to
  // materialize a zero bias tensor per call on the eval path; the
  // compiler hoists it into the step constants instead.
  Rng rng(19);
  Graph g;
  const int in = g.add_input({1, 3, 12, 12});
  const int c = g.add_conv2d(in, uniform(rng, {6, 3, 3, 3}),
                             /*bias=*/Tensor(), 1);
  const int bn = g.add_batchnorm(c, uniform(rng, {6}, 0.5f, 1.5f),
                                 uniform(rng, {6}), uniform(rng, {6}),
                                 uniform(rng, {6}, 0.5f, 2.0f), 1e-5f);
  g.add_relu(bn);

  const graph::CompiledGraph cg = graph::compile(g);
  EXPECT_EQ(cg.stats().fused_away, 2);  // bn and relu both absorbed
  EXPECT_EQ(cg.stats().steps, 1);

  Tensor x({1, 3, 12, 12});
  rng.fill_uniform(x, -1.0f, 1.0f);
  ParallelPin pin(1);
  const std::uint64_t fresh =
      fresh_allocs_steady_state(3, 8, [&] { Tensor out = cg.run(x); });
  EXPECT_EQ(fresh, 0u);
}

// ------------------------------------------------------------ fuzzer
// Random DAGs (tests/graph_fuzzer.h) stress the fusion pass with
// non-fusible interleavings and multi-consumer nodes.

TEST(GraphFuzz, RandomDagsFuseBitwiseEqualAcrossBackendsAndWidths) {
  const simd::Backend prev = simd::active_backend();
  for (int seed = 1; seed <= graph_fuzz::kFuzzCases; ++seed) {
    const graph_fuzz::FuzzCase fc = graph_fuzz::fuzz_case(seed);
    const Tensor& in = fc.input;

    const graph::CompiledGraph fused = graph::compile(fc.g);
    const graph::CompiledGraph unfused =
        graph::compile(fc.g, unfused_options());
    expect_no_live_overlap_shares_slab(fused);
    expect_no_live_overlap_shares_slab(unfused);

    const std::uint64_t want = fnv1a64(graph::run_reference(fc.g, in));
    for (simd::Backend b : {simd::Backend::kScalar, simd::Backend::kSse2,
                            simd::Backend::kAvx2}) {
      if (!simd::backend_available(b)) continue;
      simd::set_backend(b);
      for (int width : {1, 2, 8}) {
        ParallelPin pin(width);
        EXPECT_EQ(run_digest(fused, in), want)
            << "seed " << seed << " fused diverged at backend "
            << simd::backend_name(b) << " width " << width;
        EXPECT_EQ(run_digest(unfused, in), want)
            << "seed " << seed << " unfused diverged at backend "
            << simd::backend_name(b) << " width " << width;
      }
    }
    simd::set_backend(prev);
  }
}

}  // namespace
}  // namespace ccovid
