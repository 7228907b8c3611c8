// Random-DAG generator shared by the graph fuzz suites: the bitwise
// fusion fuzzer in test_graph.cpp and the low-precision graph digests
// in test_golden.cpp run the SAME twelve seeded cases (fuzz_case).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/random.h"
#include "core/tensor.h"
#include "graph/graph.h"

namespace ccovid::graph_fuzz {

/// Emits conv/bn/relu/leaky/pool/unpool/concat/add over a pool of live
/// values, deliberately creating multi-consumer nodes (any value may be
/// picked again) and non-fusible interleavings (bn after concat, act
/// without bn, conv feeding two consumers).
struct DagFuzzer {
  Rng rng;
  graph::Graph g;
  struct Val {
    int id;
    graph::ValueShape s;
  };
  std::vector<Val> vals;

  explicit DagFuzzer(std::uint64_t seed) : rng(seed) {}

  Tensor t(Shape shape, real_t lo = -1.0f, real_t hi = 1.0f) {
    Tensor out(std::move(shape));
    rng.fill_uniform(out, lo, hi);
    return out;
  }

  const Val& pick() {
    return vals[size_t(rng.uniform_int(0, int(vals.size()) - 1))];
  }

  void build(int num_ops) {
    const index_t h = 8 + 4 * index_t(rng.uniform_int(0, 2));
    const graph::ValueShape in_shape{1, index_t(rng.uniform_int(1, 4)), h,
                                     h};
    vals.push_back({g.add_input(in_shape), in_shape});
    for (int i = 0; i < num_ops; ++i) {
      switch (rng.uniform_int(0, 7)) {
        case 0: {  // conv, often followed by bn(+act) to exercise fusion
          const Val v = pick();
          const index_t k = index_t(1 + 2 * rng.uniform_int(0, 2));
          const index_t cout = index_t(rng.uniform_int(1, 6));
          const bool bias = rng.uniform_int(0, 1) == 1;
          int id = g.add_conv2d(
              v.id, t({cout, v.s.c, k, k}),
              bias ? t({cout}) : Tensor(), k / 2);
          vals.push_back({id, g.node(id).shape});
          maybe_bn_act(cout);
          break;
        }
        case 1: {  // deconv
          const Val v = pick();
          const index_t k = index_t(1 + 2 * rng.uniform_int(0, 2));
          const index_t cout = index_t(rng.uniform_int(1, 6));
          int id = g.add_deconv2d(v.id, t({v.s.c, cout, k, k}),
                                  rng.uniform_int(0, 1) ? t({cout})
                                                        : Tensor(),
                                  k / 2);
          vals.push_back({id, g.node(id).shape});
          maybe_bn_act(cout);
          break;
        }
        case 2: {  // standalone bn (often after concat: non-fusible)
          const Val v = pick();
          int id = g.add_batchnorm(v.id, t({v.s.c}, 0.5f, 1.5f), t({v.s.c}),
                                   t({v.s.c}), t({v.s.c}, 0.5f, 2.0f),
                                   1e-5f);
          vals.push_back({id, g.node(id).shape});
          break;
        }
        case 3: {  // standalone activation (no bn in front)
          const Val v = pick();
          int id = rng.uniform_int(0, 1) == 0
                       ? g.add_relu(v.id)
                       : g.add_leaky_relu(v.id, 0.01f);
          vals.push_back({id, g.node(id).shape});
          break;
        }
        case 4: {  // max pool
          const Val v = pick();
          if (v.s.h < 4 || v.s.w < 4) break;
          int id = g.add_max_pool(v.id, rng.uniform_int(0, 1) == 0
                                            ? ops::Pool2dParams{3, 2, 1}
                                            : ops::Pool2dParams{2, 2, 0});
          vals.push_back({id, g.node(id).shape});
          break;
        }
        case 5: {  // unpool
          const Val v = pick();
          if (v.s.h > 16 || v.s.w > 16) break;
          int id = g.add_unpool(v.id, 2);
          vals.push_back({id, g.node(id).shape});
          break;
        }
        case 6: {  // concat of same-spatial values (multi-consumer)
          const Val a = pick();
          std::vector<int> ins{a.id};
          for (const Val& v : vals) {
            if (int(ins.size()) >= 3) break;
            if (v.s.h == a.s.h && v.s.w == a.s.w && v.id != a.id) {
              ins.push_back(v.id);
            }
          }
          int id = g.add_concat(ins);
          vals.push_back({id, g.node(id).shape});
          break;
        }
        case 7: {  // residual add of same-shape values
          const Val a = pick();
          int other = -1;
          for (const Val& v : vals) {
            if (v.id != a.id && v.s == a.s) {
              other = v.id;
              break;
            }
          }
          if (other < 0) break;
          int id = g.add_add(a.id, other);
          vals.push_back({id, g.node(id).shape});
          break;
        }
      }
    }
    g.mark_output(vals.back().id);
  }

  /// After a conv/deconv, usually append bn and often an activation —
  /// the fusible pattern the pass exists for. Sometimes the conv is
  /// left exposed or gets a second consumer, which must block fusion.
  void maybe_bn_act(index_t c) {
    if (rng.uniform_int(0, 3) == 0) return;  // conv left standalone
    const Val v = vals.back();
    int id = g.add_batchnorm(v.id, t({c}, 0.5f, 1.5f), t({c}), t({c}),
                             t({c}, 0.5f, 2.0f), 1e-5f);
    vals.push_back({id, g.node(id).shape});
    if (rng.uniform_int(0, 2) != 0) {
      const Val b = vals.back();
      id = rng.uniform_int(0, 1) == 0 ? g.add_relu(b.id)
                                      : g.add_leaky_relu(b.id, 0.01f);
      vals.push_back({id, g.node(id).shape});
    }
  }
};

/// Number of seeded cases the fuzz suites run.
constexpr int kFuzzCases = 12;

struct FuzzCase {
  graph::Graph g;
  Tensor input;
};

/// Fuzz case `seed` (1..kFuzzCases): an 8-op random DAG and a uniform
/// [-1, 1] input of its shape.
inline FuzzCase fuzz_case(std::uint64_t seed) {
  DagFuzzer fz(seed * 7919);
  fz.build(/*num_ops=*/8);
  Rng in_rng(seed);
  const graph::ValueShape is = fz.g.input_shape();
  Tensor in({is.n, is.c, is.h, is.w});
  in_rng.fill_uniform(in, -1.0f, 1.0f);
  return {std::move(fz.g), std::move(in)};
}

}  // namespace ccovid::graph_fuzz
