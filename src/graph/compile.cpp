// Graph compiler + executor: fusion pass, liveness-based slab planning,
// and one step walker over a storage-format trait (DESIGN.md §12). The
// executed fp32 math is intentionally the SAME kernel calls the ops
// make — see graph.h for the bitwise contract and the legality notes
// inline below.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/arena.h"
#include "core/half.h"
#include "core/parallel.h"
#include "core/precision.h"
#include "core/simd.h"
#include "graph/graph.h"
#include "ops/batchnorm.h"
#include "trace/trace.h"

namespace ccovid::graph {

namespace {

/// One executed step after fusion. `kind` keeps the producing op's
/// OpKind; fusion is expressed through the epilogue fields:
///   conv/deconv + has_affine(+act): the conv→bn(→act) chain collapsed
///     into one plane pass (rows, then scale_shift_act in place);
///   kBatchNorm + act: a bn→act chain collapsed into one eltwise pass.
struct Step {
  OpKind kind = OpKind::kInput;
  int out_node = -1;          ///< node id whose value this step defines
  std::vector<int> in_nodes;  ///< original producer ids
  ValueShape out_shape, in_shape;

  // conv / deconv.
  Tensor weight;
  std::vector<real_t> bias;  ///< hoisted (Cout) — zeros when bias-less
  index_t k = 0, pad = 0;

  // Hoisted batch-norm epilogue constants (batch_norm_infer's exact
  // per-channel floats) + activation: 0 none, 1 relu, 2 leaky.
  bool has_affine = false;
  std::vector<real_t> scale, shift;
  int act = 0;
  real_t slope = 0.0f;

  // Instance-norm epilogue (fp32 only): per-channel gamma/beta; the
  // scale/shift come from each plane's own statistics at run time.
  bool inorm = false;
  std::vector<real_t> gamma, beta;
  real_t eps = 0.0f;

  // Pool / unpool constants.
  ops::Pool2dParams pool{};
  std::vector<ops::Lerp> ly, lx;

  // Concat: channel count per input, in input order.
  std::vector<index_t> concat_c;

  // ----- low-precision images (compile-time; empty at fp32) ---------
  // f16/bf16: weights re-laid out CO-MAJOR [co][ci][k*k] regardless of
  // conv/deconv origin, so one per-job contiguous convert feeds the
  // half row kernels with uniform strides (wstride_ci = k*k,
  // wstride_co = cin*k*k).
  std::vector<std::uint16_t> whalf;
  // int8: weights quantized per OUTPUT channel and pre-widened to the
  // int16 channel-pair layout VPMADDWD consumes: [co][p][k*k][2]
  // (odd trailing input channel zero-padded).
  std::vector<std::int16_t> wq;
  std::vector<float> m;       ///< per-co dequant multiplier s_in * s_w
  bool concat_fast = false;   ///< int8 concat is pure pair memcpy
};

int act_code(OpKind k) {
  return k == OpKind::kRelu ? 1 : k == OpKind::kLeakyRelu ? 2 : 0;
}

/// batch_norm_infer's per-channel constants, expression for expression
/// (real_t arithmetic; see ops/batchnorm.cpp).
void hoist_bn_constants(const Node& bn, std::vector<real_t>* scale,
                        std::vector<real_t>* shift) {
  const index_t c = bn.gamma.dim(0);
  scale->resize(size_t(c));
  shift->resize(size_t(c));
  const real_t* gp = bn.gamma.data();
  const real_t* bp = bn.beta.data();
  const real_t* mp = bn.mean.data();
  const real_t* vp = bn.var.data();
  for (index_t i = 0; i < c; ++i) {
    const real_t inv_std = 1.0f / std::sqrt(vp[i] + bn.eps);
    const real_t s = gp[i] * inv_std;
    (*scale)[size_t(i)] = s;
    (*shift)[size_t(i)] = bp[i] - s * mp[i];
  }
}

/// Gives step `s` the normalization of node `bn`: hoisted constants for
/// a frozen batch-norm, the per-plane recipe for an instance norm.
void take_norm(const Node& bn, Step* s) {
  if (bn.kind == OpKind::kBatchNorm) {
    hoist_bn_constants(bn, &s->scale, &s->shift);
    s->has_affine = true;
    return;
  }
  const index_t c = bn.gamma.dim(0);
  s->gamma.assign(bn.gamma.data(), bn.gamma.data() + c);
  s->beta.assign(bn.beta.data(), bn.beta.data() + c);
  s->eps = bn.eps;
  s->inorm = true;
}

/// The (scale, shift) a norm step applies to plane `x` of channel c.
/// Instance norm derives them from the plane itself, in
/// ops::instance_norm's exact arithmetic.
std::pair<real_t, real_t> plane_affine(const Step& s, index_t c,
                                       const real_t* x, index_t spatial) {
  if (!s.inorm) return {s.scale[size_t(c)], s.shift[size_t(c)]};
  const ops::ChannelNorm cn = ops::channel_norm(
      x, 1, 0, spatial, s.gamma[size_t(c)], s.beta[size_t(c)], s.eps);
  return {cn.scale, cn.shift};
}

/// Carves one arena block into buffers of the given byte sizes (each
/// rounded up to a cache line). A run's scratch is thereby a single
/// request, so a thread's arena is as large as the largest plan it ran,
/// not the sum of every plan (core/arena.h).
std::vector<char*> carve(ArenaScope& scope,
                         const std::vector<std::size_t>& bytes) {
  const auto padded = [](std::size_t b) {
    return (b + 63) & ~std::size_t{63};
  };
  std::size_t total = 0;
  for (std::size_t b : bytes) total += padded(b);
  char* p = static_cast<char*>(scope.alloc(total));
  std::vector<char*> out(bytes.size());
  for (size_t i = 0; i < bytes.size(); ++i) {
    out[i] = p;
    p += padded(bytes[i]);
  }
  return out;
}

std::vector<real_t> hoist_bias(const Tensor& bias, index_t cout) {
  std::vector<real_t> out(size_t(cout), 0.0f);
  if (bias.defined()) {
    std::memcpy(out.data(), bias.data(),
                size_t(cout) * sizeof(real_t));
  }
  return out;
}

// Value locations (CompiledGraph::Impl::value_loc).
constexpr int kLocDead = -3;    ///< absorbed into a fused step
constexpr int kLocInput = -2;   ///< the graph input tensor
constexpr int kLocOutput = -1;  ///< the run() output tensor

}  // namespace

struct CompiledGraph::Impl {
  ValueShape in_shape, out_shape;
  int out_node = -1;
  core::Precision prec = core::Precision::kF32;
  std::vector<Step> steps;
  std::vector<int> value_loc;       ///< per node id
  std::vector<index_t> value_off;   ///< per node id: floats into its slab
  std::vector<index_t> slab_sizes;  ///< floats per slab
  std::vector<float> node_scale;    ///< int8: per node id (calibration)
  Stats stats;
  std::vector<BufferPlan> plans;

  /// The step walker, one instantiation per storage format (the
  /// format traits are defined after compile()).
  template <class Fmt>
  Tensor execute(const Tensor& input, const Fmt& fmt) const;
  void prepare_lowp(core::Precision prec);
};

CompiledGraph::CompiledGraph(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
CompiledGraph::CompiledGraph(CompiledGraph&&) noexcept = default;
CompiledGraph& CompiledGraph::operator=(CompiledGraph&&) noexcept = default;
CompiledGraph::~CompiledGraph() = default;

const CompiledGraph::Stats& CompiledGraph::stats() const {
  return impl_->stats;
}
const std::vector<BufferPlan>& CompiledGraph::plan() const {
  return impl_->plans;
}

namespace {

/// Fusion walk. Emits one Step per surviving node in schedule order.
/// Legality (see graph.h): a bn or instance norm is absorbed into its
/// producing conv / deconv only when it is that conv's sole consumer and
/// the conv is not the graph output; an activation is absorbed only
/// behind a norm epilogue, under the same sole-consumer / non-output
/// rule.
/// A conv WITHOUT a bn never absorbs an activation: pushing x through
/// the identity affine (madd) turns -0 into +0, which would break
/// bitwise parity with the standalone leaky_relu kernel.
std::vector<Step> fuse_steps(const Graph& g, bool fuse, int* fused_away) {
  TRACE_SPAN("graph.fuse");
  const auto order = g.schedule();
  const auto cons = g.consumers();
  std::vector<char> absorbed(size_t(g.num_nodes()), 0);
  std::vector<Step> steps;
  *fused_away = 0;

  const auto sole_consumer = [&](int id) -> const Node* {
    if (cons[size_t(id)].size() != 1 || id == g.output()) return nullptr;
    return &g.node(cons[size_t(id)][0]);
  };

  for (int id : order) {
    if (absorbed[size_t(id)]) continue;
    const Node& n = g.node(id);
    if (n.kind == OpKind::kInput) continue;

    Step s;
    s.kind = n.kind;
    s.out_node = id;
    s.in_nodes = n.inputs;
    s.out_shape = n.shape;
    s.in_shape = g.node(n.inputs.empty() ? id : n.inputs[0]).shape;

    switch (n.kind) {
      case OpKind::kConv2d:
      case OpKind::kDeconv2d: {
        s.weight = n.weight;
        s.k = n.ksize;
        s.pad = n.pad;
        s.bias = hoist_bias(n.bias, n.shape.c);
        if (fuse) {
          const Node* bn = sole_consumer(id);
          if (bn && (bn->kind == OpKind::kBatchNorm ||
                     bn->kind == OpKind::kInstanceNorm)) {
            take_norm(*bn, &s);
            absorbed[size_t(bn->id)] = 1;
            ++*fused_away;
            s.out_node = bn->id;
            s.out_shape = bn->shape;
            const Node* a = sole_consumer(bn->id);
            if (a && (a->kind == OpKind::kRelu ||
                      a->kind == OpKind::kLeakyRelu)) {
              s.act = act_code(a->kind);
              s.slope = a->slope;
              absorbed[size_t(a->id)] = 1;
              ++*fused_away;
              s.out_node = a->id;
              s.out_shape = a->shape;
            }
          }
        }
        break;
      }
      case OpKind::kBatchNorm:
      case OpKind::kInstanceNorm: {
        take_norm(n, &s);
        if (fuse) {
          const Node* a = sole_consumer(id);
          if (a &&
              (a->kind == OpKind::kRelu || a->kind == OpKind::kLeakyRelu)) {
            s.act = act_code(a->kind);
            s.slope = a->slope;
            absorbed[size_t(a->id)] = 1;
            ++*fused_away;
            s.out_node = a->id;
            s.out_shape = a->shape;
          }
        }
        break;
      }
      case OpKind::kRelu:
      case OpKind::kLeakyRelu:
        s.act = act_code(n.kind);
        s.slope = n.slope;
        break;
      case OpKind::kMaxPool:
        s.pool = n.pool;
        break;
      case OpKind::kUnpool: {
        // Hoisted interpolation tables (the per-call table build the
        // op pays is one of the wins the alloc-flatness test pins).
        const ValueShape& in = s.in_shape;
        s.ly.reserve(size_t(s.out_shape.h));
        for (index_t o = 0; o < s.out_shape.h; ++o) {
          s.ly.push_back(ops::unpool_lerp(o, n.scale, in.h));
        }
        s.lx.reserve(size_t(s.out_shape.w));
        for (index_t o = 0; o < s.out_shape.w; ++o) {
          s.lx.push_back(ops::unpool_lerp(o, n.scale, in.w));
        }
        break;
      }
      case OpKind::kConcat:
        s.concat_c.reserve(n.inputs.size());
        for (int in : n.inputs) {
          s.concat_c.push_back(g.node(in).shape.c);
        }
        break;
      case OpKind::kAdd:
        break;
      case OpKind::kInput:
        break;
    }
    steps.push_back(std::move(s));
  }
  return steps;
}

/// Greedy liveness-based slab assignment in step order. A value's slab
/// is freed only AFTER its last reader's output got a slab, so a step
/// never writes the buffer it is reading (the kernels rely on that:
/// all non-epilogue paths are restrict-qualified). The fused epilogue
/// is the one deliberate in-place pass and touches only the step's own
/// output slab.
///
/// With `in_place_concat` (fp32 at batch 1, where a channel slice is
/// contiguous), a concat input that nothing else reads is produced
/// straight into its slice of the concat's buffer, which is taken when
/// the first such input is produced; the concat step then copies only
/// its other inputs. In a U-Net-style decoder that removes the copy of
/// the upsampled trunk and the peak where it is live next to the
/// concatenation.
void plan_buffers(const Graph& g, const std::vector<Step>& steps,
                  int out_node, bool in_place_concat,
                  std::vector<int>* value_loc,
                  std::vector<index_t>* value_off,
                  std::vector<index_t>* slab_sizes,
                  std::vector<BufferPlan>* plans) {
  TRACE_SPAN("graph.plan");
  const size_t num_nodes = size_t(g.num_nodes());
  value_loc->assign(num_nodes, kLocDead);
  value_off->assign(num_nodes, 0);
  (*value_loc)[0] = kLocInput;

  std::vector<int> last_use(num_nodes, -1), reads(num_nodes, 0);
  std::vector<int> producer(num_nodes, -1);
  for (int si = 0; si < int(steps.size()); ++si) {
    producer[size_t(steps[size_t(si)].out_node)] = si;
    for (int in : steps[size_t(si)].in_nodes) {
      last_use[size_t(in)] = si;
      ++reads[size_t(in)];
    }
  }

  // host[v]: the concat whose buffer v is produced into, at host_off[v]
  // floats; taken[c]: the step from which concat c's buffer is held.
  std::vector<int> host(num_nodes, -1), taken(num_nodes, -1);
  std::vector<index_t> host_off(num_nodes, 0);
  for (int si = 0; in_place_concat && si < int(steps.size()); ++si) {
    const Step& s = steps[size_t(si)];
    if (s.kind != OpKind::kConcat || s.out_node == out_node ||
        s.out_shape.n != 1) {
      continue;
    }
    taken[size_t(s.out_node)] = si;
    index_t off = 0;
    for (size_t j = 0; j < s.in_nodes.size(); ++j) {
      const int in = s.in_nodes[j];
      const int p = producer[size_t(in)];
      if (p >= 0 && reads[size_t(in)] == 1 && in != out_node &&
          steps[size_t(p)].kind != OpKind::kConcat) {
        host[size_t(in)] = s.out_node;
        host_off[size_t(in)] = off;
        taken[size_t(s.out_node)] = std::min(taken[size_t(s.out_node)], p);
      }
      off += s.concat_c[j] * s.out_shape.h * s.out_shape.w;
    }
  }

  plans->push_back(BufferPlan{0, -1, g.input_shape().numel(), -1,
                              last_use[0], 0, -1});

  std::vector<char> slab_free;
  // Best fit: smallest free slab that holds `need`; otherwise grow the
  // largest free slab; otherwise open a new one.
  const auto take = [&](index_t need) {
    int best = -1, largest = -1;
    for (int i = 0; i < int(slab_sizes->size()); ++i) {
      if (!slab_free[size_t(i)]) continue;
      if ((*slab_sizes)[size_t(i)] >= need &&
          (best < 0 ||
           (*slab_sizes)[size_t(i)] < (*slab_sizes)[size_t(best)])) {
        best = i;
      }
      if (largest < 0 ||
          (*slab_sizes)[size_t(i)] > (*slab_sizes)[size_t(largest)]) {
        largest = i;
      }
    }
    if (best < 0 && largest >= 0) {
      best = largest;
      (*slab_sizes)[size_t(best)] = need;
    }
    if (best < 0) {
      best = int(slab_sizes->size());
      slab_sizes->push_back(need);
      slab_free.push_back(0);
    }
    slab_free[size_t(best)] = 0;
    return best;
  };

  for (int si = 0; si < int(steps.size()); ++si) {
    const Step& s = steps[size_t(si)];
    const int v = s.out_node;
    const int h = host[size_t(v)];
    const index_t need = s.out_shape.numel();
    if (v == out_node) {
      (*value_loc)[size_t(v)] = kLocOutput;
    } else if (h >= 0) {
      if ((*value_loc)[size_t(h)] == kLocDead) {
        (*value_loc)[size_t(h)] = take(g.node(h).shape.numel());
      }
      (*value_loc)[size_t(v)] = (*value_loc)[size_t(h)];
      (*value_off)[size_t(v)] = host_off[size_t(v)];
    } else if ((*value_loc)[size_t(v)] == kLocDead) {
      (*value_loc)[size_t(v)] = take(need);
    }  // else: a concat whose buffer an in-place input already took
    const int loc = (*value_loc)[size_t(v)];
    plans->push_back(BufferPlan{
        v, loc < 0 ? -1 : loc, need,
        taken[size_t(v)] >= 0 ? taken[size_t(v)] : si,
        std::max(last_use[size_t(v)], si), (*value_off)[size_t(v)], h});
    for (int in : s.in_nodes) {
      // An in-place input's memory belongs to its concat.
      const int in_loc = (*value_loc)[size_t(in)];
      if (in_loc >= 0 && host[size_t(in)] < 0 &&
          last_use[size_t(in)] == si) {
        slab_free[size_t(in_loc)] = 1;
      }
    }
  }
}

// ------------------------------------------------- low-precision prep

/// Weight quantization rounding (compile-time only — nothing at run
/// time has to reproduce it, it just has to be deterministic).
std::int16_t quant_weight(float v) {
  v = v > -127.0f ? v : -127.0f;
  v = v < 127.0f ? v : 127.0f;
  return static_cast<std::int16_t>(std::lrintf(v));
}

void build_half_weights(Step* s, bool deconv, bool bf) {
  const index_t k2 = s->k * s->k;
  const index_t cin = deconv ? s->weight.dim(0) : s->weight.dim(1);
  const index_t cout = deconv ? s->weight.dim(1) : s->weight.dim(0);
  s->whalf.resize(size_t(cout * cin * k2));
  const real_t* wp = s->weight.data();
  for (index_t co = 0; co < cout; ++co) {
    for (index_t ci = 0; ci < cin; ++ci) {
      const real_t* src =
          deconv ? wp + (ci * cout + co) * k2 : wp + (co * cin + ci) * k2;
      std::uint16_t* dst = s->whalf.data() + (co * cin + ci) * k2;
      for (index_t i = 0; i < k2; ++i) {
        // f16 uses the ftz flush: the widening of subnormal halves is
        // the slow direction on F16C hardware, and wbuf re-widens the
        // weights on every worker job.
        dst[i] =
            bf ? f32_to_bf16_bits(src[i]) : f32_to_f16_bits_ftz(src[i]);
      }
    }
  }
}

void build_i8_weights(Step* s, bool deconv, float s_in) {
  const index_t k2 = s->k * s->k;
  const index_t cin = deconv ? s->weight.dim(0) : s->weight.dim(1);
  const index_t cout = deconv ? s->weight.dim(1) : s->weight.dim(0);
  const index_t cinp = (cin + 1) / 2;
  s->m.resize(size_t(cout));
  s->wq.assign(size_t(cout * cinp * k2 * 2), 0);
  const real_t* wp = s->weight.data();
  const auto tap = [&](index_t co, index_t ci) {
    return deconv ? wp + (ci * cout + co) * k2 : wp + (co * cin + ci) * k2;
  };
  for (index_t co = 0; co < cout; ++co) {
    float amax = 0.0f;
    for (index_t ci = 0; ci < cin; ++ci) {
      const real_t* src = tap(co, ci);
      for (index_t i = 0; i < k2; ++i) {
        const float a = std::fabs(src[i]);
        if (a > amax) amax = a;
      }
    }
    const float sw = amax > 0.0f ? amax / 127.0f : 1.0f;
    const float inv = 1.0f / sw;
    s->m[size_t(co)] = s_in * sw;
    for (index_t ci = 0; ci < cin; ++ci) {
      const real_t* src = tap(co, ci);
      std::int16_t* dst =
          s->wq.data() + ((co * cinp + ci / 2) * k2) * 2 + (ci & 1);
      for (index_t i = 0; i < k2; ++i) {
        dst[i * 2] = quant_weight(src[i] * inv);
      }
    }
  }
}

}  // namespace

/// Fills the per-step low-precision images after fusion. The executed
/// low-precision paths never consult Node weights again — everything
/// they need is baked here. (A member because anonymous-namespace free
/// functions cannot name the private nested Impl.)
void CompiledGraph::Impl::prepare_lowp(core::Precision prec) {
  TRACE_SPAN("graph.lowp_prep");
  Impl* im = this;
  const bool i8 = prec == core::Precision::kInt8;
  const bool bf = prec == core::Precision::kBf16;
  for (Step& s : im->steps) {
    // Below fp32 the executor materializes the graph output in fp32
    // only; a graph whose output feeds another node would need a
    // quantized copy too. No supported network does that.
    for (int in : s.in_nodes) {
      if (in == im->out_node) {
        throw std::invalid_argument(
            "compile: low-precision graphs cannot read the output node");
      }
    }
    const bool deconv = s.kind == OpKind::kDeconv2d;
    if (s.kind == OpKind::kConv2d || s.kind == OpKind::kDeconv2d) {
      if (i8) {
        build_i8_weights(&s, deconv,
                         im->node_scale[size_t(s.in_nodes[0])]);
      } else {
        build_half_weights(&s, deconv, bf);
      }
    } else if (i8 && s.kind == OpKind::kConcat) {
      // Calibration unifies concat groups, so this normally holds and
      // the quantized concat is pure pair movement; odd channel counts
      // or divergent scales fall back to dequant/requant.
      const float s_out = im->node_scale[size_t(s.out_node)];
      bool fast = s.out_shape.c % 2 == 0;
      for (size_t j = 0; j < s.in_nodes.size(); ++j) {
        fast = fast && s.concat_c[j] % 2 == 0 &&
               im->node_scale[size_t(s.in_nodes[j])] == s_out;
      }
      s.concat_fast = fast;
    }
  }
}

CompiledGraph compile(const Graph& g, const CompileOptions& opt) {
  TRACE_SPAN("graph.compile");
  auto impl = std::make_unique<CompiledGraph::Impl>();
  impl->in_shape = g.input_shape();
  impl->out_node = g.output();
  impl->out_shape = g.node(impl->out_node).shape;
  impl->prec = opt.precision;
  if (opt.precision == core::Precision::kInt8) {
    if (int(opt.calibration.node_scale.size()) != g.num_nodes()) {
      throw std::invalid_argument(
          "compile: int8 precision requires a calibration with one "
          "scale per node (see graph::calibrate)");
    }
    impl->node_scale = opt.calibration.node_scale;
  }
  if (opt.precision != core::Precision::kF32) {
    for (const Node& n : g.nodes()) {
      if (n.kind == OpKind::kInstanceNorm) {
        throw std::invalid_argument(
            "compile: instance norm is supported at fp32 only");
      }
    }
  }

  int fused_away = 0;
  impl->steps = fuse_steps(g, opt.fuse, &fused_away);
  if (opt.precision != core::Precision::kF32) {
    impl->prepare_lowp(opt.precision);
  }
  // Slab planning is precision-agnostic: plans are sized in fp32
  // elements, which upper-bounds every storage format (u16 needs half,
  // int8 pairs at most half), so the placement is valid for all of
  // them and the planner invariants tests pin stay unchanged.
  plan_buffers(g, impl->steps, impl->out_node,
               /*in_place_concat=*/opt.precision == core::Precision::kF32,
               &impl->value_loc, &impl->value_off, &impl->slab_sizes,
               &impl->plans);

  impl->stats.steps = int(impl->steps.size());
  impl->stats.fused_away = fused_away;
  impl->stats.slabs = int(impl->slab_sizes.size());
  impl->stats.slab_floats = 0;
  for (index_t f : impl->slab_sizes) impl->stats.slab_floats += f;
  return CompiledGraph(std::move(impl));
}

// ------------------------------------------------------ storage formats
//
// Impl::execute walks the schedule once for every storage format. What
// differs between formats lives in one small trait each:
//
//   Elem, kGroup   stored element type, and the channels one storage
//                  group holds: int8 interleaves channel pairs, the
//                  other formats store planar channels
//   kSlabBytes     bytes per planned element (plans count fp32
//                  elements; every format fits in that many bytes)
//   load, store    one group of planes (for planar formats, any flat
//                  run of elements) widened to fp32 scratch and
//                  narrowed back. The fp32 load returns the stored
//                  planes themselves and its store never runs: every
//                  fp32 step writes its destination directly.
//   copies_concat  whether a concat is pure movement of stored elements
//   conv           the conv/deconv job, which keeps each format's own
//                  numeric contract (DESIGN.md §13)
//
// Below fp32 the graph input enters through the format's store. Every
// format writes the step that defines the graph output straight in fp32.

namespace {

/// Output rows per banded low-precision conv job.
constexpr index_t kTileRows = 16;

/// Splits a conv job index into (image, output-channel group, row band),
/// the band varying fastest.
struct ConvJob {
  index_t ni, co0, oy0, oy1;
  ConvJob(index_t job, index_t group, index_t ngroups, index_t nbands,
          index_t h)
      : ni(job / (ngroups * nbands)),
        co0(job / nbands % ngroups * group),
        oy0(job % nbands * kTileRows),
        oy1(std::min(h, oy0 + kTileRows)) {}
};

struct F32 {
  using Elem = real_t;
  static constexpr index_t kGroup = 1;
  static constexpr std::size_t kSlabBytes = sizeof(real_t);

  const real_t* load(int, const real_t* p, index_t, index_t,
                     ArenaScope&) const {
    return p;
  }
  void store(int, const real_t*, index_t, index_t, real_t*) const {}
  bool copies_concat(const Step&, const real_t*) const { return true; }

  // Two-rounding quad rows. Output channels run in groups of four
  // through the quad row kernels: four independent accumulator chains
  // share every input-row load, which both hides FMA latency and
  // quarters the input traffic. Each chain replays the single-channel
  // (ci, ky, kx) tap order, so results stay bitwise identical to
  // ops::conv2d / ops::deconv2d at any group split. A job owns whole
  // planes, so instance statistics are complete when its epilogue runs.
  void conv(const Step& s, const real_t* src, real_t*, real_t* yf) const {
    const simd::KernelTable& kt = simd::kernels();
    const bool deconv = s.kind == OpKind::kDeconv2d;
    const real_t* wp = s.weight.data();
    const ValueShape in = s.in_shape, o = s.out_shape;
    const index_t cin = in.c, cout = o.c, k = s.k, pad = s.pad;
    const index_t spatial = o.h * o.w;
    // Filter slice strides: conv weights are (Cout, Cin, K, K), deconv
    // weights (Cin, Cout, K, K).
    const index_t wstride_ci = deconv ? cout * k * k : k * k;
    const index_t wstride_co = deconv ? k * k : cin * k * k;
    const index_t ngroups = (cout + 3) / 4;
    parallel_for(
        0, o.n * ngroups,
        [&](index_t job) {
          const index_t ni = job / ngroups;
          const index_t co0 = (job % ngroups) * 4;
          const int nco = int(std::min<index_t>(4, cout - co0));
          const real_t* in_n = src + ni * cin * in.h * in.w;
          real_t* out_p = yf + (ni * cout + co0) * spatial;
          const real_t* bias_p = s.bias.data() + co0;
          for (index_t oy = 0; oy < o.h; ++oy) {
            kt.conv2d_row4_s1(in_n, wp + co0 * wstride_co, wstride_ci,
                              wstride_co, out_p + oy * o.w, spatial, nco,
                              cin, in.h, in.w, k, oy, pad, o.w, bias_p,
                              deconv);
          }
          if (s.has_affine || s.inorm) {
            // The fused epilogue: bn (+ activation) applied in place on
            // planes that are still cache-hot.
            for (int j = 0; j < nco; ++j) {
              real_t* p = out_p + j * spatial;
              const auto [sc, sh] = plane_affine(s, co0 + j, p, spatial);
              kt.scale_shift_act(p, p, spatial, sc, sh, s.act, s.slope);
            }
          }
        },
        /*grain=*/1);
  }
};

/// fp16 / bf16: weights and every intermediate value are stored as
/// 16-bit elements; arithmetic is fp32, and each store narrows with RNE.
struct Half {
  using Elem = std::uint16_t;
  static constexpr index_t kGroup = 1;
  static constexpr std::size_t kSlabBytes = sizeof(std::uint16_t);

  const simd::KernelTable& kt;
  void (*to)(const float*, std::uint16_t*, index_t);
  void (*from)(const std::uint16_t*, float*, index_t);
  void (*store_ep)(const float*, std::uint16_t*, index_t, float, float, int,
                   float);

  explicit Half(bool bf)
      : kt(simd::kernels()),
        to(bf ? kt.cvt_f32_to_bf16 : kt.cvt_f32_to_f16),
        from(bf ? kt.cvt_bf16_to_f32 : kt.cvt_f16_to_f32),
        store_ep(bf ? kt.scale_shift_act_store_bf16
                    : kt.scale_shift_act_store_f16) {}

  const real_t* load(int, const Elem* p, index_t nch, index_t hw,
                     ArenaScope& ws) const {
    real_t* x = ws.alloc_floats(nch * hw);
    from(p, x, nch * hw);
    return x;
  }
  void store(int, const real_t* y, index_t nch, index_t hw, Elem* p) const {
    to(y, p, nch * hw);
  }
  bool copies_concat(const Step&, const real_t* yf) const { return !yf; }

  // Widened single-rounding FMA octets. The weights and a band of input
  // rows widen once per job, then the fp32-load FMA row kernel runs:
  // widening is elementwise-exact, so each output is the bias-first
  // fmaf chain over the stored values in (ci, ky, kx) order (test_lowprec
  // pins the kernel against that loop). Octets, not quads: the row8 kernel
  // amortizes each pass over the widened input across 8 output
  // channels, which matters because the co=8 dense-layer convs are
  // memory-bound (grouping is bit-neutral — each channel keeps its own
  // fmadd order). Jobs run over (n, octet, 16-row band), so even the
  // 8/16-channel layers split into enough jobs to fill every lane.
  void conv(const Step& s, const Elem* src, Elem* dst, real_t* yf) const {
    const bool deconv = s.kind == OpKind::kDeconv2d;
    const ValueShape in = s.in_shape, o = s.out_shape;
    const index_t cin = in.c, cout = o.c, k = s.k, pad = s.pad;
    const index_t spatial = o.h * o.w, in_hw = in.h * in.w;
    const index_t ngroups = (cout + 7) / 8;
    const index_t nbands = (o.h + kTileRows - 1) / kTileRows;
    parallel_for(
        0, o.n * ngroups * nbands,
        [&](index_t job) {
          const ConvJob jb(job, 8, ngroups, nbands, o.h);
          const int nco = int(std::min<index_t>(8, cout - jb.co0));
          const index_t count = (jb.oy1 - jb.oy0) * o.w;
          ArenaScope ws;
          const index_t wcount = index_t(nco) * cin * k * k;
          real_t* wbuf = ws.alloc_floats(wcount);
          from(s.whalf.data() + jb.co0 * cin * k * k, wbuf, wcount);
          // fp32 accumulators: the graph output's own rows, or scratch.
          const index_t ostride = yf ? spatial : count;
          real_t* acc = yf ? yf + (jb.ni * cout + jb.co0) * spatial +
                                 jb.oy0 * o.w
                           : ws.alloc_floats(index_t(nco) * count);
          // Banded widening: the input rows [oy0-pad, oy1-1+pad]
          // clipped to the image, small enough to stay in L2. With
          // "same" padding the kernel's border clamps over (band
          // height, local oy) coincide exactly with the full-image
          // clamps — for conv and deconv alike — so every output keeps
          // its bits while the k-fold tap re-reads come from L2.
          const index_t by0 = std::max<index_t>(0, jb.oy0 - pad);
          const index_t bh = std::min<index_t>(in.h, jb.oy1 + pad) - by0;
          real_t* band = ws.alloc_floats(cin * bh * in.w);
          {
            TRACE_SPAN_V("graph.step.conv.widen");
            const Elem* src_n = src + jb.ni * cin * in_hw;
            for (index_t ci = 0; ci < cin; ++ci) {
              from(src_n + ci * in_hw + by0 * in.w, band + ci * bh * in.w,
                   bh * in.w);
            }
          }
          for (index_t oy = jb.oy0; oy < jb.oy1; ++oy) {
            kt.conv2d_row8_s1_fma(band, wbuf, k * k, cin * k * k,
                                  acc + (oy - jb.oy0) * o.w, ostride, nco,
                                  cin, bh, in.w, k, oy - by0, pad, o.w,
                                  s.bias.data() + jb.co0, deconv);
          }
          for (int j = 0; j < nco; ++j) {
            real_t* a = acc + j * ostride;
            const size_t co = size_t(jb.co0 + j);
            if (yf) {
              if (s.has_affine) {
                kt.scale_shift_act(a, a, count, s.scale[co], s.shift[co],
                                   s.act, s.slope);
              }
              continue;
            }
            Elem* q = dst + (jb.ni * cout + index_t(co)) * spatial +
                      jb.oy0 * o.w;
            if (s.has_affine) {
              store_ep(a, q, count, s.scale[co], s.shift[co], s.act,
                       s.slope);
            } else {
              // Plain converting copy: an identity-affine madd would
              // flip the sign of -0.
              to(a, q, count);
            }
          }
        },
        /*grain=*/1);
  }
};

/// Calibrated symmetric int8: activations live as channel-pair
/// interleaved int8 planes (core/simd.h), one storage group per pair.
struct Int8 {
  using Elem = std::int8_t;
  static constexpr index_t kGroup = 2;
  // Pair interleaving rounds odd channel counts up, so a value needs at
  // most 2x its element count in bytes.
  static constexpr std::size_t kSlabBytes = 2;

  const std::vector<float>& scale;  ///< per node id (calibration)
  const simd::KernelTable& kt = simd::kernels();

  const real_t* load(int node, const Elem* p, index_t nch, index_t hw,
                     ArenaScope& ws) const {
    real_t* x = ws.alloc_floats(nch * hw);
    kt.dequant_i8_to_f32(p, x, nch == 2 ? x + hw : nullptr, hw,
                         scale[size_t(node)]);
    return x;
  }
  void store(int node, const real_t* y, index_t nch, index_t hw,
             Elem* p) const {
    kt.quant_f32_to_i8(y, nch == 2 ? y + hw : nullptr, p, hw,
                       1.0f / scale[size_t(node)]);
  }
  // Calibration unifies concat groups, so a concat is normally pure
  // pair movement; odd channel counts or divergent scales go through
  // fp32.
  bool copies_concat(const Step& s, const real_t* yf) const {
    return !yf && s.concat_fast;
  }

  // Exact-int32 VPMADDWD quads. Jobs run over (n, quad, 16-row band);
  // the fused epilogue dequantizes, applies the hoisted bn/activation in
  // fp32 and requantizes to the consumer's scale (or stores the fp32
  // graph output).
  void conv(const Step& s, const Elem* src, Elem* dst, real_t* yf) const {
    const bool deconv = s.kind == OpKind::kDeconv2d;
    const ValueShape in = s.in_shape, o = s.out_shape;
    const index_t cout = o.c, k = s.k;
    const index_t hw_i = in.h * in.w, spatial = o.h * o.w;
    const index_t cinp = (in.c + 1) / 2, cpo = (cout + 1) / 2;
    const index_t wstride_co = cinp * k * k * 2;
    const index_t ngroups = (cout + 3) / 4;
    const index_t nbands = (o.h + kTileRows - 1) / kTileRows;
    const float inv_out = 1.0f / scale[size_t(s.out_node)];
    parallel_for(
        0, o.n * ngroups * nbands,
        [&](index_t job) {
          const ConvJob jb(job, 4, ngroups, nbands, o.h);
          const int nco = int(std::min<index_t>(4, cout - jb.co0));
          const index_t count = (jb.oy1 - jb.oy0) * o.w;
          ArenaScope ws;
          std::int32_t* acc = static_cast<std::int32_t*>(ws.alloc(
              std::size_t(nco) * std::size_t(count) * sizeof(std::int32_t)));
          const Elem* in_n = src + jb.ni * cinp * hw_i * 2;
          const std::int16_t* wg = s.wq.data() + jb.co0 * wstride_co;
          for (index_t oy = jb.oy0; oy < jb.oy1; ++oy) {
            kt.conv2d_row4_s1_i8(in_n, wg, wstride_co,
                                 acc + (oy - jb.oy0) * o.w, count, nco, cinp,
                                 in.h, in.w, k, oy, s.pad, o.w, deconv);
          }
          if (yf) {
            for (int j = 0; j < nco; ++j) {
              const size_t co = size_t(jb.co0 + j);
              kt.dequant_epilogue_f32(
                  acc + j * count,
                  yf + (jb.ni * cout + index_t(co)) * spatial +
                      jb.oy0 * o.w,
                  count, s.m[co], s.bias[co], s.has_affine ? 1 : 0,
                  s.has_affine ? s.scale[co] : 1.0f,
                  s.has_affine ? s.shift[co] : 0.0f, s.act, s.slope);
            }
            return;
          }
          for (int t = 0; 2 * t < nco; ++t) {
            const size_t ce = size_t(jb.co0 + 2 * t);
            const bool two = 2 * t + 1 < nco;
            simd::QuantEpilogueParams p;
            p.m0 = s.m[ce];
            p.bias0 = s.bias[ce];
            p.m1 = two ? s.m[ce + 1] : 1.0f;
            p.bias1 = two ? s.bias[ce + 1] : 0.0f;
            p.has_affine = s.has_affine ? 1 : 0;
            if (s.has_affine) {
              p.scale0 = s.scale[ce];
              p.shift0 = s.shift[ce];
              if (two) {
                p.scale1 = s.scale[ce + 1];
                p.shift1 = s.shift[ce + 1];
              }
            }
            p.act = s.act;
            p.slope = s.slope;
            p.inv_out = inv_out;
            kt.quant_epilogue_store_i8(
                acc + 2 * t * count, two ? acc + (2 * t + 1) * count : nullptr,
                dst + (jb.ni * cpo + index_t(ce) / 2) * spatial * 2 +
                    jb.oy0 * o.w * 2,
                count, p);
          }
        },
        /*grain=*/1);
  }
};

}  // namespace

template <class Fmt>
Tensor CompiledGraph::Impl::execute(const Tensor& input,
                                    const Fmt& fmt) const {
  using E = typename Fmt::Elem;
  constexpr bool kF32 = std::is_same_v<E, real_t>;
  constexpr index_t G = Fmt::kGroup;
  const simd::KernelTable& kt = simd::kernels();
  Tensor out({out_shape.n, out_shape.c, out_shape.h, out_shape.w});
  real_t* out_data = out.data();

  // All intermediates live in this thread's arena for the duration of
  // the call; concurrent run() callers therefore never share buffers.
  // Below fp32 the block also holds the converted graph input.
  ArenaScope scope;
  std::vector<std::size_t> bytes;
  for (index_t f : slab_sizes) {
    bytes.push_back(std::size_t(f) * Fmt::kSlabBytes);
  }
  bytes.push_back(kF32 ? 0 : std::size_t(in_shape.numel()) * Fmt::kSlabBytes);
  const std::vector<char*> block = carve(scope, bytes);

  // Calls fn(ni, c0, nch) in parallel for each storage group of a value:
  // channels [c0, c0 + nch) of image ni.
  const auto each_group = [&](const ValueShape& v, const auto& fn) {
    const index_t ng = (v.c + G - 1) / G;
    parallel_for(
        0, v.n * ng,
        [&](index_t job) {
          const index_t c0 = job % ng * G;
          fn(job / ng, c0, std::min(G, v.c - c0));
        },
        /*grain=*/1);
  };
  // Element offset of channel c0 of image ni in a stored value (channel
  // count padded to whole groups) and in an fp32 tensor.
  const auto stored_at = [](const ValueShape& v, index_t ni, index_t c0) {
    return (ni * ((v.c + G - 1) / G * G) + c0) * v.h * v.w;
  };
  const auto f32_at = [](const ValueShape& v, index_t ni, index_t c0) {
    return (ni * v.c + c0) * v.h * v.w;
  };

  const E* in_data = nullptr;
  if constexpr (kF32) {
    in_data = input.data();
  } else {
    E* q = reinterpret_cast<E*>(block.back());
    const index_t hw = in_shape.h * in_shape.w;
    each_group(in_shape, [&](index_t ni, index_t c0, index_t nch) {
      fmt.store(0, input.data() + f32_at(in_shape, ni, c0), nch, hw,
                q + stored_at(in_shape, ni, c0));
    });
    in_data = q;
  }
  // Below fp32 no step reads the graph output (prepare_lowp), and the
  // step that defines it writes fp32 `out` instead of a stored value.
  const auto ptr = [&](int node) -> E* {
    const int loc = value_loc[size_t(node)];
    if (loc == kLocInput) return const_cast<E*>(in_data);
    if (loc == kLocOutput) {
      return kF32 ? reinterpret_cast<E*>(out_data) : nullptr;
    }
    return reinterpret_cast<E*>(block[size_t(loc)]) +
           value_off[size_t(node)];
  };

  for (const Step& s : steps) {
    const ValueShape in = s.in_shape, o = s.out_shape;
    // dst: the stored output value; yf: its fp32 destination, when the
    // step writes one directly (the graph output, or any fp32 value).
    E* const dst = ptr(s.out_node);
    real_t* yf =
        value_loc[size_t(s.out_node)] == kLocOutput ? out_data : nullptr;
    if constexpr (kF32) yf = dst;

    // Calls body(x, y, c) for each output channel c of a one-input
    // step, on fp32 planes: x of the input, y of the output.
    const auto map_planes = [&](const auto& body) {
      const index_t ihw = in.h * in.w, ohw = o.h * o.w;
      const E* src = ptr(s.in_nodes[0]);
      each_group(o, [&](index_t ni, index_t c0, index_t nch) {
        ArenaScope ws;
        const real_t* x = fmt.load(s.in_nodes[0], src + stored_at(in, ni, c0),
                                   nch, ihw, ws);
        real_t* y = yf ? yf + f32_at(o, ni, c0) : ws.alloc_floats(nch * ohw);
        for (index_t j = 0; j < nch; ++j) {
          body(x + j * ihw, y + j * ohw, c0 + j);
        }
        if (!yf) {
          fmt.store(s.out_node, y, nch, ohw, dst + stored_at(o, ni, c0));
        }
      });
    };
    // Calls body(a, b, y, n) on fp32 runs of n elements of an
    // elementwise step (b is null with one input). Planar formats split
    // flat runs, the way the ops do; int8 splits by channel pair.
    const auto map_elements = [&](const auto& body) {
      const bool two = s.in_nodes.size() > 1;
      const E* a = ptr(s.in_nodes[0]);
      const E* b = two ? ptr(s.in_nodes[1]) : nullptr;
      const auto span = [&](index_t at, index_t yat, index_t nch,
                            index_t hw) {
        ArenaScope ws;
        const real_t* xa = fmt.load(s.in_nodes[0], a + at, nch, hw, ws);
        const real_t* xb =
            two ? fmt.load(s.in_nodes[1], b + at, nch, hw, ws) : nullptr;
        real_t* y = yf ? yf + yat : ws.alloc_floats(nch * hw);
        body(xa, xb, y, nch * hw);
        if (!yf) fmt.store(s.out_node, y, nch, hw, dst + at);
      };
      if constexpr (G == 1) {
        parallel_for_blocked(
            0, o.numel(),
            [&](index_t lo, index_t hi) { span(lo, lo, 1, hi - lo); },
            /*grain=*/1 << 16);
      } else {
        each_group(o, [&](index_t ni, index_t c0, index_t nch) {
          span(stored_at(o, ni, c0), f32_at(o, ni, c0), nch, o.h * o.w);
        });
      }
    };

    switch (s.kind) {
      case OpKind::kConv2d:
      case OpKind::kDeconv2d: {
        TRACE_SPAN_V("graph.step.conv");
        fmt.conv(s, ptr(s.in_nodes[0]), dst, yf);
        break;
      }
      case OpKind::kBatchNorm:
      case OpKind::kInstanceNorm: {
        TRACE_SPAN_V("graph.step.bn");
        const index_t spatial = o.h * o.w;
        map_planes([&](const real_t* x, real_t* y, index_t c) {
          const auto [sc, sh] = plane_affine(s, c, x, spatial);
          // act == 0 keeps the op's exact scale_shift kernel; with a
          // fused activation the combined kernel applies the same two
          // per-element expressions in one pass.
          if (s.act == 0) {
            kt.scale_shift(x, y, spatial, sc, sh);
          } else {
            kt.scale_shift_act(x, y, spatial, sc, sh, s.act, s.slope);
          }
        });
        break;
      }
      case OpKind::kRelu:
      case OpKind::kLeakyRelu: {
        TRACE_SPAN_V("graph.step.act");
        // Standalone activation: the op's own kernel (NOT the affine
        // epilogue — an identity madd would flip the sign of -0).
        map_elements(
            [&](const real_t* x, const real_t*, real_t* y, index_t n) {
              if (s.act == 1) {
                kt.relu(x, y, n);
              } else {
                kt.leaky_relu(x, y, n, s.slope);
              }
            });
        break;
      }
      case OpKind::kMaxPool: {
        TRACE_SPAN_V("graph.step.pool");
        map_planes([&](const real_t* x, real_t* y, index_t) {
          ops::max_pool2d_plane(x, y, /*arg_p=*/nullptr, in.h, in.w, o.h,
                                o.w, s.pool);
        });
        break;
      }
      case OpKind::kUnpool: {
        TRACE_SPAN_V("graph.step.unpool");
        map_planes([&](const real_t* x, real_t* y, index_t) {
          ops::unpool2d_bilinear_plane(x, y, in.w, o.h, o.w, s.ly.data(),
                                       s.lx.data());
        });
        break;
      }
      case OpKind::kConcat: {
        TRACE_SPAN_V("graph.step.concat");
        const index_t hw = o.h * o.w;
        if (fmt.copies_concat(s, yf)) {
          index_t c_off = 0;
          for (size_t j = 0; j < s.in_nodes.size(); ++j) {
            const E* src = ptr(s.in_nodes[j]);
            const index_t chan = s.concat_c[j];
            for (index_t ni = 0; ni < o.n; ++ni) {
              E* to = dst + stored_at(o, ni, c_off);
              const E* from = src + ni * chan * hw;
              // An input planned in place already sits in its slice.
              if (to == from) continue;
              std::memcpy(to, from, size_t(chan * hw) * sizeof(E));
            }
            c_off += chan;
          }
          break;
        }
        // Through fp32: every input widens into its slice of the fp32
        // output, or of a scratch copy that is then stored.
        ArenaScope ss;
        real_t* t = yf ? yf : ss.alloc_floats(o.numel());
        index_t c_off = 0;
        for (size_t j = 0; j < s.in_nodes.size(); ++j) {
          const int node = s.in_nodes[j];
          const E* src = ptr(node);
          const ValueShape v{o.n, s.concat_c[j], o.h, o.w};
          each_group(v, [&](index_t ni, index_t c0, index_t nch) {
            ArenaScope ws;
            const real_t* x =
                fmt.load(node, src + stored_at(v, ni, c0), nch, hw, ws);
            std::memcpy(t + f32_at(o, ni, c_off + c0), x,
                        size_t(nch * hw) * sizeof(real_t));
          });
          c_off += v.c;
        }
        if (!yf) {
          each_group(o, [&](index_t ni, index_t c0, index_t nch) {
            fmt.store(s.out_node, t + f32_at(o, ni, c0), nch, hw,
                      dst + stored_at(o, ni, c0));
          });
        }
        break;
      }
      case OpKind::kAdd: {
        TRACE_SPAN_V("graph.step.add");
        map_elements(
            [](const real_t* a, const real_t* b, real_t* y, index_t n) {
              for (index_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
            });
        break;
      }
      case OpKind::kInput:
        break;
    }
  }
  return out;
}

Tensor CompiledGraph::run(const Tensor& input) const {
  TRACE_SPAN("graph.run");
  const Impl& im = *impl_;
  if (input.rank() != 4 || input.dim(0) != im.in_shape.n ||
      input.dim(1) != im.in_shape.c || input.dim(2) != im.in_shape.h ||
      input.dim(3) != im.in_shape.w) {
    throw std::invalid_argument("graph.run: input shape " +
                                input.shape().str() + " != captured " +
                                im.in_shape.str());
  }
  if (im.steps.empty() || im.out_node == 0) return input.clone();
  switch (im.prec) {
    case core::Precision::kF16:
      return im.execute(input, Half(/*bf=*/false));
    case core::Precision::kBf16:
      return im.execute(input, Half(/*bf=*/true));
    case core::Precision::kInt8:
      return im.execute(input, Int8{im.node_scale});
    case core::Precision::kF32:
      break;
  }
  return im.execute(input, F32{});
}

}  // namespace ccovid::graph
