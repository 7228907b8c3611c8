// Graph compiler + executor: fusion pass, liveness-based slab planning,
// and the flat-step interpreter (DESIGN.md §12). The executed math is
// intentionally the SAME kernel calls the ops make — see graph.h for
// the bitwise contract and the legality notes inline below.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
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
  std::vector<float> wscale;  ///< per-co weight scale (absmax/127)
  std::vector<float> m;       ///< per-co dequant multiplier s_in * s_w
  float s_in = 1.0f;          ///< int8 activation scale of input 0
  float s_out = 1.0f;         ///< int8 activation scale of the output
  float inv_out = 1.0f;       ///< 1 / s_out
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

  // Low-precision executors (definitions after compile()); the fp32
  // path stays inline in CompiledGraph::run.
  Tensor run_half(const Tensor& input, bool bf) const;
  Tensor run_int8(const Tensor& input) const;
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

void build_i8_weights(Step* s, bool deconv) {
  const index_t k2 = s->k * s->k;
  const index_t cin = deconv ? s->weight.dim(0) : s->weight.dim(1);
  const index_t cout = deconv ? s->weight.dim(1) : s->weight.dim(0);
  const index_t cinp = (cin + 1) / 2;
  s->wscale.resize(size_t(cout));
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
    s->wscale[size_t(co)] = sw;
    s->m[size_t(co)] = s->s_in * sw;
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
    // The low-precision executors materialize the graph output in fp32
    // only; a graph whose output feeds another node would need a
    // quantized copy too. No supported network does that.
    for (int in : s.in_nodes) {
      if (in == im->out_node) {
        throw std::invalid_argument(
            "compile: low-precision graphs cannot read the output node");
      }
    }
    if (i8) {
      s.s_in = s.in_nodes.empty()
                   ? 1.0f
                   : im->node_scale[size_t(s.in_nodes[0])];
      s.s_out = im->node_scale[size_t(s.out_node)];
      s.inv_out = 1.0f / s.s_out;
    }
    const bool deconv = s.kind == OpKind::kDeconv2d;
    if (s.kind == OpKind::kConv2d || s.kind == OpKind::kDeconv2d) {
      if (i8) {
        build_i8_weights(&s, deconv);
      } else {
        build_half_weights(&s, deconv, bf);
      }
    } else if (i8 && s.kind == OpKind::kConcat) {
      // Calibration unifies concat groups, so this normally holds and
      // the quantized concat is pure pair movement; odd channel counts
      // or divergent scales fall back to dequant/requant.
      bool fast = s.out_shape.c % 2 == 0;
      for (size_t j = 0; j < s.in_nodes.size(); ++j) {
        fast = fast && s.concat_c[j] % 2 == 0 &&
               im->node_scale[size_t(s.in_nodes[j])] == s.s_out;
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

// --------------------------------------------- fp16/bf16 executor
//
// Weights and every intermediate value are stored as 16-bit elements;
// arithmetic is fp32 (single-rounding fmadd in the conv kernels, the
// ops' own fp32 expressions elsewhere). The graph input converts once
// at entry, each step's store narrows with RNE, and the graph output
// materializes in fp32.
Tensor CompiledGraph::Impl::run_half(const Tensor& input, bool bf) const {
  TRACE_SPAN("graph.run_half");
  const simd::KernelTable& kt = simd::kernels();
  const auto cvt_to = bf ? kt.cvt_f32_to_bf16 : kt.cvt_f32_to_f16;
  const auto cvt_from = bf ? kt.cvt_bf16_to_f32 : kt.cvt_f16_to_f32;
  const auto store_ep =
      bf ? kt.scale_shift_act_store_bf16 : kt.scale_shift_act_store_f16;

  Tensor out({out_shape.n, out_shape.c, out_shape.h, out_shape.w});
  real_t* out_data = out.data();

  ArenaScope scope;
  const index_t in_numel = in_shape.numel();
  std::vector<std::size_t> bytes;
  for (index_t f : slab_sizes) {
    bytes.push_back(std::size_t(f) * sizeof(std::uint16_t));
  }
  bytes.push_back(std::size_t(in_numel) * sizeof(std::uint16_t));
  const std::vector<char*> block = carve(scope, bytes);
  std::vector<std::uint16_t*> slab(slab_sizes.size());
  for (size_t i = 0; i < slab_sizes.size(); ++i) {
    slab[i] = reinterpret_cast<std::uint16_t*>(block[i]);
  }
  std::uint16_t* in_half = reinterpret_cast<std::uint16_t*>(block.back());
  cvt_to(input.data(), in_half, in_numel);

  const auto ptr = [&](int node) -> std::uint16_t* {
    const int loc = value_loc[size_t(node)];
    if (loc == kLocInput) return in_half;
    return slab[size_t(loc)];
  };

  for (const Step& s : steps) {
    const bool is_out = value_loc[size_t(s.out_node)] == kLocOutput;
    std::uint16_t* dst = is_out ? nullptr : ptr(s.out_node);
    switch (s.kind) {
      case OpKind::kConv2d:
      case OpKind::kDeconv2d: {
        TRACE_SPAN_V("graph.step.conv");
        const bool deconv = s.kind == OpKind::kDeconv2d;
        const std::uint16_t* src = ptr(s.in_nodes[0]);
        const ValueShape in = s.in_shape, o = s.out_shape;
        const index_t cin = in.c, cout = o.c, k = s.k, pad = s.pad;
        const index_t spatial = o.h * o.w;
        const index_t ngroups = (cout + 7) / 8;
        // Widen the step input ONCE, then run the fp32-load FMA row
        // kernel. The converting row kernels re-read (and re-convert)
        // every input row k times per tap loop, for each co group —
        // ~k * ngroups redundant converts per element at the graph
        // level. Widening is elementwise-exact and the _fma kernel
        // keeps the same accumulation order and single-rounding
        // contract, so the output bits are unchanged (per-precision
        // golden digests pin this). Groups are OCTETS, not quads: the
        // row8 kernel amortizes each pass over the widened input
        // across 8 output channels, which matters because the co=8
        // dense-layer convs are memory-bound (grouping is also
        // bit-neutral — each channel keeps its own fmadd order).
        const index_t in_hw = in.h * in.w;
        parallel_for(
            0, o.n * ngroups,
            [&](index_t job) {
              const index_t ni = job / ngroups;
              const index_t co0 = (job % ngroups) * 8;
              const int nco = int(std::min<index_t>(8, cout - co0));
              const std::uint16_t* src_n = src + ni * cin * in_hw;
              const real_t* bias_p = s.bias.data() + co0;
              // Worker-local scratch: the co-group's weights convert
              // to fp32 ONCE per job (amortized over every output
              // row), plus fp32 accumulator planes unless the step
              // materializes the fp32 graph output directly.
              ArenaScope ws;
              const index_t wcount = index_t(nco) * cin * k * k;
              real_t* wbuf = ws.alloc_floats(wcount);
              cvt_from(s.whalf.data() + co0 * cin * k * k, wbuf, wcount);
              real_t* acc = is_out
                                ? out_data + (ni * cout + co0) * spatial
                                : ws.alloc_floats(index_t(nco) * spatial);
              // Banded widening: instead of materializing the whole
              // fp32 input (which the tap loops then stream from L3 at
              // twice the stored bytes), widen a sliding tile of input
              // rows into a band buffer small enough to stay in L2 and
              // hand the kernel a band-local view. With "same" padding
              // the band [oy0-pad, oy1-1+pad] clipped to the image
              // makes the kernel's border clamps over (band height,
              // local oy) coincide exactly with the full-image clamps
              // — for conv and deconv alike — so every output keeps
              // its bits while the heavy k-fold re-reads come from L2.
              constexpr index_t kTileRows = 16;
              real_t* band =
                  ws.alloc_floats(cin * (kTileRows + (k - 1)) * in.w);
              for (index_t oy0 = 0; oy0 < o.h; oy0 += kTileRows) {
                const index_t oy1 =
                    std::min<index_t>(o.h, oy0 + kTileRows);
                const index_t by0 = std::max<index_t>(0, oy0 - pad);
                const index_t by1 =
                    std::min<index_t>(in.h, oy1 + pad);
                const index_t bh = by1 - by0;
                {
                  TRACE_SPAN_V("graph.step.conv.widen");
                  for (index_t ci = 0; ci < cin; ++ci) {
                    cvt_from(src_n + ci * in_hw + by0 * in.w,
                             band + ci * bh * in.w, bh * in.w);
                  }
                }
                for (index_t oy = oy0; oy < oy1; ++oy) {
                  if (deconv) {
                    kt.deconv2d_row8_s1_fma(band, wbuf, k * k,
                                            cin * k * k, acc + oy * o.w,
                                            spatial, nco, cin, bh, in.w,
                                            k, oy - by0, pad, o.w,
                                            bias_p);
                  } else {
                    kt.conv2d_row8_s1_fma(band, wbuf, k * k, cin * k * k,
                                          acc + oy * o.w, spatial, nco,
                                          cin, bh, in.w, k, oy - by0,
                                          pad, o.w, bias_p);
                  }
                }
              }
              if (is_out) {
                if (s.has_affine) {
                  for (int j = 0; j < nco; ++j) {
                    kt.scale_shift_act(acc + j * spatial, acc + j * spatial,
                                       spatial, s.scale[size_t(co0 + j)],
                                       s.shift[size_t(co0 + j)], s.act,
                                       s.slope);
                  }
                }
              } else {
                std::uint16_t* outp = dst + (ni * cout + co0) * spatial;
                for (int j = 0; j < nco; ++j) {
                  if (s.has_affine) {
                    store_ep(acc + j * spatial, outp + j * spatial,
                             spatial, s.scale[size_t(co0 + j)],
                             s.shift[size_t(co0 + j)], s.act, s.slope);
                  } else {
                    // Plain converting copy: an identity-affine madd
                    // would flip the sign of -0.
                    cvt_to(acc + j * spatial, outp + j * spatial, spatial);
                  }
                }
              }
            },
            /*grain=*/1);
        break;
      }
      case OpKind::kBatchNorm: {
        TRACE_SPAN_V("graph.step.bn");
        const std::uint16_t* src = ptr(s.in_nodes[0]);
        const ValueShape o = s.out_shape;
        const index_t spatial = o.h * o.w;
        parallel_for(
            0, o.n * o.c,
            [&](index_t plane) {
              const index_t c = plane % o.c;
              ArenaScope ws;
              real_t* tmp = ws.alloc_floats(spatial);
              cvt_from(src + plane * spatial, tmp, spatial);
              if (is_out) {
                real_t* dp = out_data + plane * spatial;
                if (s.act == 0) {
                  kt.scale_shift(tmp, dp, spatial, s.scale[size_t(c)],
                                 s.shift[size_t(c)]);
                } else {
                  kt.scale_shift_act(tmp, dp, spatial, s.scale[size_t(c)],
                                     s.shift[size_t(c)], s.act, s.slope);
                }
              } else {
                store_ep(tmp, dst + plane * spatial, spatial,
                         s.scale[size_t(c)], s.shift[size_t(c)], s.act,
                         s.slope);
              }
            },
            /*grain=*/1);
        break;
      }
      case OpKind::kRelu:
      case OpKind::kLeakyRelu: {
        TRACE_SPAN_V("graph.step.act");
        const std::uint16_t* src = ptr(s.in_nodes[0]);
        const index_t total = s.out_shape.numel();
        parallel_for_blocked(
            0, total,
            [&](index_t lo, index_t hi) {
              const index_t n = hi - lo;
              ArenaScope ws;
              real_t* ta = ws.alloc_floats(n);
              cvt_from(src + lo, ta, n);
              if (is_out) {
                if (s.act == 1) {
                  kt.relu(ta, out_data + lo, n);
                } else {
                  kt.leaky_relu(ta, out_data + lo, n, s.slope);
                }
              } else {
                real_t* tb = ws.alloc_floats(n);
                if (s.act == 1) {
                  kt.relu(ta, tb, n);
                } else {
                  kt.leaky_relu(ta, tb, n, s.slope);
                }
                cvt_to(tb, dst + lo, n);
              }
            },
            /*grain=*/1 << 16);
        break;
      }
      case OpKind::kMaxPool: {
        TRACE_SPAN_V("graph.step.pool");
        const std::uint16_t* src = ptr(s.in_nodes[0]);
        const ValueShape in = s.in_shape, o = s.out_shape;
        parallel_for(
            0, o.n * o.c,
            [&](index_t plane) {
              ArenaScope ws;
              real_t* tin = ws.alloc_floats(in.h * in.w);
              cvt_from(src + plane * in.h * in.w, tin, in.h * in.w);
              if (is_out) {
                ops::max_pool2d_plane(tin, out_data + plane * o.h * o.w,
                                      nullptr, in.h, in.w, o.h, o.w,
                                      s.pool);
              } else {
                real_t* tout = ws.alloc_floats(o.h * o.w);
                ops::max_pool2d_plane(tin, tout, nullptr, in.h, in.w, o.h,
                                      o.w, s.pool);
                cvt_to(tout, dst + plane * o.h * o.w, o.h * o.w);
              }
            },
            /*grain=*/1);
        break;
      }
      case OpKind::kUnpool: {
        TRACE_SPAN_V("graph.step.unpool");
        const std::uint16_t* src = ptr(s.in_nodes[0]);
        const ValueShape in = s.in_shape, o = s.out_shape;
        parallel_for(
            0, o.n * o.c,
            [&](index_t plane) {
              ArenaScope ws;
              real_t* tin = ws.alloc_floats(in.h * in.w);
              cvt_from(src + plane * in.h * in.w, tin, in.h * in.w);
              if (is_out) {
                ops::unpool2d_bilinear_plane(tin,
                                             out_data + plane * o.h * o.w,
                                             in.w, o.h, o.w, s.ly.data(),
                                             s.lx.data());
              } else {
                real_t* tout = ws.alloc_floats(o.h * o.w);
                ops::unpool2d_bilinear_plane(tin, tout, in.w, o.h, o.w,
                                             s.ly.data(), s.lx.data());
                cvt_to(tout, dst + plane * o.h * o.w, o.h * o.w);
              }
            },
            /*grain=*/1);
        break;
      }
      case OpKind::kConcat: {
        TRACE_SPAN_V("graph.step.concat");
        const ValueShape o = s.out_shape;
        const index_t hw = o.h * o.w;
        index_t c_off = 0;
        for (size_t j = 0; j < s.in_nodes.size(); ++j) {
          const std::uint16_t* src = ptr(s.in_nodes[j]);
          const index_t chan = s.concat_c[j];
          for (index_t ni = 0; ni < o.n; ++ni) {
            if (is_out) {
              cvt_from(src + ni * chan * hw,
                       out_data + (ni * o.c + c_off) * hw, chan * hw);
            } else {
              std::memcpy(dst + (ni * o.c + c_off) * hw,
                          src + ni * chan * hw,
                          size_t(chan * hw) * sizeof(std::uint16_t));
            }
          }
          c_off += chan;
        }
        break;
      }
      case OpKind::kAdd: {
        TRACE_SPAN_V("graph.step.add");
        const std::uint16_t* a = ptr(s.in_nodes[0]);
        const std::uint16_t* b = ptr(s.in_nodes[1]);
        parallel_for_blocked(
            0, s.out_shape.numel(),
            [&](index_t lo, index_t hi) {
              const index_t n = hi - lo;
              ArenaScope ws;
              real_t* ta = ws.alloc_floats(n);
              real_t* tb = ws.alloc_floats(n);
              cvt_from(a + lo, ta, n);
              cvt_from(b + lo, tb, n);
              for (index_t i = 0; i < n; ++i) ta[i] = ta[i] + tb[i];
              if (is_out) {
                std::memcpy(out_data + lo, ta, size_t(n) * sizeof(real_t));
              } else {
                cvt_to(ta, dst + lo, n);
              }
            },
            /*grain=*/1 << 16);
        break;
      }
      case OpKind::kInstanceNorm:  // fp32 only: compile() rejects it here
      case OpKind::kInput:
        break;
    }
  }
  return out;
}

// -------------------------------------------------- int8 executor
//
// Calibrated symmetric quantization: activations live as channel-pair
// interleaved int8 planes, conv/deconv accumulate exact int32 and the
// fused epilogue dequantizes, applies the hoisted bn/activation in
// fp32, and requantizes to the consumer's scale. Non-conv steps run
// the generic dequant -> fp32 op -> requant staging (concat short-cuts
// to pair memcpy when calibration unified its group).
Tensor CompiledGraph::Impl::run_int8(const Tensor& input) const {
  TRACE_SPAN("graph.run_int8");
  const simd::KernelTable& kt = simd::kernels();
  Tensor out({out_shape.n, out_shape.c, out_shape.h, out_shape.w});
  real_t* out_data = out.data();

  ArenaScope scope;
  const index_t hw_in = in_shape.h * in_shape.w;
  const index_t cp_in = (in_shape.c + 1) / 2;
  // Pair interleaving rounds odd channel counts up, so a value needs at
  // most 2x its element count in bytes — covered by 2x the fp32 element
  // plan.
  std::vector<std::size_t> bytes;
  for (index_t f : slab_sizes) bytes.push_back(std::size_t(f) * 2);
  bytes.push_back(std::size_t(in_shape.n * cp_in * hw_in * 2));
  const std::vector<char*> block = carve(scope, bytes);
  std::vector<std::int8_t*> slab(slab_sizes.size());
  for (size_t i = 0; i < slab_sizes.size(); ++i) {
    slab[i] = reinterpret_cast<std::int8_t*>(block[i]);
  }
  std::int8_t* in_q = reinterpret_cast<std::int8_t*>(block.back());
  const float in_inv = 1.0f / node_scale[0];
  parallel_for(
      0, in_shape.n * cp_in,
      [&](index_t job) {
        const index_t ni = job / cp_in, p = job % cp_in;
        const real_t* x0 = input.data() + (ni * in_shape.c + 2 * p) * hw_in;
        const real_t* x1 = 2 * p + 1 < in_shape.c ? x0 + hw_in : nullptr;
        kt.quant_f32_to_i8(x0, x1, in_q + (ni * cp_in + p) * hw_in * 2,
                           hw_in, in_inv);
      },
      /*grain=*/1);

  const auto ptr = [&](int node) -> std::int8_t* {
    const int loc = value_loc[size_t(node)];
    if (loc == kLocInput) return in_q;
    return slab[size_t(loc)];
  };
  // Planar fp32 staging of one quantized value (generic steps).
  const auto dequant_node = [&](int node, ValueShape sh, real_t* buf) {
    const index_t hw = sh.h * sh.w;
    const index_t cp = (sh.c + 1) / 2;
    const std::int8_t* src = ptr(node);
    const float sc = node_scale[size_t(node)];
    parallel_for(
        0, sh.n * cp,
        [&](index_t job) {
          const index_t ni = job / cp, p = job % cp;
          real_t* x0 = buf + (ni * sh.c + 2 * p) * hw;
          real_t* x1 = 2 * p + 1 < sh.c ? x0 + hw : nullptr;
          kt.dequant_i8_to_f32(src + (ni * cp + p) * hw * 2, x0, x1, hw,
                               sc);
        },
        /*grain=*/1);
  };
  const auto requant_value = [&](const real_t* buf, ValueShape sh,
                                 float inv, std::int8_t* q) {
    const index_t hw = sh.h * sh.w;
    const index_t cp = (sh.c + 1) / 2;
    parallel_for(
        0, sh.n * cp,
        [&](index_t job) {
          const index_t ni = job / cp, p = job % cp;
          const real_t* x0 = buf + (ni * sh.c + 2 * p) * hw;
          const real_t* x1 = 2 * p + 1 < sh.c ? x0 + hw : nullptr;
          kt.quant_f32_to_i8(x0, x1, q + (ni * cp + p) * hw * 2, hw, inv);
        },
        /*grain=*/1);
  };

  for (const Step& s : steps) {
    const bool is_out = value_loc[size_t(s.out_node)] == kLocOutput;
    std::int8_t* dst = is_out ? nullptr : ptr(s.out_node);
    const ValueShape o = s.out_shape;
    switch (s.kind) {
      case OpKind::kConv2d:
      case OpKind::kDeconv2d: {
        TRACE_SPAN_V("graph.step.conv");
        const bool deconv = s.kind == OpKind::kDeconv2d;
        const std::int8_t* src = ptr(s.in_nodes[0]);
        const ValueShape in = s.in_shape;
        const index_t cin = in.c, cout = o.c, k = s.k, pad = s.pad;
        const index_t hw_i = in.h * in.w, spatial = o.h * o.w;
        const index_t cinp = (cin + 1) / 2;
        const index_t cpo = (cout + 1) / 2;
        const index_t wstride_co = cinp * k * k * 2;
        const index_t ngroups = (cout + 3) / 4;
        parallel_for(
            0, o.n * ngroups,
            [&](index_t job) {
              const index_t ni = job / ngroups;
              const index_t co0 = (job % ngroups) * 4;
              const int nco = int(std::min<index_t>(4, cout - co0));
              const std::int8_t* in_n = src + ni * cinp * hw_i * 2;
              ArenaScope ws;
              std::int32_t* acc = static_cast<std::int32_t*>(ws.alloc(
                  std::size_t(nco) * std::size_t(spatial) *
                  sizeof(std::int32_t)));
              const std::int16_t* wg = s.wq.data() + co0 * wstride_co;
              for (index_t oy = 0; oy < o.h; ++oy) {
                if (deconv) {
                  kt.deconv2d_row4_s1_i8(in_n, wg, wstride_co,
                                         acc + oy * o.w, spatial, nco,
                                         cinp, in.h, in.w, k, oy, pad,
                                         o.w);
                } else {
                  kt.conv2d_row4_s1_i8(in_n, wg, wstride_co,
                                       acc + oy * o.w, spatial, nco, cinp,
                                       in.h, in.w, k, oy, pad, o.w);
                }
              }
              if (is_out) {
                for (int j = 0; j < nco; ++j) {
                  const size_t co = size_t(co0 + j);
                  kt.dequant_epilogue_f32(
                      acc + j * spatial,
                      out_data + (ni * cout + co0 + j) * spatial, spatial,
                      s.m[co], s.bias[co], s.has_affine ? 1 : 0,
                      s.has_affine ? s.scale[co] : 1.0f,
                      s.has_affine ? s.shift[co] : 0.0f, s.act, s.slope);
                }
              } else {
                for (int t = 0; 2 * t < nco; ++t) {
                  const size_t ce = size_t(co0 + 2 * t);
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
                  p.inv_out = s.inv_out;
                  kt.quant_epilogue_store_i8(
                      acc + 2 * t * spatial,
                      two ? acc + (2 * t + 1) * spatial : nullptr,
                      dst + (ni * cpo + index_t(ce) / 2) * spatial * 2,
                      spatial, p);
                }
              }
            },
            /*grain=*/1);
        break;
      }
      case OpKind::kConcat: {
        TRACE_SPAN_V("graph.step.concat");
        const index_t hw = o.h * o.w;
        if (is_out) {
          // Dequantize each input straight into its fp32 output slot.
          index_t c_off = 0;
          for (size_t j = 0; j < s.in_nodes.size(); ++j) {
            const std::int8_t* src = ptr(s.in_nodes[j]);
            const float sc = node_scale[size_t(s.in_nodes[j])];
            const index_t chan = s.concat_c[j];
            const index_t cp = (chan + 1) / 2;
            for (index_t ni = 0; ni < o.n; ++ni) {
              for (index_t p = 0; p < cp; ++p) {
                real_t* x0 = out_data + (ni * o.c + c_off + 2 * p) * hw;
                real_t* x1 = 2 * p + 1 < chan ? x0 + hw : nullptr;
                kt.dequant_i8_to_f32(src + (ni * cp + p) * hw * 2, x0, x1,
                                     hw, sc);
              }
            }
            c_off += chan;
          }
        } else if (s.concat_fast) {
          // Unified scales + even channels: pure pair movement.
          const index_t cpo = o.c / 2;
          index_t p_off = 0;
          for (size_t j = 0; j < s.in_nodes.size(); ++j) {
            const std::int8_t* src = ptr(s.in_nodes[j]);
            const index_t cp = s.concat_c[j] / 2;
            for (index_t ni = 0; ni < o.n; ++ni) {
              std::memcpy(dst + (ni * cpo + p_off) * hw * 2,
                          src + ni * cp * hw * 2,
                          std::size_t(cp * hw * 2));
            }
            p_off += cp;
          }
        } else {
          ArenaScope ss;
          real_t* buf = ss.alloc_floats(o.numel());
          index_t c_off = 0;
          for (size_t j = 0; j < s.in_nodes.size(); ++j) {
            const index_t chan = s.concat_c[j];
            ArenaScope js;
            real_t* jin = js.alloc_floats(o.n * chan * hw);
            dequant_node(s.in_nodes[j], ValueShape{o.n, chan, o.h, o.w},
                         jin);
            for (index_t ni = 0; ni < o.n; ++ni) {
              std::memcpy(buf + (ni * o.c + c_off) * hw,
                          jin + ni * chan * hw,
                          std::size_t(chan * hw) * sizeof(real_t));
            }
            c_off += chan;
          }
          requant_value(buf, o, s.inv_out, dst);
        }
        break;
      }
      case OpKind::kBatchNorm:
      case OpKind::kRelu:
      case OpKind::kLeakyRelu:
      case OpKind::kMaxPool:
      case OpKind::kUnpool:
      case OpKind::kAdd: {
        TRACE_SPAN_V("graph.step.generic_lowp");
        ArenaScope ss;
        const ValueShape in0 = s.in_shape;
        real_t* fin = ss.alloc_floats(in0.numel());
        dequant_node(s.in_nodes[0], in0, fin);
        real_t* fout = is_out ? out_data : ss.alloc_floats(o.numel());
        const index_t spatial = o.h * o.w;
        if (s.kind == OpKind::kBatchNorm) {
          parallel_for(
              0, o.n * o.c,
              [&](index_t plane) {
                const index_t c = plane % o.c;
                if (s.act == 0) {
                  kt.scale_shift(fin + plane * spatial,
                                 fout + plane * spatial, spatial,
                                 s.scale[size_t(c)], s.shift[size_t(c)]);
                } else {
                  kt.scale_shift_act(fin + plane * spatial,
                                     fout + plane * spatial, spatial,
                                     s.scale[size_t(c)],
                                     s.shift[size_t(c)], s.act, s.slope);
                }
              },
              /*grain=*/1);
        } else if (s.kind == OpKind::kRelu ||
                   s.kind == OpKind::kLeakyRelu) {
          parallel_for_blocked(
              0, o.numel(),
              [&](index_t lo, index_t hi) {
                if (s.act == 1) {
                  kt.relu(fin + lo, fout + lo, hi - lo);
                } else {
                  kt.leaky_relu(fin + lo, fout + lo, hi - lo, s.slope);
                }
              },
              /*grain=*/1 << 16);
        } else if (s.kind == OpKind::kMaxPool) {
          parallel_for(
              0, o.n * o.c,
              [&](index_t plane) {
                ops::max_pool2d_plane(fin + plane * in0.h * in0.w,
                                      fout + plane * spatial, nullptr,
                                      in0.h, in0.w, o.h, o.w, s.pool);
              },
              /*grain=*/1);
        } else if (s.kind == OpKind::kUnpool) {
          parallel_for(
              0, o.n * o.c,
              [&](index_t plane) {
                ops::unpool2d_bilinear_plane(fin + plane * in0.h * in0.w,
                                             fout + plane * spatial, in0.w,
                                             o.h, o.w, s.ly.data(),
                                             s.lx.data());
              },
              /*grain=*/1);
        } else {  // kAdd
          real_t* fin2 = ss.alloc_floats(o.numel());
          dequant_node(s.in_nodes[1], o, fin2);
          parallel_for_blocked(
              0, o.numel(),
              [&](index_t lo, index_t hi) {
                for (index_t i = lo; i < hi; ++i) {
                  fout[i] = fin[i] + fin2[i];
                }
              },
              /*grain=*/1 << 16);
        }
        if (!is_out) requant_value(fout, o, s.inv_out, dst);
        break;
      }
      case OpKind::kInstanceNorm:  // fp32 only: compile() rejects it here
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

  if (im.prec == core::Precision::kF16 ||
      im.prec == core::Precision::kBf16) {
    return im.run_half(input, im.prec == core::Precision::kBf16);
  }
  if (im.prec == core::Precision::kInt8) return im.run_int8(input);

  Tensor out({im.out_shape.n, im.out_shape.c, im.out_shape.h,
              im.out_shape.w});
  const real_t* in_data = input.data();
  real_t* out_data = out.data();

  // All intermediates live in this thread's arena for the duration of
  // the call; concurrent run() callers therefore never share buffers.
  ArenaScope scope;
  std::vector<std::size_t> bytes;
  for (index_t f : im.slab_sizes) {
    bytes.push_back(std::size_t(f) * sizeof(real_t));
  }
  const std::vector<char*> block = carve(scope, bytes);
  const auto ptr = [&](int node) -> real_t* {
    const int loc = im.value_loc[size_t(node)];
    if (loc == kLocInput) return const_cast<real_t*>(in_data);
    if (loc == kLocOutput) return out_data;
    return reinterpret_cast<real_t*>(block[size_t(loc)]) +
           im.value_off[size_t(node)];
  };

  const simd::KernelTable& kt = simd::kernels();

  for (const Step& s : im.steps) {
    real_t* dst = ptr(s.out_node);
    switch (s.kind) {
      case OpKind::kConv2d:
      case OpKind::kDeconv2d: {
        TRACE_SPAN_V("graph.step.conv");
        const bool deconv = s.kind == OpKind::kDeconv2d;
        const real_t* src = ptr(s.in_nodes[0]);
        const real_t* wp = s.weight.data();
        const ValueShape in = s.in_shape, o = s.out_shape;
        const index_t cin = in.c, cout = o.c, k = s.k, pad = s.pad;
        const index_t spatial = o.h * o.w;
        // Output channels run in groups of four through the quad row
        // kernels: four independent accumulator chains share every
        // input-row load, which both hides FMA latency and quarters
        // the input traffic. Each chain replays the single-channel
        // (ci, ky, kx) tap order, so results stay bitwise identical to
        // ops::conv2d / ops::deconv2d at any group split.
        const index_t ngroups = (cout + 3) / 4;
        parallel_for(
            0, o.n * ngroups,
            [&](index_t job) {
              const index_t ni = job / ngroups;
              const index_t co0 = (job % ngroups) * 4;
              const int nco = int(std::min<index_t>(4, cout - co0));
              const real_t* in_n = src + ni * cin * in.h * in.w;
              real_t* out_p = dst + (ni * cout + co0) * spatial;
              const real_t* bias_p = s.bias.data() + co0;
              if (deconv) {
                for (index_t oy = 0; oy < o.h; ++oy) {
                  kt.deconv2d_row4_s1(in_n, wp + co0 * k * k, cout * k * k,
                                      k * k, out_p + oy * o.w, spatial, nco,
                                      cin, in.h, in.w, k, oy, pad, o.w,
                                      bias_p);
                }
              } else {
                for (index_t oy = 0; oy < o.h; ++oy) {
                  kt.conv2d_row4_s1(in_n, wp + co0 * cin * k * k, k * k,
                                    cin * k * k, out_p + oy * o.w, spatial,
                                    nco, cin, in.h, in.w, k, oy, pad, o.w,
                                    bias_p);
                }
              }
              if (s.has_affine || s.inorm) {
                // The fused epilogue: bn (+ activation) applied in
                // place on planes that are still cache-hot. The job
                // owns whole planes, so instance statistics are
                // complete by now.
                for (int j = 0; j < nco; ++j) {
                  real_t* p = out_p + j * spatial;
                  const auto [sc, sh] = plane_affine(s, co0 + j, p, spatial);
                  kt.scale_shift_act(p, p, spatial, sc, sh, s.act, s.slope);
                }
              }
            },
            /*grain=*/1);
        break;
      }
      case OpKind::kBatchNorm:
      case OpKind::kInstanceNorm: {
        TRACE_SPAN_V("graph.step.bn");
        const real_t* src = ptr(s.in_nodes[0]);
        const ValueShape o = s.out_shape;
        const index_t spatial = o.h * o.w;
        parallel_for(
            0, o.n * o.c,
            [&](index_t plane) {
              const real_t* x = src + plane * spatial;
              const auto [sc, sh] = plane_affine(s, plane % o.c, x, spatial);
              // act == 0 keeps the op's exact scale_shift kernel; with a
              // fused activation the combined kernel applies the same
              // two per-element expressions in one pass.
              if (s.act == 0) {
                kt.scale_shift(x, dst + plane * spatial, spatial, sc, sh);
              } else {
                kt.scale_shift_act(x, dst + plane * spatial, spatial, sc, sh,
                                   s.act, s.slope);
              }
            },
            /*grain=*/1);
        break;
      }
      case OpKind::kRelu:
      case OpKind::kLeakyRelu: {
        TRACE_SPAN_V("graph.step.act");
        // Standalone activation: the op's own kernel (NOT the affine
        // epilogue — an identity madd would flip the sign of -0).
        const real_t* src = ptr(s.in_nodes[0]);
        const index_t total = s.out_shape.numel();
        parallel_for_blocked(
            0, total,
            [&](index_t lo, index_t hi) {
              if (s.act == 1) {
                kt.relu(src + lo, dst + lo, hi - lo);
              } else {
                kt.leaky_relu(src + lo, dst + lo, hi - lo, s.slope);
              }
            },
            /*grain=*/1 << 16);
        break;
      }
      case OpKind::kMaxPool: {
        TRACE_SPAN_V("graph.step.pool");
        const real_t* src = ptr(s.in_nodes[0]);
        const ValueShape in = s.in_shape, o = s.out_shape;
        parallel_for(
            0, o.n * o.c,
            [&](index_t plane) {
              ops::max_pool2d_plane(src + plane * in.h * in.w,
                                    dst + plane * o.h * o.w,
                                    /*arg_p=*/nullptr, in.h, in.w, o.h,
                                    o.w, s.pool);
            },
            /*grain=*/1);
        break;
      }
      case OpKind::kUnpool: {
        TRACE_SPAN_V("graph.step.unpool");
        const real_t* src = ptr(s.in_nodes[0]);
        const ValueShape in = s.in_shape, o = s.out_shape;
        parallel_for(
            0, o.n * o.c,
            [&](index_t plane) {
              ops::unpool2d_bilinear_plane(src + plane * in.h * in.w,
                                           dst + plane * o.h * o.w, in.w,
                                           o.h, o.w, s.ly.data(),
                                           s.lx.data());
            },
            /*grain=*/1);
        break;
      }
      case OpKind::kConcat: {
        TRACE_SPAN_V("graph.step.concat");
        const ValueShape o = s.out_shape;
        const index_t hw = o.h * o.w;
        index_t c_off = 0;
        for (size_t j = 0; j < s.in_nodes.size(); ++j) {
          const real_t* src = ptr(s.in_nodes[j]);
          const index_t chan = s.concat_c[j];
          for (index_t ni = 0; ni < o.n; ++ni) {
            real_t* to = dst + (ni * o.c + c_off) * hw;
            const real_t* from = src + ni * chan * hw;
            // An input planned in place already sits in its slice.
            if (to == from) continue;
            std::memcpy(to, from, size_t(chan * hw) * sizeof(real_t));
          }
          c_off += chan;
        }
        break;
      }
      case OpKind::kAdd: {
        TRACE_SPAN_V("graph.step.add");
        const real_t* a = ptr(s.in_nodes[0]);
        const real_t* b = ptr(s.in_nodes[1]);
        parallel_for_blocked(
            0, s.out_shape.numel(),
            [&](index_t lo, index_t hi) {
              for (index_t i = lo; i < hi; ++i) dst[i] = a[i] + b[i];
            },
            /*grain=*/1 << 16);
        break;
      }
      case OpKind::kInput:
        break;
    }
  }
  return out;
}

}  // namespace ccovid::graph
