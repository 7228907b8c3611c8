// Static inference graph IR + eval-mode fusion over src/ops (DESIGN.md
// §12). Networks capture their forward pass into a Graph via explicit
// builders (nn/ddnet.cpp, nn/unet.cpp, nn/ahnet.cpp); compile() then
//
//   1. fuses conv→batchnorm(→relu/leaky) chains into single kernel
//      dispatches whose batch-norm scale/shift are hoisted to
//      per-channel constants applied as an in-register epilogue,
//   2. plans liveness-based buffer reuse over core/arena.h slabs so a
//      steady-state run performs no intermediate allocations, and
//   3. emits a flat step schedule the executor replays per input.
//
// THE BITWISE CONTRACT. A compiled graph — fused or not — reproduces
// the op-by-op interpreter (run_reference, and therefore the nn::Module
// eval forward) bit for bit, at every SIMD backend and task-engine
// width. That holds because fusion never re-associates float math:
//
//  * conv/deconv steps call the SAME simd::KernelTable row kernels the
//    ops use, per (n, cout) plane in the same tap order;
//  * batch-norm is NOT folded into the weights on the executed path.
//    Folding w' = w * gamma/sqrt(var+eps) changes rounding, so instead
//    the compiler precomputes batch_norm_infer's exact per-channel
//    (scale, shift) floats and the fused kernel applies them per
//    element AFTER the convolution — the same two operations the
//    unfused pipeline performs, minus the intermediate buffer;
//  * activations keep the per-element expressions of simd relu /
//    leaky_relu (scale_shift_act shares them verbatim).
//
// Fusion legality: a batch-norm's scale/shift are hoisted to compile
// time only when its running statistics are frozen (eval mode, NOT
// set_batch_stats_always). In batch-stats-always mode the builders
// capture an instance-norm node instead: its statistics belong to each
// input, so nothing is hoisted. A conv may still absorb it — every
// conv job owns whole (n, cout) planes, so the epilogue computes a
// plane's mean and variance right after writing it, in
// ops::channel_norm's order, and applies them in place. Instance norm
// is fp32 only; compile() rejects it at any other precision. Training
// mode (running statistics still moving) never reaches the graph.
//
// Only stride-1 conv/deconv are supported (everything DDnet/UNet/AH-Net
// execute); builders must not emit other strides.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/precision.h"
#include "core/tensor.h"
#include "ops/pool2d.h"
#include "ops/unpool2d.h"

namespace ccovid::graph {

// ------------------------------------------------------------- flag

/// Always true: eval-mode networks with frozen statistics always run
/// their compiled graph. Kept only for callers outside src that still
/// report it; no code here branches on it.
inline bool fusion_enabled() { return true; }

// --------------------------------------------------------------- IR

enum class OpKind : int {
  kInput = 0,
  kConv2d,      // stride-1, square kernel, zero padding
  kDeconv2d,    // stride-1 gather form
  kBatchNorm,   // frozen running statistics (eval mode)
  kInstanceNorm,  // per-(n, c)-plane statistics, affine gamma/beta
  kRelu,
  kLeakyRelu,
  kMaxPool,
  kUnpool,      // bilinear upsample by integer scale
  kConcat,      // channel concatenation
  kAdd,         // elementwise sum (residual shortcut)
};

const char* op_kind_name(OpKind k);

/// NCHW shape of every value in the graph.
struct ValueShape {
  index_t n = 0, c = 0, h = 0, w = 0;
  index_t numel() const { return n * c * h * w; }
  bool operator==(const ValueShape& o) const {
    return n == o.n && c == o.c && h == o.h && w == o.w;
  }
  bool operator!=(const ValueShape& o) const { return !(*this == o); }
  std::string str() const;
};

/// One IR node. Produces exactly one value; `shape` is inferred at
/// add-time. Attribute fields are meaningful per kind only.
struct Node {
  OpKind kind = OpKind::kInput;
  int id = -1;
  std::vector<int> inputs;
  ValueShape shape;

  // conv / deconv: weight (Cout,Cin,K,K) / (Cin,Cout,K,K), optional
  // bias (Cout). Shallow copies — storage is shared with the module
  // parameters, so in-place weight updates are visible without
  // recapture (derived batch-norm constants are NOT; recompile).
  Tensor weight, bias;
  index_t ksize = 0, pad = 0;

  // batchnorm: per-channel tensors + eps (instance norm: gamma, beta).
  Tensor gamma, beta, mean, var;
  real_t eps = 0.0f;

  real_t slope = 0.0f;           // leaky relu
  ops::Pool2dParams pool{};      // max pool
  index_t scale = 0;             // unpool
};

/// Builder + container. add_* methods validate and infer shapes
/// eagerly (throwing std::invalid_argument on a malformed graph), and
/// return the new node's id. Inputs must already exist, so ids are
/// born topologically sorted; schedule() is the canonical
/// deterministic order used by every pass and by the executor.
class Graph {
 public:
  int add_input(ValueShape s);
  int add_conv2d(int in, Tensor weight, Tensor bias, index_t pad);
  int add_deconv2d(int in, Tensor weight, Tensor bias, index_t pad);
  int add_batchnorm(int in, Tensor gamma, Tensor beta, Tensor running_mean,
                    Tensor running_var, real_t eps);
  int add_instance_norm(int in, Tensor gamma, Tensor beta, real_t eps);
  int add_relu(int in);
  int add_leaky_relu(int in, real_t slope);
  int add_max_pool(int in, ops::Pool2dParams p);
  int add_unpool(int in, index_t scale);
  int add_concat(const std::vector<int>& ins);
  int add_add(int a, int b);

  /// Marks the graph output (defaults to the last node added).
  void mark_output(int id);
  int output() const;

  const Node& node(int id) const { return nodes_.at(size_t(id)); }
  const std::vector<Node>& nodes() const { return nodes_; }
  int num_nodes() const { return int(nodes_.size()); }
  ValueShape input_shape() const;

  /// Kahn topological order, smallest-id-first among ready nodes — a
  /// pure function of the graph structure (asserted deterministic by
  /// tests/test_graph.cpp).
  std::vector<int> schedule() const;

  /// consumers[id] = ids of nodes reading this node's value.
  std::vector<std::vector<int>> consumers() const;

 private:
  int push(Node n);
  const Node& in_node(int id, const char* who) const;

  std::vector<Node> nodes_;
  int output_ = -1;
};

// ------------------------------------------------------ compilation

/// Symmetric per-node activation scales for the int8 path: value v of
/// node id dequantizes as q * node_scale[id]. Produced by calibrate()
/// from a representative batch (absmax / 127, concat groups unified so
/// a concat is pure data movement in the quantized domain).
struct Calibration {
  std::vector<float> node_scale;
  bool defined() const { return !node_scale.empty(); }
};

/// Min/max calibration: runs the reference interpreter over every
/// batch input, records each node's absolute maximum, and converts the
/// maxima to symmetric scales. Deterministic for a fixed batch (the
/// sweep is sequential; no atomics, no reduction reordering).
Calibration calibrate(const Graph& g, const std::vector<Tensor>& batch);

struct CompileOptions {
  /// Fuse conv→bn(→act) and bn→act chains; hoist bn scale/shift and
  /// missing conv biases into constants. Off = one step per node
  /// (same arena planning, no chain collapsing) — the unfused half of
  /// the fusion-equivalence battery.
  bool fuse = true;

  /// Storage format for weights and intermediate activations on the
  /// executed path (DESIGN.md §13). kF32 is the bitwise-contract path;
  /// fp16/bf16 store values at half the bytes with fp32 accumulation;
  /// int8 runs the calibrated symmetric-quantized pipeline and
  /// requires `calibration`. The graph input and output tensors are
  /// always fp32 — conversion happens at the boundary. Graphs holding
  /// an instance-norm node compile at kF32 only (std::invalid_argument
  /// otherwise).
  core::Precision precision = core::Precision::kF32;

  /// Required when precision == kInt8; ignored otherwise.
  Calibration calibration;
};

/// Liveness/placement record for one intermediate value (tests assert
/// the planner invariant: values with overlapping live ranges never
/// overlap in memory, except a concat input produced in place inside
/// its concat's buffer).
struct BufferPlan {
  int node = -1;        ///< producing node id
  int slab = -1;        ///< -1: external (graph input / output)
  index_t floats = 0;   ///< size of the value
  int def_step = -1;    ///< schedule position from which it holds memory
  int last_use = -1;    ///< schedule position of the last reader
  index_t offset = 0;   ///< floats into the slab
  int host = -1;        ///< concat it is produced into in place, or -1
};

class CompiledGraph {
 public:
  struct Stats {
    int steps = 0;          ///< executed steps after fusion
    int fused_away = 0;     ///< nodes absorbed into a predecessor
    int slabs = 0;          ///< arena slabs planned
    index_t slab_floats = 0;///< total slab footprint
  };

  /// Executes the graph on `input` (shape must match the captured
  /// input shape). Thread-safe: concurrent callers get independent
  /// per-thread arena scratch. Steady state performs no fresh heap
  /// allocations beyond the returned tensor (alloc-cache recycled).
  Tensor run(const Tensor& input) const;

  const Stats& stats() const;
  const std::vector<BufferPlan>& plan() const;

  // Movable pimpl.
  CompiledGraph(CompiledGraph&&) noexcept;
  CompiledGraph& operator=(CompiledGraph&&) noexcept;
  ~CompiledGraph();

 private:
  friend CompiledGraph compile(const Graph&, const CompileOptions&);
  struct Impl;
  explicit CompiledGraph(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Runs fusion (per CompileOptions), buffer planning and schedule
/// emission. Traced as graph.compile / graph.fuse / graph.plan.
CompiledGraph compile(const Graph& g, const CompileOptions& opt = {});

/// Op-by-op interpreter over the public ops:: entry points — the
/// unfused reference the equivalence fuzzer compares against. Matches
/// the nn::Module eval-mode forward bitwise.
Tensor run_reference(const Graph& g, const Tensor& input);

}  // namespace ccovid::graph
