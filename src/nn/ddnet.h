// DDnet — the DenseNet & Deconvolution network of §2.2 / Table 2: a
// convolution (encoder) network of four dense blocks with pooling, and a
// deconvolution (decoder) network of eight deconvolution layers with
// bilinear un-pooling, joined by global shortcut connections at each
// scale.
//
// With the paper configuration (base 16, growth 16, 4 levels) the
// encoder holds 37 convolution layers (1 stem + 4 blocks * (4 layers *
// 2 convs) + 4 transitions) and the decoder 8 deconvolution layers
// (2 per scale * 4 scales), exactly as stated in §2.2.
#pragma once

#include <memory>
#include <vector>

#include "nn/compiled_network.h"
#include "nn/dense_block.h"

namespace ccovid::nn {

struct DDnetConfig {
  index_t in_channels = 1;
  index_t out_channels = 1;
  index_t base_channels = 16;  ///< trunk width at every scale
  index_t growth = 16;         ///< dense-layer growth rate
  int dense_layers = 4;        ///< layers per dense block
  int levels = 4;              ///< dense blocks / pooling stages
  real_t leaky_slope = 0.01f;
  /// Learn the residual y - x rather than y directly; identical layer
  /// structure, markedly faster convergence for denoising. Off by
  /// default to match Table 2 literally.
  bool residual = true;

  /// Exact Table 2 configuration (512x512 inputs).
  static DDnetConfig paper() { return DDnetConfig{}; }
  /// Reduced configuration for unit tests and fast benchmarks; handles
  /// inputs as small as 2^levels pixels.
  static DDnetConfig tiny() {
    DDnetConfig c;
    c.base_channels = 4;
    c.growth = 4;
    c.dense_layers = 2;
    c.levels = 2;
    return c;
  }
};

class DDnet : public CompiledNetwork {
 public:
  explicit DDnet(DDnetConfig cfg = DDnetConfig::paper());

  /// (N, in_ch, H, W) -> (N, out_ch, H, W). H and W must be divisible by
  /// 2^levels.
  Var forward(const Var& x) const;

  /// Convenience for single 2-D images: (H, W) -> (H, W), no gradients.
  /// In eval mode with frozen batch statistics this dispatches through
  /// a cached compiled fusion graph (bitwise identical to forward();
  /// see graph/graph.h). core::active_precision()
  /// is sampled once per call: fp16/bf16/int8 run the low-precision
  /// storage pipeline of DESIGN.md §13 on the graph path (int8 scales
  /// come from a seeded synthetic calibration batch, cached per shape);
  /// training / batch-stats-always modes always run the fp32 module walk.
  Tensor enhance(const Tensor& image) const;

  /// Captures the eval-mode forward pass as a graph IR for an
  /// (n, in_channels, h, w) input.
  graph::Graph build_graph(index_t n, index_t h, index_t w) const override;

  /// Selects the §4.2 optimization stage for every conv/deconv kernel in
  /// the network (benchmarks sweep this).
  void set_kernel_options(const ops::KernelOptions& opt);

  const DDnetConfig& config() const { return cfg_; }

 private:
  DDnetConfig cfg_;
  std::shared_ptr<Conv2d> stem_;  // 7x7 "Convolution 1"
  std::shared_ptr<BatchNorm> stem_bn_;
  struct EncoderLevel {
    std::shared_ptr<DenseBlock2d> block;
    std::shared_ptr<Conv2d> transition;  // 1x1 back to base width
    std::shared_ptr<BatchNorm> bn;
  };
  struct DecoderLevel {
    std::shared_ptr<Deconv2d> deconv5;  // 5x5, 2*base channels
    std::shared_ptr<BatchNorm> bn5;
    std::shared_ptr<Deconv2d> deconv1;  // 1x1, base (or output) channels
    std::shared_ptr<BatchNorm> bn1;     // null on the output stage
  };
  std::vector<EncoderLevel> encoder_;
  std::vector<DecoderLevel> decoder_;
  std::vector<std::shared_ptr<Conv2d>> all_convs_;
  std::vector<std::shared_ptr<Deconv2d>> all_deconvs_;
};

}  // namespace ccovid::nn
