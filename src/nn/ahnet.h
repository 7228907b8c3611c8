// AH-Net-style lung segmenter — Segmentation AI (§2.3.1).
//
// The paper uses Nvidia Clara's pre-trained anisotropic hybrid network
// (AH-Net, Liu et al. 2017), whose defining idea is to run strong 2-D
// in-plane feature extractors over the anisotropic CT volume and fuse
// across slices. Lacking the pre-trained model, we implement a compact
// anisotropic encoder-decoder with the same role and interface: 2-D
// in-plane convolutions applied slice-wise, a two-level downsampling
// encoder, and a bilinear-upsampling decoder emitting a per-pixel
// foreground (lung) logit. The binary mask is then multiplied into the
// scan exactly as in §3.2.
#pragma once

#include <memory>
#include <vector>

#include "nn/compiled_network.h"
#include "nn/layers.h"

namespace ccovid::nn {

struct AhNetConfig {
  index_t in_channels = 1;
  index_t base_channels = 8;
  int levels = 2;  ///< downsampling stages
  real_t leaky_slope = 0.01f;
};

class AhNet : public CompiledNetwork {
 public:
  explicit AhNet(AhNetConfig cfg = AhNetConfig{});

  /// (N, C, H, W) slices -> (N, 1, H, W) foreground logits.
  Var forward(const Var& x) const;

  /// Segments a full volume (D, H, W) slice-wise into a binary mask
  /// using threshold 0.5 on the sigmoid output; no gradients. Slices
  /// run through nn::map_slices. In eval mode each slice runs the
  /// compiled graph — always fp32, whatever core::active_precision()
  /// says — bitwise equal to forward(), with frozen or per-sample
  /// batch-norm statistics alike.
  Tensor segment_volume(const Tensor& volume) const;

  /// Captures the eval-mode forward pass as a graph IR for an
  /// (n, in_channels, h, w) input (frozen batch-norm, or instance norm
  /// after set_batch_stats_always(true); nn/graph_capture.h).
  graph::Graph build_graph(index_t n, index_t h, index_t w) const override;

  /// Applies a binary mask to a volume (elementwise multiply) — the
  /// "segmented CT scan" of §3.2.
  static Tensor apply_mask(const Tensor& volume, const Tensor& mask);

 private:
  AhNetConfig cfg_;
  struct EncLevel {
    std::shared_ptr<Conv2d> conv;
    std::shared_ptr<BatchNorm> bn;
  };
  struct DecLevel {
    std::shared_ptr<Conv2d> conv;  // after unpool + skip concat
    std::shared_ptr<BatchNorm> bn;
  };
  std::shared_ptr<Conv2d> stem_;
  std::shared_ptr<BatchNorm> stem_bn_;
  std::vector<EncLevel> encoder_;
  std::vector<DecLevel> decoder_;
  std::shared_ptr<Conv2d> head_;
};

}  // namespace ccovid::nn
