// U-Net-style denoiser — the comparator architecture §6.3 attributes to
// Jin et al. / Chen et al. ("FBP ... followed by a U-Net-like CNN for
// image enhancement"). Used by the ablation benches to compare DDnet's
// dense-block encoder against the plain conv encoder at matched depth.
#pragma once

#include <memory>
#include <vector>

#include "nn/compiled_network.h"
#include "nn/layers.h"

namespace ccovid::nn {

struct UNetConfig {
  index_t in_channels = 1;
  index_t out_channels = 1;
  index_t base_channels = 8;
  int levels = 2;
  real_t leaky_slope = 0.01f;
  bool residual = true;
};

class UNetDenoiser : public CompiledNetwork {
 public:
  explicit UNetDenoiser(UNetConfig cfg = UNetConfig{});

  /// (N, C, H, W) -> (N, out, H, W); extents divisible by 2^levels.
  Var forward(const Var& x) const;

  /// Single-image convenience, no gradients. Eval mode with frozen
  /// batch statistics runs the compiled graph (bitwise identical;
  /// graph/graph.h).
  Tensor enhance(const Tensor& image) const;

  /// Captures the eval-mode forward pass as a graph IR.
  graph::Graph build_graph(index_t n, index_t h, index_t w) const override;

 private:
  UNetConfig cfg_;
  struct Level {
    std::shared_ptr<Conv2d> conv;
    std::shared_ptr<BatchNorm> bn;
  };
  std::shared_ptr<Conv2d> stem_;
  std::shared_ptr<BatchNorm> stem_bn_;
  std::vector<Level> encoder_;
  std::vector<Level> decoder_;
  std::shared_ptr<Conv2d> head_;
};

}  // namespace ccovid::nn
