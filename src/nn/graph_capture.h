// Helpers for capturing primitive layers into the inference graph IR
// (graph/graph.h). The captured weight tensors are shallow copies of
// the layer parameters. Capture is an eval-mode operation: training
// mode updates running statistics, which no graph reproduces, so the
// network builders' callers gate on training() first.
#pragma once

#include "graph/graph.h"
#include "nn/layers.h"

namespace ccovid::nn {

inline int capture_conv(graph::Graph* g, int in, const Conv2d& c) {
  return g->add_conv2d(in, c.weight_tensor(), c.bias_tensor(),
                       c.params().pad);
}

inline int capture_deconv(graph::Graph* g, int in, const Deconv2d& d) {
  return g->add_deconv2d(in, d.weight_tensor(), d.bias_tensor(),
                         d.params().pad);
}

/// A frozen batch-norm node, or — after set_batch_stats_always(true),
/// when the layer normalizes by batch statistics — an instance-norm
/// node. Per-sample statistics equal the module's batch statistics at
/// n = 1, the batch every compiled fast path runs.
inline int capture_bn(graph::Graph* g, int in, const BatchNorm& bn) {
  if (bn.always_batch_stats()) {
    return g->add_instance_norm(in, bn.gamma_tensor(), bn.beta_tensor(),
                                bn.eps());
  }
  return g->add_batchnorm(in, bn.gamma_tensor(), bn.beta_tensor(),
                          bn.running_mean(), bn.running_var(), bn.eps());
}

}  // namespace ccovid::nn
