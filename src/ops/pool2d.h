// 2-D pooling. DDnet's pooling layers are 3x3/stride-2 with "same"-style
// padding 1, halving each spatial dimension (512 -> 256 -> ... -> 32).
// Max pooling keeps argmax indices for the backward pass; average pooling
// is provided for the classifier's transition layers.
#pragma once

#include <vector>

#include "core/tensor.h"

namespace ccovid::ops {

struct Pool2dParams {
  index_t ksize = 3;
  index_t stride = 2;
  index_t pad = 1;
};

struct MaxPool2dResult {
  Tensor output;
  /// Flat (h*w) index of the winning input element per output element,
  /// same layout as output; used by max_pool2d_backward.
  std::vector<index_t> argmax;
};

/// With `with_argmax` false, res.argmax stays empty: a forward no
/// gradient flows through needs no routing table. The output bits are
/// the same either way.
MaxPool2dResult max_pool2d(const Tensor& input, Pool2dParams p,
                           bool with_argmax = true);

/// Output spatial extent for one dimension: (in + 2*pad - ksize)/stride + 1.
index_t pool_out_extent(index_t in, const Pool2dParams& p);

/// One (H, W) plane of max pooling, raw pointers. `arg_p` (when non-null)
/// receives the flat argmax per output element. This is THE plane loop
/// max_pool2d runs per (n, c); the graph executor calls it directly so
/// the compiled path shares the op's exact comparison order.
void max_pool2d_plane(const real_t* in_p, real_t* out_p, index_t* arg_p,
                      index_t h, index_t w, index_t ho, index_t wo,
                      const Pool2dParams& p);

/// Routes grad_out back to the argmax positions.
Tensor max_pool2d_backward(const Tensor& grad_out,
                           const std::vector<index_t>& argmax,
                           index_t input_h, index_t input_w);

Tensor avg_pool2d(const Tensor& input, Pool2dParams p);

Tensor avg_pool2d_backward(const Tensor& grad_out, Pool2dParams p,
                           index_t input_h, index_t input_w);

}  // namespace ccovid::ops
