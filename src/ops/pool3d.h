// 3-D pooling for the classifier: max pooling after each dense block,
// average pooling in transitions, and global average pooling before the
// fully-connected head (NCDHW layout).
#pragma once

#include <vector>

#include "core/tensor.h"

namespace ccovid::ops {

struct Pool3dParams {
  index_t ksize = 2;
  index_t stride = 2;
  index_t pad = 0;
};

struct MaxPool3dResult {
  Tensor output;
  std::vector<index_t> argmax;  ///< flat (d*h*w) winner per output element
};

/// With `with_argmax` false, res.argmax stays empty: a forward no
/// gradient flows through needs no routing table. The output bits are
/// the same either way.
MaxPool3dResult max_pool3d(const Tensor& input, Pool3dParams p,
                           bool with_argmax = true);
Tensor max_pool3d_backward(const Tensor& grad_out,
                           const std::vector<index_t>& argmax, index_t in_d,
                           index_t in_h, index_t in_w);

Tensor avg_pool3d(const Tensor& input, Pool3dParams p);
Tensor avg_pool3d_backward(const Tensor& grad_out, Pool3dParams p,
                           index_t in_d, index_t in_h, index_t in_w);

/// (N, C, D, H, W) -> (N, C): mean over the spatial volume.
Tensor global_avg_pool3d(const Tensor& input);
Tensor global_avg_pool3d_backward(const Tensor& grad_out, index_t in_d,
                                  index_t in_h, index_t in_w);

}  // namespace ccovid::ops
