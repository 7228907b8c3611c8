// 3-D convolution (NCDHW) — substrate for the 3-D DenseNet classifier
// (§2.3.2). Stride 1 only: the classifier downsamples with pooling.
// The forward runs the SIMD quad row kernel
// (simd::KernelTable::conv3d_row4_s1); the backward kernels are direct
// scalar loops.
#pragma once

#include "core/tensor.h"

namespace ccovid::ops {

struct Conv3dParams {
  index_t pad = 0;

  static Conv3dParams same(index_t ksize) { return {ksize / 2}; }
};

/// input (N, Cin, D, H, W), weight (Cout, Cin, K, K, K) cubic filters,
/// bias (Cout) or undefined. Returns (N, Cout, Do, Ho, Wo) with
/// Do = D + 2*pad - K + 1 (Ho, Wo alike). Each output sums its taps in
/// ascending (ci, kz, ky, kx) order, skipping out-of-range ones, so the
/// bits are the same on every SIMD backend and task-engine width.
Tensor conv3d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              Conv3dParams p);

Tensor conv3d_backward_input(const Tensor& grad_out, const Tensor& weight,
                             index_t in_d, index_t in_h, index_t in_w,
                             Conv3dParams p);
Tensor conv3d_backward_weight(const Tensor& grad_out, const Tensor& input,
                              index_t ksize, Conv3dParams p);
// The bias gradient is ops::channel_sum (ops/conv2d.h).

}  // namespace ccovid::ops
