// 2-D transposed convolution ("deconvolution", NCHW).
//
// This kernel is the centerpiece of the paper's optimization study
// (§4.2.1, Fig. 9): the baseline *scatter* formulation multiplies every
// input element by the whole filter and accumulates partial sums directly
// in the output buffer (recurring global loads+stores); the *refactored*
// formulation (inverse coefficient mapping) gathers, per output element,
// exactly the input elements that affect it, accumulates in a register,
// and writes once. The gather index math contains the integer divisions
// the paper calls out as expensive; the unrolled stride-1 5x5/1x1 paths
// eliminate them.
//
// DDnet's deconvolution layers are stride-1 "same" (output size equals
// input size); general stride/padding is supported for completeness and
// is exercised by the tests.
#pragma once

#include "core/tensor.h"
#include "ops/kernel_options.h"

namespace ccovid::ops {

struct Deconv2dParams {
  index_t stride = 1;
  index_t pad = 0;

  static Deconv2dParams same(index_t ksize) { return {1, ksize / 2}; }
};

/// Output spatial extent: (in - 1) * stride - 2*pad + ksize.
index_t deconv_out_extent(index_t in, index_t ksize, index_t stride,
                          index_t pad);

/// Forward transposed convolution.
///   input  (N, Cin, H, W)
///   weight (Cin, Cout, K, K)   — PyTorch ConvTranspose2d layout
///   bias   (Cout) or undefined
/// Returns (N, Cout, Ho, Wo). `opt.refactor` selects gather vs scatter;
/// all variants agree bit-for-bit up to float addition order.
Tensor deconv2d(const Tensor& input, const Tensor& weight,
                const Tensor& bias, Deconv2dParams p,
                const KernelOptions& opt = KernelOptions::all());

/// Reference (scalar gather) implementation for tests / counting.
Tensor deconv2d_reference(const Tensor& input, const Tensor& weight,
                          const Tensor& bias, Deconv2dParams p);

/// dL/dInput — for a transposed conv this is a plain convolution of
/// grad_out with the (non-flipped) weights. Same kernel and tap order
/// as conv2d_backward_input (ascending (ky, kx, co)). The bias
/// gradient is ops::channel_sum (ops/conv2d.h).
Tensor deconv2d_backward_input(const Tensor& grad_out, const Tensor& weight,
                               Deconv2dParams p);

/// dL/dWeight: each tap a double sum over (n, iy, ix) ascending.
Tensor deconv2d_backward_weight(const Tensor& grad_out, const Tensor& input,
                                index_t ksize, Deconv2dParams p);

}  // namespace ccovid::ops
