// 2-D convolution (NCHW) — forward kernels in the four optimization
// stages of §4.2, a clear reference implementation for testing, and the
// gradient kernels used by autograd.
//
// DDnet uses 7x7/s1, 5x5/s1 and 1x1/s1 convolutions, always with "same"
// padding. The kernels here support arbitrary square filters, stride and
// zero padding.
#pragma once

#include "core/tensor.h"
#include "ops/kernel_options.h"

namespace ccovid::ops {

struct Conv2dParams {
  index_t stride = 1;
  index_t pad = 0;

  /// "Same" padding for odd filter sizes at stride 1.
  static Conv2dParams same(index_t ksize) { return {1, ksize / 2}; }
};

/// Output spatial extent for one dimension.
index_t conv_out_extent(index_t in, index_t ksize, index_t stride,
                        index_t pad);

/// Forward convolution.
///   input  (N, Cin, H, W)
///   weight (Cout, Cin, K, K)
///   bias   (Cout) — pass an undefined Tensor for no bias
/// Returns (N, Cout, Ho, Wo).
///
/// `opt` selects the optimization stage; all stages produce identical
/// results (verified by tests) and differ only in speed:
///   - !prefetch: loop bounds are re-read from memory on every inner
///     iteration (models the unoptimized OpenCL kernel re-reading
///     __global parameters);
///   - prefetch: bounds cached in locals before the hot loop;
///   - unroll: multiply-add loop fully unrolled for K in {1, 3, 5, 7}.
Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              Conv2dParams p, const KernelOptions& opt = KernelOptions::all());

/// Straightforward quadruple-loop reference used to validate the
/// optimized variants and by the instrumented (counting) kernels.
Tensor conv2d_reference(const Tensor& input, const Tensor& weight,
                        const Tensor& bias, Conv2dParams p);

/// dL/dInput given dL/dOutput. `input_h`, `input_w` disambiguate sizes
/// lost to striding. Runs simd::KernelTable::grad_input_row4: each
/// element sums from 0.0f in ascending (ky, kx, co) tap order, so the
/// bits are the same on every SIMD backend and task-engine width.
Tensor conv2d_backward_input(const Tensor& grad_out, const Tensor& weight,
                             index_t input_h, index_t input_w,
                             Conv2dParams p);

/// dL/dWeight. Runs simd::KernelTable::grad_weight4: each tap is a
/// double sum over (n, oy, ox) ascending, rounded to float once.
Tensor conv2d_backward_weight(const Tensor& grad_out, const Tensor& input,
                              index_t ksize, Conv2dParams p);

/// dL/dBias of conv2d, deconv2d and conv3d alike: grad_out (N, C, ...)
/// summed in double over every dimension except 1, in (n, spatial)
/// ascending order, rounded to float once per channel.
Tensor channel_sum(const Tensor& grad_out);

namespace detail {

/// The conv2d/deconv2d input-gradient gather into `gin` (N, C, H, W),
/// split over (n, channel quad, 16-row band); see
/// simd::KernelTable::grad_input_row4 for wgt's strides and `flip`.
void grad_input_gather(const Tensor& grad_out, const real_t* wgt,
                       index_t wstride_j, index_t wstride_c, bool flip,
                       index_t k, index_t stride, index_t pad, Tensor& gin);

/// The conv2d/deconv2d weight-gradient sweep into `gw` (Ca, Cb, K, K),
/// split over (a channel, b channel quad); see
/// simd::KernelTable::grad_weight4 for the roles of `a` and `b`.
void grad_weight_sweep(const Tensor& a, const Tensor& b, index_t k,
                       index_t stride, index_t pad, Tensor& gw);

}  // namespace detail

}  // namespace ccovid::ops
