// Small blocked single-precision GEMM and the im2col convolution path
// built on it. Direct convolution (ops/conv2d.h) is memory-bound on the
// DDnet shapes; the im2col+GEMM formulation trades extra memory traffic
// for a compute kernel with far better register/cache reuse — the
// classic alternative kernel strategy on CPUs, provided here so the
// microbenchmarks can compare the two and tests can cross-check them.
#pragma once

#include "core/tensor.h"
#include "ops/conv2d.h"

namespace ccovid::ops {

/// C (m x n) = A (m x k) @ B (k x n), row-major, C overwritten.
/// Cache-blocked with a register-tiled inner kernel; parallel over row
/// blocks.
void sgemm(const real_t* a, const real_t* b, real_t* c, index_t m,
           index_t k, index_t n);

/// Tensor convenience wrapper: returns A @ B for rank-2 tensors.
Tensor matmul(const Tensor& a, const Tensor& b);

/// Unfolds conv patches: input (N, C, H, W) -> (N, C*K*K, Ho*Wo)
/// columns; out-of-bounds taps contribute zeros.
Tensor im2col(const Tensor& input, index_t ksize, Conv2dParams p);

/// Folds columns back (the adjoint of im2col): (N, C*K*K, Ho*Wo) ->
/// (N, C, H, W), accumulating overlaps.
Tensor col2im(const Tensor& cols, index_t channels, index_t h, index_t w,
              index_t ksize, Conv2dParams p);

/// conv2d via im2col + GEMM; numerically identical to ops::conv2d up to
/// float summation order.
Tensor conv2d_gemm(const Tensor& input, const Tensor& weight,
                   const Tensor& bias, Conv2dParams p);

}  // namespace ccovid::ops
