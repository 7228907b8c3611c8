// Batch normalization over the channel dimension (dim 1). Works for any
// rank >= 2 tensor laid out (N, C, spatial...), so the same kernels serve
// the 2-D DDnet and the 3-D classifier.
#pragma once

#include "core/tensor.h"

namespace ccovid::ops {

struct BatchNormStats {
  Tensor mean;     ///< per-channel batch mean (C)
  Tensor var;      ///< per-channel biased batch variance (C)
  Tensor inv_std;  ///< 1 / sqrt(var + eps), cached for backward
};

/// One channel's batch statistics and the affine y = scale * x + shift
/// they normalize with.
struct ChannelNorm {
  real_t mean, var, inv_std, scale, shift;
};

/// Statistics over `planes` planes of `spatial` values, `stride` floats
/// apart: double sums in plane-then-element order, the biased variance
/// clamped at 0, then (gamma, beta) folded into scale/shift. This is
/// the exact per-channel arithmetic of batch_norm_train; instance norm
/// (per-sample statistics) is the planes == 1 case.
ChannelNorm channel_norm(const real_t* x, index_t planes, index_t stride,
                         index_t spatial, real_t gamma, real_t beta,
                         real_t eps);

/// Training-mode forward: normalizes with batch statistics, returns them
/// for the backward pass, and folds in the affine (gamma, beta).
Tensor batch_norm_train(const Tensor& input, const Tensor& gamma,
                        const Tensor& beta, BatchNormStats& stats,
                        real_t eps = 1e-5f);

/// Per-sample statistics: every (n, c) plane is normalized by its own
/// mean and variance. Each sample's output is bitwise equal to
/// batch_norm_train on that sample alone.
Tensor instance_norm(const Tensor& input, const Tensor& gamma,
                     const Tensor& beta, real_t eps = 1e-5f);

/// Inference-mode forward with running statistics.
Tensor batch_norm_infer(const Tensor& input, const Tensor& gamma,
                        const Tensor& beta, const Tensor& running_mean,
                        const Tensor& running_var, real_t eps = 1e-5f);

struct BatchNormGrads {
  Tensor grad_input;
  Tensor grad_gamma;
  Tensor grad_beta;
};

/// Backward through the training-mode forward.
BatchNormGrads batch_norm_backward(const Tensor& grad_out,
                                   const Tensor& input, const Tensor& gamma,
                                   const BatchNormStats& stats);

}  // namespace ccovid::ops
