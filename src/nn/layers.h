// Primitive layers. Filters are initialized from N(0, 0.01) as specified
// in §3.1.1 ("all filters are initialized with a random Gaussian
// distribution with a mean of zero and standard deviation of 0.01");
// biases start at zero, batch-norm at identity.
#pragma once

#include <memory>

#include "autograd/functions.h"
#include "nn/module.h"

namespace ccovid::nn {

/// Per-process RNG used by layer initialization. Seed it before building
/// a model for reproducible weights (DDP replicas instead copy weights
/// from the rank-0 model).
Rng& init_rng();
void seed_init_rng(std::uint64_t seed);

class Conv2d : public Module {
 public:
  Conv2d(index_t in_ch, index_t out_ch, index_t ksize, index_t stride = 1,
         index_t pad = -1 /* -1 = same */, bool bias = true);
  Var forward(const Var& x) const;
  /// Kernel-optimization stage used for inference benchmarking.
  void set_kernel_options(const ops::KernelOptions& opt) { opt_ = opt; }

  // Graph-capture accessors (src/graph builders). The tensors are
  // shallow copies sharing storage with the parameters, so a compiled
  // graph sees in-place weight updates without recapture.
  Tensor weight_tensor() const { return weight_.value(); }
  Tensor bias_tensor() const {
    return bias_.defined() ? bias_.value() : Tensor();
  }
  const ops::Conv2dParams& params() const { return p_; }

 private:
  Var weight_, bias_;
  ops::Conv2dParams p_;
  ops::KernelOptions opt_ = ops::KernelOptions::all();
};

class Deconv2d : public Module {
 public:
  Deconv2d(index_t in_ch, index_t out_ch, index_t ksize, index_t stride = 1,
           index_t pad = -1, bool bias = true);
  Var forward(const Var& x) const;
  void set_kernel_options(const ops::KernelOptions& opt) { opt_ = opt; }

  Tensor weight_tensor() const { return weight_.value(); }
  Tensor bias_tensor() const {
    return bias_.defined() ? bias_.value() : Tensor();
  }
  const ops::Deconv2dParams& params() const { return p_; }

 private:
  Var weight_, bias_;
  ops::Deconv2dParams p_;
  ops::KernelOptions opt_ = ops::KernelOptions::all();
};

class Conv3d : public Module {
 public:
  /// Stride-1 convolution; pad < 0 means "same" (ksize / 2).
  Conv3d(index_t in_ch, index_t out_ch, index_t ksize, index_t pad = -1,
         bool bias = true);
  Var forward(const Var& x) const;

 private:
  Var weight_, bias_;
  ops::Conv3dParams p_;
};

/// Batch normalization over dim 1; shared by 2-D and 3-D networks.
class BatchNorm : public Module {
 public:
  explicit BatchNorm(index_t channels, real_t momentum = 0.1f,
                     real_t eps = 1e-5f);
  Var forward(const Var& x) const;

  // Graph-capture accessors. Running statistics share storage with the
  // registered buffers; eval-mode folding reads them as frozen values,
  // which is only legal while always_batch_stats() is false.
  Tensor gamma_tensor() const { return gamma_.value(); }
  Tensor beta_tensor() const { return beta_.value(); }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  real_t eps() const { return eps_; }
  bool always_batch_stats() const { return always_batch_stats_; }

 protected:
  void on_set_batch_stats(bool on) override { always_batch_stats_ = on; }

 private:
  Var gamma_, beta_;
  mutable Tensor running_mean_, running_var_;
  real_t momentum_, eps_;
  /// When set, eval-mode forward normalizes with the current batch's
  /// statistics (no running-stat update) — see Module::set_batch_stats_always.
  bool always_batch_stats_ = false;
};

class Linear : public Module {
 public:
  Linear(index_t in_features, index_t out_features, bool bias = true);
  Var forward(const Var& x) const;

 private:
  Var weight_, bias_;
};

}  // namespace ccovid::nn
