#include "nn/layers.h"

namespace ccovid::nn {

namespace {
Rng g_init_rng(0x5EEDF00Dull);
constexpr double kInitStdDev = 0.01;  // §3.1.1
}  // namespace

Rng& init_rng() { return g_init_rng; }
void seed_init_rng(std::uint64_t seed) { g_init_rng = Rng(seed); }

Conv2d::Conv2d(index_t in_ch, index_t out_ch, index_t ksize, index_t stride,
               index_t pad, bool bias) {
  p_.stride = stride;
  p_.pad = pad < 0 ? ksize / 2 : pad;
  Tensor w({out_ch, in_ch, ksize, ksize});
  init_rng().fill_gaussian(w, 0.0, kInitStdDev);
  weight_ = register_parameter("weight", std::move(w));
  if (bias) {
    bias_ = register_parameter("bias", Tensor({out_ch}));
  }
}

Var Conv2d::forward(const Var& x) const {
  return autograd::conv2d(x, weight_, bias_, p_, opt_);
}

Deconv2d::Deconv2d(index_t in_ch, index_t out_ch, index_t ksize,
                   index_t stride, index_t pad, bool bias) {
  p_.stride = stride;
  p_.pad = pad < 0 ? ksize / 2 : pad;
  Tensor w({in_ch, out_ch, ksize, ksize});
  init_rng().fill_gaussian(w, 0.0, kInitStdDev);
  weight_ = register_parameter("weight", std::move(w));
  if (bias) {
    bias_ = register_parameter("bias", Tensor({out_ch}));
  }
}

Var Deconv2d::forward(const Var& x) const {
  return autograd::deconv2d(x, weight_, bias_, p_, opt_);
}

Conv3d::Conv3d(index_t in_ch, index_t out_ch, index_t ksize, index_t pad,
               bool bias) {
  p_.pad = pad < 0 ? ksize / 2 : pad;
  Tensor w({out_ch, in_ch, ksize, ksize, ksize});
  init_rng().fill_gaussian(w, 0.0, kInitStdDev);
  weight_ = register_parameter("weight", std::move(w));
  if (bias) {
    bias_ = register_parameter("bias", Tensor({out_ch}));
  }
}

Var Conv3d::forward(const Var& x) const {
  return autograd::conv3d(x, weight_, bias_, p_);
}

BatchNorm::BatchNorm(index_t channels, real_t momentum, real_t eps)
    : momentum_(momentum), eps_(eps) {
  gamma_ = register_parameter("gamma", Tensor::ones({channels}));
  beta_ = register_parameter("beta", Tensor({channels}));
  running_mean_ = Tensor({channels});
  running_var_ = Tensor::ones({channels});
  register_buffer("running_mean", running_mean_);
  register_buffer("running_var", running_var_);
}

Var BatchNorm::forward(const Var& x) const {
  const bool use_batch_stats = training() || always_batch_stats_;
  // Only genuine training updates the running statistics.
  const real_t momentum = training() ? momentum_ : 0.0f;
  return autograd::batch_norm(x, gamma_, beta_, running_mean_, running_var_,
                              use_batch_stats, momentum, eps_);
}

Linear::Linear(index_t in_features, index_t out_features, bool bias) {
  Tensor w({out_features, in_features});
  init_rng().fill_gaussian(w, 0.0, kInitStdDev);
  weight_ = register_parameter("weight", std::move(w));
  if (bias) {
    bias_ = register_parameter("bias", Tensor({out_features}));
  }
}

Var Linear::forward(const Var& x) const {
  return autograd::linear(x, weight_, bias_);
}

}  // namespace ccovid::nn
