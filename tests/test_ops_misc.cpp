// Pooling, un-pooling, batch norm, activations, concat/split, pool3d.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "autograd/gradcheck.h"
#include "core/random.h"
#include "ops/ops.h"

namespace ccovid::ops {
namespace {

Tensor random_tensor(Shape s, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(s));
  rng.fill_gaussian(t, 0.0, 1.0);
  return t;
}

// ------------------------------------------------------------- pool2d
TEST(MaxPool2d, DDnetGeometryHalvesExtent) {
  const Tensor input = random_tensor({1, 16, 32, 32}, 1);
  const auto res = max_pool2d(input, Pool2dParams{3, 2, 1});
  EXPECT_EQ(res.output.dim(2), 16);
  EXPECT_EQ(res.output.dim(3), 16);
}

TEST(MaxPool2d, PicksWindowMaximum) {
  const Tensor input = Tensor::from_vector(
      {1, 1, 4, 4},
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  const auto res = max_pool2d(input, Pool2dParams{2, 2, 0});
  EXPECT_FLOAT_EQ(res.output.at(0, 0, 0, 0), 6.0f);
  EXPECT_FLOAT_EQ(res.output.at(0, 0, 0, 1), 8.0f);
  EXPECT_FLOAT_EQ(res.output.at(0, 0, 1, 1), 16.0f);
}

TEST(MaxPool2d, ArgmaxRoutesGradient) {
  const Tensor input = Tensor::from_vector({1, 1, 2, 2}, {1, 9, 3, 4});
  const auto res = max_pool2d(input, Pool2dParams{2, 2, 0});
  Tensor gout({1, 1, 1, 1});
  gout.fill(5.0f);
  const Tensor gin = max_pool2d_backward(gout, res.argmax, 2, 2);
  EXPECT_FLOAT_EQ(gin.at(0, 0, 0, 1), 5.0f);  // position of the 9
  EXPECT_FLOAT_EQ(gin.at(0, 0, 0, 0), 0.0f);
}

TEST(MaxPool2d, OverlappingWindowsAccumulateGradient) {
  // ksize 3 stride 2: center pixel can win several windows.
  Tensor input = Tensor::zeros({1, 1, 5, 5});
  input.at(0, 0, 2, 2) = 100.0f;  // wins all four windows
  const auto res = max_pool2d(input, Pool2dParams{3, 2, 0});
  Tensor gout(res.output.shape());
  gout.fill(1.0f);
  const Tensor gin = max_pool2d_backward(gout, res.argmax, 5, 5);
  EXPECT_FLOAT_EQ(gin.at(0, 0, 2, 2), 4.0f);
}

// Reference for the op's select form: the branchy max-pool plane loop
// with per-tap bounds checks and an `if (v > best)` update. Output and
// argmax must match it bit for bit.
void reference_max_pool_plane(const real_t* in_p, real_t* out_p,
                              index_t* arg_p, index_t h, index_t w,
                              index_t ho, index_t wo, const Pool2dParams& p) {
  for (index_t oy = 0; oy < ho; ++oy) {
    for (index_t ox = 0; ox < wo; ++ox) {
      real_t best = -std::numeric_limits<real_t>::infinity();
      index_t best_ix = 0;
      for (index_t ky = 0; ky < p.ksize; ++ky) {
        const index_t iy = oy * p.stride - p.pad + ky;
        if (iy < 0 || iy >= h) continue;
        for (index_t kx = 0; kx < p.ksize; ++kx) {
          const index_t ix = ox * p.stride - p.pad + kx;
          if (ix < 0 || ix >= w) continue;
          const real_t v = in_p[iy * w + ix];
          if (v > best) {
            best = v;
            best_ix = iy * w + ix;
          }
        }
      }
      out_p[oy * wo + ox] = best;
      arg_p[oy * wo + ox] = best_ix;
    }
  }
}

TEST(MaxPool2d, MatchesBranchyReferenceBitwise) {
  // Values drawn from a small set so windows hold ties, NaNs, both
  // zeros and -inf; plane 1 is all NaN, so every one of its windows is.
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const real_t pool[] = {nan, -0.0f, 0.0f, -inf, 1.0f, -1.0f, 0.5f, 1.0f};
  Rng rng(29);
  Tensor input({1, 3, 9, 11});
  real_t* x = input.data();
  for (index_t i = 0; i < input.numel(); ++i) {
    x[i] = pool[rng.uniform_int(0, 7)];
  }
  for (index_t i = 9 * 11; i < 2 * 9 * 11; ++i) x[i] = nan;

  for (const index_t k : {index_t{2}, index_t{3}}) {
    for (const index_t stride : {index_t{1}, index_t{2}}) {
      for (const index_t pad : {index_t{0}, index_t{1}}) {
        const Pool2dParams p{k, stride, pad};
        const auto res = max_pool2d(input, p);
        const auto eval = max_pool2d(input, p, /*with_argmax=*/false);
        const index_t ho = res.output.dim(2), wo = res.output.dim(3);
        std::vector<real_t> want(static_cast<std::size_t>(3 * ho * wo));
        std::vector<index_t> want_arg(want.size());
        for (index_t c = 0; c < 3; ++c) {
          reference_max_pool_plane(x + c * 9 * 11, want.data() + c * ho * wo,
                                   want_arg.data() + c * ho * wo, 9, 11, ho,
                                   wo, p);
        }
        const std::size_t bytes = want.size() * sizeof(real_t);
        EXPECT_EQ(0, std::memcmp(res.output.data(), want.data(), bytes))
            << "k " << k << " stride " << stride << " pad " << pad;
        EXPECT_EQ(0, std::memcmp(eval.output.data(), want.data(), bytes))
            << "eval, k " << k << " stride " << stride << " pad " << pad;
        EXPECT_EQ(res.argmax, want_arg)
            << "k " << k << " stride " << stride << " pad " << pad;
      }
    }
  }
}

TEST(AvgPool2d, UniformImageUnchangedInterior) {
  const Tensor input = Tensor::full({1, 1, 8, 8}, 2.0f);
  const Tensor out = avg_pool2d(input, Pool2dParams{2, 2, 0});
  EXPECT_FLOAT_EQ(out.at(0, 0, 2, 2), 2.0f);
}

TEST(AvgPool2d, BackwardIsUniformRedistribution) {
  Tensor gout({1, 1, 1, 1});
  gout.fill(4.0f);
  const Tensor gin = avg_pool2d_backward(gout, Pool2dParams{2, 2, 0}, 2, 2);
  for (index_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(gin.data()[i], 1.0f);
}

// ------------------------------------------------------------ unpool2d
TEST(Unpool2d, DoublesExtent) {
  const Tensor input = random_tensor({1, 3, 5, 7}, 2);
  const Tensor out = unpool2d_bilinear(input, 2);
  EXPECT_EQ(out.dim(2), 10);
  EXPECT_EQ(out.dim(3), 14);
}

TEST(Unpool2d, ConstantImageStaysConstant) {
  const Tensor input = Tensor::full({1, 1, 4, 4}, 3.25f);
  const Tensor out = unpool2d_bilinear(input, 2);
  for (index_t i = 0; i < out.numel(); ++i) {
    EXPECT_FLOAT_EQ(out.data()[i], 3.25f);
  }
}

TEST(Unpool2d, PreservesMeanApproximately) {
  const Tensor input = random_tensor({1, 1, 8, 8}, 3);
  const Tensor out = unpool2d_bilinear(input, 2);
  EXPECT_NEAR(out.mean(), input.mean(), 0.05);
}

TEST(Unpool2d, BackwardIsExactAdjoint) {
  // <up(x), y> == <x, up^T(y)> — required for correct gradients.
  const Tensor x = random_tensor({1, 2, 4, 4}, 4);
  const Tensor up = unpool2d_bilinear(x, 2);
  const Tensor y = random_tensor(up.shape(), 5);
  const Tensor xt = unpool2d_bilinear_backward(y, 2, 4, 4);
  double lhs = 0.0, rhs = 0.0;
  for (index_t i = 0; i < up.numel(); ++i) {
    lhs += static_cast<double>(up.data()[i]) * y.data()[i];
  }
  for (index_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x.data()[i]) * xt.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// ----------------------------------------------------------- batchnorm
TEST(BatchNorm, NormalizesToZeroMeanUnitVar) {
  Rng rng(6);
  Tensor input({2, 3, 8, 8});
  rng.fill_gaussian(input, 5.0, 3.0);
  const Tensor gamma = Tensor::ones({3});
  const Tensor beta = Tensor::zeros({3});
  BatchNormStats stats;
  const Tensor out = batch_norm_train(input, gamma, beta, stats);
  // Per-channel statistics of the output.
  for (index_t c = 0; c < 3; ++c) {
    double sum = 0.0, sum_sq = 0.0;
    index_t count = 0;
    for (index_t n = 0; n < 2; ++n) {
      for (index_t i = 0; i < 64; ++i) {
        const real_t v = out.data()[(n * 3 + c) * 64 + i];
        sum += v;
        sum_sq += static_cast<double>(v) * v;
        ++count;
      }
    }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sum_sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNorm, AffineApplied) {
  Tensor input = Tensor::zeros({1, 1, 2, 2});
  input.at(0, 0, 0, 0) = 1.0f;
  input.at(0, 0, 1, 1) = -1.0f;
  const Tensor gamma = Tensor::from_vector({1}, {2.0f});
  const Tensor beta = Tensor::from_vector({1}, {10.0f});
  BatchNormStats stats;
  const Tensor out = batch_norm_train(input, gamma, beta, stats);
  EXPECT_NEAR(out.mean(), 10.0f, 1e-4);
}

TEST(BatchNorm, InferMatchesTrainWhenStatsEqualBatch) {
  const Tensor input = random_tensor({2, 2, 4, 4}, 7);
  const Tensor gamma = Tensor::from_vector({2}, {1.5f, 0.5f});
  const Tensor beta = Tensor::from_vector({2}, {0.1f, -0.2f});
  BatchNormStats stats;
  const Tensor train_out = batch_norm_train(input, gamma, beta, stats);
  const Tensor infer_out =
      batch_norm_infer(input, gamma, beta, stats.mean, stats.var);
  EXPECT_TRUE(allclose(infer_out, train_out, 1e-4f, 1e-4f));
}

TEST(BatchNorm, BackwardMatchesNumerical) {
  Tensor input = random_tensor({2, 2, 3, 3}, 8);
  Tensor gamma = Tensor::from_vector({2}, {1.2f, 0.7f});
  const Tensor beta = Tensor::from_vector({2}, {0.0f, 0.3f});
  auto f = [&]() {
    BatchNormStats s;
    return static_cast<double>(
        batch_norm_train(input, gamma, beta, s).mul(
            Tensor::full({2, 2, 3, 3}, 1.0f)).sum());
  };
  const Tensor num_x = autograd::numerical_gradient(f, input, 1e-3);
  const Tensor num_g = autograd::numerical_gradient(f, gamma, 1e-3);
  BatchNormStats stats;
  batch_norm_train(input, gamma, beta, stats);
  const Tensor gout = Tensor::ones({2, 2, 3, 3});
  const BatchNormGrads grads =
      batch_norm_backward(gout, input, gamma, stats);
  EXPECT_LT(autograd::gradient_error(grads.grad_input, num_x), 5e-2);
  EXPECT_LT(autograd::gradient_error(grads.grad_gamma, num_g), 5e-2);
}

TEST(BatchNorm, WorksOn3dVolumes) {
  const Tensor input = random_tensor({1, 2, 3, 4, 5}, 9);
  const Tensor gamma = Tensor::ones({2});
  const Tensor beta = Tensor::zeros({2});
  BatchNormStats stats;
  const Tensor out = batch_norm_train(input, gamma, beta, stats);
  EXPECT_EQ(out.shape(), input.shape());
  EXPECT_NEAR(out.mean(), 0.0, 1e-4);
}

// ---------------------------------------------------------- activations
TEST(Activations, ReluClampsNegatives) {
  const Tensor x = Tensor::from_vector({4}, {-2, -0.5, 0, 3});
  const Tensor y = relu(x.reshape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.data()[3], 3.0f);
}

TEST(Activations, LeakyReluSlope) {
  const Tensor x = Tensor::from_vector({2}, {-10.0f, 10.0f});
  const Tensor y = leaky_relu(x, 0.01f);
  EXPECT_FLOAT_EQ(y.data()[0], -0.1f);
  EXPECT_FLOAT_EQ(y.data()[1], 10.0f);
}

TEST(Activations, SigmoidRangeAndStability) {
  const Tensor x = Tensor::from_vector({3}, {-100.0f, 0.0f, 100.0f});
  const Tensor y = sigmoid(x);
  EXPECT_NEAR(y.data()[0], 0.0f, 1e-6);
  EXPECT_FLOAT_EQ(y.data()[1], 0.5f);
  EXPECT_NEAR(y.data()[2], 1.0f, 1e-6);
  for (index_t i = 0; i < 3; ++i) EXPECT_TRUE(std::isfinite(y.data()[i]));
}

TEST(Activations, BackwardFormulas) {
  const Tensor x = Tensor::from_vector({2}, {-1.0f, 2.0f});
  const Tensor g = Tensor::from_vector({2}, {3.0f, 3.0f});
  const Tensor gr = relu_backward(g, x);
  EXPECT_FLOAT_EQ(gr.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(gr.data()[1], 3.0f);
  const Tensor gl = leaky_relu_backward(g, x, 0.1f);
  EXPECT_FLOAT_EQ(gl.data()[0], 0.3f);
  const Tensor y = sigmoid(x);
  const Tensor gs = sigmoid_backward(g, y);
  EXPECT_NEAR(gs.data()[1], 3.0 * y.data()[1] * (1.0 - y.data()[1]), 1e-5);
}

// --------------------------------------------------------------- concat
TEST(Concat, ChannelsStackInOrder) {
  Tensor a = Tensor::full({1, 1, 2, 2}, 1.0f);
  Tensor b = Tensor::full({1, 2, 2, 2}, 2.0f);
  const Tensor c = concat_channels({a, b});
  EXPECT_EQ(c.dim(1), 3);
  EXPECT_FLOAT_EQ(c.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(c.at(0, 2, 1, 1), 2.0f);
}

TEST(Concat, SplitIsInverse) {
  const Tensor a = random_tensor({2, 2, 3, 3}, 10);
  const Tensor b = random_tensor({2, 5, 3, 3}, 11);
  const Tensor c = concat_channels({a, b});
  const auto parts = split_channels(c, {2, 5});
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_TRUE(allclose(parts[0], a));
  EXPECT_TRUE(allclose(parts[1], b));
}

TEST(Concat, MismatchedSpatialThrows) {
  const Tensor a = Tensor::zeros({1, 1, 2, 2});
  const Tensor b = Tensor::zeros({1, 1, 3, 3});
  EXPECT_THROW(concat_channels({a, b}), std::invalid_argument);
}

TEST(Concat, WorksFor3dVolumes) {
  const Tensor a = random_tensor({1, 2, 2, 3, 3}, 12);
  const Tensor b = random_tensor({1, 3, 2, 3, 3}, 13);
  const Tensor c = concat_channels({a, b});
  EXPECT_EQ(c.dim(1), 5);
  const auto parts = split_channels(c, {2, 3});
  EXPECT_TRUE(allclose(parts[1], b));
}

// --------------------------------------------------------------- pool3d
TEST(MaxPool3d, HalvesAllExtents) {
  const Tensor input = random_tensor({1, 2, 4, 6, 8}, 14);
  const auto res = max_pool3d(input, Pool3dParams{2, 2, 0});
  EXPECT_EQ(res.output.dim(2), 2);
  EXPECT_EQ(res.output.dim(3), 3);
  EXPECT_EQ(res.output.dim(4), 4);
}

TEST(MaxPool3d, BackwardRoutesToArgmax) {
  Tensor input = Tensor::zeros({1, 1, 2, 2, 2});
  input.at(0, 0, 1, 0, 1) = 42.0f;
  const auto res = max_pool3d(input, Pool3dParams{2, 2, 0});
  Tensor gout({1, 1, 1, 1, 1});
  gout.fill(1.0f);
  const Tensor gin = max_pool3d_backward(gout, res.argmax, 2, 2, 2);
  EXPECT_FLOAT_EQ(gin.at(0, 0, 1, 0, 1), 1.0f);
  EXPECT_FLOAT_EQ(gin.sum(), 1.0f);
}

TEST(AvgPool3d, UniformVolumeInterior) {
  const Tensor input = Tensor::full({1, 1, 4, 4, 4}, 7.0f);
  const Tensor out = avg_pool3d(input, Pool3dParams{2, 2, 0});
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1, 1), 7.0f);
}

TEST(GlobalAvgPool3d, ComputesMeanPerChannel) {
  Tensor input({1, 2, 2, 2, 2});
  for (index_t i = 0; i < 8; ++i) input.data()[i] = 1.0f;        // ch 0
  for (index_t i = 8; i < 16; ++i) input.data()[i] = 3.0f;       // ch 1
  const Tensor out = global_avg_pool3d(input);
  EXPECT_FLOAT_EQ(out.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 3.0f);
}

TEST(GlobalAvgPool3d, BackwardSpreadsUniformly) {
  Tensor gout({1, 1});
  gout.fill(8.0f);
  const Tensor gin = global_avg_pool3d_backward(gout, 2, 2, 2);
  for (index_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(gin.data()[i], 1.0f);
}

}  // namespace
}  // namespace ccovid::ops
