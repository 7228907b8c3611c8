// Autograd engine: every differentiable op is checked against central
// finite differences; graph mechanics (shared nodes, grad accumulation,
// no-grad mode) and the Adam optimizer are exercised.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "autograd/functions.h"
#include "autograd/gradcheck.h"
#include "autograd/optim.h"
#include "core/random.h"

namespace ccovid::autograd {
namespace {

Tensor random_tensor(Shape s, std::uint64_t seed, double stddev = 1.0) {
  Rng rng(seed);
  Tensor t(std::move(s));
  rng.fill_gaussian(t, 0.0, stddev);
  return t;
}

// Generic scalar-output gradcheck harness: builds loss = mean(op(x)) and
// compares x's analytic gradient with finite differences.
template <typename Fn>
void check_unary_grad(Shape shape, Fn&& op, std::uint64_t seed,
                      double tol = 2e-2) {
  Tensor x_val = random_tensor(shape, seed, 0.5);
  auto scalar_fn = [&]() {
    Var x(x_val.clone());
    Var x_req(x_val, true);
    (void)x;
    Var y = op(x_req);
    return static_cast<double>(mean(y).value().at(0));
  };
  const Tensor num = numerical_gradient(scalar_fn, x_val, 1e-3);

  Var x(x_val, true);
  Var loss = mean(op(x));
  loss.backward();
  ASSERT_TRUE(x.has_grad());
  EXPECT_LT(gradient_error(x.grad(), num), tol);
}

TEST(Autograd, LeafRequiresGradFlag) {
  Var a(Tensor::ones({2}), true);
  Var b(Tensor::ones({2}), false);
  EXPECT_TRUE(a.requires_grad());
  EXPECT_FALSE(b.requires_grad());
  Var c = add(a, b);
  EXPECT_TRUE(c.requires_grad());
  Var d = add(b, b);
  EXPECT_FALSE(d.requires_grad());
}

TEST(Autograd, BackwardRequiresScalar) {
  Var a(Tensor::ones({2, 2}), true);
  EXPECT_THROW(a.backward(), std::runtime_error);
}

TEST(Autograd, SimpleChainGradient) {
  // loss = mean((2x + 1)^2); dloss/dx = 4(2x+1)/N.
  Tensor x_val = Tensor::from_vector({2}, {0.5f, -1.0f});
  Var x(x_val, true);
  Var y = add_scalar(mul_scalar(x, 2.0f), 1.0f);
  Var loss = mean(mul(y, y));
  loss.backward();
  EXPECT_NEAR(x.grad().at(0), 4.0 * 2.0 / 2.0, 1e-5);
  EXPECT_NEAR(x.grad().at(1), 4.0 * -1.0 / 2.0, 1e-5);
}

TEST(Autograd, SharedNodeAccumulatesBothPaths) {
  // loss = mean(x*x + x) — x used twice; grad = (2x + 1)/N.
  Tensor x_val = Tensor::from_vector({1}, {3.0f});
  Var x(x_val, true);
  Var loss = mean(add(mul(x, x), x));
  loss.backward();
  EXPECT_NEAR(x.grad().at(0), 7.0, 1e-5);
}

TEST(Autograd, NoGradGuardSkipsGraph) {
  Var x(Tensor::ones({2}), true);
  {
    NoGradGuard guard;
    Var y = mul(x, x);
    EXPECT_FALSE(y.requires_grad());
  }
  Var z = mul(x, x);
  EXPECT_TRUE(z.requires_grad());
}

TEST(Autograd, ZeroGradClears) {
  Var x(Tensor::ones({2}), true);
  Var loss = mean(x);
  loss.backward();
  EXPECT_TRUE(x.has_grad());
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad().abs_max(), 0.0f);
}

TEST(Autograd, DetachCutsHistory) {
  Var x(Tensor::ones({2}), true);
  Var y = mul_scalar(x, 3.0f).detach();
  EXPECT_FALSE(y.requires_grad());
}

// ------------------------------------------------------ elementwise ops
TEST(AutogradGrad, Add) {
  check_unary_grad({2, 3}, [](const Var& x) { return add(x, x); }, 1);
}

TEST(AutogradGrad, SubAndMulScalar) {
  check_unary_grad(
      {2, 3},
      [](const Var& x) { return sub(mul_scalar(x, 2.0f), x); }, 2);
}

TEST(AutogradGrad, MulElementwise) {
  check_unary_grad({2, 3}, [](const Var& x) { return mul(x, x); }, 3);
}

TEST(AutogradGrad, Div) {
  check_unary_grad(
      {2, 3},
      [](const Var& x) {
        return div(x, add_scalar(mul(x, x), 2.0f));
      },
      4);
}

TEST(AutogradGrad, PowScalar) {
  // Keep inputs positive: pow over clamp.
  check_unary_grad(
      {2, 3},
      [](const Var& x) {
        return pow_scalar(add_scalar(clamp_min(x, 0.0f), 0.5f), 0.3f);
      },
      5);
}

TEST(AutogradGrad, ClampMin) {
  check_unary_grad({3, 3}, [](const Var& x) { return clamp_min(x, 0.1f); },
                   6);
}

TEST(AutogradGrad, SumReduction) {
  Tensor x_val = random_tensor({4}, 7);
  Var x(x_val, true);
  Var s = sum(x);
  s.backward();
  for (index_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x.grad().at(i), 1.0f);
}

// --------------------------------------------------------- activations
TEST(AutogradGrad, Relu) {
  check_unary_grad({3, 4}, [](const Var& x) { return relu(x); }, 8);
}

TEST(AutogradGrad, LeakyRelu) {
  check_unary_grad({3, 4},
                   [](const Var& x) { return leaky_relu(x, 0.01f); }, 9);
}

TEST(AutogradGrad, Sigmoid) {
  check_unary_grad({3, 4}, [](const Var& x) { return sigmoid(x); }, 10,
                   3e-2);
}

// -------------------------------------------------------- conv / linear
TEST(AutogradGrad, Conv2dInputAndWeight) {
  Tensor x_val = random_tensor({1, 2, 5, 5}, 11, 0.5);
  Tensor w_val = random_tensor({3, 2, 3, 3}, 12, 0.5);
  Tensor b_val = random_tensor({3}, 13, 0.5);

  auto loss_value = [&]() {
    Var x(x_val);
    Var w(w_val);
    Var b(b_val);
    return static_cast<double>(
        mean(conv2d(x, w, b, ops::Conv2dParams::same(3))).value().at(0));
  };
  const Tensor num_x = numerical_gradient(loss_value, x_val, 1e-3);
  const Tensor num_w = numerical_gradient(loss_value, w_val, 1e-3);
  const Tensor num_b = numerical_gradient(loss_value, b_val, 1e-3);

  Var x(x_val, true), w(w_val, true), b(b_val, true);
  Var loss = mean(conv2d(x, w, b, ops::Conv2dParams::same(3)));
  loss.backward();
  EXPECT_LT(gradient_error(x.grad(), num_x), 2e-2);
  EXPECT_LT(gradient_error(w.grad(), num_w), 2e-2);
  EXPECT_LT(gradient_error(b.grad(), num_b), 2e-2);
}

TEST(AutogradGrad, Deconv2dInputAndWeight) {
  Tensor x_val = random_tensor({1, 2, 4, 4}, 14, 0.5);
  Tensor w_val = random_tensor({2, 3, 3, 3}, 15, 0.5);

  auto loss_value = [&]() {
    Var x(x_val);
    Var w(w_val);
    return static_cast<double>(
        mean(deconv2d(x, w, Var(), ops::Deconv2dParams::same(3)))
            .value()
            .at(0));
  };
  const Tensor num_x = numerical_gradient(loss_value, x_val, 1e-3);
  const Tensor num_w = numerical_gradient(loss_value, w_val, 1e-3);

  Var x(x_val, true), w(w_val, true);
  Var loss = mean(deconv2d(x, w, Var(), ops::Deconv2dParams::same(3)));
  loss.backward();
  EXPECT_LT(gradient_error(x.grad(), num_x), 2e-2);
  EXPECT_LT(gradient_error(w.grad(), num_w), 2e-2);
}

TEST(AutogradGrad, Conv3d) {
  Tensor x_val = random_tensor({1, 1, 3, 3, 3}, 16, 0.5);
  Tensor w_val = random_tensor({2, 1, 2, 2, 2}, 17, 0.5);
  auto loss_value = [&]() {
    Var x(x_val);
    Var w(w_val);
    return static_cast<double>(
        mean(conv3d(x, w, Var(), ops::Conv3dParams{0})).value().at(0));
  };
  const Tensor num_x = numerical_gradient(loss_value, x_val, 1e-3);
  const Tensor num_w = numerical_gradient(loss_value, w_val, 1e-3);
  Var x(x_val, true), w(w_val, true);
  Var loss = mean(conv3d(x, w, Var(), ops::Conv3dParams{0}));
  loss.backward();
  EXPECT_LT(gradient_error(x.grad(), num_x), 2e-2);
  EXPECT_LT(gradient_error(w.grad(), num_w), 2e-2);
}

TEST(AutogradGrad, Linear) {
  Tensor x_val = random_tensor({2, 3}, 18);
  Tensor w_val = random_tensor({4, 3}, 19);
  auto loss_value = [&]() {
    Var x(x_val);
    Var w(w_val);
    return static_cast<double>(mean(linear(x, w, Var())).value().at(0));
  };
  const Tensor num_w = numerical_gradient(loss_value, w_val, 1e-3);
  Var x(x_val, true), w(w_val, true);
  Var loss = mean(linear(x, w, Var()));
  loss.backward();
  EXPECT_LT(gradient_error(w.grad(), num_w), 2e-2);
}

// -------------------------------------------------- pooling / resampling
TEST(AutogradGrad, MaxPool2d) {
  check_unary_grad(
      {1, 1, 6, 6},
      [](const Var& x) { return max_pool2d(x, ops::Pool2dParams{2, 2, 0}); },
      20);
}

TEST(AutogradGrad, AvgPool2d) {
  check_unary_grad(
      {1, 2, 6, 6},
      [](const Var& x) { return avg_pool2d(x, ops::Pool2dParams{2, 2, 0}); },
      21);
}

TEST(AutogradGrad, Unpool2d) {
  check_unary_grad({1, 1, 4, 4},
                   [](const Var& x) { return unpool2d(x, 2); }, 22);
}

TEST(AutogradGrad, MaxPool3d) {
  check_unary_grad(
      {1, 1, 4, 4, 4},
      [](const Var& x) { return max_pool3d(x, ops::Pool3dParams{2, 2, 0}); },
      23);
}

// A forward no gradient flows through builds no argmax and hands the
// op's output to the Var as is; its bits match the grad-mode forward.
TEST(AutogradPool, NoGradMaxPoolMatchesGradForwardWithoutArgmax) {
  const auto same_bits = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) *
                           sizeof(real_t)) == 0;
  };
  const Tensor x2 = random_tensor({2, 3, 7, 9}, 40);
  const Tensor x3 = random_tensor({2, 3, 5, 7, 6}, 41);
  const ops::Pool2dParams p2{3, 2, 1};
  const ops::Pool3dParams p3{2, 2, 0};
  EXPECT_TRUE(ops::max_pool2d(x2, p2, /*with_argmax=*/false).argmax.empty());
  EXPECT_TRUE(ops::max_pool3d(x3, p3, /*with_argmax=*/false).argmax.empty());

  const Var v2(x2, /*requires_grad=*/true), v3(x3, /*requires_grad=*/true);
  const Var g2 = max_pool2d(v2, p2), g3 = max_pool3d(v3, p3);
  Var n2, n3, c2, c3;
  {
    NoGradGuard no_grad;
    n2 = max_pool2d(v2, p2);
    n3 = max_pool3d(v3, p3);
  }
  c2 = max_pool2d(Var(x2), p2);  // constant input: no gradient either
  c3 = max_pool3d(Var(x3), p3);
  for (const Var* v : {&n2, &n3, &c2, &c3}) {
    EXPECT_FALSE(v->requires_grad());
    EXPECT_FALSE(v->impl()->backward_fn);
  }
  EXPECT_TRUE(g2.impl()->backward_fn);
  EXPECT_TRUE(g3.impl()->backward_fn);
  EXPECT_TRUE(same_bits(n2.value(), g2.value()));
  EXPECT_TRUE(same_bits(c2.value(), g2.value()));
  EXPECT_TRUE(same_bits(n3.value(), g3.value()));
  EXPECT_TRUE(same_bits(c3.value(), g3.value()));
  EXPECT_TRUE(same_bits(g2.value(), ops::max_pool2d(x2, p2).output));
  EXPECT_TRUE(same_bits(g3.value(), ops::max_pool3d(x3, p3).output));
}

TEST(AutogradGrad, AvgPool3d) {
  // DenseNet-3D's transition layers use strided avg_pool3d; this was
  // the only pooling op without its own gradcheck.
  check_unary_grad(
      {1, 2, 4, 4, 4},
      [](const Var& x) { return avg_pool3d(x, ops::Pool3dParams{2, 2, 0}); },
      30);
}

TEST(AutogradGrad, AvgPool3dOddExtentWithPadding) {
  // Padded windows hang over the volume edge, so the averaging divisor
  // differs between interior and border cells — the backward must
  // scatter with the matching per-window weights.
  check_unary_grad(
      {1, 1, 5, 5, 5},
      [](const Var& x) { return avg_pool3d(x, ops::Pool3dParams{3, 2, 1}); },
      31);
}

// ------------------------------------------------------------ structure
TEST(AutogradGrad, Concat) {
  Tensor a_val = random_tensor({1, 2, 3, 3}, 25);
  Tensor b_val = random_tensor({1, 3, 3, 3}, 26);
  auto loss_value = [&]() {
    Var a(a_val), b(b_val);
    return static_cast<double>(mean(concat({a, b})).value().at(0));
  };
  const Tensor num_a = numerical_gradient(loss_value, a_val, 1e-3);
  Var a(a_val, true), b(b_val, true);
  Var loss = mean(concat({a, b}));
  loss.backward();
  EXPECT_LT(gradient_error(a.grad(), num_a), 2e-2);
  EXPECT_TRUE(b.has_grad());
}

TEST(AutogradGrad, ConcatChecksEveryInputGradient) {
  // Three inputs of distinct channel widths; the slice-backward must
  // route each input's share of the upstream gradient to the right
  // offsets. Every input is finite-difference checked (the test above
  // only validates input `a` numerically).
  Tensor vals[3] = {random_tensor({1, 1, 3, 3}, 32),
                    random_tensor({1, 2, 3, 3}, 33),
                    random_tensor({1, 3, 3, 3}, 34)};
  auto loss_value = [&]() {
    Var a(vals[0]), b(vals[1]), c(vals[2]);
    // The squared term makes each input's gradient depend on its own
    // values, so a cross-wired slice boundary cannot cancel out.
    Var y = concat({a, b, c});
    return static_cast<double>(mean(mul(y, y)).value().at(0));
  };
  Var a(vals[0], true), b(vals[1], true), c(vals[2], true);
  Var y = concat({a, b, c});
  Var loss = mean(mul(y, y));
  loss.backward();
  const Var* grads[3] = {&a, &b, &c};
  for (int i = 0; i < 3; ++i) {
    const Tensor num = numerical_gradient(loss_value, vals[i], 1e-3);
    ASSERT_TRUE(grads[i]->has_grad()) << "concat input " << i;
    EXPECT_LT(gradient_error(grads[i]->grad(), num), 2e-2)
        << "concat input " << i;
  }
}

TEST(AutogradGrad, Reshape) {
  check_unary_grad({2, 6}, [](const Var& x) {
    return reshape(x, Shape{3, 4});
  }, 27);
}

TEST(AutogradGrad, BatchNormTraining) {
  Tensor x_val = random_tensor({2, 2, 3, 3}, 28);
  Tensor gamma_val = Tensor::from_vector({2}, {1.3f, 0.6f});
  Tensor beta_val = Tensor::from_vector({2}, {0.1f, -0.4f});

  auto loss_value = [&]() {
    Var x(x_val);
    Var g(gamma_val);
    Var b(beta_val);
    Tensor rm({2}), rv = Tensor::ones({2});
    // Weight the output so the loss is not trivially mean-invariant.
    Var y = batch_norm(x, g, b, rm, rv, true);
    return static_cast<double>(mean(mul(y, y)).value().at(0));
  };
  const Tensor num_x = numerical_gradient(loss_value, x_val, 1e-3);
  const Tensor num_g = numerical_gradient(loss_value, gamma_val, 1e-3);

  Var x(x_val, true), g(gamma_val, true), b(beta_val, true);
  Tensor rm({2}), rv = Tensor::ones({2});
  Var y = batch_norm(x, g, b, rm, rv, true);
  Var loss = mean(mul(y, y));
  loss.backward();
  EXPECT_LT(gradient_error(x.grad(), num_x), 5e-2);
  EXPECT_LT(gradient_error(g.grad(), num_g), 5e-2);
}

TEST(AutogradGrad, BatchNormEvalMode) {
  Tensor x_val = random_tensor({1, 2, 3, 3}, 29);
  Tensor gamma_val = Tensor::from_vector({2}, {2.0f, 0.5f});
  Tensor beta_val = Tensor::zeros({2});
  Tensor rm = Tensor::from_vector({2}, {0.1f, -0.2f});
  Tensor rv = Tensor::from_vector({2}, {1.5f, 0.7f});

  auto loss_value = [&]() {
    Var x(x_val);
    Var g(gamma_val);
    Var b(beta_val);
    Tensor rm2 = rm.clone(), rv2 = rv.clone();
    Var y = batch_norm(x, g, b, rm2, rv2, false);
    return static_cast<double>(mean(mul(y, y)).value().at(0));
  };
  const Tensor num_x = numerical_gradient(loss_value, x_val, 1e-3);

  Var x(x_val, true), g(gamma_val, true), b(beta_val, true);
  Tensor rm2 = rm.clone(), rv2 = rv.clone();
  Var y = batch_norm(x, g, b, rm2, rv2, false);
  Var loss = mean(mul(y, y));
  loss.backward();
  EXPECT_LT(gradient_error(x.grad(), num_x), 3e-2);
}

TEST(AutogradGrad, BatchNormUpdatesRunningStats) {
  Tensor x_val = random_tensor({4, 1, 4, 4}, 30, 2.0);
  Var x(x_val), g(Tensor::ones({1})), b(Tensor::zeros({1}));
  Tensor rm({1}), rv = Tensor::ones({1});
  batch_norm(x, g, b, rm, rv, true, 1.0f);  // momentum 1: adopt batch stats
  EXPECT_NEAR(rm.at(0), x_val.mean(), 1e-4);
  EXPECT_GT(rv.at(0), 1.0f);  // stddev-2 data -> variance ~4
}

// -------------------------------------------------------------- optimizer
TEST(Adam, MinimizesQuadratic) {
  // minimize mean((x - 3)^2).
  Var x(Tensor::zeros({4}), true);
  Adam opt({x}, 0.1);
  for (int i = 0; i < 300; ++i) {
    Var loss = mean(mul(add_scalar(x, -3.0f), add_scalar(x, -3.0f)));
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  for (index_t i = 0; i < 4; ++i) EXPECT_NEAR(x.value().at(i), 3.0f, 0.05);
}

TEST(Adam, SkipsParamsWithoutGrad) {
  Var used(Tensor::zeros({1}), true);
  Var unused(Tensor::full({1}, 5.0f), true);
  Adam opt({used, unused}, 0.1);
  Var loss = mean(mul(used, used));
  opt.zero_grad();
  loss.backward();
  opt.step();
  EXPECT_FLOAT_EQ(unused.value().at(0), 5.0f);
}

TEST(Adam, ExponentialDecaySchedule) {
  Var x(Tensor::zeros({1}), true);
  Adam opt({x}, 1e-4);  // the paper's Enhancement-AI learning rate
  ExponentialLR sched(opt, 0.8);
  sched.step();
  EXPECT_NEAR(opt.lr(), 8e-5, 1e-12);
  sched.step();
  EXPECT_NEAR(opt.lr(), 6.4e-5, 1e-12);
}

}  // namespace
}  // namespace ccovid::autograd
