// Convolution kernels: every optimization stage must agree with the
// reference implementation across a parameterized sweep of filter sizes,
// strides, paddings and channel counts; gradient kernels must match
// numerical differentiation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "autograd/gradcheck.h"
#include "core/random.h"
#include "ops/conv2d.h"
#include "ops/conv3d.h"
#include "ops/linear.h"

namespace ccovid::ops {
namespace {

Tensor random_tensor(Shape s, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(s));
  rng.fill_gaussian(t, 0.0, 1.0);
  return t;
}

struct ConvCase {
  index_t n, cin, h, w, cout, k, stride, pad;
};

class Conv2dSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Conv2dSweep, AllVariantsMatchReference) {
  const ConvCase c = GetParam();
  const Tensor input = random_tensor({c.n, c.cin, c.h, c.w}, 1);
  const Tensor weight = random_tensor({c.cout, c.cin, c.k, c.k}, 2);
  const Tensor bias = random_tensor({c.cout}, 3);
  const Conv2dParams p{c.stride, c.pad};

  const Tensor ref = conv2d_reference(input, weight, bias, p);
  for (const KernelOptions& opt :
       {KernelOptions::baseline(), KernelOptions::refactored(),
        KernelOptions::refactored_prefetch(), KernelOptions::all()}) {
    const Tensor out = conv2d(input, weight, bias, p, opt);
    EXPECT_TRUE(allclose(out, ref, 1e-4f, 1e-4f))
        << "variant " << opt.str() << " diff " << max_abs_diff(out, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv2dSweep,
    ::testing::Values(
        ConvCase{1, 1, 8, 8, 1, 1, 1, 0},    // pointwise
        ConvCase{1, 1, 9, 9, 2, 3, 1, 1},    // 3x3 same
        ConvCase{1, 2, 12, 12, 3, 5, 1, 2},  // DDnet 5x5 same
        ConvCase{1, 1, 16, 16, 2, 7, 1, 3},  // DDnet stem 7x7
        ConvCase{2, 3, 10, 8, 4, 3, 2, 1},   // strided, rectangular
        ConvCase{1, 2, 7, 7, 2, 3, 3, 0},    // stride 3, no pad
        ConvCase{1, 4, 6, 6, 8, 2, 1, 0},    // even filter (generic path)
        ConvCase{3, 1, 5, 5, 1, 5, 1, 2}));  // batch > 1

TEST(Conv2d, OutputExtentFormula) {
  EXPECT_EQ(conv_out_extent(512, 7, 1, 3), 512);
  EXPECT_EQ(conv_out_extent(512, 3, 2, 1), 256);  // DDnet pooling geometry
  EXPECT_EQ(conv_out_extent(5, 3, 1, 0), 3);
}

TEST(Conv2d, IdentityKernelPreservesImage) {
  const Tensor input = random_tensor({1, 1, 6, 6}, 4);
  Tensor weight({1, 1, 1, 1});
  weight.at(0, 0, 0, 0) = 1.0f;
  const Tensor out = conv2d(input, weight, Tensor(), Conv2dParams{1, 0});
  EXPECT_TRUE(allclose(out, input));
}

TEST(Conv2d, BiasIsAdded) {
  const Tensor input = Tensor::zeros({1, 1, 4, 4});
  Tensor weight({2, 1, 3, 3});
  Tensor bias = Tensor::from_vector({2}, {1.5f, -2.0f});
  const Tensor out = conv2d(input, weight, bias, Conv2dParams::same(3));
  EXPECT_FLOAT_EQ(out.at(0, 0, 2, 2), 1.5f);
  EXPECT_FLOAT_EQ(out.at(0, 1, 2, 2), -2.0f);
}

TEST(Conv2d, ChannelMismatchThrows) {
  const Tensor input = Tensor::zeros({1, 2, 4, 4});
  const Tensor weight = Tensor::zeros({1, 3, 3, 3});
  EXPECT_THROW(conv2d(input, weight, Tensor(), Conv2dParams::same(3)),
               std::invalid_argument);
}

TEST(Conv2d, BackwardInputMatchesNumerical) {
  Tensor input = random_tensor({1, 2, 6, 6}, 5);
  const Tensor weight = random_tensor({3, 2, 3, 3}, 6);
  const Conv2dParams p{1, 1};
  // Scalar objective: sum of outputs. dL/dy = ones.
  auto f = [&]() {
    return static_cast<double>(
        conv2d_reference(input, weight, Tensor(), p).sum());
  };
  const Tensor num = autograd::numerical_gradient(f, input, 1e-2);
  const Tensor gout =
      Tensor::ones({1, 3, conv_out_extent(6, 3, 1, 1),
                    conv_out_extent(6, 3, 1, 1)});
  const Tensor ana = conv2d_backward_input(gout, weight, 6, 6, p);
  EXPECT_LT(autograd::gradient_error(ana, num), 2e-2);
}

TEST(Conv2d, BackwardWeightMatchesNumerical) {
  const Tensor input = random_tensor({2, 2, 5, 5}, 7);
  Tensor weight = random_tensor({2, 2, 3, 3}, 8);
  const Conv2dParams p{2, 1};
  auto f = [&]() {
    return static_cast<double>(
        conv2d_reference(input, weight, Tensor(), p).sum());
  };
  const Tensor num = autograd::numerical_gradient(f, weight, 1e-2);
  const index_t oe = conv_out_extent(5, 3, 2, 1);
  const Tensor gout = Tensor::ones({2, 2, oe, oe});
  const Tensor ana = conv2d_backward_weight(gout, input, 3, p);
  EXPECT_LT(autograd::gradient_error(ana, num), 2e-2);
}

TEST(Conv2d, BackwardBiasSumsGradient) {
  Tensor gout({2, 3, 2, 2});
  gout.fill(0.5f);
  const Tensor gb = channel_sum(gout);
  ASSERT_EQ(gb.dim(0), 3);
  for (index_t c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(gb.at(c), 4.0f);  // 2*2*2*0.5
}

TEST(Conv3d, BackwardBiasSumsGradient) {
  Tensor gout({2, 3, 2, 3, 2});
  gout.fill(0.25f);
  const Tensor gb = channel_sum(gout);
  ASSERT_EQ(gb.shape(), Shape({3}));
  for (index_t c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(gb.at(c), 6.0f);  // 24*0.25
}

// ------------------------------------------------------ conv2d backward
// The direct scalar gradient loops ops::conv2d_backward_{input,weight}
// ran before they moved onto the SIMD kernels, kept as the bitwise
// references. Input gradient: per element, from 0.0f, taps in
// ascending (ky, kx, co) order with float products and sums. Weight
// gradient: per tap, a double sum over (n, oy, ox) ascending.
Tensor conv2d_backward_input_reference(const Tensor& grad_out,
                                       const Tensor& weight, index_t input_h,
                                       index_t input_w, Conv2dParams p) {
  const index_t n = grad_out.dim(0), cout = grad_out.dim(1),
                ho = grad_out.dim(2), wo = grad_out.dim(3);
  const index_t cin = weight.dim(1), k = weight.dim(2);
  Tensor gin({n, cin, input_h, input_w});
  const real_t* gp = grad_out.data();
  const real_t* wp = weight.data();
  real_t* op = gin.data();
  for (index_t ni = 0; ni < n; ++ni) {
    for (index_t ci = 0; ci < cin; ++ci) {
      real_t* g = op + (ni * cin + ci) * input_h * input_w;
      const real_t* go_n = gp + ni * cout * ho * wo;
      for (index_t iy = 0; iy < input_h; ++iy) {
        for (index_t ix = 0; ix < input_w; ++ix) {
          real_t acc = 0.0f;
          for (index_t ky = 0; ky < k; ++ky) {
            const index_t oy_num = iy + p.pad - ky;
            if (oy_num < 0 || oy_num % p.stride != 0) continue;
            const index_t oy = oy_num / p.stride;
            if (oy >= ho) continue;
            for (index_t kx = 0; kx < k; ++kx) {
              const index_t ox_num = ix + p.pad - kx;
              if (ox_num < 0 || ox_num % p.stride != 0) continue;
              const index_t ox = ox_num / p.stride;
              if (ox >= wo) continue;
              for (index_t co = 0; co < cout; ++co) {
                acc += go_n[(co * ho + oy) * wo + ox] *
                       wp[((co * cin + ci) * k + ky) * k + kx];
              }
            }
          }
          g[iy * input_w + ix] = acc;
        }
      }
    }
  }
  return gin;
}

Tensor conv2d_backward_weight_reference(const Tensor& grad_out,
                                        const Tensor& input, index_t ksize,
                                        Conv2dParams p) {
  const index_t n = grad_out.dim(0), cout = grad_out.dim(1),
                ho = grad_out.dim(2), wo = grad_out.dim(3);
  const index_t cin = input.dim(1), h = input.dim(2), w = input.dim(3);
  Tensor gw({cout, cin, ksize, ksize});
  const real_t* gp = grad_out.data();
  const real_t* ip = input.data();
  real_t* wp = gw.data();
  for (index_t co = 0; co < cout; ++co) {
    for (index_t ci = 0; ci < cin; ++ci) {
      for (index_t ky = 0; ky < ksize; ++ky) {
        for (index_t kx = 0; kx < ksize; ++kx) {
          double acc = 0.0;
          for (index_t ni = 0; ni < n; ++ni) {
            const real_t* go = gp + (ni * cout + co) * ho * wo;
            const real_t* in_p = ip + (ni * cin + ci) * h * w;
            for (index_t oy = 0; oy < ho; ++oy) {
              const index_t iy = oy * p.stride - p.pad + ky;
              if (iy < 0 || iy >= h) continue;
              for (index_t ox = 0; ox < wo; ++ox) {
                const index_t ix = ox * p.stride - p.pad + kx;
                if (ix < 0 || ix >= w) continue;
                acc += static_cast<double>(go[oy * wo + ox]) *
                       in_p[iy * w + ix];
              }
            }
          }
          wp[((co * cin + ci) * ksize + ky) * ksize + kx] =
              static_cast<real_t>(acc);
        }
      }
    }
  }
  return gw;
}

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(real_t)) ==
             0;
}

// Seeded sweep over k in {1, 3, 5, 7} (then 30 cases of 2, 4 and 9, the
// even and more-than-two-group filters), pad 0..k/2+1, stride 1..3 (1
// in 3 of 5 cases, where the vector interiors run), n in {1, 2} and cin 1..9
// (every quad remainder of both gradients). Widths up to 40 cross the
// 16- and 8-column input-gradient interiors and the scalar borders and
// ragged tails. Compared bit for bit under whichever CCOVID_SIMD
// backend runs it.
TEST(ConvGrad, MatchesScalarReferenceBitwise) {
  Rng rng(2025);
  const index_t kKs[] = {1, 3, 5, 7};
  const index_t kOtherKs[] = {2, 4, 9};
  for (int i = 0; i < 270; ++i) {
    const index_t k = i < 240 ? kKs[i % 4] : kOtherKs[i % 3];
    const index_t pad = (i / 4) % (k / 2 + 2);
    const index_t stride = i % 5 < 3 ? 1 : rng.uniform_int(2, 3);
    const index_t n = 1 + (i / 7) % 2;
    const index_t cin = 1 + i % 9;
    const index_t cout = rng.uniform_int(1, 9);
    const index_t lo = std::max<index_t>(1, k - 2 * pad);
    const index_t h = rng.uniform_int(lo, lo + 5);
    const index_t w = rng.uniform_int(lo, 40);
    const Conv2dParams p{stride, pad};
    const index_t ho = conv_out_extent(h, k, stride, pad);
    const index_t wo = conv_out_extent(w, k, stride, pad);
    const Tensor input = random_tensor({n, cin, h, w}, 1000 + i);
    const Tensor weight = random_tensor({cout, cin, k, k}, 2000 + i);
    const Tensor gout = random_tensor({n, cout, ho, wo}, 3000 + i);
    const std::string what =
        "case " + std::to_string(i) + ": n=" + std::to_string(n) +
        " cin=" + std::to_string(cin) + " cout=" + std::to_string(cout) +
        " h=" + std::to_string(h) + " w=" + std::to_string(w) +
        " k=" + std::to_string(k) + " stride=" + std::to_string(stride) +
        " pad=" + std::to_string(pad);
    EXPECT_TRUE(bits_equal(conv2d_backward_input(gout, weight, h, w, p),
                           conv2d_backward_input_reference(gout, weight, h,
                                                           w, p)))
        << "input gradient, " << what;
    EXPECT_TRUE(bits_equal(conv2d_backward_weight(gout, input, k, p),
                           conv2d_backward_weight_reference(gout, input, k,
                                                            p)))
        << "weight gradient, " << what;
  }
}

// -------------------------------------------------------------- conv3d
// The direct scalar conv3d loop ops::conv3d ran before it moved onto the
// SIMD row kernel, kept as the bitwise reference: taps in ascending
// (ci, kz, ky, kx) order from the bias, out-of-range taps skipped.
Tensor conv3d_reference(const Tensor& input, const Tensor& weight,
                        const Tensor& bias, Conv3dParams p) {
  const index_t n = input.dim(0), cin = input.dim(1), d = input.dim(2),
                h = input.dim(3), w = input.dim(4);
  const index_t cout = weight.dim(0), k = weight.dim(2);
  const index_t od = d + 2 * p.pad - k + 1;
  const index_t oh = h + 2 * p.pad - k + 1;
  const index_t ow = w + 2 * p.pad - k + 1;
  Tensor out({n, cout, od, oh, ow});
  const real_t* ip = input.data();
  const real_t* wp = weight.data();
  const real_t* bp = bias.defined() ? bias.data() : nullptr;
  real_t* op = out.data();
  for (index_t ni = 0; ni < n; ++ni) {
    for (index_t co = 0; co < cout; ++co) {
      const real_t* in_n = ip + ni * cin * d * h * w;
      const real_t* w_co = wp + co * cin * k * k * k;
      real_t* out_p = op + (ni * cout + co) * od * oh * ow;
      const real_t bias_v = bp ? bp[co] : 0.0f;
      for (index_t oz = 0; oz < od; ++oz) {
        for (index_t oy = 0; oy < oh; ++oy) {
          for (index_t ox = 0; ox < ow; ++ox) {
            real_t acc = bias_v;
            for (index_t ci = 0; ci < cin; ++ci) {
              const real_t* in_c = in_n + ci * d * h * w;
              const real_t* w_c = w_co + ci * k * k * k;
              for (index_t kz = 0; kz < k; ++kz) {
                const index_t iz = oz - p.pad + kz;
                if (iz < 0 || iz >= d) continue;
                for (index_t ky = 0; ky < k; ++ky) {
                  const index_t iy = oy - p.pad + ky;
                  if (iy < 0 || iy >= h) continue;
                  for (index_t kx = 0; kx < k; ++kx) {
                    const index_t ix = ox - p.pad + kx;
                    if (ix < 0 || ix >= w) continue;
                    acc += in_c[(iz * h + iy) * w + ix] *
                           w_c[(kz * k + ky) * k + kx];
                  }
                }
              }
            }
            out_p[(oz * oh + oy) * ow + ox] = acc;
          }
        }
      }
    }
  }
  return out;
}

// Seeded sweep over k in {1, 3, 5}, pad 0..k/2+1, cout 1..9 (every
// output-channel quad remainder), n in {1, 2}, with and without bias.
// Widths up to 40 cross the 16- and 8-column vector interiors and the
// ragged scalar tails; depth >= k. Compared bit for bit, so it pins the
// tap order under whichever CCOVID_SIMD backend runs it.
TEST(Conv3d, MatchesScalarReferenceBitwise) {
  Rng rng(2024);
  for (int i = 0; i < 216; ++i) {
    const index_t k = index_t{1} + 2 * (i % 3);
    const index_t pad = (i / 3) % (k / 2 + 2);
    const index_t cout = 1 + i % 9;
    const index_t n = 1 + (i / 9) % 2;
    const index_t cin = rng.uniform_int(1, 3);
    const index_t d = rng.uniform_int(k, k + 2);
    const index_t h = rng.uniform_int(std::max<index_t>(1, k - 2 * pad),
                                      k + 2);
    const index_t w = rng.uniform_int(std::max<index_t>(1, k - 2 * pad), 40);
    const Tensor input = random_tensor({n, cin, d, h, w}, 100 + i);
    const Tensor weight = random_tensor({cout, cin, k, k, k}, 400 + i);
    const Tensor bias =
        i % 2 ? random_tensor({cout}, 700 + i) : Tensor();
    const Conv3dParams p{pad};
    const Tensor ref = conv3d_reference(input, weight, bias, p);
    const Tensor out = conv3d(input, weight, bias, p);
    ASSERT_EQ(out.shape(), ref.shape());
    EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                          static_cast<std::size_t>(ref.numel()) *
                              sizeof(real_t)),
              0)
        << "case " << i << ": n=" << n << " cin=" << cin << " cout=" << cout
        << " d=" << d << " h=" << h << " w=" << w << " k=" << k
        << " pad=" << pad << (bias.defined() ? " bias" : " no bias");
  }
}

TEST(Conv3d, IdentityPointwise) {
  const Tensor input = random_tensor({1, 1, 3, 4, 5}, 9);
  Tensor weight({1, 1, 1, 1, 1});
  weight.at(0, 0, 0, 0, 0) = 1.0f;
  const Tensor out = conv3d(input, weight, Tensor(), Conv3dParams{0});
  EXPECT_TRUE(allclose(out, input));
}

TEST(Conv3d, MatchesManualComputationForSmallCase) {
  // 2x2x2 input, 2x2x2 filter, valid conv -> single output = dot product.
  const Tensor input = random_tensor({1, 1, 2, 2, 2}, 10);
  const Tensor weight = random_tensor({1, 1, 2, 2, 2}, 11);
  const Tensor out = conv3d(input, weight, Tensor(), Conv3dParams{0});
  ASSERT_EQ(out.numel(), 1);
  double expect = 0.0;
  for (index_t i = 0; i < 8; ++i) {
    expect += static_cast<double>(input.data()[i]) * weight.data()[i];
  }
  EXPECT_NEAR(out.at(0, 0, 0, 0, 0), expect, 1e-5);
}

TEST(Conv3d, BackwardInputMatchesNumerical) {
  Tensor input = random_tensor({1, 1, 4, 4, 4}, 12);
  const Tensor weight = random_tensor({2, 1, 3, 3, 3}, 13);
  const Conv3dParams p{1};
  auto f = [&]() {
    return static_cast<double>(conv3d(input, weight, Tensor(), p).sum());
  };
  const Tensor num = autograd::numerical_gradient(f, input, 1e-2);
  const Tensor gout = Tensor::ones({1, 2, 4, 4, 4});
  const Tensor ana = conv3d_backward_input(gout, weight, 4, 4, 4, p);
  EXPECT_LT(autograd::gradient_error(ana, num), 2e-2);
}

TEST(Conv3d, BackwardWeightMatchesNumerical) {
  const Tensor input = random_tensor({1, 2, 3, 3, 3}, 14);
  Tensor weight = random_tensor({1, 2, 2, 2, 2}, 15);
  const Conv3dParams p{0};
  auto f = [&]() {
    return static_cast<double>(conv3d(input, weight, Tensor(), p).sum());
  };
  const Tensor num = autograd::numerical_gradient(f, weight, 1e-2);
  const Tensor gout = Tensor::ones({1, 1, 2, 2, 2});
  const Tensor ana = conv3d_backward_weight(gout, input, 2, p);
  EXPECT_LT(autograd::gradient_error(ana, num), 2e-2);
}

// ------------------------------------------------------ conv3d backward
// The stride-general scalar gradient loops ops::conv3d_backward_* ran
// before the stride field left Conv3dParams, kept as the bitwise
// references. Input gradient: per element, from
// 0.0f, taps in ascending (kz, ky, kx, co) order with float products and
// sums. Weight gradient: per tap, a double sum over (n, oz, oy, ox)
// ascending. The sweep runs them at stride 1, the only stride
// ops::conv3d has.
Tensor conv3d_backward_input_reference(const Tensor& grad_out,
                                       const Tensor& weight, index_t in_d,
                                       index_t in_h, index_t in_w,
                                       index_t stride, index_t pad) {
  const index_t n = grad_out.dim(0), cout = grad_out.dim(1),
                od = grad_out.dim(2), oh = grad_out.dim(3),
                ow = grad_out.dim(4);
  const index_t cin = weight.dim(1), k = weight.dim(2);
  Tensor gin({n, cin, in_d, in_h, in_w});
  const real_t* gp = grad_out.data();
  const real_t* wp = weight.data();
  real_t* op = gin.data();
  for (index_t ni = 0; ni < n; ++ni) {
    for (index_t ci = 0; ci < cin; ++ci) {
      real_t* g = op + (ni * cin + ci) * in_d * in_h * in_w;
      const real_t* go_n = gp + ni * cout * od * oh * ow;
      for (index_t iz = 0; iz < in_d; ++iz) {
        for (index_t iy = 0; iy < in_h; ++iy) {
          for (index_t ix = 0; ix < in_w; ++ix) {
            real_t acc = 0.0f;
            for (index_t kz = 0; kz < k; ++kz) {
              const index_t oz_num = iz + pad - kz;
              if (oz_num < 0 || oz_num % stride != 0) continue;
              const index_t oz = oz_num / stride;
              if (oz >= od) continue;
              for (index_t ky = 0; ky < k; ++ky) {
                const index_t oy_num = iy + pad - ky;
                if (oy_num < 0 || oy_num % stride != 0) continue;
                const index_t oy = oy_num / stride;
                if (oy >= oh) continue;
                for (index_t kx = 0; kx < k; ++kx) {
                  const index_t ox_num = ix + pad - kx;
                  if (ox_num < 0 || ox_num % stride != 0) continue;
                  const index_t ox = ox_num / stride;
                  if (ox >= ow) continue;
                  for (index_t co = 0; co < cout; ++co) {
                    acc += go_n[((co * od + oz) * oh + oy) * ow + ox] *
                           wp[(((co * cin + ci) * k + kz) * k + ky) * k +
                              kx];
                  }
                }
              }
            }
            g[(iz * in_h + iy) * in_w + ix] = acc;
          }
        }
      }
    }
  }
  return gin;
}

Tensor conv3d_backward_weight_reference(const Tensor& grad_out,
                                        const Tensor& input, index_t ksize,
                                        index_t stride, index_t pad) {
  const index_t n = grad_out.dim(0), cout = grad_out.dim(1),
                od = grad_out.dim(2), oh = grad_out.dim(3),
                ow = grad_out.dim(4);
  const index_t cin = input.dim(1), d = input.dim(2), h = input.dim(3),
                w = input.dim(4);
  Tensor gw({cout, cin, ksize, ksize, ksize});
  const real_t* gp = grad_out.data();
  const real_t* ip = input.data();
  real_t* wp = gw.data();
  for (index_t co = 0; co < cout; ++co) {
    for (index_t ci = 0; ci < cin; ++ci) {
      for (index_t kz = 0; kz < ksize; ++kz) {
        for (index_t ky = 0; ky < ksize; ++ky) {
          for (index_t kx = 0; kx < ksize; ++kx) {
            double acc = 0.0;
            for (index_t ni = 0; ni < n; ++ni) {
              const real_t* go = gp + (ni * cout + co) * od * oh * ow;
              const real_t* in_p = ip + (ni * cin + ci) * d * h * w;
              for (index_t oz = 0; oz < od; ++oz) {
                const index_t iz = oz * stride - pad + kz;
                if (iz < 0 || iz >= d) continue;
                for (index_t oy = 0; oy < oh; ++oy) {
                  const index_t iy = oy * stride - pad + ky;
                  if (iy < 0 || iy >= h) continue;
                  for (index_t ox = 0; ox < ow; ++ox) {
                    const index_t ix = ox * stride - pad + kx;
                    if (ix < 0 || ix >= w) continue;
                    acc += static_cast<double>(
                               go[(oz * oh + oy) * ow + ox]) *
                           in_p[(iz * h + iy) * w + ix];
                  }
                }
              }
            }
            wp[(((co * cin + ci) * ksize + kz) * ksize + ky) * ksize + kx] =
                static_cast<real_t>(acc);
          }
        }
      }
    }
  }
  return gw;
}

// Seeded sweep over k in {1, 3, 5}, pad 0..k/2+1, n in {1, 2}, 1..5
// channels on each side and extents up to 12, so border taps skip on
// every axis. Compared bit for bit.
TEST(Conv3dGrad, MatchesScalarReferenceBitwise) {
  Rng rng(2026);
  for (int i = 0; i < 96; ++i) {
    const index_t k = index_t{1} + 2 * (i % 3);
    const index_t pad = (i / 3) % (k / 2 + 2);
    const index_t n = 1 + (i / 6) % 2;
    const index_t cin = rng.uniform_int(1, 5);
    const index_t cout = rng.uniform_int(1, 5);
    const index_t lo = std::max<index_t>(1, k - 2 * pad);
    const index_t d = rng.uniform_int(lo, 12);
    const index_t h = rng.uniform_int(lo, 12);
    const index_t w = rng.uniform_int(lo, 12);
    const Conv3dParams p{pad};
    const index_t od = d + 2 * pad - k + 1, oh = h + 2 * pad - k + 1,
                  ow = w + 2 * pad - k + 1;
    const Tensor input = random_tensor({n, cin, d, h, w}, 4000 + i);
    const Tensor weight = random_tensor({cout, cin, k, k, k}, 5000 + i);
    const Tensor gout = random_tensor({n, cout, od, oh, ow}, 6000 + i);
    const std::string what =
        "case " + std::to_string(i) + ": n=" + std::to_string(n) +
        " cin=" + std::to_string(cin) + " cout=" + std::to_string(cout) +
        " d=" + std::to_string(d) + " h=" + std::to_string(h) +
        " w=" + std::to_string(w) + " k=" + std::to_string(k) +
        " pad=" + std::to_string(pad);
    EXPECT_TRUE(bits_equal(
        conv3d_backward_input(gout, weight, d, h, w, p),
        conv3d_backward_input_reference(gout, weight, d, h, w, 1, pad)))
        << "input gradient, " << what;
    EXPECT_TRUE(bits_equal(
        conv3d_backward_weight(gout, input, k, p),
        conv3d_backward_weight_reference(gout, input, k, 1, pad)))
        << "weight gradient, " << what;
  }
}

// -------------------------------------------------------------- linear
TEST(Linear, MatchesManualMatmul) {
  const Tensor x = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor w = Tensor::from_vector({2, 3}, {1, 0, 0, 0, 1, 0});
  const Tensor b = Tensor::from_vector({2}, {10, 20});
  const Tensor y = linear(x, w, b);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 14.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 25.0f);
}

TEST(Linear, BackwardMatchesNumerical) {
  Tensor x = random_tensor({3, 4}, 16);
  Tensor w = random_tensor({2, 4}, 17);
  auto f = [&]() {
    return static_cast<double>(linear(x, w, Tensor()).sum());
  };
  const Tensor num_x = autograd::numerical_gradient(f, x, 1e-2);
  const Tensor num_w = autograd::numerical_gradient(f, w, 1e-2);
  const Tensor gout = Tensor::ones({3, 2});
  EXPECT_LT(autograd::gradient_error(linear_backward_input(gout, w), num_x),
            2e-2);
  EXPECT_LT(autograd::gradient_error(linear_backward_weight(gout, x), num_w),
            2e-2);
}

}  // namespace
}  // namespace ccovid::ops
