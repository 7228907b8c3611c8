// Deconvolution kernels: the scatter baseline (Fig. 9a) and the
// refactored gather (Fig. 9b) must be numerically identical across a
// parameterized sweep — the optimization study's correctness invariant —
// and the transposed convolution must be the exact adjoint of the
// forward convolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "autograd/gradcheck.h"
#include "core/random.h"
#include "ops/conv2d.h"
#include "ops/deconv2d.h"

namespace ccovid::ops {
namespace {

Tensor random_tensor(Shape s, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(s));
  rng.fill_gaussian(t, 0.0, 1.0);
  return t;
}

struct DeconvCase {
  index_t n, cin, h, w, cout, k, stride, pad;
};

class Deconv2dSweep : public ::testing::TestWithParam<DeconvCase> {};

TEST_P(Deconv2dSweep, ScatterGatherAndUnrolledAgree) {
  const DeconvCase c = GetParam();
  const Tensor input = random_tensor({c.n, c.cin, c.h, c.w}, 21);
  const Tensor weight = random_tensor({c.cin, c.cout, c.k, c.k}, 22);
  const Tensor bias = random_tensor({c.cout}, 23);
  const Deconv2dParams p{c.stride, c.pad};

  const Tensor ref = deconv2d_reference(input, weight, bias, p);
  for (const KernelOptions& opt :
       {KernelOptions::baseline(),             // scatter, no PF
        KernelOptions{false, true, false},     // scatter + PF
        KernelOptions::refactored(),           // gather
        KernelOptions::all()}) {               // gather + unrolled
    const Tensor out = deconv2d(input, weight, bias, p, opt);
    EXPECT_TRUE(allclose(out, ref, 1e-4f, 1e-4f))
        << "variant " << opt.str() << " diff " << max_abs_diff(out, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Deconv2dSweep,
    ::testing::Values(
        DeconvCase{1, 1, 6, 6, 1, 1, 1, 0},   // pointwise
        DeconvCase{1, 2, 8, 8, 3, 5, 1, 2},   // DDnet 5x5 stride-1 same
        DeconvCase{1, 1, 8, 8, 2, 3, 1, 1},   // 3x3 same (unrolled path)
        DeconvCase{1, 2, 5, 5, 2, 4, 2, 1},   // stride-2 upsampling
        DeconvCase{2, 3, 4, 6, 2, 3, 2, 0},   // batch, rectangular
        DeconvCase{1, 1, 3, 3, 1, 5, 3, 2},   // stride 3 (division path)
        DeconvCase{1, 4, 7, 7, 4, 5, 1, 2})); // wider channels

TEST(Deconv2d, OutputExtentFormula) {
  EXPECT_EQ(deconv_out_extent(8, 5, 1, 2), 8);   // DDnet "same"
  EXPECT_EQ(deconv_out_extent(4, 4, 2, 1), 8);   // classic 2x upsample
  EXPECT_EQ(deconv_out_extent(3, 3, 1, 0), 5);   // full
}

TEST(Deconv2d, StrideOneSameSizePreservedForDDnetShapes) {
  // DDnet's deconvolution layers keep spatial size (Table 2).
  const Tensor input = random_tensor({1, 16, 16, 16}, 24);
  const Tensor weight = random_tensor({16, 32, 5, 5}, 25);
  const Tensor out =
      deconv2d(input, weight, Tensor(), Deconv2dParams::same(5));
  EXPECT_EQ(out.dim(1), 32);
  EXPECT_EQ(out.dim(2), 16);
  EXPECT_EQ(out.dim(3), 16);
}

TEST(Deconv2d, AdjointOfConvolution) {
  // <conv(x), y> == <x, deconv(y)> with shared weights: transposed
  // convolution is the exact adjoint of convolution.
  const index_t k = 3, stride = 2, pad = 1;
  const Tensor x = random_tensor({1, 2, 7, 7}, 26);
  // conv weight (Cout=3, Cin=2, k, k); deconv uses (Cin=3 -> Cout=2).
  const Tensor w_conv = random_tensor({3, 2, k, k}, 27);
  const Tensor cx =
      conv2d(x, w_conv, Tensor(), Conv2dParams{stride, pad});
  const Tensor y = random_tensor(cx.shape(), 28);

  // Re-layout conv weight (Cout,Cin,k,k) -> deconv weight (Cin',Cout',k,k)
  // where deconv maps y (3 ch) -> x-space (2 ch): element w[co][ci] goes
  // to wd[co][ci] in ConvTranspose layout (in=3, out=2).
  Tensor w_deconv({3, 2, k, k});
  for (index_t a = 0; a < 3; ++a) {
    for (index_t b = 0; b < 2; ++b) {
      for (index_t i = 0; i < k; ++i) {
        for (index_t j = 0; j < k; ++j) {
          w_deconv.at(a, b, i, j) = w_conv.at(a, b, i, j);
        }
      }
    }
  }
  const Tensor dy =
      deconv2d(y, w_deconv, Tensor(), Deconv2dParams{stride, pad});
  ASSERT_EQ(dy.shape(), x.shape());

  double lhs = 0.0, rhs = 0.0;
  for (index_t i = 0; i < cx.numel(); ++i) {
    lhs += static_cast<double>(cx.data()[i]) * y.data()[i];
  }
  for (index_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x.data()[i]) * dy.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::fabs(lhs)));
}

TEST(Deconv2d, BiasIsAdded) {
  const Tensor input = Tensor::zeros({1, 1, 4, 4});
  Tensor weight({1, 2, 3, 3});
  const Tensor bias = Tensor::from_vector({2}, {0.25f, -1.0f});
  const Tensor out =
      deconv2d(input, weight, bias, Deconv2dParams::same(3));
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1), 0.25f);
  EXPECT_FLOAT_EQ(out.at(0, 1, 1, 1), -1.0f);
}

TEST(Deconv2d, ChannelMismatchThrows) {
  const Tensor input = Tensor::zeros({1, 2, 4, 4});
  const Tensor weight = Tensor::zeros({3, 1, 3, 3});
  EXPECT_THROW(deconv2d(input, weight, Tensor(), Deconv2dParams::same(3)),
               std::invalid_argument);
}

TEST(Deconv2d, BackwardInputMatchesNumerical) {
  Tensor input = random_tensor({1, 2, 5, 5}, 29);
  const Tensor weight = random_tensor({2, 2, 3, 3}, 30);
  const Deconv2dParams p{1, 1};
  auto f = [&]() {
    return static_cast<double>(
        deconv2d_reference(input, weight, Tensor(), p).sum());
  };
  const Tensor num = autograd::numerical_gradient(f, input, 1e-2);
  const Tensor gout = Tensor::ones({1, 2, 5, 5});
  const Tensor ana = deconv2d_backward_input(gout, weight, p);
  EXPECT_LT(autograd::gradient_error(ana, num), 2e-2);
}

TEST(Deconv2d, BackwardWeightMatchesNumerical) {
  const Tensor input = random_tensor({1, 2, 4, 4}, 31);
  Tensor weight = random_tensor({2, 3, 3, 3}, 32);
  const Deconv2dParams p{2, 1};
  auto f = [&]() {
    return static_cast<double>(
        deconv2d_reference(input, weight, Tensor(), p).sum());
  };
  const Tensor num = autograd::numerical_gradient(f, weight, 1e-2);
  const index_t oe = deconv_out_extent(4, 3, 2, 1);
  const Tensor gout = Tensor::ones({1, 3, oe, oe});
  const Tensor ana = deconv2d_backward_weight(gout, input, 3, p);
  EXPECT_LT(autograd::gradient_error(ana, num), 2e-2);
}

TEST(Deconv2d, BackwardBiasSumsGradient) {
  Tensor gout({1, 2, 3, 3});
  gout.fill(1.0f);
  const Tensor gb = channel_sum(gout);
  EXPECT_FLOAT_EQ(gb.at(0), 9.0f);
  EXPECT_FLOAT_EQ(gb.at(1), 9.0f);
}

// The direct scalar gradient loops ops::deconv2d_backward_{input,weight}
// ran before they moved onto the SIMD kernels, kept as the bitwise
// references. Input gradient: per element, from 0.0f, taps in
// ascending (ky, kx, co) order with float products and sums. Weight
// gradient: per tap, a double sum over (n, iy, ix) ascending.
Tensor deconv2d_backward_input_reference(const Tensor& grad_out,
                                         const Tensor& weight,
                                         Deconv2dParams p) {
  const index_t n = grad_out.dim(0), cout = grad_out.dim(1),
                ho = grad_out.dim(2), wo = grad_out.dim(3);
  const index_t cin = weight.dim(0), k = weight.dim(2);
  const index_t h = (ho + 2 * p.pad - k) / p.stride + 1;
  const index_t w = (wo + 2 * p.pad - k) / p.stride + 1;
  Tensor gin({n, cin, h, w});
  const real_t* gp = grad_out.data();
  const real_t* wp = weight.data();
  real_t* op = gin.data();
  for (index_t ni = 0; ni < n; ++ni) {
    for (index_t ci = 0; ci < cin; ++ci) {
      real_t* g = op + (ni * cin + ci) * h * w;
      const real_t* go_n = gp + ni * cout * ho * wo;
      for (index_t iy = 0; iy < h; ++iy) {
        for (index_t ix = 0; ix < w; ++ix) {
          real_t acc = 0.0f;
          for (index_t ky = 0; ky < k; ++ky) {
            const index_t oy = iy * p.stride - p.pad + ky;
            if (oy < 0 || oy >= ho) continue;
            for (index_t kx = 0; kx < k; ++kx) {
              const index_t ox = ix * p.stride - p.pad + kx;
              if (ox < 0 || ox >= wo) continue;
              for (index_t co = 0; co < cout; ++co) {
                acc += go_n[(co * ho + oy) * wo + ox] *
                       wp[((ci * cout + co) * k + ky) * k + kx];
              }
            }
          }
          g[iy * w + ix] = acc;
        }
      }
    }
  }
  return gin;
}

Tensor deconv2d_backward_weight_reference(const Tensor& grad_out,
                                          const Tensor& input, index_t ksize,
                                          Deconv2dParams p) {
  const index_t n = grad_out.dim(0), cout = grad_out.dim(1),
                ho = grad_out.dim(2), wo = grad_out.dim(3);
  const index_t cin = input.dim(1), h = input.dim(2), w = input.dim(3);
  Tensor gw({cin, cout, ksize, ksize});
  const real_t* gp = grad_out.data();
  const real_t* ip = input.data();
  real_t* wp = gw.data();
  for (index_t ci = 0; ci < cin; ++ci) {
    for (index_t co = 0; co < cout; ++co) {
      for (index_t ky = 0; ky < ksize; ++ky) {
        for (index_t kx = 0; kx < ksize; ++kx) {
          double acc = 0.0;
          for (index_t ni = 0; ni < n; ++ni) {
            const real_t* go = gp + (ni * cout + co) * ho * wo;
            const real_t* in_p = ip + (ni * cin + ci) * h * w;
            for (index_t iy = 0; iy < h; ++iy) {
              const index_t oy = iy * p.stride - p.pad + ky;
              if (oy < 0 || oy >= ho) continue;
              for (index_t ix = 0; ix < w; ++ix) {
                const index_t ox = ix * p.stride - p.pad + kx;
                if (ox < 0 || ox >= wo) continue;
                acc += static_cast<double>(in_p[iy * w + ix]) *
                       go[oy * wo + ox];
              }
            }
          }
          wp[((ci * cout + co) * ksize + ky) * ksize + kx] =
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
// (every input-gradient quad remainder; cout 1..9 at random covers the
// weight gradient's). Input widths up to 40 cross the 16- and 8-column
// input-gradient interiors and the scalar borders and ragged tails.
// Compared bit for bit under whichever CCOVID_SIMD backend runs it.
TEST(DeconvGrad, MatchesScalarReferenceBitwise) {
  Rng rng(2026);
  const index_t kKs[] = {1, 3, 5, 7};
  const index_t kOtherKs[] = {2, 4, 9};
  for (int i = 0; i < 270; ++i) {
    const index_t k = i < 240 ? kKs[i % 4] : kOtherKs[i % 3];
    const index_t pad = (i / 4) % (k / 2 + 2);
    const index_t stride = i % 5 < 3 ? 1 : rng.uniform_int(2, 3);
    const index_t n = 1 + (i / 7) % 2;
    const index_t cin = 1 + i % 9;
    const index_t cout = rng.uniform_int(1, 9);
    // Smallest input extent with a positive output extent.
    const index_t short_by = std::max<index_t>(0, 2 * pad - k + 1);
    const index_t lo = 1 + (short_by + stride - 1) / stride;
    const index_t h = rng.uniform_int(lo, lo + 5);
    const index_t w = rng.uniform_int(lo, std::max<index_t>(lo, 40 / stride));
    const Deconv2dParams p{stride, pad};
    const index_t ho = deconv_out_extent(h, k, stride, pad);
    const index_t wo = deconv_out_extent(w, k, stride, pad);
    const Tensor input = random_tensor({n, cin, h, w}, 1000 + i);
    const Tensor weight = random_tensor({cin, cout, k, k}, 2000 + i);
    const Tensor gout = random_tensor({n, cout, ho, wo}, 3000 + i);
    const std::string what =
        "case " + std::to_string(i) + ": n=" + std::to_string(n) +
        " cin=" + std::to_string(cin) + " cout=" + std::to_string(cout) +
        " h=" + std::to_string(h) + " w=" + std::to_string(w) +
        " k=" + std::to_string(k) + " stride=" + std::to_string(stride) +
        " pad=" + std::to_string(pad);
    EXPECT_TRUE(bits_equal(deconv2d_backward_input(gout, weight, p),
                           deconv2d_backward_input_reference(gout, weight,
                                                             p)))
        << "input gradient, " << what;
    EXPECT_TRUE(bits_equal(deconv2d_backward_weight(gout, input, k, p),
                           deconv2d_backward_weight_reference(gout, input, k,
                                                              p)))
        << "weight gradient, " << what;
  }
}

}  // namespace
}  // namespace ccovid::ops
