// Lane-determinism suite for the SIMD backend layer (core/simd.h).
//
// The contract under test: every backend — scalar emulation included —
// produces bitwise-identical results for every primitive and every
// ported kernel, because (1) per-output vectorization preserves scalar
// accumulation order with two-rounding madd, and (2) cross-lane
// reductions use one canonical strided-lane tree. These tests compare
// raw bit patterns, never distances.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/random.h"
#include "core/simd.h"
#include "ops/ops.h"

using namespace ccovid;

namespace {

std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> out;
  for (const simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kSse2,
        simd::Backend::kAvx2}) {
    if (simd::backend_available(b)) out.push_back(b);
  }
  return out;
}

bool bits_equal(const float* a, const float* b, index_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() && bits_equal(a.data(), b.data(), a.numel());
}

Tensor random_tensor(Shape s, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(s));
  rng.fill_gaussian(t, 0.0, 0.5);
  return t;
}

// Runs `make` under every available backend and requires every result
// to match the scalar backend's bits exactly.
template <typename Make>
void expect_backend_invariant(Make&& make, const char* what) {
  const simd::Backend prev = simd::active_backend();
  simd::set_backend(simd::Backend::kScalar);
  const Tensor ref = make();
  for (const simd::Backend be : available_backends()) {
    simd::set_backend(be);
    const Tensor got = make();
    EXPECT_TRUE(bits_equal(ref, got))
        << what << ": backend " << simd::backend_name(be)
        << " diverges from scalar bits";
  }
  simd::set_backend(prev);
}

}  // namespace

// ------------------------------------------------------------------
// Primitive probes: per-lane bitwise equality across backends.

TEST(SimdPrimitives, LanewiseOpsMatchScalarBits) {
  // Values chosen to stress rounding: near-1 products, denormals,
  // negative zero, large magnitudes.
  const float a[8] = {1.0f + 0x1p-12f, -3.1415926f, 0x1p-140f, -0.0f,
                      1e30f,           -1e-30f,     7.25f,     0.333333f};
  const float b[8] = {1.0f - 0x1p-12f, 2.7182818f, 0x1p-10f, 4.0f,
                      1e-30f,          -1e30f,     -7.25f,   3.0f};
  const float c[8] = {-1.0f, 0.5f, 0x1p-140f, -0.0f, 1.0f, -1.0f, 0.0f, 1.0f};

  const simd::KernelTable* ref = simd::table_for(simd::Backend::kScalar);
  ASSERT_NE(ref, nullptr);
  float want[8], got[8];

  for (const simd::Backend be : available_backends()) {
    const simd::KernelTable* kt = simd::table_for(be);
    ASSERT_NE(kt, nullptr);
    SCOPED_TRACE(simd::backend_name(be));

    ref->probe_madd(a, b, c, want);
    kt->probe_madd(a, b, c, got);
    EXPECT_TRUE(bits_equal(want, got, 8)) << "madd";

    ref->probe_mul(a, b, want);
    kt->probe_mul(a, b, got);
    EXPECT_TRUE(bits_equal(want, got, 8)) << "mul";

    ref->probe_add(a, b, want);
    kt->probe_add(a, b, got);
    EXPECT_TRUE(bits_equal(want, got, 8)) << "add";

    ref->probe_min(a, b, want);
    kt->probe_min(a, b, got);
    EXPECT_TRUE(bits_equal(want, got, 8)) << "min";

    ref->probe_max(a, b, want);
    kt->probe_max(a, b, got);
    EXPECT_TRUE(bits_equal(want, got, 8)) << "max";

    const float rw = ref->probe_reduce(a);
    const float rg = kt->probe_reduce(a);
    EXPECT_TRUE(bits_equal(&rw, &rg, 1)) << "reduce";
  }
}

TEST(SimdPrimitives, MaddUsesTwoRoundingsNotFma) {
  // (1 + 2^-12)(1 - 2^-12) = 1 - 2^-24. Exact f32. Adding -1:
  //   two roundings: f32(a*b) = 1 - 2^-24, plus -1 -> -2^-24
  //   fused        : same here, so pick the sharper pair below.
  // a = b = 1 + 2^-12: a*b = 1 + 2^-11 + 2^-24. f32 rounds away the
  // 2^-24 (ulp at 1 is 2^-23), so
  //   two roundings: (1 + 2^-11) - 1 = 2^-11 exactly
  //   fused        : 2^-11 + 2^-24 (single rounding keeps the tail)
  const float x = 1.0f + 0x1p-12f;
  const float a[8] = {x, x, x, x, x, x, x, x};
  const float c[8] = {-1.0f, -1.0f, -1.0f, -1.0f, -1.0f, -1.0f, -1.0f, -1.0f};
  const float two_rounded = 0x1p-11f;
  const float fused = std::fma(x, x, -1.0f);
  ASSERT_NE(two_rounded, fused) << "test values lost their discriminating power";

  for (const simd::Backend be : available_backends()) {
    const simd::KernelTable* kt = simd::table_for(be);
    float got[8];
    kt->probe_madd(a, a, c, got);
    for (int i = 0; i < simd::kLanes; ++i) {
      EXPECT_EQ(got[i], two_rounded) << simd::backend_name(be) << " lane " << i;
      EXPECT_NE(got[i], fused) << simd::backend_name(be)
                               << " contracted to FMA, lane " << i;
    }
  }
}

TEST(SimdPrimitives, MinMaxSecondOperandWinsOnNan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float a[8] = {nan, 1.0f, -0.0f, 0.0f, nan, 2.0f, nan, -1.0f};
  const float b[8] = {3.0f, nan, 0.0f, -0.0f, -3.0f, nan, 0.0f, nan};
  for (const simd::Backend be : available_backends()) {
    const simd::KernelTable* kt = simd::table_for(be);
    SCOPED_TRACE(simd::backend_name(be));
    float mx[8], mn[8];
    kt->probe_max(a, b, mx);
    kt->probe_min(a, b, mn);
    // minps/maxps: when the comparison is false (NaN involved, or
    // equal-valued +-0), the SECOND operand is returned.
    EXPECT_EQ(mx[0], 3.0f);
    EXPECT_TRUE(std::isnan(mx[1]));
    EXPECT_EQ(mn[0], 3.0f);
    EXPECT_TRUE(std::isnan(mn[1]));
    // +-0 ties take operand b (bitwise).
    EXPECT_TRUE(bits_equal(&mx[2], &b[2], 1));
    EXPECT_TRUE(bits_equal(&mn[3], &b[3], 1));
  }
}

TEST(SimdPrimitives, ReduceMatchesCanonicalTree) {
  const float l[8] = {0.1f, 0.2f, 0.4f, 0.8f, 1.6f, 3.2f, 6.4f, 12.8f};
  // q_i = l_i + l_{i+4}; r0 = q0 + q2; r1 = q1 + q3; sum = r0 + r1.
  const float q0 = l[0] + l[4], q1 = l[1] + l[5], q2 = l[2] + l[6],
              q3 = l[3] + l[7];
  const float want = (q0 + q2) + (q1 + q3);
  for (const simd::Backend be : available_backends()) {
    const simd::KernelTable* kt = simd::table_for(be);
    const float got = kt->probe_reduce(l);
    EXPECT_TRUE(bits_equal(&want, &got, 1)) << simd::backend_name(be);
  }
}

TEST(SimdPrimitives, LoadPartialZeroFillsTail) {
  const float src[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (const simd::Backend be : available_backends()) {
    const simd::KernelTable* kt = simd::table_for(be);
    for (index_t n = 0; n <= 8; ++n) {
      float out[8];
      std::memset(out, 0xAB, sizeof(out));
      kt->probe_load_partial(src, n, out);
      for (index_t i = 0; i < 8; ++i) {
        EXPECT_EQ(out[i], i < n ? src[i] : 0.0f)
            << simd::backend_name(be) << " n=" << n << " lane " << i;
      }
    }
  }
}

TEST(SimdPrimitives, DotMatchesStridedLaneReference) {
  Rng rng(99);
  Tensor xa({64}), xb({64});
  rng.fill_gaussian(xa, 0.0, 1.0);
  rng.fill_gaussian(xb, 0.0, 1.0);
  for (index_t n = 0; n <= 40; ++n) {
    // Reference: 8 virtual partial sums (element i -> lane i%8, scalar
    // order within each lane) + the canonical tree.
    float lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (index_t i = 0; i < n; ++i) {
      lane[i % 8] = lane[i % 8] + xa.at(i) * xb.at(i);
    }
    const float q0 = lane[0] + lane[4], q1 = lane[1] + lane[5],
                q2 = lane[2] + lane[6], q3 = lane[3] + lane[7];
    const float want = (q0 + q2) + (q1 + q3);
    for (const simd::Backend be : available_backends()) {
      const float got = simd::table_for(be)->dot(xa.data(), xb.data(), n);
      EXPECT_TRUE(bits_equal(&want, &got, 1))
          << simd::backend_name(be) << " n=" << n;
    }
  }
}

// ------------------------------------------------------------------
// Dispatch API.

TEST(SimdDispatch, ParseBackendAcceptsKnownSpecsOnly) {
  simd::Backend b = simd::Backend::kScalar;
  bool is_auto = true;
  EXPECT_TRUE(simd::parse_backend("scalar", &b, &is_auto));
  EXPECT_EQ(b, simd::Backend::kScalar);
  EXPECT_FALSE(is_auto);
  EXPECT_TRUE(simd::parse_backend("sse2", &b, &is_auto));
  EXPECT_EQ(b, simd::Backend::kSse2);
  EXPECT_TRUE(simd::parse_backend("avx2", &b, &is_auto));
  EXPECT_EQ(b, simd::Backend::kAvx2);
  EXPECT_TRUE(simd::parse_backend("auto", &b, &is_auto));
  EXPECT_TRUE(is_auto);
  for (const char* bad : {"", "AVX2", "avx512", "neon", "scalar "}) {
    EXPECT_FALSE(simd::parse_backend(bad, &b, &is_auto)) << bad;
  }
}

TEST(SimdDispatch, SetBackendSpecRejectsUnknownAndKeepsState) {
  const simd::Backend prev = simd::active_backend();
  EXPECT_TRUE(simd::set_backend_spec("scalar"));
  EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
  EXPECT_STREQ(simd::kernels().name, "scalar");
  EXPECT_FALSE(simd::set_backend_spec("fast-please"));
  EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
  EXPECT_TRUE(simd::set_backend_spec("auto"));
  // auto must land on an available backend whose table agrees.
  EXPECT_TRUE(simd::backend_available(simd::active_backend()));
  EXPECT_STREQ(simd::kernels().name,
               simd::backend_name(simd::active_backend()));
  simd::set_backend(prev);
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndUnavailableRequestsClamp) {
  EXPECT_TRUE(simd::backend_available(simd::Backend::kScalar));
  const simd::Backend prev = simd::active_backend();
  // Requesting any backend yields an available one at or below it.
  for (const simd::Backend want :
       {simd::Backend::kScalar, simd::Backend::kSse2,
        simd::Backend::kAvx2}) {
    const simd::Backend got = simd::set_backend(want);
    EXPECT_TRUE(simd::backend_available(got));
    EXPECT_LE(static_cast<int>(got), static_cast<int>(want));
    EXPECT_EQ(got, simd::active_backend());
  }
  simd::set_backend(prev);
}

// ------------------------------------------------------------------
// Ported kernels: whole-op bitwise equality across backends. Shapes
// deliberately hit vector interiors, scalar borders, and ragged tails.

TEST(SimdKernels, Conv2dUnrolledBackendInvariant) {
  const Tensor x = random_tensor({2, 3, 13, 19}, 1);
  const Tensor w = random_tensor({4, 3, 5, 5}, 2);
  const Tensor b = random_tensor({4}, 3);
  expect_backend_invariant(
      [&] {
        return ops::conv2d(x, w, b, ops::Conv2dParams::same(5),
                           ops::KernelOptions::all());
      },
      "conv2d unrolled");
}

TEST(SimdKernels, Deconv2dGatherBackendInvariant) {
  const Tensor x = random_tensor({2, 3, 11, 17}, 4);
  const Tensor w = random_tensor({3, 4, 5, 5}, 5);
  const Tensor b = random_tensor({4}, 6);
  expect_backend_invariant(
      [&] {
        return ops::deconv2d(x, w, b, ops::Deconv2dParams::same(5),
                             ops::KernelOptions::all());
      },
      "deconv2d gather");
}

TEST(SimdKernels, Conv3dBackendInvariant) {
  // 37 columns: two 16-wide blocks, then scalar border and tail; the
  // 1x1x1 case at 12 columns runs one 8-wide block. Six output
  // channels leave a two-channel quad remainder.
  const Tensor x = random_tensor({2, 3, 5, 6, 37}, 21);
  const Tensor w = random_tensor({6, 3, 3, 3, 3}, 22);
  const Tensor b = random_tensor({6}, 23);
  expect_backend_invariant(
      [&] { return ops::conv3d(x, w, b, ops::Conv3dParams::same(3)); },
      "conv3d");
  const Tensor x1 = random_tensor({1, 5, 3, 4, 12}, 24);
  const Tensor w1 = random_tensor({3, 5, 1, 1, 1}, 25);
  expect_backend_invariant(
      [&] { return ops::conv3d(x1, w1, Tensor(), ops::Conv3dParams{0}); },
      "conv3d 1x1x1");
}

namespace {

// The direct scalar loop of one stride-1 output row for `nco` output
// channels: each output sums from its bias over taps in ascending
// (ci, ky, kx) order, skipping out-of-range taps. Conv reads
// iy = oy - pad + ky, the gather-form deconv iy = oy + pad - ky; ix
// alike. Filter (co j, ci) starts at wgt + j*wstride_co + ci*wstride_ci.
void forward_row_reference(const float* in, const float* wgt,
                           index_t wstride_ci, index_t wstride_co,
                           float* out, index_t ostride_co, int nco,
                           index_t cin, index_t h, index_t w, index_t k,
                           index_t oy, index_t pad, index_t wo,
                           const float* bias, bool deconv) {
  for (int j = 0; j < nco; ++j) {
    for (index_t ox = 0; ox < wo; ++ox) {
      float acc = bias[j];
      for (index_t ci = 0; ci < cin; ++ci) {
        const float* inp = in + ci * h * w;
        const float* wp = wgt + j * wstride_co + ci * wstride_ci;
        for (index_t ky = 0; ky < k; ++ky) {
          const index_t iy = deconv ? oy + pad - ky : oy - pad + ky;
          if (iy < 0 || iy >= h) continue;
          for (index_t kx = 0; kx < k; ++kx) {
            const index_t ix = deconv ? ox + pad - kx : ox - pad + kx;
            if (ix < 0 || ix >= w) continue;
            acc += inp[iy * w + ix] * wp[ky * k + kx];
          }
        }
      }
      out[j * ostride_co + ox] = acc;
    }
  }
}

}  // namespace

// Every fp32 2-D forward row entry (single-channel and quad, conv and
// deconv) on every backend against the direct loop, memcmp-equal.
// Widths up to 40 run the 16-wide, 8-wide, border and tail columns;
// k = 2, 4, 9 take the runtime-extent bodies.
TEST(SimdKernels, ForwardRowsMatchScalarReferenceBitwise) {
  Rng rng(2026);
  struct Case {
    bool deconv;
    index_t k, pad;
    int nco;
  };
  std::vector<Case> cases;
  for (const bool deconv : {false, true}) {
    for (const index_t k : {1, 2, 3, 4, 5, 7, 9}) {
      for (index_t pad = 0; pad <= k / 2 + 1; ++pad) {
        for (int nco = 1; nco <= 4; ++nco) {
          cases.push_back({deconv, k, pad, nco});
        }
      }
    }
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto [deconv, k, pad, nco] = cases[i];
    const bool has_bias = i % 3 != 0;
    const index_t cin = rng.uniform_int(1, 3);
    // Smallest input extent with a non-empty output.
    const index_t lo = std::max<index_t>(
        1, deconv ? 2 * pad - k + 2 : k - 2 * pad);
    const index_t h = rng.uniform_int(lo, lo + 4);
    const index_t w = rng.uniform_int(lo, 40);
    const index_t ho = deconv ? h + k - 1 - 2 * pad : h + 2 * pad - k + 1;
    const index_t wo = deconv ? w + k - 1 - 2 * pad : w + 2 * pad - k + 1;
    // Conv weights are (cout, cin, k, k), deconv weights (cin, cout, k, k).
    const index_t wstride_ci = deconv ? nco * k * k : k * k;
    const index_t wstride_co = deconv ? k * k : cin * k * k;
    const Tensor in = random_tensor({cin, h, w}, 5000 + i);
    const Tensor wt = random_tensor({index_t(nco) * cin * k * k}, 6000 + i);
    const Tensor b = has_bias ? random_tensor({index_t(nco)}, 7000 + i)
                              : Tensor({index_t(nco)});
    const index_t plane = ho * wo;
    std::vector<float> want(static_cast<std::size_t>(nco * plane));
    for (index_t oy = 0; oy < ho; ++oy) {
      forward_row_reference(in.data(), wt.data(), wstride_ci, wstride_co,
                            want.data() + oy * wo, plane, nco, cin, h, w, k,
                            oy, pad, wo, b.data(), deconv);
    }
    const std::string what =
        "case " + std::to_string(i) + (deconv ? ": deconv" : ": conv") +
        " k=" + std::to_string(k) + " pad=" + std::to_string(pad) +
        " nco=" + std::to_string(nco) + " cin=" + std::to_string(cin) +
        " h=" + std::to_string(h) + " w=" + std::to_string(w) +
        (has_bias ? " bias" : " no bias");
    for (const simd::Backend be : available_backends()) {
      const simd::KernelTable* kt = simd::table_for(be);
      std::vector<float> single(want.size(), -777.0f);
      std::vector<float> quad(want.size(), -777.0f);
      for (index_t oy = 0; oy < ho; ++oy) {
        for (int j = 0; j < nco; ++j) {
          kt->conv2d_row_s1(in.data(), wt.data() + j * wstride_co,
                            wstride_ci, single.data() + j * plane + oy * wo,
                            cin, h, w, k, oy, pad, wo, b.data()[j], deconv);
        }
        kt->conv2d_row4_s1(in.data(), wt.data(), wstride_ci, wstride_co,
                           quad.data() + oy * wo, plane, nco, cin, h, w, k,
                           oy, pad, wo, b.data(), deconv);
      }
      EXPECT_TRUE(bits_equal(want.data(), single.data(), nco * plane))
          << "single-channel row, " << simd::backend_name(be) << ", "
          << what;
      EXPECT_TRUE(bits_equal(want.data(), quad.data(), nco * plane))
          << "quad row, " << simd::backend_name(be) << ", " << what;
    }
  }
}

TEST(SimdKernels, ConvGradBackendInvariant) {
  // 37 columns: two 16-wide input-gradient blocks, one 8-wide, scalar
  // borders and a ragged tail; 6 channels leave a two-channel quad
  // remainder on both gradients, and the weight sweep runs one 4-lane
  // f64 group (3x3) and two (5x5). Stride 2 runs the scalar point and
  // the strided weight sweep.
  for (const index_t k : {3, 5}) {
    for (const index_t stride : {1, 2}) {
      const index_t pad = k / 2;
      const ops::Conv2dParams cp{stride, pad};
      const ops::Deconv2dParams dp{stride, pad};
      const Tensor x = random_tensor({2, 6, 11, 37}, 30 + k);
      const Tensor cw = random_tensor({5, 6, k, k}, 31 + k);
      const Tensor dw = random_tensor({6, 5, k, k}, 32 + k);
      const Tensor cg = random_tensor(
          {2, 5, ops::conv_out_extent(11, k, stride, pad),
           ops::conv_out_extent(37, k, stride, pad)},
          33 + k);
      const Tensor dg = random_tensor(
          {2, 5, ops::deconv_out_extent(11, k, stride, pad),
           ops::deconv_out_extent(37, k, stride, pad)},
          34 + k);
      expect_backend_invariant(
          [&] { return ops::conv2d_backward_input(cg, cw, 11, 37, cp); },
          "conv2d grad input");
      expect_backend_invariant(
          [&] { return ops::conv2d_backward_weight(cg, x, k, cp); },
          "conv2d grad weight");
      expect_backend_invariant(
          [&] { return ops::deconv2d_backward_input(dg, dw, dp); },
          "deconv2d grad input");
      expect_backend_invariant(
          [&] { return ops::deconv2d_backward_weight(dg, x, k, dp); },
          "deconv2d grad weight");
    }
  }
}

TEST(SimdKernels, BatchNormInferBackendInvariant) {
  const Tensor x = random_tensor({2, 4, 9, 11}, 12);
  const Tensor gamma = random_tensor({4}, 13);
  const Tensor beta = random_tensor({4}, 14);
  Tensor mean = random_tensor({4}, 15);
  Tensor var = random_tensor({4}, 16);
  for (index_t c = 0; c < 4; ++c) var.at(c) = std::abs(var.at(c)) + 0.1f;
  expect_backend_invariant(
      [&] { return ops::batch_norm_infer(x, gamma, beta, mean, var); },
      "batch_norm_infer");
}

TEST(SimdKernels, ActivationsBackendInvariantIncludingNan) {
  Tensor x = random_tensor({1, 2, 7, 13}, 17);
  x.data()[3] = std::numeric_limits<float>::quiet_NaN();
  x.data()[40] = -0.0f;
  expect_backend_invariant([&] { return ops::relu(x); }, "relu");
  expect_backend_invariant([&] { return ops::leaky_relu(x, 0.01f); },
                           "leaky_relu");
  // relu maps NaN to 0 (maxps semantics) on every backend.
  const Tensor y = ops::relu(x);
  EXPECT_EQ(y.data()[3], 0.0f);
}

TEST(SimdKernels, LinearBackendInvariant) {
  const Tensor x = random_tensor({3, 37}, 18);
  const Tensor w = random_tensor({5, 37}, 19);
  const Tensor b = random_tensor({5}, 20);
  expect_backend_invariant([&] { return ops::linear(x, w, b); }, "linear");
}
