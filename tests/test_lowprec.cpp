// Low-precision storage suite (`ctest -L fast`): the fp16/bf16/int8
// inference formats of DESIGN.md §13.
//
// What is under test, layer by layer:
//   1. core/half.h scalar conversions — exhaustive over all 65536 half
//      patterns plus the awkward fp32->fp16 corners (RNE overflow
//      boundary, subnormal production, tie-to-zero underflow, NaN
//      quietening, signed zero).
//   2. The KernelTable cvt_* array kernels — every compiled backend
//      must reproduce the scalar functions bit for bit (the avx2
//      backend uses F16C hardware; half.h is written to match it).
//   3. The half formats' row8 _fma kernel against a scalar fmaf loop,
//      and the int8 vpmaddwd kernels against the scalar backend —
//      seeded fuzz across shapes that exercise every vector-width tail,
//      on all backends, compared bitwise.
//   4. graph::calibrate determinism across task-engine widths 1/2/8 —
//      the int8 scales must be a pure function of (graph, batch).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/half.h"
#include "core/parallel.h"
#include "core/precision.h"
#include "core/random.h"
#include "core/simd.h"
#include "graph/graph.h"
#include "nn/ddnet.h"
#include "nn/layers.h"

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

bool is_nan_f16(std::uint16_t h) {
  return (h & 0x7C00u) == 0x7C00u && (h & 0x3FFu) != 0u;
}
bool is_nan_bf16(std::uint16_t h) {
  return (h & 0x7F80u) == 0x7F80u && (h & 0x7Fu) != 0u;
}

std::uint32_t bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}
float f32_of(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

}  // namespace

// ------------------------------------------------------------------
// 1. Scalar conversion contract (core/half.h).

// Every half value widens exactly and narrows back to its own bits —
// widening is injective and narrowing is its left inverse — except
// NaNs, which must stay NaN (the payload is quietened/truncated the
// way VCVTPH2PS/VCVTPS2PH do, so sNaN patterns don't round-trip).
TEST(HalfScalar, ExhaustiveF16RoundTrip) {
  for (std::uint32_t u = 0; u < 0x10000u; ++u) {
    const std::uint16_t h = static_cast<std::uint16_t>(u);
    const float f = f16_bits_to_f32(h);
    if (is_nan_f16(h)) {
      EXPECT_TRUE(std::isnan(f)) << "half NaN 0x" << std::hex << u;
      EXPECT_TRUE(is_nan_f16(f32_to_f16_bits(f)));
      continue;
    }
    // Independent value check against ldexp arithmetic: every non-NaN
    // half is sign * mant * 2^(e-25) with integer mant.
    const std::uint32_t e = (u >> 10) & 0x1Fu;
    const std::uint32_t m = u & 0x3FFu;
    if (e == 0x1Fu) {
      EXPECT_TRUE(std::isinf(f));
    } else {
      const double mant = (e == 0) ? m : (m + 1024.0);
      const int exp2 = (e == 0 ? 1 : int(e)) - 25;
      const double want = ((u & 0x8000u) ? -1.0 : 1.0) *
                          std::ldexp(mant, exp2);
      EXPECT_EQ(double(f), want) << "half 0x" << std::hex << u;
      if (m == 0 && e == 0) {
        // signed zero survives widening
        EXPECT_EQ(bits_of(f), (u & 0x8000u) ? 0x80000000u : 0u);
      }
    }
    EXPECT_EQ(f32_to_f16_bits(f), h)
        << "round-trip moved half bits 0x" << std::hex << u;
  }
}

TEST(HalfScalar, F16NarrowingCorners) {
  // Max finite half and the RNE overflow boundary: 65504 is the top
  // normal; 65520 ties between 65504 and 2^16 and must round to even
  // (infinity); anything in (65504, 65520) rounds back down.
  EXPECT_EQ(f32_to_f16_bits(65504.0f), 0x7BFFu);
  EXPECT_EQ(f32_to_f16_bits(65519.0f), 0x7BFFu);
  EXPECT_EQ(f32_to_f16_bits(65520.0f), 0x7C00u);
  EXPECT_EQ(f32_to_f16_bits(1e9f), 0x7C00u);
  EXPECT_EQ(f32_to_f16_bits(-std::numeric_limits<float>::infinity()),
            0xFC00u);
  // Underflow: 2^-25 ties between 0 and the smallest subnormal and
  // goes to even (zero); the next representable fp32 above it rounds
  // up to the smallest subnormal; 2^-24 is exactly that subnormal.
  EXPECT_EQ(f32_to_f16_bits(0x1p-25f), 0x0000u);
  EXPECT_EQ(f32_to_f16_bits(std::nextafterf(0x1p-25f, 1.0f)), 0x0001u);
  EXPECT_EQ(f32_to_f16_bits(0x1p-24f), 0x0001u);
  EXPECT_EQ(f32_to_f16_bits(-0x1p-24f), 0x8001u);
  // fp32 subnormals are far below half range: signed zero out.
  EXPECT_EQ(f32_to_f16_bits(f32_of(0x00000001u)), 0x0000u);
  EXPECT_EQ(f32_to_f16_bits(f32_of(0x80000001u)), 0x8000u);
  EXPECT_EQ(f32_to_f16_bits(-0.0f), 0x8000u);
  EXPECT_EQ(f32_to_f16_bits(0.0f), 0x0000u);
  // Mid-range RNE: 1 + 2^-11 ties between 0x3C00 and 0x3C01 and goes
  // to the even mantissa (1.0); 1 + 3*2^-11 ties between 0x3C01 and
  // 0x3C02 and goes up to even; just above a tie always rounds away.
  EXPECT_EQ(f32_to_f16_bits(1.0f + 0x1p-11f), 0x3C00u);
  EXPECT_EQ(f32_to_f16_bits(1.0f + 3 * 0x1p-11f), 0x3C02u);
  EXPECT_EQ(f32_to_f16_bits(1.0f + 0x1p-11f + 0x1p-20f), 0x3C01u);
  // sNaN in, quiet NaN out, sign kept.
  const float snan = f32_of(0x7F800001u | 0x00002000u);
  EXPECT_EQ(f32_to_f16_bits(snan) & 0xFE00u, 0x7E00u);
}

// The FTZ store variant (what the executor actually writes): any
// subnormal RESULT flushes to signed zero; normals, zeros, infinities
// and NaNs pass through untouched.
TEST(HalfScalar, FtzStoreFlushesSubnormalResults) {
  for (std::uint32_t u = 0; u < 0x10000u; ++u) {
    const std::uint16_t h = static_cast<std::uint16_t>(u);
    const float f = f16_bits_to_f32(h);
    if (is_nan_f16(h)) continue;
    const std::uint16_t ftz = f32_to_f16_bits_ftz(f);
    if ((h & 0x7C00u) == 0u && (h & 0x3FFu) != 0u) {
      EXPECT_EQ(ftz, h & 0x8000u) << "subnormal 0x" << std::hex << u;
    } else {
      EXPECT_EQ(ftz, h) << "non-subnormal 0x" << std::hex << u;
    }
  }
}

TEST(HalfScalar, ExhaustiveBf16RoundTrip) {
  for (std::uint32_t u = 0; u < 0x10000u; ++u) {
    const std::uint16_t h = static_cast<std::uint16_t>(u);
    const float f = bf16_bits_to_f32(h);
    // Widening is exact truncated-fp32 reinterpretation.
    EXPECT_EQ(bits_of(f), u << 16);
    if (is_nan_bf16(h)) {
      EXPECT_TRUE(std::isnan(f));
      EXPECT_TRUE(is_nan_bf16(f32_to_bf16_bits(f)));
      continue;
    }
    EXPECT_EQ(f32_to_bf16_bits(f), h)
        << "bf16 round-trip moved bits 0x" << std::hex << u;
  }
  // RNE on the dropped 16 bits: exactly-half ties go to even.
  EXPECT_EQ(f32_to_bf16_bits(f32_of(0x3F808000u)), 0x3F80u);  // tie, even
  EXPECT_EQ(f32_to_bf16_bits(f32_of(0x3F818000u)), 0x3F82u);  // tie, odd
  EXPECT_EQ(f32_to_bf16_bits(f32_of(0x3F808001u)), 0x3F81u);  // above tie
  // Overflow to infinity only past the boundary; NaN never collapses.
  EXPECT_EQ(f32_to_bf16_bits(f32_of(0x7F7F8000u)), 0x7F80u);  // -> inf
  EXPECT_TRUE(is_nan_bf16(f32_to_bf16_bits(f32_of(0x7F800001u))));
}

// ------------------------------------------------------------------
// 2. Array conversion kernels: every backend == scalar, bitwise.

TEST(LowpCvtKernels, AllBackendsMatchScalarBitwise) {
  const simd::KernelTable* ref = simd::table_for(simd::Backend::kScalar);
  ASSERT_NE(ref, nullptr);

  // Every half pattern at once (also exercises ragged tails: 65536 is
  // not a multiple of any vector width after the +3 offset below).
  std::vector<std::uint16_t> hsrc(65536 + 3);
  for (std::size_t i = 0; i < hsrc.size(); ++i) {
    hsrc[i] = static_cast<std::uint16_t>(i & 0xFFFFu);
  }
  // Fuzzed f32 inputs: random bit patterns hit NaNs/infs/subnormals
  // with decent probability; splice in the corners explicitly.
  std::vector<float> fsrc(65536 + 5);
  Rng rng(77);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (auto& f : fsrc) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    f = f32_of(static_cast<std::uint32_t>(state >> 32));
  }
  const float corners[] = {0.0f,     -0.0f,    65504.0f, 65520.0f,
                           0x1p-25f, 0x1p-24f, 1e38f,    f32_of(0x7F800001u)};
  std::memcpy(fsrc.data(), corners, sizeof(corners));

  const index_t hn = static_cast<index_t>(hsrc.size());
  const index_t fn = static_cast<index_t>(fsrc.size());
  std::vector<float> wide_ref(hn), wide_got(hn);
  std::vector<std::uint16_t> narrow_ref(fn), narrow_got(fn);

  for (const simd::Backend be : available_backends()) {
    const simd::KernelTable* kt = simd::table_for(be);
    ASSERT_NE(kt, nullptr);
    SCOPED_TRACE(simd::backend_name(be));

    ref->cvt_f16_to_f32(hsrc.data(), wide_ref.data(), hn);
    kt->cvt_f16_to_f32(hsrc.data(), wide_got.data(), hn);
    EXPECT_EQ(std::memcmp(wide_ref.data(), wide_got.data(),
                          std::size_t(hn) * 4),
              0)
        << "cvt_f16_to_f32 diverges from scalar";
    // And the scalar table itself must be the half.h function.
    for (index_t i = 0; i < 16; ++i) {
      EXPECT_EQ(bits_of(wide_ref[i]), bits_of(f16_bits_to_f32(hsrc[i])));
    }

    ref->cvt_bf16_to_f32(hsrc.data(), wide_ref.data(), hn);
    kt->cvt_bf16_to_f32(hsrc.data(), wide_got.data(), hn);
    EXPECT_EQ(std::memcmp(wide_ref.data(), wide_got.data(),
                          std::size_t(hn) * 4),
              0)
        << "cvt_bf16_to_f32 diverges from scalar";

    ref->cvt_f32_to_f16(fsrc.data(), narrow_ref.data(), fn);
    kt->cvt_f32_to_f16(fsrc.data(), narrow_got.data(), fn);
    EXPECT_EQ(std::memcmp(narrow_ref.data(), narrow_got.data(),
                          std::size_t(fn) * 2),
              0)
        << "cvt_f32_to_f16 diverges from scalar";

    ref->cvt_f32_to_bf16(fsrc.data(), narrow_ref.data(), fn);
    kt->cvt_f32_to_bf16(fsrc.data(), narrow_got.data(), fn);
    EXPECT_EQ(std::memcmp(narrow_ref.data(), narrow_got.data(),
                          std::size_t(fn) * 2),
              0)
        << "cvt_f32_to_bf16 diverges from scalar";
  }
}

// The half formats accumulate with SINGLE-rounding fmadd (unlike the
// fp32 contract's two-rounding madd). probe_fmadd must agree with
// std::fmaf on every backend — and must genuinely be one rounding,
// i.e. differ from madd on a triple chosen to split them.
TEST(LowpCvtKernels, FmaddProbeIsSingleRoundingOnEveryBackend) {
  const float a[8] = {1.0f + 0x1p-12f, -3.0f,    0x1p-126f, 1e18f,
                      0.1f,            -1e-18f,  255.5f,    -0.0f};
  const float b[8] = {1.0f + 0x1p-12f, 2.5f,     0x1p-10f,  1e18f,
                      0.2f,            1e18f,    3.25f,     7.0f};
  const float c[8] = {-1.0f, 0.125f, 0x1p-140f, -1e36f, 0.3f, 1.0f,
                      -829.0f, -0.0f};
  float got[8];
  for (const simd::Backend be : available_backends()) {
    const simd::KernelTable* kt = simd::table_for(be);
    ASSERT_NE(kt, nullptr);
    SCOPED_TRACE(simd::backend_name(be));
    kt->probe_fmadd(a, b, c, got);
    for (int i = 0; i < 8; ++i) {
      const float want = std::fmaf(a[i], b[i], c[i]);
      EXPECT_EQ(bits_of(got[i]), bits_of(want)) << "lane " << i;
    }
  }
  // (1+2^-12)^2 - 1 needs the full product 1 + 2^-11 + 2^-24: a fused
  // multiply-add keeps the 2^-24 term, two roundings lose it.
  EXPECT_NE(bits_of(std::fmaf(a[0], b[0], c[0])),
            bits_of(a[0] * b[0] + c[0]));
}

// ------------------------------------------------------------------
// 3. Conv row kernels: fuzz across shapes, all backends vs scalar.

namespace {

// Test-local reference of the half-format contract for one full output
// plane set: each output starts from its bias and applies std::fmaf over
// the taps in ascending (ci, ky, kx) order, skipping out-of-range ones.
// Filter (co, ci) sits at wgt + co*wstride_co + ci*wstride_ci.
void fma_conv_reference(const float* in, const float* wgt,
                        index_t wstride_ci, index_t wstride_co, float* out,
                        int nco, index_t cin, index_t h, index_t w,
                        index_t k, index_t pad, index_t ho, index_t wo,
                        const float* bias, bool deconv) {
  for (int co = 0; co < nco; ++co) {
    for (index_t oy = 0; oy < ho; ++oy) {
      for (index_t ox = 0; ox < wo; ++ox) {
        float acc = bias[co];
        for (index_t ci = 0; ci < cin; ++ci) {
          const float* f = wgt + co * wstride_co + ci * wstride_ci;
          for (index_t ky = 0; ky < k; ++ky) {
            const index_t iy = deconv ? oy + pad - ky : oy - pad + ky;
            if (iy < 0 || iy >= h) continue;
            for (index_t kx = 0; kx < k; ++kx) {
              const index_t ix = deconv ? ox + pad - kx : ox - pad + kx;
              if (ix < 0 || ix >= w) continue;
              acc = std::fmaf(in[(ci * h + iy) * w + ix], f[ky * k + kx],
                              acc);
            }
          }
        }
        out[(co * ho + oy) * wo + ox] = acc;
      }
    }
  }
}

}  // namespace

// conv2d_row8_s1_fma, the graph's half-precision row, against the fmaf
// loop on every backend, bit for bit: inputs rounded through fp16 and
// bf16 (the planes the executor widens), nco 1..8 (the quartet fallback
// and every octet), k in {1, 3, 5, 7, 9} (each unrolled extent and the
// generic one), pad k/2 or 0, conv and deconv weight layouts. Widths
// cross the 16- and 8-wide blocks, the partial-width tail and the
// scalar borders.
TEST(LowpConvKernels, Row8MatchesScalarFmaReferenceBitwise) {
  const index_t h = 10;
  const index_t kKs[] = {1, 3, 5, 7, 9};
  const index_t kWidths[] = {9, 16, 23, 33, 40};
  Rng rng(7117);
  for (int i = 0; i < 80; ++i) {
    const index_t k = kKs[i / 16];
    const int nco = 1 + (i / 2) % 8;
    const bool deconv = i % 2;
    const bool f16 = (i / 2) % 2 == 0;
    const index_t pad = (i / 4) % 2 ? 0 : k / 2;
    const index_t w = kWidths[i % 5];
    const index_t cin = 1 + i % 3;
    const index_t ext = deconv ? k - 1 - 2 * pad : 1 - k + 2 * pad;
    const index_t ho = h + ext, wo = w + ext;
    SCOPED_TRACE(std::string(f16 ? "f16" : "bf16") + " w=" +
                 std::to_string(w) + " k=" + std::to_string(k) +
                 " pad=" + std::to_string(pad) + " cin=" +
                 std::to_string(cin) + " nco=" + std::to_string(nco) +
                 (deconv ? " deconv" : " conv"));
    Tensor src({cin, h, w});
    rng.fill_gaussian(src, 0.0, 1.0);
    std::vector<float> in(src.data(), src.data() + src.numel());
    for (float& v : in) {
      v = f16 ? f16_bits_to_f32(f32_to_f16_bits(v))
              : bf16_bits_to_f32(f32_to_bf16_bits(v));
    }
    Tensor wt({index_t(nco) * cin * k * k});
    rng.fill_gaussian(wt, 0.0, 0.5);
    const std::vector<float> wgt(wt.data(), wt.data() + wt.numel());
    // conv weights are (Cout, Cin, K, K), deconv's (Cin, Cout, K, K).
    const index_t wsci = deconv ? nco * k * k : k * k;
    const index_t wsco = deconv ? k * k : cin * k * k;
    std::vector<float> bias(nco);
    for (int co = 0; co < nco; ++co) bias[co] = 0.25f - 0.125f * co;
    const index_t plane = ho * wo;

    std::vector<float> want(nco * plane, -777.0f);
    fma_conv_reference(in.data(), wgt.data(), wsci, wsco, want.data(), nco,
                       cin, h, w, k, pad, ho, wo, bias.data(), deconv);
    for (const simd::Backend be : available_backends()) {
      const simd::KernelTable* kt = simd::table_for(be);
      SCOPED_TRACE(simd::backend_name(be));
      std::vector<float> got(nco * plane, -777.0f);
      for (index_t oy = 0; oy < ho; ++oy) {
        kt->conv2d_row8_s1_fma(in.data(), wgt.data(), wsci, wsco,
                               got.data() + oy * wo, plane, nco, cin, h, w,
                               k, oy, pad, wo, bias.data(), deconv);
      }
      EXPECT_EQ(std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(float)),
                0)
          << "row8 kernel diverges from the fmaf reference";
    }
  }
}

// int8 row kernels: exact int32 accumulation makes every backend
// bitwise-identical by construction — prove it across the shapes that
// exercise the avx2 16-wide, 8-wide, partial-width and scalar border
// paths, plus the quantize/dequantize pair-plane kernels.
TEST(LowpConvKernels, Int8KernelsMatchAcrossBackends) {
  const simd::KernelTable* ref = simd::table_for(simd::Backend::kScalar);
  ASSERT_NE(ref, nullptr);
  Rng seedr(31337);
  std::uint64_t state = 0xC0FFEE123456789ull;
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  };
  const index_t h = 12;
  for (const index_t w : {9, 17, 23, 33}) {
    for (const index_t k : {1, 3, 5, 7}) {
      for (const index_t cinp : {1, 4}) {
        for (const int nco : {1, 2, 4}) {
          for (const bool deconv : {false, true}) {
            SCOPED_TRACE("w=" + std::to_string(w) + " k=" +
                         std::to_string(k) + " cinp=" +
                         std::to_string(cinp) + " nco=" +
                         std::to_string(nco) +
                         (deconv ? " deconv" : " conv"));
            const index_t pad = k / 2, spatial = h * w;
            std::vector<std::int8_t> in(cinp * spatial * 2);
            for (auto& v : in) {
              v = static_cast<std::int8_t>(int(next() % 255u) - 127);
            }
            std::vector<std::int16_t> wgt(std::size_t(nco) * cinp * k *
                                          k * 2);
            for (auto& v : wgt) {
              v = static_cast<std::int16_t>(int(next() % 255u) - 127);
            }
            const index_t wsco = cinp * k * k * 2;

            std::vector<std::int32_t> want(4 * spatial, -777);
            for (index_t oy = 0; oy < h; ++oy) {
              ref->conv2d_row4_s1_i8(in.data(), wgt.data(), wsco,
                                     want.data() + oy * w, spatial, nco,
                                     cinp, h, w, k, oy, pad, w, deconv);
            }
            for (const simd::Backend be : available_backends()) {
              const simd::KernelTable* kt = simd::table_for(be);
              SCOPED_TRACE(simd::backend_name(be));
              std::vector<std::int32_t> got(4 * spatial, -777);
              for (index_t oy = 0; oy < h; ++oy) {
                kt->conv2d_row4_s1_i8(in.data(), wgt.data(), wsco,
                                      got.data() + oy * w, spatial, nco,
                                      cinp, h, w, k, oy, pad, w, deconv);
              }
              EXPECT_EQ(std::memcmp(want.data(), got.data(),
                                    want.size() * 4),
                        0)
                  << "int8 row kernel diverges from scalar";
            }
          }
        }
      }
    }
  }

  // quant/dequant pair-plane kernels across backends (odd n for tails).
  const index_t n = 1003;
  Tensor x0t({n}), x1t({n});
  seedr.fill_gaussian(x0t, 0.0, 2.0);
  seedr.fill_gaussian(x1t, 0.0, 2.0);
  std::vector<std::int8_t> q_ref(2 * n), q_got(2 * n);
  std::vector<float> d0_ref(n), d1_ref(n), d0_got(n), d1_got(n);
  ref->quant_f32_to_i8(x0t.data(), x1t.data(), q_ref.data(), n, 21.17f);
  ref->dequant_i8_to_f32(q_ref.data(), d0_ref.data(), d1_ref.data(), n,
                         1.0f / 21.17f);
  for (const simd::Backend be : available_backends()) {
    const simd::KernelTable* kt = simd::table_for(be);
    SCOPED_TRACE(simd::backend_name(be));
    kt->quant_f32_to_i8(x0t.data(), x1t.data(), q_got.data(), n, 21.17f);
    EXPECT_EQ(std::memcmp(q_ref.data(), q_got.data(), q_got.size()), 0);
    kt->dequant_i8_to_f32(q_ref.data(), d0_got.data(), d1_got.data(), n,
                          1.0f / 21.17f);
    EXPECT_EQ(std::memcmp(d0_ref.data(), d0_got.data(), n * 4), 0);
    EXPECT_EQ(std::memcmp(d1_ref.data(), d1_got.data(), n * 4), 0);
  }
}

// Converting epilogue stores: the fp32 affine+activation expression
// must match scale_shift_act bitwise, with only the final store
// rounding to the half format — across backends.
TEST(LowpConvKernels, HalfEpilogueStoresMatchScalar) {
  const simd::KernelTable* ref = simd::table_for(simd::Backend::kScalar);
  ASSERT_NE(ref, nullptr);
  const index_t n = 517;
  Tensor xt({n});
  Rng rng(5150);
  rng.fill_gaussian(xt, 0.0, 3.0);
  std::vector<std::uint16_t> want(n), got(n);
  for (const int act : {0, 1, 2}) {
    for (const bool bf : {false, true}) {
      SCOPED_TRACE("act=" + std::to_string(act) + (bf ? " bf16" : " f16"));
      const auto fn = bf ? &simd::KernelTable::scale_shift_act_store_bf16
                         : &simd::KernelTable::scale_shift_act_store_f16;
      (ref->*fn)(xt.data(), want.data(), n, 1.25f, -0.5f, act, 0.01f);
      for (const simd::Backend be : available_backends()) {
        const simd::KernelTable* kt = simd::table_for(be);
        SCOPED_TRACE(simd::backend_name(be));
        (kt->*fn)(xt.data(), got.data(), n, 1.25f, -0.5f, act, 0.01f);
        EXPECT_EQ(std::memcmp(want.data(), got.data(), n * 2), 0);
      }
    }
  }
}

// ------------------------------------------------------------------
// 4. Calibration determinism.

// graph::calibrate must be a pure function of (graph, batch): the
// int8 scales may not move with the task-engine width, or two serve
// shards with different thread counts would disagree on the quantized
// network. Checked at widths 1, 2 and 8 and across backends.
TEST(LowpCalibration, ScalesAreWidthAndBackendInvariant) {
  nn::seed_init_rng(3);
  nn::DDnet net(nn::DDnetConfig::tiny());
  net.set_training(false);
  const graph::Graph g = net.build_graph(1, 16, 16);
  Rng rng(0x5ca1ab1e);
  std::vector<Tensor> batch;
  for (int i = 0; i < 2; ++i) {
    Tensor t({1, 1, 16, 16});
    rng.fill_uniform(t, 0.0, 1.0);
    batch.push_back(std::move(t));
  }

  std::vector<float> ref;
  for (const int width : {1, 2, 8}) {
    ParallelPin pin(width);
    const graph::Calibration cal = graph::calibrate(g, batch);
    ASSERT_TRUE(cal.defined());
    for (const float s : cal.node_scale) {
      EXPECT_GT(s, 0.0f);
      EXPECT_TRUE(std::isfinite(s));
    }
    if (ref.empty()) {
      ref = cal.node_scale;
    } else {
      ASSERT_EQ(ref.size(), cal.node_scale.size());
      EXPECT_EQ(std::memcmp(ref.data(), cal.node_scale.data(),
                            ref.size() * sizeof(float)),
                0)
          << "calibration scales moved with task width " << width;
    }
  }
  const simd::Backend prev = simd::active_backend();
  for (const simd::Backend be : available_backends()) {
    simd::set_backend(be);
    const graph::Calibration cal = graph::calibrate(g, batch);
    ASSERT_EQ(ref.size(), cal.node_scale.size());
    EXPECT_EQ(std::memcmp(ref.data(), cal.node_scale.data(),
                          ref.size() * sizeof(float)),
              0)
        << "calibration scales moved with backend "
        << simd::backend_name(be);
  }
  simd::set_backend(prev);
}

// Precision parsing: the shared env helper's spellings, round-tripped
// through the enum, and bytes-per-element for each format.
TEST(LowpCalibration, PrecisionParseAndBytes) {
  using core::Precision;
  Precision p = Precision::kF32;
  EXPECT_TRUE(core::parse_precision("fp16", &p));
  EXPECT_EQ(p, Precision::kF16);
  EXPECT_TRUE(core::parse_precision("bf16", &p));
  EXPECT_EQ(p, Precision::kBf16);
  EXPECT_TRUE(core::parse_precision("int8", &p));
  EXPECT_EQ(p, Precision::kInt8);
  EXPECT_TRUE(core::parse_precision("fp32", &p));
  EXPECT_EQ(p, Precision::kF32);
  EXPECT_FALSE(core::parse_precision("pf16", &p));
  EXPECT_FALSE(core::parse_precision("", &p));
  EXPECT_EQ(core::precision_bytes(Precision::kF32), 4u);
  EXPECT_EQ(core::precision_bytes(Precision::kF16), 2u);
  EXPECT_EQ(core::precision_bytes(Precision::kBf16), 2u);
  EXPECT_EQ(core::precision_bytes(Precision::kInt8), 1u);
  for (const Precision q : {Precision::kF32, Precision::kF16,
                            Precision::kBf16, Precision::kInt8}) {
    Precision back = Precision::kF32;
    ASSERT_TRUE(core::parse_precision(core::precision_name(q), &back));
    EXPECT_EQ(back, q);
  }
}
