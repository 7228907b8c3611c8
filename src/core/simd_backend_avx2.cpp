// AVX2 backend: one __m256 per virtual vector. Compiled with
// -mavx2 -mfma -ffp-contract=off (see src/core/CMakeLists.txt): the
// ISA is enabled, but automatic mul+add fusion is off — vfmadd's
// single rounding would split this backend's results from the scalar
// reference, and the lane-determinism contract (core/simd.h) outranks
// the marginal FLOP win on these memory-bound kernels. When the
// compiler cannot target AVX2 the TU degrades to a stub and dispatch
// falls back to SSE2/scalar.
#include "core/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/half.h"
#include "core/simd_kernels.h"

namespace ccovid::simd {

namespace {

struct Avx2V {
  using v8 = __m256;
  static v8 zero() { return _mm256_setzero_ps(); }
  static v8 set1(float v) { return _mm256_set1_ps(v); }
  static v8 loadu(const float* p) { return _mm256_loadu_ps(p); }
  static v8 load_partial(const float* p, index_t n) {
    float buf[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (index_t j = 0; j < n; ++j) buf[j] = p[j];
    return _mm256_loadu_ps(buf);
  }
  static void storeu(float* p, v8 x) { _mm256_storeu_ps(p, x); }
  static v8 add(v8 a, v8 b) { return _mm256_add_ps(a, b); }
  static v8 mul(v8 a, v8 b) { return _mm256_mul_ps(a, b); }
  static v8 min(v8 a, v8 b) { return _mm256_min_ps(a, b); }
  static v8 max(v8 a, v8 b) { return _mm256_max_ps(a, b); }
  static v8 madd(v8 acc, v8 a, v8 b) {
    // Two roundings by contract; -ffp-contract=off keeps it that way.
    return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
  }
  static v8 blend_gt0(v8 x, v8 a, v8 b) {
    const __m256 m = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GT_OQ);
    return _mm256_blendv_ps(b, a, m);
  }
  // Low-precision contract (core/simd.h): single rounding per lane.
  static v8 fmadd(v8 acc, v8 a, v8 b) {
#if defined(__FMA__)
    return _mm256_fmadd_ps(a, b, acc);
#else
    float fa[8], fb[8], fc[8];
    storeu(fa, a);
    storeu(fb, b);
    storeu(fc, acc);
    for (int j = 0; j < 8; ++j) fc[j] = std::fmaf(fa[j], fb[j], fc[j]);
    return loadu(fc);
#endif
  }
  static v8 loadu_f16(const std::uint16_t* p) {
#if defined(__F16C__)
    return _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
#else
    // core/half.h is bit-exact vs VCVTPH2PS, so the fallback keeps the
    // backend on the same digests.
    float buf[8];
    for (int j = 0; j < 8; ++j) buf[j] = f16_bits_to_f32(p[j]);
    return loadu(buf);
#endif
  }
  static void storeu_f16(std::uint16_t* p, v8 x) {
#if defined(__F16C__)
    // VCVTPS2PH, then the f32_to_f16_bits_ftz flush as a vector mask:
    // clear the mantissa wherever the exponent field is zero so no
    // subnormal half ever reaches a (slow) VCVTPH2PS widening.
    __m128i h = _mm256_cvtps_ph(
        x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m128i sub = _mm_cmpeq_epi16(
        _mm_and_si128(h, _mm_set1_epi16(0x7C00)), _mm_setzero_si128());
    h = _mm_andnot_si128(_mm_and_si128(sub, _mm_set1_epi16(0x03FF)), h);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), h);
#else
    float buf[8];
    storeu(buf, x);
    for (int j = 0; j < 8; ++j) p[j] = f32_to_f16_bits_ftz(buf[j]);
#endif
  }
  static v8 loadu_bf16(const std::uint16_t* p) {
    const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    return _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
  }
  static void storeu_bf16(std::uint16_t* p, v8 x) {
    // Integer image of core/half.h f32_to_bf16_bits: NaN -> truncate
    // and set the quiet bit, else RNE carry add then truncate.
    const __m256i xi = _mm256_castps_si256(x);
    const __m256i abs =
        _mm256_and_si256(xi, _mm256_set1_epi32(0x7FFFFFFF));
    const __m256i is_nan =
        _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(0x7F800000));
    const __m256i nan_res = _mm256_or_si256(_mm256_srli_epi32(xi, 16),
                                            _mm256_set1_epi32(0x40));
    const __m256i lsb =
        _mm256_and_si256(_mm256_srli_epi32(xi, 16), _mm256_set1_epi32(1));
    const __m256i rounded = _mm256_srli_epi32(
        _mm256_add_epi32(_mm256_add_epi32(xi, _mm256_set1_epi32(0x7FFF)),
                         lsb),
        16);
    const __m256i r = _mm256_blendv_epi8(rounded, nan_res, is_nan);
    const __m256i pk = _mm256_packus_epi32(r, r);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(p),
        _mm256_castsi256_si128(_mm256_permute4x64_epi64(pk, 0x08)));
  }
  static float reduce_add(v8 x) {
    // Same tree as the scalar reference: q = lo + hi, movehl fold,
    // final pair.
    const __m128 lo = _mm256_castps256_ps128(x);
    const __m128 hi = _mm256_extractf128_ps(x, 1);
    const __m128 q = _mm_add_ps(lo, hi);
    const __m128 s = _mm_add_ps(q, _mm_movehl_ps(q, q));
    const __m128 r =
        _mm_add_ss(s, _mm_shuffle_ps(s, s, _MM_SHUFFLE(1, 1, 1, 1)));
    return _mm_cvtss_f32(r);
  }
  static void cmul(double* a, const double* b, index_t n) {
    // Two complexes per __m256d: [ar0, ai0, ar1, ai1]. Same pairing
    // as cmul_one: re' = ar*br + (-(ai*bi)), im' = ai*br + ar*bi.
    const __m256d negre = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
    index_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m256d x = _mm256_loadu_pd(a + 2 * i);
      const __m256d y = _mm256_loadu_pd(b + 2 * i);
      const __m256d br = _mm256_movedup_pd(y);          // [br0,br0,br1,br1]
      const __m256d bi = _mm256_permute_pd(y, 0xF);     // [bi0,bi0,bi1,bi1]
      const __m256d t1 = _mm256_mul_pd(x, br);          // [ar*br, ai*br]x2
      __m256d t2 = _mm256_mul_pd(x, bi);                // [ar*bi, ai*bi]x2
      t2 = _mm256_permute_pd(t2, 0x5);                  // [ai*bi, ar*bi]x2
      t2 = _mm256_xor_pd(t2, negre);
      _mm256_storeu_pd(a + 2 * i, _mm256_add_pd(t1, t2));
    }
    if (i < n) detail::cmul_one(a + 2 * i, b + 2 * i);
  }
  using d4 = __m256d;
  static d4 set1_d(double v) { return _mm256_set1_pd(v); }
  static d4 loadu_d(const double* p) { return _mm256_loadu_pd(p); }
  static void storeu_d(double* p, d4 x) { _mm256_storeu_pd(p, x); }
  static d4 widen4(const float* p) {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
  }
  static d4 madd_d(d4 acc, d4 a, d4 b) {
    return _mm256_add_pd(acc, _mm256_mul_pd(a, b));
  }
};

#if defined(__FMA__)

// ----- int8 vpmaddwd kernels ----------------------------------------
//
// The generic int8 bodies (simd_kernels.h) are exact int32 arithmetic,
// so these overrides only have to compute the same sums faster: one
// 16-byte load covers 8 pixels x 2 interleaved channels, vpmovsxbw
// widens to int16, and vpmaddwd against the broadcast weight pair
// produces the per-pixel two-channel contribution for 8 outputs at
// once. Products are bounded by 2*127*127 so vpmaddwd never saturates.

inline __m256i wpair_i8(const std::int16_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return _mm256_set1_epi32(v);
}

template <int NCO, bool Deconv>
void i8_rowq_avx2(const std::int8_t* in, const std::int16_t* wgt,
                  index_t wstride_co, std::int32_t* out, index_t ostride_co,
                  index_t cinp, index_t h, index_t w, index_t k, index_t oy,
                  index_t pad, index_t wo) {
  index_t ky0, ky1, xlo, xhi;
  if (Deconv) {
    ky0 = std::max<index_t>(0, oy + pad - h + 1);
    ky1 = std::min<index_t>(k, oy + pad + 1);
    xlo = std::min<index_t>(std::max<index_t>(0, k - 1 - pad), wo);
    xhi = std::max(xlo, std::min<index_t>(wo, w - pad));
  } else {
    ky0 = std::max<index_t>(0, pad - oy);
    ky1 = std::min<index_t>(k, h + pad - oy);
    xlo = std::min<index_t>(pad, wo);
    xhi = std::max(xlo, std::min<index_t>(wo, w - k + pad + 1));
  }
  const auto point = [&](index_t ox) {
    detail::conv_point_q_i8<NCO, Deconv>(in, wgt, wstride_co, out,
                                         ostride_co, cinp, h, w, k, oy, ox,
                                         pad);
  };
  index_t ox = 0;
  for (; ox < xlo; ++ox) point(ox);
  for (; ox + 16 <= xhi; ox += 16) {
    __m256i a0 = _mm256_setzero_si256(), b0 = a0;
    __m256i a1 = a0, b1 = a0, a2 = a0, b2 = a0, a3 = a0, b3 = a0;
    for (index_t p = 0; p < cinp; ++p) {
      const std::int8_t* plane = in + p * h * w * 2;
      const std::int16_t* wp = wgt + p * k * k * 2;
      for (index_t ky = ky0; ky < ky1; ++ky) {
        const index_t iy = Deconv ? (oy + pad - ky) : (oy - pad + ky);
        for (index_t kx = 0; kx < k; ++kx) {
          const index_t ix = Deconv ? (ox + pad - kx) : (ox - pad + kx);
          const std::int8_t* src = plane + (iy * w + ix) * 2;
          const __m256i x = _mm256_cvtepi8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(src)));
          const __m256i y = _mm256_cvtepi8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 16)));
          const index_t t = (ky * k + kx) * 2;
          const __m256i w0 = wpair_i8(wp + t);
          a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(x, w0));
          b0 = _mm256_add_epi32(b0, _mm256_madd_epi16(y, w0));
          if (NCO > 1) {
            const __m256i w1 = wpair_i8(wp + wstride_co + t);
            a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(x, w1));
            b1 = _mm256_add_epi32(b1, _mm256_madd_epi16(y, w1));
          }
          if (NCO > 2) {
            const __m256i w2 = wpair_i8(wp + 2 * wstride_co + t);
            a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(x, w2));
            b2 = _mm256_add_epi32(b2, _mm256_madd_epi16(y, w2));
          }
          if (NCO > 3) {
            const __m256i w3 = wpair_i8(wp + 3 * wstride_co + t);
            a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(x, w3));
            b3 = _mm256_add_epi32(b3, _mm256_madd_epi16(y, w3));
          }
        }
      }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + ox), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + ox + 8), b0);
    if (NCO > 1) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + ostride_co + ox),
                          a1);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + ostride_co + ox + 8), b1);
    }
    if (NCO > 2) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + 2 * ostride_co + ox), a2);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + 2 * ostride_co + ox + 8), b2);
    }
    if (NCO > 3) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + 3 * ostride_co + ox), a3);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + 3 * ostride_co + ox + 8), b3);
    }
  }
  for (; ox + 8 <= xhi; ox += 8) {
    __m256i a0 = _mm256_setzero_si256();
    __m256i a1 = a0, a2 = a0, a3 = a0;
    for (index_t p = 0; p < cinp; ++p) {
      const std::int8_t* plane = in + p * h * w * 2;
      const std::int16_t* wp = wgt + p * k * k * 2;
      for (index_t ky = ky0; ky < ky1; ++ky) {
        const index_t iy = Deconv ? (oy + pad - ky) : (oy - pad + ky);
        for (index_t kx = 0; kx < k; ++kx) {
          const index_t ix = Deconv ? (ox + pad - kx) : (ox - pad + kx);
          const std::int8_t* src = plane + (iy * w + ix) * 2;
          const __m256i x = _mm256_cvtepi8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(src)));
          const index_t t = (ky * k + kx) * 2;
          a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(x, wpair_i8(wp + t)));
          if (NCO > 1) {
            a1 = _mm256_add_epi32(
                a1, _mm256_madd_epi16(x, wpair_i8(wp + wstride_co + t)));
          }
          if (NCO > 2) {
            a2 = _mm256_add_epi32(
                a2,
                _mm256_madd_epi16(x, wpair_i8(wp + 2 * wstride_co + t)));
          }
          if (NCO > 3) {
            a3 = _mm256_add_epi32(
                a3,
                _mm256_madd_epi16(x, wpair_i8(wp + 3 * wstride_co + t)));
          }
        }
      }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + ox), a0);
    if (NCO > 1) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + ostride_co + ox),
                          a1);
    }
    if (NCO > 2) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + 2 * ostride_co + ox), a2);
    }
    if (NCO > 3) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + 3 * ostride_co + ox), a3);
    }
  }
  // Partial-width tail: 1..7 interior columns remain once the 8-wide
  // loop stops. The per-column scalar path costs ~cinp*k*k iterations
  // per column, which at the DDnet shapes dilutes the whole row. Copy
  // the live pixel pairs of each input row into a zero-padded stack
  // buffer and run the same vpmaddwd body: zero input pixels contribute
  // exactly 0 to the int32 sums, so the live lanes are bit-identical to
  // the scalar path and the dead lanes are simply not stored.
  if (ox < xhi && (xhi - ox) + k <= 16) {
    const index_t n = xhi - ox;  // 1..7 live columns
    __m256i a0 = _mm256_setzero_si256();
    __m256i a1 = a0, a2 = a0, a3 = a0;
    const index_t ix0 = Deconv ? (ox + pad - (k - 1)) : (ox - pad);
    const index_t live = (n + k - 1) * 2;  // bytes of real input
    for (index_t p = 0; p < cinp; ++p) {
      const std::int8_t* plane = in + p * h * w * 2;
      const std::int16_t* wp = wgt + p * k * k * 2;
      for (index_t ky = ky0; ky < ky1; ++ky) {
        const index_t iy = Deconv ? (oy + pad - ky) : (oy - pad + ky);
        alignas(32) std::int8_t rb[32];
        std::memcpy(rb, plane + (iy * w + ix0) * 2,
                    static_cast<std::size_t>(live));
        std::memset(rb + live, 0, sizeof(rb) - static_cast<std::size_t>(live));
        for (index_t kx = 0; kx < k; ++kx) {
          const index_t off = Deconv ? (k - 1 - kx) : kx;
          const __m256i x = _mm256_cvtepi8_epi16(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(rb + off * 2)));
          const index_t t = (ky * k + kx) * 2;
          a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(x, wpair_i8(wp + t)));
          if (NCO > 1) {
            a1 = _mm256_add_epi32(
                a1, _mm256_madd_epi16(x, wpair_i8(wp + wstride_co + t)));
          }
          if (NCO > 2) {
            a2 = _mm256_add_epi32(
                a2,
                _mm256_madd_epi16(x, wpair_i8(wp + 2 * wstride_co + t)));
          }
          if (NCO > 3) {
            a3 = _mm256_add_epi32(
                a3,
                _mm256_madd_epi16(x, wpair_i8(wp + 3 * wstride_co + t)));
          }
        }
      }
    }
    alignas(32) std::int32_t tb[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tb), a0);
    for (index_t j = 0; j < n; ++j) out[ox + j] = tb[j];
    if (NCO > 1) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(tb), a1);
      for (index_t j = 0; j < n; ++j) out[ostride_co + ox + j] = tb[j];
    }
    if (NCO > 2) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(tb), a2);
      for (index_t j = 0; j < n; ++j) out[2 * ostride_co + ox + j] = tb[j];
    }
    if (NCO > 3) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(tb), a3);
      for (index_t j = 0; j < n; ++j) out[3 * ostride_co + ox + j] = tb[j];
    }
    ox = xhi;
  }
  for (; ox < wo; ++ox) point(ox);
}

void i8_row4_avx2(const std::int8_t* in, const std::int16_t* wgt,
                  index_t wstride_co, std::int32_t* out, index_t ostride_co,
                  int nco, index_t cinp, index_t h, index_t w, index_t k,
                  index_t oy, index_t pad, index_t wo, bool deconv) {
  detail::with_dir(deconv, [&](auto dc) {
    detail::with_nco(nco, [&](auto nc) {
      i8_rowq_avx2<decltype(nc)::value, decltype(dc)::value>(
          in, wgt, wstride_co, out, ostride_co, cinp, h, w, k, oy, pad, wo);
    });
  });
}

// Vector image of detail::dequant_affine_act: vfmadd (== fmaf), then
// mul+add affine (two roundings), then the activation with the same
// NaN routing as the scalar ternaries.
inline __m256 dequant_affine_act_v(__m256i acc, __m256 m, __m256 bias,
                                   int has_affine, __m256 scale,
                                   __m256 shift, int act, __m256 slope) {
  __m256 t = _mm256_fmadd_ps(_mm256_cvtepi32_ps(acc), m, bias);
  if (has_affine) t = _mm256_add_ps(_mm256_mul_ps(scale, t), shift);
  if (act == 1) {
    t = _mm256_max_ps(t, _mm256_setzero_ps());
  } else if (act == 2) {
    const __m256 gt =
        _mm256_cmp_ps(t, _mm256_setzero_ps(), _CMP_GT_OQ);
    t = _mm256_blendv_ps(_mm256_mul_ps(slope, t), t, gt);
  }
  return t;
}

// Vector image of detail::quant_clamp_rne: maxps/minps keep the
// second-operand-wins NaN semantics (NaN -> -127), and CVTPS2DQ on the
// clamped range is lrintf in the default rounding mode.
inline __m256i quant_i32_v(__m256 v) {
  v = _mm256_max_ps(v, _mm256_set1_ps(-127.0f));
  v = _mm256_min_ps(v, _mm256_set1_ps(127.0f));
  return _mm256_cvtps_epi32(v);
}

// 8 even-channel + 8 odd-channel int32 quants -> 16 interleaved bytes.
inline __m128i interleave_pack_i8(__m256i q0, __m256i q1) {
  const __m256i t =
      _mm256_or_si256(_mm256_slli_epi32(q1, 16),
                      _mm256_and_si256(q0, _mm256_set1_epi32(0xFFFF)));
  const __m256i pk = _mm256_packs_epi16(t, t);
  return _mm256_castsi256_si128(_mm256_permute4x64_epi64(pk, 0x08));
}

void quant_epilogue_store_i8_avx2(const std::int32_t* acc0,
                                  const std::int32_t* acc1,
                                  std::int8_t* out, index_t n,
                                  const QuantEpilogueParams& p) {
  const __m256 m0 = _mm256_set1_ps(p.m0), m1 = _mm256_set1_ps(p.m1);
  const __m256 bb0 = _mm256_set1_ps(p.bias0), bb1 = _mm256_set1_ps(p.bias1);
  const __m256 sc0 = _mm256_set1_ps(p.scale0), sc1 = _mm256_set1_ps(p.scale1);
  const __m256 sh0 = _mm256_set1_ps(p.shift0), sh1 = _mm256_set1_ps(p.shift1);
  const __m256 sl = _mm256_set1_ps(p.slope);
  const __m256 inv = _mm256_set1_ps(p.inv_out);
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i a0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc0 + i));
    const __m256 t0 = dequant_affine_act_v(a0, m0, bb0, p.has_affine, sc0,
                                           sh0, p.act, sl);
    const __m256i q0 = quant_i32_v(_mm256_mul_ps(t0, inv));
    __m256i q1 = _mm256_setzero_si256();
    if (acc1) {
      const __m256i a1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc1 + i));
      const __m256 t1 = dequant_affine_act_v(a1, m1, bb1, p.has_affine,
                                             sc1, sh1, p.act, sl);
      q1 = quant_i32_v(_mm256_mul_ps(t1, inv));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i * 2),
                     interleave_pack_i8(q0, q1));
  }
  for (; i < n; ++i) {
    const float t0 =
        detail::dequant_affine_act(acc0[i], p.m0, p.bias0, p.has_affine,
                                   p.scale0, p.shift0, p.act, p.slope);
    out[i * 2] = detail::quant_clamp_rne(t0 * p.inv_out);
    if (acc1) {
      const float t1 =
          detail::dequant_affine_act(acc1[i], p.m1, p.bias1, p.has_affine,
                                     p.scale1, p.shift1, p.act, p.slope);
      out[i * 2 + 1] = detail::quant_clamp_rne(t1 * p.inv_out);
    } else {
      out[i * 2 + 1] = 0;
    }
  }
}

void dequant_epilogue_f32_avx2(const std::int32_t* acc, float* out,
                               index_t n, float m, float bias,
                               int has_affine, float scale, float shift,
                               int act, float slope) {
  const __m256 mv = _mm256_set1_ps(m), bv = _mm256_set1_ps(bias);
  const __m256 sc = _mm256_set1_ps(scale), sh = _mm256_set1_ps(shift);
  const __m256 sl = _mm256_set1_ps(slope);
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    _mm256_storeu_ps(out + i, dequant_affine_act_v(a, mv, bv, has_affine,
                                                   sc, sh, act, sl));
  }
  for (; i < n; ++i) {
    out[i] = detail::dequant_affine_act(acc[i], m, bias, has_affine, scale,
                                        shift, act, slope);
  }
}

void quant_f32_to_i8_avx2(const float* x0, const float* x1,
                          std::int8_t* out, index_t n, float inv_scale) {
  const __m256 inv = _mm256_set1_ps(inv_scale);
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q0 =
        quant_i32_v(_mm256_mul_ps(_mm256_loadu_ps(x0 + i), inv));
    __m256i q1 = _mm256_setzero_si256();
    if (x1) {
      q1 = quant_i32_v(_mm256_mul_ps(_mm256_loadu_ps(x1 + i), inv));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i * 2),
                     interleave_pack_i8(q0, q1));
  }
  for (; i < n; ++i) {
    out[i * 2] = detail::quant_clamp_rne(x0[i] * inv_scale);
    out[i * 2 + 1] =
        x1 ? detail::quant_clamp_rne(x1[i] * inv_scale) : std::int8_t(0);
  }
}

void dequant_i8_to_f32_avx2(const std::int8_t* in, float* x0, float* x1,
                            index_t n, float scale) {
  const __m256 sc = _mm256_set1_ps(scale);
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i * 2)));
    const __m256i even = _mm256_srai_epi32(_mm256_slli_epi32(x, 16), 16);
    _mm256_storeu_ps(x0 + i,
                     _mm256_mul_ps(_mm256_cvtepi32_ps(even), sc));
    if (x1) {
      const __m256i odd = _mm256_srai_epi32(x, 16);
      _mm256_storeu_ps(x1 + i,
                       _mm256_mul_ps(_mm256_cvtepi32_ps(odd), sc));
    }
  }
  for (; i < n; ++i) {
    x0[i] = static_cast<float>(in[i * 2]) * scale;
    if (x1) x1[i] = static_cast<float>(in[i * 2 + 1]) * scale;
  }
}

#endif  // __FMA__

}  // namespace

const KernelTable* avx2_kernel_table() {
  static const KernelTable t = [] {
    KernelTable tab = detail::make_table<Avx2V>("avx2");
#if defined(__FMA__)
    tab.conv2d_row4_s1_i8 = &i8_row4_avx2;
    tab.quant_epilogue_store_i8 = &quant_epilogue_store_i8_avx2;
    tab.dequant_epilogue_f32 = &dequant_epilogue_f32_avx2;
    tab.quant_f32_to_i8 = &quant_f32_to_i8_avx2;
    tab.dequant_i8_to_f32 = &dequant_i8_to_f32_avx2;
#endif
    return tab;
  }();
  return &t;
}

}  // namespace ccovid::simd

#else  // !__AVX2__

namespace ccovid::simd {
const KernelTable* avx2_kernel_table() { return nullptr; }
}  // namespace ccovid::simd

#endif
