// SSE2 backend: the 8 virtual lanes are two __m128 halves (lanes 0-3
// in lo, 4-7 in hi). SSE2 is the x86-64 baseline, so this TU needs no
// special flags beyond -ffp-contract=off; on non-x86 targets it
// compiles to a stub that reports the backend as absent.
#include "core/simd.h"

#if defined(__SSE2__)

#include <emmintrin.h>

#include <cmath>
#include <cstdint>

#include "core/half.h"
#include "core/simd_kernels.h"

namespace ccovid::simd {

namespace {

struct Sse2V {
  struct v8 {
    __m128 lo, hi;
  };
  static v8 zero() { return {_mm_setzero_ps(), _mm_setzero_ps()}; }
  static v8 set1(float v) { return {_mm_set1_ps(v), _mm_set1_ps(v)}; }
  static v8 loadu(const float* p) {
    return {_mm_loadu_ps(p), _mm_loadu_ps(p + 4)};
  }
  static v8 load_partial(const float* p, index_t n) {
    float buf[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (index_t j = 0; j < n; ++j) buf[j] = p[j];
    return loadu(buf);
  }
  static void storeu(float* p, v8 x) {
    _mm_storeu_ps(p, x.lo);
    _mm_storeu_ps(p + 4, x.hi);
  }
  static v8 add(v8 a, v8 b) {
    return {_mm_add_ps(a.lo, b.lo), _mm_add_ps(a.hi, b.hi)};
  }
  static v8 mul(v8 a, v8 b) {
    return {_mm_mul_ps(a.lo, b.lo), _mm_mul_ps(a.hi, b.hi)};
  }
  static v8 min(v8 a, v8 b) {
    return {_mm_min_ps(a.lo, b.lo), _mm_min_ps(a.hi, b.hi)};
  }
  static v8 max(v8 a, v8 b) {
    return {_mm_max_ps(a.lo, b.lo), _mm_max_ps(a.hi, b.hi)};
  }
  static v8 madd(v8 acc, v8 a, v8 b) {
    return {_mm_add_ps(acc.lo, _mm_mul_ps(a.lo, b.lo)),
            _mm_add_ps(acc.hi, _mm_mul_ps(a.hi, b.hi))};
  }
  static v8 blend_gt0(v8 x, v8 a, v8 b) {
    const __m128 z = _mm_setzero_ps();
    const __m128 mlo = _mm_cmpgt_ps(x.lo, z);
    const __m128 mhi = _mm_cmpgt_ps(x.hi, z);
    return {_mm_or_ps(_mm_and_ps(mlo, a.lo), _mm_andnot_ps(mlo, b.lo)),
            _mm_or_ps(_mm_and_ps(mhi, a.hi), _mm_andnot_ps(mhi, b.hi))};
  }
  // Low-precision contract (core/simd.h): single-rounded lanes. SSE2
  // has no FMA instruction, so go through correctly rounded std::fmaf
  // per lane — bitwise what the AVX2 backend's VFMADD produces.
  static v8 fmadd(v8 acc, v8 a, v8 b) {
    float fa[8], fb[8], fc[8];
    storeu(fa, a);
    storeu(fb, b);
    storeu(fc, acc);
    for (int j = 0; j < 8; ++j) fc[j] = std::fmaf(fa[j], fb[j], fc[j]);
    return loadu(fc);
  }
  static v8 loadu_f16(const std::uint16_t* p) {
    float buf[8];
    for (int j = 0; j < 8; ++j) buf[j] = f16_bits_to_f32(p[j]);
    return loadu(buf);
  }
  static v8 loadu_bf16(const std::uint16_t* p) {
    float buf[8];
    for (int j = 0; j < 8; ++j) buf[j] = bf16_bits_to_f32(p[j]);
    return loadu(buf);
  }
  static void storeu_f16(std::uint16_t* p, v8 x) {
    float buf[8];
    storeu(buf, x);
    for (int j = 0; j < 8; ++j) p[j] = f32_to_f16_bits_ftz(buf[j]);
  }
  static void storeu_bf16(std::uint16_t* p, v8 x) {
    float buf[8];
    storeu(buf, x);
    for (int j = 0; j < 8; ++j) p[j] = f32_to_bf16_bits(buf[j]);
  }
  static float reduce_add(v8 x) {
    // q = lanes + lanes+4; fold high pair onto low pair; final add.
    const __m128 q = _mm_add_ps(x.lo, x.hi);
    const __m128 s = _mm_add_ps(q, _mm_movehl_ps(q, q));
    const __m128 r =
        _mm_add_ss(s, _mm_shuffle_ps(s, s, _MM_SHUFFLE(1, 1, 1, 1)));
    return _mm_cvtss_f32(r);
  }
  static void cmul(double* a, const double* b, index_t n) {
    // One complex per __m128d: [re, im]. re' = ar*br - ai*bi computed
    // as ar*br + (-(ai*bi)) — sign-bit flip then add is bitwise equal
    // to subtraction — and im' = ai*br + ar*bi, matching cmul_one.
    const __m128d negre = _mm_set_pd(0.0, -0.0);
    for (index_t i = 0; i < n; ++i) {
      const __m128d x = _mm_loadu_pd(a + 2 * i);
      const __m128d y = _mm_loadu_pd(b + 2 * i);
      const __m128d br = _mm_unpacklo_pd(y, y);  // [br, br]
      const __m128d bi = _mm_unpackhi_pd(y, y);  // [bi, bi]
      const __m128d t1 = _mm_mul_pd(x, br);      // [ar*br, ai*br]
      __m128d t2 = _mm_mul_pd(x, bi);            // [ar*bi, ai*bi]
      t2 = _mm_shuffle_pd(t2, t2, 0x1);          // [ai*bi, ar*bi]
      t2 = _mm_xor_pd(t2, negre);                // [-(ai*bi), ar*bi]
      _mm_storeu_pd(a + 2 * i, _mm_add_pd(t1, t2));
    }
  }
  // 4 x f64 as two __m128d halves (lanes 0-1 in lo, 2-3 in hi).
  struct d4 {
    __m128d lo, hi;
  };
  static d4 set1_d(double v) { return {_mm_set1_pd(v), _mm_set1_pd(v)}; }
  static d4 loadu_d(const double* p) {
    return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
  }
  static void storeu_d(double* p, d4 x) {
    _mm_storeu_pd(p, x.lo);
    _mm_storeu_pd(p + 2, x.hi);
  }
  static d4 widen4(const float* p) {
    const __m128 x = _mm_loadu_ps(p);
    return {_mm_cvtps_pd(x), _mm_cvtps_pd(_mm_movehl_ps(x, x))};
  }
  static d4 madd_d(d4 acc, d4 a, d4 b) {
    return {_mm_add_pd(acc.lo, _mm_mul_pd(a.lo, b.lo)),
            _mm_add_pd(acc.hi, _mm_mul_pd(a.hi, b.hi))};
  }
};

}  // namespace

const KernelTable* sse2_kernel_table() {
  static const KernelTable t = detail::make_table<Sse2V>("sse2");
  return &t;
}

}  // namespace ccovid::simd

#else  // !__SSE2__

namespace ccovid::simd {
const KernelTable* sse2_kernel_table() { return nullptr; }
}  // namespace ccovid::simd

#endif
