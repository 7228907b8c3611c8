// Scalar emulation backend: a float[8] struct driven by plain loops.
// This is the reference semantics of the vector layer — the SSE2/AVX2
// backends must reproduce it bitwise (tests/test_simd.cpp pins every
// primitive). The compiler is free to auto-vectorize these loops;
// auto-vectorization preserves per-element FP semantics, and the TU is
// compiled with -ffp-contract=off so no mul+add pair can be fused into
// a single-rounding FMA.
#include <cmath>
#include <cstdint>

#include "core/half.h"
#include "core/simd.h"
#include "core/simd_kernels.h"

namespace ccovid::simd {

namespace {

struct ScalarV {
  struct v8 {
    float l[8];
  };
  static v8 zero() { return v8{}; }
  static v8 set1(float v) {
    v8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = v;
    return r;
  }
  static v8 loadu(const float* p) {
    v8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = p[j];
    return r;
  }
  static v8 load_partial(const float* p, index_t n) {
    v8 r{};
    for (index_t j = 0; j < n; ++j) r.l[j] = p[j];
    return r;
  }
  static void storeu(float* p, v8 x) {
    for (int j = 0; j < 8; ++j) p[j] = x.l[j];
  }
  static v8 add(v8 a, v8 b) {
    v8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = a.l[j] + b.l[j];
    return r;
  }
  static v8 mul(v8 a, v8 b) {
    v8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = a.l[j] * b.l[j];
    return r;
  }
  // minps/maxps semantics: the SECOND operand wins on NaN or ties, so
  // the comparisons below are written with the first operand on the
  // left and a strict inequality.
  static v8 min(v8 a, v8 b) {
    v8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = a.l[j] < b.l[j] ? a.l[j] : b.l[j];
    return r;
  }
  static v8 max(v8 a, v8 b) {
    v8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = a.l[j] > b.l[j] ? a.l[j] : b.l[j];
    return r;
  }
  static v8 madd(v8 acc, v8 a, v8 b) {
    v8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = acc.l[j] + a.l[j] * b.l[j];
    return r;
  }
  static v8 blend_gt0(v8 x, v8 a, v8 b) {
    v8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = x.l[j] > 0.0f ? a.l[j] : b.l[j];
    return r;
  }
  // Low-precision contract (core/simd.h): single rounding per lane.
  // std::fmaf is correctly rounded, so this is bitwise VFMADD.
  static v8 fmadd(v8 acc, v8 a, v8 b) {
    v8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = std::fmaf(a.l[j], b.l[j], acc.l[j]);
    return r;
  }
  static v8 loadu_f16(const std::uint16_t* p) {
    v8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = f16_bits_to_f32(p[j]);
    return r;
  }
  static v8 loadu_bf16(const std::uint16_t* p) {
    v8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = bf16_bits_to_f32(p[j]);
    return r;
  }
  static void storeu_f16(std::uint16_t* p, v8 x) {
    for (int j = 0; j < 8; ++j) p[j] = f32_to_f16_bits_ftz(x.l[j]);
  }
  static void storeu_bf16(std::uint16_t* p, v8 x) {
    for (int j = 0; j < 8; ++j) p[j] = f32_to_bf16_bits(x.l[j]);
  }
  // The canonical tree (core/simd.h): lane+4 partials, then a 4-wide
  // movehl-style fold, then the final pair.
  static float reduce_add(v8 x) {
    const float q0 = x.l[0] + x.l[4];
    const float q1 = x.l[1] + x.l[5];
    const float q2 = x.l[2] + x.l[6];
    const float q3 = x.l[3] + x.l[7];
    const float r0 = q0 + q2;
    const float r1 = q1 + q3;
    return r0 + r1;
  }
  static void cmul(double* a, const double* b, index_t n) {
    for (index_t i = 0; i < n; ++i) detail::cmul_one(a + 2 * i, b + 2 * i);
  }
  struct d4 {
    double l[4];
  };
  static d4 set1_d(double v) { return d4{{v, v, v, v}}; }
  static d4 loadu_d(const double* p) { return d4{{p[0], p[1], p[2], p[3]}}; }
  static void storeu_d(double* p, d4 x) {
    for (int j = 0; j < 4; ++j) p[j] = x.l[j];
  }
  static d4 widen4(const float* p) {
    d4 r;
    for (int j = 0; j < 4; ++j) r.l[j] = static_cast<double>(p[j]);
    return r;
  }
  static d4 madd_d(d4 acc, d4 a, d4 b) {
    d4 r;
    for (int j = 0; j < 4; ++j) r.l[j] = acc.l[j] + a.l[j] * b.l[j];
    return r;
  }
};

}  // namespace

const KernelTable* scalar_kernel_table() {
  static const KernelTable t = detail::make_table<ScalarV>("scalar");
  return &t;
}

}  // namespace ccovid::simd
