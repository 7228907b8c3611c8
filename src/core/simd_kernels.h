// Backend-generic vector kernel bodies. Each per-backend translation
// unit (simd_backend_*.cpp) instantiates make_table<V>() with its lane
// type V and hands the resulting function-pointer table to the
// dispatcher. The required V interface:
//
//   using v8 = ...;                       // 8 x f32 value type
//   v8    zero();  v8 set1(float);
//   v8    loadu(const float*);            // unaligned 8-lane load
//   v8    load_partial(const float*, n);  // lanes [n,8) zero-filled
//   void  storeu(float*, v8);
//   v8    add/mul/min/max(v8, v8);
//   v8    madd(v8 acc, v8 a, v8 b);       // acc + a*b, TWO roundings
//   v8    blend_gt0(v8 x, v8 a, v8 b);    // per lane: x > 0 ? a : b
//   float reduce_add(v8);                 // canonical fixed tree
//   void  cmul(double* a, const double* b, index_t n);  // complex a*=b
//
//   using d4 = ...;                       // 4 x f64 value type
//   d4    set1_d(double);  d4 loadu_d(const double*);
//   void  storeu_d(double*, d4);
//   d4    widen4(const float*);           // 4 floats, widened exactly
//   d4    madd_d(d4 acc, d4 a, d4 b);     // acc + a*b, TWO roundings
//
// Lane determinism: per-output lanes accumulate in scalar order (rule 1
// of the contract in core/simd.h), and the border/tail scalar paths
// below are shared source, so every backend runs the identical
// instruction-order-insensitive arithmetic on the identical elements.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/half.h"
#include "core/simd.h"

namespace ccovid::simd::detail {

// Everything below has internal linkage: each backend TU compiles its
// own copy with its own ISA flags. With external (weak) linkage the
// linker would keep one copy of every helper for all three backends,
// so the scalar and sse2 tables could end up running the avx2 TU's
// VEX-encoded code, or the avx2 table the scalar TU's `fmaf` calls.
// Only the simd_backend_*.cpp TUs include this header.
namespace {

// Compile-time dispatch of the row kernels: each helper calls `body`
// with its runtime argument as a std::integral_constant.
//  with_dir — the tap direction (false = conv, true = deconv);
//  with_nco — 1..4 output channels (one named accumulator each);
//  with_k   — the filter extent where the tap loops unroll fully (1, 3,
//             5, 7); any other extent runs the runtime-extent form K = 0.
template <class Body>
inline void with_dir(bool deconv, Body&& body) {
  if (deconv) {
    body(std::true_type{});
  } else {
    body(std::false_type{});
  }
}

template <class Body>
inline void with_nco(int nco, Body&& body) {
  switch (nco) {
    case 1: body(std::integral_constant<int, 1>{}); break;
    case 2: body(std::integral_constant<int, 2>{}); break;
    case 3: body(std::integral_constant<int, 3>{}); break;
    default: body(std::integral_constant<int, 4>{}); break;
  }
}

template <class Body>
inline void with_k(index_t k, Body&& body) {
  switch (k) {
    case 1: body(std::integral_constant<int, 1>{}); break;
    case 3: body(std::integral_constant<int, 3>{}); break;
    case 5: body(std::integral_constant<int, 5>{}); break;
    case 7: body(std::integral_constant<int, 7>{}); break;
    default: body(std::integral_constant<int, 0>{}); break;
  }
}

// Every forward row body and scalar point below serves both tap
// directions of a stride-1 row, picked by a compile-time `Deconv`
// flag: conv reads input row iy = oy - pad + ky (ix alike), the
// gather-form deconv iy = oy + pad - ky, walking the input in reverse
// (inverse coefficient mapping). Each computes the tap origin
// iy0 = oy -/+ pad and steps from it by step = +1 / -1 per tap. The
// vector bodies first bound the filter rows [ky0, ky1) that read
// in-range input rows and the output columns [xlo, xhi) whose every
// kx tap is in range (the vector interior); the other columns run the
// scalar points. The bounds are written out in each body: computed in a
// shared helper, they made GCC allocate the conv quad body's registers
// differently and added scalar instructions to most instantiations.

// Scalar single-output tap loop — used for border columns and interior
// tails by every backend. Tap order (ci, ky, kx) ascending with
// bounds-check skips, matching the historical scalar kernels.
template <bool Deconv>
inline float conv_point(const float* in, const float* wgt, index_t wstride,
                        index_t cin, index_t h, index_t w, index_t k,
                        index_t oy, index_t ox, index_t pad, float bias) {
  float acc = bias;
  constexpr index_t step = Deconv ? -1 : 1;
  const index_t iy0 = Deconv ? oy + pad : oy - pad;
  const index_t ix0 = Deconv ? ox + pad : ox - pad;
  for (index_t ci = 0; ci < cin; ++ci) {
    const float* inp = in + ci * h * w;
    const float* wp = wgt + ci * wstride;
    for (index_t ky = 0; ky < k; ++ky) {
      const index_t iy = iy0 + step * ky;
      if (iy < 0 || iy >= h) continue;
      for (index_t kx = 0; kx < k; ++kx) {
        const index_t ix = ix0 + step * kx;
        if (ix < 0 || ix >= w) continue;
        acc += inp[iy * w + ix] * wp[ky * k + kx];
      }
    }
  }
  return acc;
}

// Border-column companion of the quad row kernels: one output column
// for NCO consecutive output channels, sharing every input load across
// four independent scalar accumulator chains. Per channel the tap order
// (ci, ky, kx ascending, bounds-check skips) is exactly conv_point's,
// so the results are bitwise identical. Conv3d adds depth taps kz
// between ci and ky: input channel ci starts at in + ci*cstride, and
// its nkz in-range depth taps are consecutive (h x w) planes with
// (k x k) filter slices (the caller offsets in/wgt to the first one).
// The 2-D case is cstride = h*w, nkz = 1.
template <int NCO, bool Deconv>
inline void conv_point_q(const float* in, const float* wgt,
                         index_t wstride_ci, index_t wstride_co, float* out,
                         index_t ostride_co, index_t cin, index_t cstride,
                         index_t nkz, index_t h, index_t w, index_t k,
                         index_t oy, index_t ox, index_t pad,
                         const float* bias) {
  float a0 = bias[0];
  float a1 = NCO > 1 ? bias[1] : 0.0f;
  float a2 = NCO > 2 ? bias[2] : 0.0f;
  float a3 = NCO > 3 ? bias[3] : 0.0f;
  constexpr index_t step = Deconv ? -1 : 1;
  const index_t iy0 = Deconv ? oy + pad : oy - pad;
  const index_t ix0 = Deconv ? ox + pad : ox - pad;
  for (index_t ci = 0; ci < cin; ++ci) {
    for (index_t kz = 0; kz < nkz; ++kz) {
      const float* inp = in + ci * cstride + kz * h * w;
      const float* w0 = wgt + ci * wstride_ci + kz * k * k;
      const float* w1 = w0 + wstride_co;
      const float* w2 = w1 + wstride_co;
      const float* w3 = w2 + wstride_co;
      for (index_t ky = 0; ky < k; ++ky) {
        const index_t iy = iy0 + step * ky;
        if (iy < 0 || iy >= h) continue;
        for (index_t kx = 0; kx < k; ++kx) {
          const index_t ix = ix0 + step * kx;
          if (ix < 0 || ix >= w) continue;
          const float x = inp[iy * w + ix];
          a0 += x * w0[ky * k + kx];
          if (NCO > 1) a1 += x * w1[ky * k + kx];
          if (NCO > 2) a2 += x * w2[ky * k + kx];
          if (NCO > 3) a3 += x * w3[ky * k + kx];
        }
      }
    }
  }
  out[ox] = a0;
  if (NCO > 1) out[ostride_co + ox] = a1;
  if (NCO > 2) out[2 * ostride_co + ox] = a2;
  if (NCO > 3) out[3 * ostride_co + ox] = a3;
}

// ----- conv2d / deconv2d gradients ----------------------------------
//
// Both input gradients are one gather over grad_out (j = its channel):
//   gin[c][y][x] = sum_ky sum_kx sum_j go[j][oy][ox] * w(j, c, ky, kx)
// FLIP (conv2d's): oy = (y + pad - ky) / stride where that divides
// evenly; otherwise (deconv2d's) oy = y * stride - pad + ky; ox alike.
// Out-of-range taps are skipped. The weight strides per j and per c
// carry the two weight layouts.

// Coordinate tap `kt` of gradient position `y` reads, or -1 when the
// tap is skipped.
template <bool FLIP>
inline index_t grad_tap(index_t y, index_t kt, index_t stride, index_t pad,
                        index_t extent) {
  if (FLIP) {
    const index_t num = y + pad - kt;
    if (num < 0 || num % stride != 0) return -1;
    const index_t o = num / stride;
    return o < extent ? o : -1;
  }
  const index_t o = y * stride - pad + kt;
  return o >= 0 && o < extent ? o : -1;
}

// One input-gradient pixel (y, x) for NC consecutive channels: the
// per-pixel body of the direct scalar loops, each grad_out load shared
// by NC accumulators. Per channel the sum starts at 0.0f and runs the
// taps in ascending (ky, kx, j) order — border columns, stride > 1 and
// the vector lanes all follow it.
template <bool FLIP, int NC>
inline void grad_input_point_q(const float* go, index_t nj, index_t ho,
                               index_t wo, const float* wgt,
                               index_t wstride_j, index_t wstride_c,
                               float* gin, index_t gin_cstride, index_t k,
                               index_t stride, index_t pad, index_t y,
                               index_t x) {
  float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
  for (index_t ky = 0; ky < k; ++ky) {
    const index_t oy = grad_tap<FLIP>(y, ky, stride, pad, ho);
    if (oy < 0) continue;
    for (index_t kx = 0; kx < k; ++kx) {
      const index_t ox = grad_tap<FLIP>(x, kx, stride, pad, wo);
      if (ox < 0) continue;
      const float* g = go + oy * wo + ox;
      const float* wp = wgt + ky * k + kx;
      for (index_t j = 0; j < nj; ++j) {
        const float v = g[j * ho * wo];
        const float* wj = wp + j * wstride_j;
        a0 += v * wj[0];
        if (NC > 1) a1 += v * wj[wstride_c];
        if (NC > 2) a2 += v * wj[2 * wstride_c];
        if (NC > 3) a3 += v * wj[3 * wstride_c];
      }
    }
  }
  gin[x] = a0;
  if (NC > 1) gin[gin_cstride + x] = a1;
  if (NC > 2) gin[2 * gin_cstride + x] = a2;
  if (NC > 3) gin[3 * gin_cstride + x] = a3;
}

// ----- low-precision shared scalar machinery ------------------------
//
// The int8 path accumulates in exact int32, so ONE portable body keeps
// every backend bitwise identical for free: scalar and sse2 register
// the functions below directly, and the avx2 TU overrides the table
// entries with vpmaddwd kernels that compute the same exact sums. The
// fp32 tail/border expressions (quant_clamp_rne, dequant_affine_act)
// are the single source of truth the avx2 vector epilogues replicate
// instruction for instruction.

/// Requantize: clamp to [-127, 127] (NaN -> -127, matching the
/// max-with-second-operand-wins lane semantics), round to nearest even
/// (lrintf == CVTPS2DQ in the default rounding mode on the clamped
/// range).
inline std::int8_t quant_clamp_rne(float v) {
  v = v > -127.0f ? v : -127.0f;
  v = v < 127.0f ? v : 127.0f;
  return static_cast<std::int8_t>(std::lrintf(v));
}

/// Dequantize one int32 accumulator and run the scale_shift_act
/// expression: t = fma(float(acc), m, bias), then scale*t + shift
/// (two roundings, exactly like the fp32 epilogue) and the activation.
inline float dequant_affine_act(std::int32_t acc, float m, float bias,
                                int has_affine, float scale, float shift,
                                int act, float slope) {
  float t = std::fmaf(static_cast<float>(acc), m, bias);
  if (has_affine) t = scale * t + shift;
  if (act == 1) {
    t = t > 0.0f ? t : 0.0f;
  } else if (act == 2) {
    t = t > 0.0f ? t : slope * t;
  }
  return t;
}

// One output column, NCO channels, int8 interleaved input (see the
// layout comment in core/simd.h). Shared by the generic row kernel
// below and by the avx2 kernel's border columns.
template <int NCO, bool Deconv>
inline void conv_point_q_i8(const std::int8_t* in, const std::int16_t* wgt,
                            index_t wstride_co, std::int32_t* out,
                            index_t ostride_co, index_t cinp, index_t h,
                            index_t w, index_t k, index_t oy, index_t ox,
                            index_t pad) {
  std::int32_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
  constexpr index_t step = Deconv ? -1 : 1;
  const index_t iy0 = Deconv ? oy + pad : oy - pad;
  const index_t ix0 = Deconv ? ox + pad : ox - pad;
  for (index_t p = 0; p < cinp; ++p) {
    const std::int8_t* inp = in + p * h * w * 2;
    const std::int16_t* w0 = wgt + p * k * k * 2;
    for (index_t ky = 0; ky < k; ++ky) {
      const index_t iy = iy0 + step * ky;
      if (iy < 0 || iy >= h) continue;
      for (index_t kx = 0; kx < k; ++kx) {
        const index_t ix = ix0 + step * kx;
        if (ix < 0 || ix >= w) continue;
        const std::int32_t x0 = inp[(iy * w + ix) * 2];
        const std::int32_t x1 = inp[(iy * w + ix) * 2 + 1];
        const index_t t = (ky * k + kx) * 2;
        a0 += x0 * w0[t] + x1 * w0[t + 1];
        if (NCO > 1) {
          a1 += x0 * w0[wstride_co + t] + x1 * w0[wstride_co + t + 1];
        }
        if (NCO > 2) {
          a2 += x0 * w0[2 * wstride_co + t] +
                x1 * w0[2 * wstride_co + t + 1];
        }
        if (NCO > 3) {
          a3 += x0 * w0[3 * wstride_co + t] +
                x1 * w0[3 * wstride_co + t + 1];
        }
      }
    }
  }
  out[ox] = a0;
  if (NCO > 1) out[ostride_co + ox] = a1;
  if (NCO > 2) out[2 * ostride_co + ox] = a2;
  if (NCO > 3) out[3 * ostride_co + ox] = a3;
}

inline void conv2d_row4_s1_i8_generic(const std::int8_t* in,
                                      const std::int16_t* wgt,
                                      index_t wstride_co, std::int32_t* out,
                                      index_t ostride_co, int nco,
                                      index_t cinp, index_t h, index_t w,
                                      index_t k, index_t oy, index_t pad,
                                      index_t wo, bool deconv) {
  with_dir(deconv, [&](auto dc) {
    with_nco(nco, [&](auto nc) {
      for (index_t ox = 0; ox < wo; ++ox) {
        conv_point_q_i8<decltype(nc)::value, decltype(dc)::value>(
            in, wgt, wstride_co, out, ostride_co, cinp, h, w, k, oy, ox,
            pad);
      }
    });
  });
}

inline void quant_epilogue_store_i8_generic(const std::int32_t* acc0,
                                            const std::int32_t* acc1,
                                            std::int8_t* out, index_t n,
                                            const QuantEpilogueParams& p) {
  for (index_t i = 0; i < n; ++i) {
    const float t0 =
        dequant_affine_act(acc0[i], p.m0, p.bias0, p.has_affine, p.scale0,
                           p.shift0, p.act, p.slope);
    out[i * 2] = quant_clamp_rne(t0 * p.inv_out);
    if (acc1) {
      const float t1 =
          dequant_affine_act(acc1[i], p.m1, p.bias1, p.has_affine,
                             p.scale1, p.shift1, p.act, p.slope);
      out[i * 2 + 1] = quant_clamp_rne(t1 * p.inv_out);
    } else {
      out[i * 2 + 1] = 0;
    }
  }
}

inline void dequant_epilogue_f32_generic(const std::int32_t* acc,
                                         float* out, index_t n, float m,
                                         float bias, int has_affine,
                                         float scale, float shift, int act,
                                         float slope) {
  for (index_t i = 0; i < n; ++i) {
    out[i] = dequant_affine_act(acc[i], m, bias, has_affine, scale, shift,
                                act, slope);
  }
}

inline void quant_f32_to_i8_generic(const float* x0, const float* x1,
                                    std::int8_t* out, index_t n,
                                    float inv_scale) {
  for (index_t i = 0; i < n; ++i) {
    out[i * 2] = quant_clamp_rne(x0[i] * inv_scale);
    out[i * 2 + 1] = x1 ? quant_clamp_rne(x1[i] * inv_scale)
                        : std::int8_t(0);
  }
}

inline void dequant_i8_to_f32_generic(const std::int8_t* in, float* x0,
                                      float* x1, index_t n, float scale) {
  for (index_t i = 0; i < n; ++i) {
    x0[i] = static_cast<float>(in[i * 2]) * scale;
    if (x1) x1[i] = static_cast<float>(in[i * 2 + 1]) * scale;
  }
}

template <class V>
struct Kernels {
  using v8 = typename V::v8;
  using d4 = typename V::d4;

  // One stride-1 output row of one output channel, conv or gather-form
  // deconv: 8 output pixels per vector in the interior, scalar points at
  // the borders, both in conv_point's (ci, ky, kx) tap order. Kept out
  // of line: inlined together into the entry, the two directions share
  // one register allocation, and the deconv row's ky loop then reloads
  // its bounds from the stack (up to 30% slower at k = 1).
  template <bool Deconv>
  [[gnu::noinline]] static void conv2d_row(const float* CCOVID_RESTRICT in,
                         const float* CCOVID_RESTRICT wgt, index_t wstride,
                         float* CCOVID_RESTRICT out, index_t cin, index_t h,
                         index_t w, index_t k, index_t oy, index_t pad,
                         index_t wo, float bias) {
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
    constexpr index_t step = Deconv ? -1 : 1;  // input step per tap
    const index_t iy0 = Deconv ? oy + pad : oy - pad;
    index_t ox = 0;
    for (; ox < xlo; ++ox) {
      out[ox] = conv_point<Deconv>(in, wgt, wstride, cin, h, w, k, oy, ox,
                                   pad, bias);
    }
    for (; ox + 8 <= xhi; ox += 8) {
      v8 acc = V::set1(bias);
      const index_t ix0 = Deconv ? ox + pad : ox - pad;
      for (index_t ci = 0; ci < cin; ++ci) {
        const float* inp = in + ci * h * w;
        const float* wp = wgt + ci * wstride;
        for (index_t ky = ky0; ky < ky1; ++ky) {
          const float* row = inp + (iy0 + step * ky) * w + ix0;
          for (index_t kx = 0; kx < k; ++kx) {
            acc = V::madd(acc, V::loadu(row + step * kx),
                          V::set1(wp[ky * k + kx]));
          }
        }
      }
      V::storeu(out + ox, acc);
    }
    for (; ox < wo; ++ox) {
      out[ox] = conv_point<Deconv>(in, wgt, wstride, cin, h, w, k, oy, ox,
                                   pad, bias);
    }
  }

  static void conv2d_row_s1(const float* in, const float* wgt,
                            index_t wstride, float* out, index_t cin,
                            index_t h, index_t w, index_t k, index_t oy,
                            index_t pad, index_t wo, float bias,
                            bool deconv) {
    with_dir(deconv, [&](auto dc) {
      conv2d_row<decltype(dc)::value>(in, wgt, wstride, out, cin, h, w, k,
                                      oy, pad, wo, bias);
    });
  }

  // Quad-channel row kernels. NCO independent accumulator chains (one
  // per output channel) share each 8-lane input load; every chain
  // replays the exact (ci, ky, kx) tap order of the single-channel
  // kernel, so lane contents match conv2d_row bit for bit. Border
  // columns reuse the shared scalar points per channel. DEPTH adds
  // conv3d's depth-tap loop between ci and ky (see conv_point_q for
  // cstride/nkz); without it the loop is the single 2-D tap plane,
  // folded away at compile time. Conv3d is conv-only.
  template <int NCO, int K, bool DEPTH, bool Deconv>
  static void conv2d_rowq_body(const float* CCOVID_RESTRICT in,
                               const float* CCOVID_RESTRICT wgt,
                               index_t wstride_ci, index_t wstride_co,
                               float* CCOVID_RESTRICT out,
                               index_t ostride_co, index_t cin,
                               index_t cstride, index_t nkz, index_t h,
                               index_t w, index_t k, index_t oy,
                               index_t pad, index_t wo,
                               const float* CCOVID_RESTRICT bias) {
    static_assert(!(DEPTH && Deconv), "the deconv rows are 2-D only");
    // K > 0: compile-time kernel extent — the kx/ky loops below fully
    // unroll and every weight index folds into a constant displacement.
    const index_t kk = K > 0 ? index_t(K) : k;
    const index_t nz = DEPTH ? nkz : 1;
    index_t ky0, ky1, xlo, xhi;
    if (Deconv) {
      ky0 = std::max<index_t>(0, oy + pad - h + 1);
      ky1 = std::min<index_t>(kk, oy + pad + 1);
      xlo = std::min<index_t>(std::max<index_t>(0, kk - 1 - pad), wo);
      xhi = std::max(xlo, std::min<index_t>(wo, w - pad));
    } else {
      ky0 = std::max<index_t>(0, pad - oy);
      ky1 = std::min<index_t>(kk, h + pad - oy);
      xlo = std::min<index_t>(pad, wo);
      xhi = std::max(xlo, std::min<index_t>(wo, w - kk + pad + 1));
    }
    index_t ox = 0;
    for (; ox < xlo; ++ox) {
      conv_point_q<NCO, Deconv>(in, wgt, wstride_ci, wstride_co, out,
                                ostride_co, cin, cstride, nz, h, w, k, oy,
                                ox, pad, bias);
    }
    constexpr index_t step = Deconv ? -1 : 1;  // input step per tap
    const index_t iy0 = Deconv ? oy + pad : oy - pad;
    // Double-wide interior: two 8-lane column blocks per pass share
    // every weight broadcast, giving up to eight independent chains in
    // flight. Column block [ox+8, ox+16) sees the identical tap stream
    // it would in the single-block pass below.
    for (; ox + 16 <= xhi; ox += 16) {
      v8 a0 = V::set1(bias[0]), b0 = a0;
      v8 a1 = NCO > 1 ? V::set1(bias[1]) : V::zero(), b1 = a1;
      v8 a2 = NCO > 2 ? V::set1(bias[2]) : V::zero(), b2 = a2;
      v8 a3 = NCO > 3 ? V::set1(bias[3]) : V::zero(), b3 = a3;
      const index_t ix0 = Deconv ? ox + pad : ox - pad;
      for (index_t ci = 0; ci < cin; ++ci) {
        for (index_t kz = 0; kz < nz; ++kz) {
          const float* inp = in + ci * cstride + kz * h * w;
          const float* w0 = wgt + ci * wstride_ci + kz * kk * kk;
          const float* w1 = w0 + wstride_co;
          const float* w2 = w1 + wstride_co;
          const float* w3 = w2 + wstride_co;
          for (index_t ky = ky0; ky < ky1; ++ky) {
            const float* row = inp + (iy0 + step * ky) * w + ix0;
            const index_t kb = ky * kk;
            for (index_t kx = 0; kx < kk; ++kx) {
              const v8 v = V::loadu(row + step * kx);
              const v8 u = V::loadu(row + step * kx + 8);
              const v8 wv0 = V::set1(w0[kb + kx]);
              a0 = V::madd(a0, v, wv0);
              b0 = V::madd(b0, u, wv0);
              if (NCO > 1) {
                const v8 wv1 = V::set1(w1[kb + kx]);
                a1 = V::madd(a1, v, wv1);
                b1 = V::madd(b1, u, wv1);
              }
              if (NCO > 2) {
                const v8 wv2 = V::set1(w2[kb + kx]);
                a2 = V::madd(a2, v, wv2);
                b2 = V::madd(b2, u, wv2);
              }
              if (NCO > 3) {
                const v8 wv3 = V::set1(w3[kb + kx]);
                a3 = V::madd(a3, v, wv3);
                b3 = V::madd(b3, u, wv3);
              }
            }
          }
        }
      }
      V::storeu(out + ox, a0);
      V::storeu(out + ox + 8, b0);
      if (NCO > 1) {
        V::storeu(out + ostride_co + ox, a1);
        V::storeu(out + ostride_co + ox + 8, b1);
      }
      if (NCO > 2) {
        V::storeu(out + 2 * ostride_co + ox, a2);
        V::storeu(out + 2 * ostride_co + ox + 8, b2);
      }
      if (NCO > 3) {
        V::storeu(out + 3 * ostride_co + ox, a3);
        V::storeu(out + 3 * ostride_co + ox + 8, b3);
      }
    }
    for (; ox + 8 <= xhi; ox += 8) {
      // Hand-unrolled accumulators (not an array: the named values must
      // live in registers — a rolled j-loop leaves them on the stack
      // and re-serializes the chains through store-forwarding).
      v8 a0 = V::set1(bias[0]);
      v8 a1 = NCO > 1 ? V::set1(bias[1]) : V::zero();
      v8 a2 = NCO > 2 ? V::set1(bias[2]) : V::zero();
      v8 a3 = NCO > 3 ? V::set1(bias[3]) : V::zero();
      const index_t ix0 = Deconv ? ox + pad : ox - pad;
      for (index_t ci = 0; ci < cin; ++ci) {
        for (index_t kz = 0; kz < nz; ++kz) {
          const float* inp = in + ci * cstride + kz * h * w;
          const float* w0 = wgt + ci * wstride_ci + kz * kk * kk;
          const float* w1 = w0 + wstride_co;
          const float* w2 = w1 + wstride_co;
          const float* w3 = w2 + wstride_co;
          for (index_t ky = ky0; ky < ky1; ++ky) {
            const float* row = inp + (iy0 + step * ky) * w + ix0;
            const index_t kb = ky * kk;
            for (index_t kx = 0; kx < kk; ++kx) {
              const v8 v = V::loadu(row + step * kx);
              a0 = V::madd(a0, v, V::set1(w0[kb + kx]));
              if (NCO > 1) a1 = V::madd(a1, v, V::set1(w1[kb + kx]));
              if (NCO > 2) a2 = V::madd(a2, v, V::set1(w2[kb + kx]));
              if (NCO > 3) a3 = V::madd(a3, v, V::set1(w3[kb + kx]));
            }
          }
        }
      }
      V::storeu(out + ox, a0);
      if (NCO > 1) V::storeu(out + ostride_co + ox, a1);
      if (NCO > 2) V::storeu(out + 2 * ostride_co + ox, a2);
      if (NCO > 3) V::storeu(out + 3 * ostride_co + ox, a3);
    }
    for (; ox < wo; ++ox) {
      conv_point_q<NCO, Deconv>(in, wgt, wstride_ci, wstride_co, out,
                                ostride_co, cin, cstride, nz, h, w, k, oy,
                                ox, pad, bias);
    }
  }

  template <bool DEPTH, bool Deconv>
  static void conv_rowq(const float* in, const float* wgt,
                        index_t wstride_ci, index_t wstride_co, float* out,
                        index_t ostride_co, int nco, index_t cin,
                        index_t cstride, index_t nkz, index_t h, index_t w,
                        index_t k, index_t oy, index_t pad, index_t wo,
                        const float* bias) {
    with_nco(nco, [&](auto nc) {
      with_k(k, [&](auto kc) {
        conv2d_rowq_body<decltype(nc)::value, decltype(kc)::value, DEPTH,
                         Deconv>(in, wgt, wstride_ci, wstride_co, out,
                                 ostride_co, cin, cstride, nkz, h, w, k, oy,
                                 pad, wo, bias);
      });
    });
  }

  static void conv2d_row4_s1(const float* in, const float* wgt,
                             index_t wstride_ci, index_t wstride_co,
                             float* out, index_t ostride_co, int nco,
                             index_t cin, index_t h, index_t w, index_t k,
                             index_t oy, index_t pad, index_t wo,
                             const float* bias, bool deconv) {
    with_dir(deconv, [&](auto dc) {
      conv_rowq<false, decltype(dc)::value>(in, wgt, wstride_ci, wstride_co,
                                            out, ostride_co, nco, cin, h * w,
                                            1, h, w, k, oy, pad, wo, bias);
    });
  }

  static void conv3d_row4_s1(const float* in, const float* wgt, float* out,
                             index_t ostride_co, int nco, index_t cin,
                             index_t d, index_t h, index_t w, index_t k,
                             index_t oz, index_t oy, index_t pad,
                             index_t wo, const float* bias) {
    // Depth taps iz = oz - pad + kz outside [0, d) are skipped, as the
    // in-plane ones are: start at the first in-range plane.
    const index_t kz0 = std::max<index_t>(0, pad - oz);
    const index_t nkz = std::max<index_t>(
        0, std::min<index_t>(k, d + pad - oz) - kz0);
    if (nkz > 0) {
      in += (oz - pad + kz0) * h * w;
      wgt += kz0 * k * k;
    }
    conv_rowq<true, false>(in, wgt, k * k * k, cin * k * k * k, out,
                           ostride_co, nco, cin, d * h * w, nkz, h, w, k, oy,
                           pad, wo, bias);
  }

  // ----- conv2d / deconv2d gradients --------------------------------

  // Input gradient, one row y for NC channels (see grad_input_point_q).
  // At stride 1 a column is interior when every kx tap is in range;
  // interior columns run 16 then 8 lanes per pass, each lane replaying
  // the point's (ky, kx, j) tap order, and every other column — and
  // every column at stride > 1 — runs the point itself.
  template <bool FLIP, int NC>
  static void grad_input_rowq(const float* CCOVID_RESTRICT go, index_t nj,
                              index_t ho, index_t wo,
                              const float* CCOVID_RESTRICT wgt,
                              index_t wstride_j, index_t wstride_c,
                              float* CCOVID_RESTRICT gin,
                              index_t gin_cstride, index_t w, index_t k,
                              index_t stride, index_t pad, index_t y) {
    index_t x = 0;
    if (stride == 1) {
      // FLIP: oy = y + pad - ky, ox = x + pad - kx; else y - pad + ky.
      const index_t ky0 = FLIP ? std::max<index_t>(0, y + pad - ho + 1)
                               : std::max<index_t>(0, pad - y);
      const index_t ky1 = FLIP ? std::min<index_t>(k, y + pad + 1)
                               : std::min<index_t>(k, ho + pad - y);
      const index_t xlo = std::min<index_t>(
          FLIP ? std::max<index_t>(0, k - 1 - pad) : pad, w);
      const index_t xhi = std::max(
          xlo, std::min<index_t>(w, FLIP ? wo - pad : wo - k + pad + 1));
      const index_t plane = ho * wo;
      const index_t dx = FLIP ? -1 : 1;
      for (; x < xlo; ++x) {
        grad_input_point_q<FLIP, NC>(go, nj, ho, wo, wgt, wstride_j,
                                     wstride_c, gin, gin_cstride, k, stride,
                                     pad, y, x);
      }
      for (; x + 16 <= xhi; x += 16) {
        v8 a0 = V::zero(), b0 = a0, a1 = a0, b1 = a0, a2 = a0, b2 = a0,
           a3 = a0, b3 = a0;
        for (index_t ky = ky0; ky < ky1; ++ky) {
          const index_t oy = FLIP ? y + pad - ky : y - pad + ky;
          const float* grow = go + oy * wo + (FLIP ? x + pad : x - pad);
          for (index_t kx = 0; kx < k; ++kx) {
            const float* g = grow + dx * kx;
            const float* wp = wgt + ky * k + kx;
            for (index_t j = 0; j < nj; ++j) {
              const v8 v = V::loadu(g + j * plane);
              const v8 u = V::loadu(g + j * plane + 8);
              const float* wj = wp + j * wstride_j;
              const v8 w0 = V::set1(wj[0]);
              a0 = V::madd(a0, v, w0);
              b0 = V::madd(b0, u, w0);
              if (NC > 1) {
                const v8 w1 = V::set1(wj[wstride_c]);
                a1 = V::madd(a1, v, w1);
                b1 = V::madd(b1, u, w1);
              }
              if (NC > 2) {
                const v8 w2 = V::set1(wj[2 * wstride_c]);
                a2 = V::madd(a2, v, w2);
                b2 = V::madd(b2, u, w2);
              }
              if (NC > 3) {
                const v8 w3 = V::set1(wj[3 * wstride_c]);
                a3 = V::madd(a3, v, w3);
                b3 = V::madd(b3, u, w3);
              }
            }
          }
        }
        V::storeu(gin + x, a0);
        V::storeu(gin + x + 8, b0);
        if (NC > 1) {
          V::storeu(gin + gin_cstride + x, a1);
          V::storeu(gin + gin_cstride + x + 8, b1);
        }
        if (NC > 2) {
          V::storeu(gin + 2 * gin_cstride + x, a2);
          V::storeu(gin + 2 * gin_cstride + x + 8, b2);
        }
        if (NC > 3) {
          V::storeu(gin + 3 * gin_cstride + x, a3);
          V::storeu(gin + 3 * gin_cstride + x + 8, b3);
        }
      }
      for (; x + 8 <= xhi; x += 8) {
        v8 a0 = V::zero(), a1 = a0, a2 = a0, a3 = a0;
        for (index_t ky = ky0; ky < ky1; ++ky) {
          const index_t oy = FLIP ? y + pad - ky : y - pad + ky;
          const float* grow = go + oy * wo + (FLIP ? x + pad : x - pad);
          for (index_t kx = 0; kx < k; ++kx) {
            const float* g = grow + dx * kx;
            const float* wp = wgt + ky * k + kx;
            for (index_t j = 0; j < nj; ++j) {
              const v8 v = V::loadu(g + j * plane);
              const float* wj = wp + j * wstride_j;
              a0 = V::madd(a0, v, V::set1(wj[0]));
              if (NC > 1) a1 = V::madd(a1, v, V::set1(wj[wstride_c]));
              if (NC > 2) a2 = V::madd(a2, v, V::set1(wj[2 * wstride_c]));
              if (NC > 3) a3 = V::madd(a3, v, V::set1(wj[3 * wstride_c]));
            }
          }
        }
        V::storeu(gin + x, a0);
        if (NC > 1) V::storeu(gin + gin_cstride + x, a1);
        if (NC > 2) V::storeu(gin + 2 * gin_cstride + x, a2);
        if (NC > 3) V::storeu(gin + 3 * gin_cstride + x, a3);
      }
    }
    for (; x < w; ++x) {
      grad_input_point_q<FLIP, NC>(go, nj, ho, wo, wgt, wstride_j,
                                   wstride_c, gin, gin_cstride, k, stride,
                                   pad, y, x);
    }
  }

  static void grad_input_row4(const float* go, index_t nj, index_t ho,
                              index_t wo, const float* wgt,
                              index_t wstride_j, index_t wstride_c,
                              float* gin, index_t gin_cstride, int nc,
                              index_t w, index_t k, index_t stride,
                              index_t pad, index_t y, bool flip) {
    with_dir(flip, [&](auto fc) {
      with_nco(nc, [&](auto ncc) {
        grad_input_rowq<decltype(fc)::value, decltype(ncc)::value>(
            go, nj, ho, wo, wgt, wstride_j, wstride_c, gin, gin_cstride, w,
            k, stride, pad, y);
      });
    });
  }

  // Weight gradient, taps [kx0, kx0 + 4*NG) of filter row ky for NB
  // planes, fed by one row of A: lane l of group g accumulates tap
  // kx0 + 4g + l in double at acc[b * acc_bstride + kx0 + 4g + l].
  // Columns whose every lane reads inside the B row run the f64 lanes;
  // the rest add their in-range taps one by one. Either way each tap
  // sees the row's columns in ascending order. Lanes past the last tap
  // accumulate values nobody reads.
  template <int NB, int NG>
  static void grad_weight_taps(const float* CCOVID_RESTRICT arow,
                               index_t wa, const float* CCOVID_RESTRICT brow,
                               index_t b_cstride, index_t wb, index_t k,
                               index_t kx0, index_t stride, index_t pad,
                               double* CCOVID_RESTRICT acc,
                               index_t acc_bstride) {
    const index_t kx1 = std::min<index_t>(k, kx0 + 4 * NG);
    // Interior: 0 <= x*stride - pad + kx0 and x*stride - pad + kx0 +
    // 4*NG <= wb.
    const index_t lo = pad - kx0;
    const index_t hi = wb + pad - kx0 - 4 * NG;
    const index_t xlo =
        std::min<index_t>(wa, lo <= 0 ? 0 : (lo + stride - 1) / stride);
    const index_t xhi = std::max<index_t>(
        xlo, std::min<index_t>(wa, hi < 0 ? 0 : hi / stride + 1));
    auto scalar_cols = [&](index_t x0, index_t x1) {
      for (index_t x = x0; x < x1; ++x) {
        const double av = arow[x];
        const index_t ix0 = x * stride - pad;
        for (int b = 0; b < NB; ++b) {
          const float* bp = brow + b * b_cstride;
          double* ab = acc + b * acc_bstride;
          for (index_t kx = kx0; kx < kx1; ++kx) {
            const index_t ix = ix0 + kx;
            if (ix < 0 || ix >= wb) continue;
            ab[kx] += av * static_cast<double>(bp[ix]);
          }
        }
      }
    };
    scalar_cols(0, xlo);
    if (xlo < xhi) {
      double* c = acc + kx0;
      const index_t bs = acc_bstride;
      d4 c00 = V::loadu_d(c), c01 = NG > 1 ? V::loadu_d(c + 4) : c00;
      d4 c10 = c00, c11 = c00, c20 = c00, c21 = c00, c30 = c00, c31 = c00;
      if (NB > 1) {
        c10 = V::loadu_d(c + bs);
        if (NG > 1) c11 = V::loadu_d(c + bs + 4);
      }
      if (NB > 2) {
        c20 = V::loadu_d(c + 2 * bs);
        if (NG > 1) c21 = V::loadu_d(c + 2 * bs + 4);
      }
      if (NB > 3) {
        c30 = V::loadu_d(c + 3 * bs);
        if (NG > 1) c31 = V::loadu_d(c + 3 * bs + 4);
      }
      for (index_t x = xlo; x < xhi; ++x) {
        const d4 av = V::set1_d(arow[x]);
        const float* bx = brow + x * stride - pad + kx0;
        c00 = V::madd_d(c00, av, V::widen4(bx));
        if (NG > 1) c01 = V::madd_d(c01, av, V::widen4(bx + 4));
        if (NB > 1) {
          c10 = V::madd_d(c10, av, V::widen4(bx + b_cstride));
          if (NG > 1) c11 = V::madd_d(c11, av, V::widen4(bx + b_cstride + 4));
        }
        if (NB > 2) {
          const float* b2 = bx + 2 * b_cstride;
          c20 = V::madd_d(c20, av, V::widen4(b2));
          if (NG > 1) c21 = V::madd_d(c21, av, V::widen4(b2 + 4));
        }
        if (NB > 3) {
          const float* b3 = bx + 3 * b_cstride;
          c30 = V::madd_d(c30, av, V::widen4(b3));
          if (NG > 1) c31 = V::madd_d(c31, av, V::widen4(b3 + 4));
        }
      }
      V::storeu_d(c, c00);
      if (NG > 1) V::storeu_d(c + 4, c01);
      if (NB > 1) {
        V::storeu_d(c + bs, c10);
        if (NG > 1) V::storeu_d(c + bs + 4, c11);
      }
      if (NB > 2) {
        V::storeu_d(c + 2 * bs, c20);
        if (NG > 1) V::storeu_d(c + 2 * bs + 4, c21);
      }
      if (NB > 3) {
        V::storeu_d(c + 3 * bs, c30);
        if (NG > 1) V::storeu_d(c + 3 * bs + 4, c31);
      }
    }
    scalar_cols(xhi, wa);
  }

  // Weight gradient for one A plane and NB consecutive B planes: every
  // (b, ky, kx) tap's double sum over (n, y, x) ascending, in one sweep
  // over A's rows. Filter row ky of A row y reads B row y*stride - pad
  // + ky (skipped when out of range); its taps go in groups of 4 kx
  // lanes, at most two groups per B-row pass.
  template <int NB>
  static void grad_weight_q(const float* a, index_t a_nstride, index_t ha,
                            index_t wa, const float* b, index_t b_nstride,
                            index_t b_cstride, index_t hb, index_t wb,
                            index_t n, index_t k, index_t stride,
                            index_t pad, float* gw) {
    const index_t groups = (k + 3) / 4;
    const index_t kxp = 4 * groups;  // padded accumulator row
    const index_t acc_bstride = k * kxp;
    std::vector<double> acc(static_cast<std::size_t>(NB * acc_bstride),
                            0.0);
    for (index_t ni = 0; ni < n; ++ni) {
      const float* an = a + ni * a_nstride;
      const float* bn = b + ni * b_nstride;
      for (index_t y = 0; y < ha; ++y) {
        const float* arow = an + y * wa;
        for (index_t ky = 0; ky < k; ++ky) {
          const index_t row = y * stride - pad + ky;
          if (row < 0 || row >= hb) continue;
          const float* brow = bn + row * wb;
          double* ak = acc.data() + ky * kxp;
          for (index_t g = 0; g < groups; g += 2) {
            if (groups - g >= 2) {
              grad_weight_taps<NB, 2>(arow, wa, brow, b_cstride, wb, k,
                                      4 * g, stride, pad, ak, acc_bstride);
            } else {
              grad_weight_taps<NB, 1>(arow, wa, brow, b_cstride, wb, k,
                                      4 * g, stride, pad, ak, acc_bstride);
            }
          }
        }
      }
    }
    for (int bi = 0; bi < NB; ++bi) {
      for (index_t ky = 0; ky < k; ++ky) {
        for (index_t kx = 0; kx < k; ++kx) {
          gw[(bi * k + ky) * k + kx] = static_cast<float>(
              acc[static_cast<std::size_t>(bi * acc_bstride + ky * kxp +
                                           kx)]);
        }
      }
    }
  }

  static void grad_weight4(const float* a, index_t a_nstride, index_t ha,
                           index_t wa, const float* b, index_t b_nstride,
                           index_t b_cstride, int nb, index_t hb,
                           index_t wb, index_t n, index_t k, index_t stride,
                           index_t pad, float* gw) {
    with_nco(nb, [&](auto nbc) {
      grad_weight_q<decltype(nbc)::value>(a, a_nstride, ha, wa, b, b_nstride,
                                          b_cstride, hb, wb, n, k, stride,
                                          pad, gw);
    });
  }

  static void scale_shift(const float* CCOVID_RESTRICT x,
                          float* CCOVID_RESTRICT y, index_t n, float scale,
                          float shift) {
    const v8 sc = V::set1(scale), sh = V::set1(shift);
    index_t i = 0;
    for (; i + 8 <= n; i += 8) {
      V::storeu(y + i, V::madd(sh, V::loadu(x + i), sc));
    }
    for (; i < n; ++i) y[i] = scale * x[i] + shift;
  }

  // No restrict: the graph executor runs this in place on a conv
  // output slab (x == y). Per element this is exactly scale_shift
  // followed by relu/leaky_relu, so fused and unfused epilogues agree
  // bitwise at every position (vector body and scalar tail alike).
  static void scale_shift_act(const float* x, float* y, index_t n,
                              float scale, float shift, int act,
                              float slope) {
    const v8 sc = V::set1(scale), sh = V::set1(shift);
    const v8 z = V::zero();
    const v8 sl = V::set1(slope);
    index_t i = 0;
    for (; i + 8 <= n; i += 8) {
      v8 t = V::madd(sh, V::loadu(x + i), sc);
      if (act == 1) {
        t = V::max(t, z);
      } else if (act == 2) {
        t = V::blend_gt0(t, t, V::mul(sl, t));
      }
      V::storeu(y + i, t);
    }
    for (; i < n; ++i) {
      float t = scale * x[i] + shift;
      if (act == 1) {
        t = t > 0.0f ? t : 0.0f;
      } else if (act == 2) {
        t = t > 0.0f ? t : slope * t;
      }
      y[i] = t;
    }
  }

  static void relu(const float* CCOVID_RESTRICT x, float* CCOVID_RESTRICT y,
                   index_t n) {
    const v8 z = V::zero();
    index_t i = 0;
    for (; i + 8 <= n; i += 8) {
      V::storeu(y + i, V::max(V::loadu(x + i), z));
    }
    // Scalar tail keeps maxps semantics: NaN and -0 both map to +0.
    for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }

  static void leaky_relu(const float* CCOVID_RESTRICT x,
                         float* CCOVID_RESTRICT y, index_t n, float slope) {
    const v8 sl = V::set1(slope);
    index_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const v8 v = V::loadu(x + i);
      V::storeu(y + i, V::blend_gt0(v, v, V::mul(sl, v)));
    }
    for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : slope * x[i];
  }

  static void add_scalar(float* CCOVID_RESTRICT y, index_t n, float v) {
    const v8 b = V::set1(v);
    index_t i = 0;
    for (; i + 8 <= n; i += 8) {
      V::storeu(y + i, V::add(V::loadu(y + i), b));
    }
    for (; i < n; ++i) y[i] += v;
  }

  static float dot(const float* CCOVID_RESTRICT a,
                   const float* CCOVID_RESTRICT b, index_t n) {
    v8 acc = V::zero();
    index_t i = 0;
    for (; i + 8 <= n; i += 8) {
      acc = V::madd(acc, V::loadu(a + i), V::loadu(b + i));
    }
    if (i < n) {
      // Zero-filled lanes contribute +0 products; the virtual-lane
      // partials stay identical at every physical width.
      acc = V::madd(acc, V::load_partial(a + i, n - i),
                    V::load_partial(b + i, n - i));
    }
    return V::reduce_add(acc);
  }

  // Border-column scalar path of the half-precision quad kernels: fmaf
  // per tap mirrors the vector V::fmadd lane op (both correctly
  // rounded), keeping border and interior columns on one contract.
  // A member, not a free inline function, so that each backend TU keeps
  // its own copy: the avx2 TU compiles std::fmaf to one vfmadd, the
  // others to a libm call, and a symbol shared across the TUs would
  // give every backend whichever copy the linker kept.
  template <int NCO, bool Deconv>
  static void lowp_conv_point_q(const float* in, const float* wgt,
                                index_t wstride_ci, index_t wstride_co,
                                float* out, index_t ostride_co, index_t cin,
                                index_t h, index_t w, index_t k, index_t oy,
                                index_t ox, index_t pad, const float* bias) {
    float a0 = bias[0];
    float a1 = NCO > 1 ? bias[1] : 0.0f;
    float a2 = NCO > 2 ? bias[2] : 0.0f;
    float a3 = NCO > 3 ? bias[3] : 0.0f;
    constexpr index_t step = Deconv ? -1 : 1;
    const index_t iy0 = Deconv ? oy + pad : oy - pad;
    const index_t ix0 = Deconv ? ox + pad : ox - pad;
    for (index_t ci = 0; ci < cin; ++ci) {
      const float* inp = in + ci * h * w;
      const float* w0 = wgt + ci * wstride_ci;
      const float* w1 = w0 + wstride_co;
      const float* w2 = w1 + wstride_co;
      const float* w3 = w2 + wstride_co;
      for (index_t ky = 0; ky < k; ++ky) {
        const index_t iy = iy0 + step * ky;
        if (iy < 0 || iy >= h) continue;
        for (index_t kx = 0; kx < k; ++kx) {
          const index_t ix = ix0 + step * kx;
          if (ix < 0 || ix >= w) continue;
          const float x = inp[iy * w + ix];
          a0 = std::fmaf(x, w0[ky * k + kx], a0);
          if (NCO > 1) a1 = std::fmaf(x, w1[ky * k + kx], a1);
          if (NCO > 2) a2 = std::fmaf(x, w2[ky * k + kx], a2);
          if (NCO > 3) a3 = std::fmaf(x, w3[ky * k + kx], a3);
        }
      }
    }
    out[ox] = a0;
    if (NCO > 1) out[ostride_co + ox] = a1;
    if (NCO > 2) out[2 * ostride_co + ox] = a2;
    if (NCO > 3) out[3 * ostride_co + ox] = a3;
  }

  // ----- half-precision (fp16/bf16) storage kernels -----------------
  //
  // Structure mirrors conv2d_rowq_body: double-wide then single-wide
  // interior blocks with per-channel accumulator chains, shared-source
  // scalar borders. The input is the fp32 plane the executor widened
  // from fp16/bf16; the difference is V::fmadd instead of V::madd — the
  // low-precision contract allows single-rounding FMA (see core/simd.h).
  // The zero-padded row copy of the partial tail holds the tail's input
  // span left to right, starting at its leftmost column lx0; deconv's
  // reversed taps read it at kk-1-kx instead of kx.
  template <int NCO, int K, bool Deconv>
  static void lowp_conv2d_rowq_body(
      const float* CCOVID_RESTRICT in,
      const float* CCOVID_RESTRICT wgt, index_t wstride_ci,
      index_t wstride_co, float* CCOVID_RESTRICT out, index_t ostride_co,
      index_t cin, index_t h, index_t w, index_t k, index_t oy,
      index_t pad, index_t wo, const float* CCOVID_RESTRICT bias) {
    const index_t kk = K > 0 ? index_t(K) : k;
    index_t ky0, ky1, xlo, xhi;
    if (Deconv) {
      ky0 = std::max<index_t>(0, oy + pad - h + 1);
      ky1 = std::min<index_t>(kk, oy + pad + 1);
      xlo = std::min<index_t>(std::max<index_t>(0, kk - 1 - pad), wo);
      xhi = std::max(xlo, std::min<index_t>(wo, w - pad));
    } else {
      ky0 = std::max<index_t>(0, pad - oy);
      ky1 = std::min<index_t>(kk, h + pad - oy);
      xlo = std::min<index_t>(pad, wo);
      xhi = std::max(xlo, std::min<index_t>(wo, w - kk + pad + 1));
    }
    constexpr index_t step = Deconv ? -1 : 1;  // input step per tap
    const index_t iy0 = Deconv ? oy + pad : oy - pad;
    // Offset of tap kx's input column from the leftmost one a block
    // reads.
    const auto seg_off = [&](index_t kx) {
      return Deconv ? kk - 1 - kx : kx;
    };
    index_t ox = 0;
    for (; ox < xlo; ++ox) {
      lowp_conv_point_q<NCO, Deconv>(in, wgt, wstride_ci, wstride_co, out,
                                     ostride_co, cin, h, w, k, oy, ox, pad,
                                     bias);
    }
    for (; ox + 16 <= xhi; ox += 16) {
      v8 a0 = V::set1(bias[0]), b0 = a0;
      v8 a1 = NCO > 1 ? V::set1(bias[1]) : V::zero(), b1 = a1;
      v8 a2 = NCO > 2 ? V::set1(bias[2]) : V::zero(), b2 = a2;
      v8 a3 = NCO > 3 ? V::set1(bias[3]) : V::zero(), b3 = a3;
      const index_t ix0 = Deconv ? ox + pad : ox - pad;
      for (index_t ci = 0; ci < cin; ++ci) {
        const float* inp = in + ci * h * w;
        const float* w0 = wgt + ci * wstride_ci;
        const float* w1 = w0 + wstride_co;
        const float* w2 = w1 + wstride_co;
        const float* w3 = w2 + wstride_co;
        for (index_t ky = ky0; ky < ky1; ++ky) {
          const float* row = inp + (iy0 + step * ky) * w + ix0;
          const index_t kb = ky * kk;
          #pragma GCC unroll 8
          for (index_t kx = 0; kx < kk; ++kx) {
            const v8 v = V::loadu(row + step * kx);
            const v8 u = V::loadu(row + step * kx + 8);
            const v8 wv0 = V::set1(w0[kb + kx]);
            a0 = V::fmadd(a0, v, wv0);
            b0 = V::fmadd(b0, u, wv0);
            if (NCO > 1) {
              const v8 wv1 = V::set1(w1[kb + kx]);
              a1 = V::fmadd(a1, v, wv1);
              b1 = V::fmadd(b1, u, wv1);
            }
            if (NCO > 2) {
              const v8 wv2 = V::set1(w2[kb + kx]);
              a2 = V::fmadd(a2, v, wv2);
              b2 = V::fmadd(b2, u, wv2);
            }
            if (NCO > 3) {
              const v8 wv3 = V::set1(w3[kb + kx]);
              a3 = V::fmadd(a3, v, wv3);
              b3 = V::fmadd(b3, u, wv3);
            }
          }
        }
      }
      V::storeu(out + ox, a0);
      V::storeu(out + ox + 8, b0);
      if (NCO > 1) {
        V::storeu(out + ostride_co + ox, a1);
        V::storeu(out + ostride_co + ox + 8, b1);
      }
      if (NCO > 2) {
        V::storeu(out + 2 * ostride_co + ox, a2);
        V::storeu(out + 2 * ostride_co + ox + 8, b2);
      }
      if (NCO > 3) {
        V::storeu(out + 3 * ostride_co + ox, a3);
        V::storeu(out + 3 * ostride_co + ox + 8, b3);
      }
    }
    for (; ox + 8 <= xhi; ox += 8) {
      v8 a0 = V::set1(bias[0]);
      v8 a1 = NCO > 1 ? V::set1(bias[1]) : V::zero();
      v8 a2 = NCO > 2 ? V::set1(bias[2]) : V::zero();
      v8 a3 = NCO > 3 ? V::set1(bias[3]) : V::zero();
      const index_t ix0 = Deconv ? ox + pad : ox - pad;
      for (index_t ci = 0; ci < cin; ++ci) {
        const float* inp = in + ci * h * w;
        const float* w0 = wgt + ci * wstride_ci;
        const float* w1 = w0 + wstride_co;
        const float* w2 = w1 + wstride_co;
        const float* w3 = w2 + wstride_co;
        for (index_t ky = ky0; ky < ky1; ++ky) {
          const float* row = inp + (iy0 + step * ky) * w + ix0;
          const index_t kb = ky * kk;
          #pragma GCC unroll 8
          for (index_t kx = 0; kx < kk; ++kx) {
            const v8 v = V::loadu(row + step * kx);
            a0 = V::fmadd(a0, v, V::set1(w0[kb + kx]));
            if (NCO > 1) a1 = V::fmadd(a1, v, V::set1(w1[kb + kx]));
            if (NCO > 2) a2 = V::fmadd(a2, v, V::set1(w2[kb + kx]));
            if (NCO > 3) a3 = V::fmadd(a3, v, V::set1(w3[kb + kx]));
          }
        }
      }
      V::storeu(out + ox, a0);
      if (NCO > 1) V::storeu(out + ostride_co + ox, a1);
      if (NCO > 2) V::storeu(out + 2 * ostride_co + ox, a2);
      if (NCO > 3) V::storeu(out + 3 * ostride_co + ox, a3);
    }
    if (ox < xhi && kk <= 8) {
      // Partial-width interior tail. Same fmadd lanes as the blocks
      // above over a zero-padded stack copy of the row segment; only
      // the live lanes are stored, so each output's bits match the
      // scalar border path exactly. Without this, narrow rows (e.g.
      // w=128 leaves up to 7 interior columns after the 16/8-wide
      // blocks) fall to the scalar path at ~8x the per-column cost,
      // diluting the FMA advantage of the low-precision contract.
      const index_t n = xhi - ox;  // 1..7 live columns
      v8 a0 = V::set1(bias[0]);
      v8 a1 = NCO > 1 ? V::set1(bias[1]) : V::zero();
      v8 a2 = NCO > 2 ? V::set1(bias[2]) : V::zero();
      v8 a3 = NCO > 3 ? V::set1(bias[3]) : V::zero();
      const index_t lx0 = Deconv ? ox + pad - (kk - 1) : ox - pad;
      float rb[16];
      for (index_t ci = 0; ci < cin; ++ci) {
        const float* inp = in + ci * h * w;
        const float* w0 = wgt + ci * wstride_ci;
        const float* w1 = w0 + wstride_co;
        const float* w2 = w1 + wstride_co;
        const float* w3 = w2 + wstride_co;
        for (index_t ky = ky0; ky < ky1; ++ky) {
          const float* base = inp + (iy0 + step * ky) * w + lx0;
          const index_t kb = ky * kk;
          const index_t live = n + kk - 1;
          for (index_t t = 0; t < live; ++t) rb[t] = base[t];
          for (index_t t = live; t < 15; ++t) rb[t] = 0.0f;
          #pragma GCC unroll 8
          for (index_t kx = 0; kx < kk; ++kx) {
            const v8 v = V::loadu(rb + seg_off(kx));
            a0 = V::fmadd(a0, v, V::set1(w0[kb + kx]));
            if (NCO > 1) a1 = V::fmadd(a1, v, V::set1(w1[kb + kx]));
            if (NCO > 2) a2 = V::fmadd(a2, v, V::set1(w2[kb + kx]));
            if (NCO > 3) a3 = V::fmadd(a3, v, V::set1(w3[kb + kx]));
          }
        }
      }
      float tb[8];
      V::storeu(tb, a0);
      for (index_t j = 0; j < n; ++j) out[ox + j] = tb[j];
      if (NCO > 1) {
        V::storeu(tb, a1);
        for (index_t j = 0; j < n; ++j) out[ostride_co + ox + j] = tb[j];
      }
      if (NCO > 2) {
        V::storeu(tb, a2);
        for (index_t j = 0; j < n; ++j)
          out[2 * ostride_co + ox + j] = tb[j];
      }
      if (NCO > 3) {
        V::storeu(tb, a3);
        for (index_t j = 0; j < n; ++j)
          out[3 * ostride_co + ox + j] = tb[j];
      }
      ox = xhi;
    }
    for (; ox < wo; ++ox) {
      lowp_conv_point_q<NCO, Deconv>(in, wgt, wstride_ci, wstride_co, out,
                                     ostride_co, cin, h, w, k, oy, ox, pad,
                                     bias);
    }
  }

  // The quad body of conv2d_row8_s1_fma: direction, channel count and
  // extent become template arguments.
  static void lowp_row4(const float* in, const float* wgt,
                        index_t wstride_ci, index_t wstride_co, float* out,
                        index_t ostride_co, int nco, index_t cin, index_t h,
                        index_t w, index_t k, index_t oy, index_t pad,
                        index_t wo, const float* bias, bool deconv) {
    with_dir(deconv, [&](auto dc) {
      with_nco(nco, [&](auto nc) {
        with_k(k, [&](auto kc) {
          lowp_conv2d_rowq_body<decltype(nc)::value, decltype(kc)::value,
                                decltype(dc)::value>(
              in, wgt, wstride_ci, wstride_co, out, ostride_co, cin, h, w, k,
              oy, pad, wo, bias);
        });
      });
    });
  }

  // ---- octet (up to 8 output channels) f32 fma row body ------------
  //
  // Same per-output arithmetic as the lowp_row4 quad path: each output
  // channel's (ci, ky, kx) fmadd order is untouched, so regrouping
  // output channels eight at a time changes no bits. What it changes
  // is input traffic — the graph executor walks the (widened) input
  // once per output-channel group, and the DDnet dense-layer convs
  // (co = 8, k = 5) are memory-bound at 128px, so halving the passes
  // buys more than further ALU tuning. Eight v8 accumulators plus the
  // input vector still fit the 16 architectural ymm registers.
  template <int NCO, int K, bool Deconv>
  static void f32_row8_body(const float* CCOVID_RESTRICT in,
                            const float* CCOVID_RESTRICT wgt,
                            index_t wstride_ci, index_t wstride_co,
                            float* CCOVID_RESTRICT out, index_t ostride_co,
                            index_t cin, index_t h, index_t w, index_t k,
                            index_t oy, index_t pad, index_t wo,
                            const float* CCOVID_RESTRICT bias) {
    static_assert(NCO >= 5 && NCO <= 8, "quartets go through lowp_row4");
    const index_t kk = K > 0 ? index_t(K) : k;
    index_t ky0, ky1, xlo, xhi;
    if (Deconv) {
      ky0 = std::max<index_t>(0, oy + pad - h + 1);
      ky1 = std::min<index_t>(kk, oy + pad + 1);
      xlo = std::min<index_t>(std::max<index_t>(0, kk - 1 - pad), wo);
      xhi = std::max(xlo, std::min<index_t>(wo, w - pad));
    } else {
      ky0 = std::max<index_t>(0, pad - oy);
      ky1 = std::min<index_t>(kk, h + pad - oy);
      xlo = std::min<index_t>(pad, wo);
      xhi = std::max(xlo, std::min<index_t>(wo, w - kk + pad + 1));
    }
    constexpr index_t step = Deconv ? -1 : 1;  // input step per tap
    const index_t iy0 = Deconv ? oy + pad : oy - pad;
    // Border columns: the quartet point helpers, twice (channels 0..3
    // and 4..NCO-1) — bitwise the same fmaf chain per channel.
    const auto point = [&](index_t ox) {
      lowp_conv_point_q<4, Deconv>(in, wgt, wstride_ci, wstride_co, out,
                                   ostride_co, cin, h, w, k, oy, ox, pad,
                                   bias);
      lowp_conv_point_q<NCO - 4, Deconv>(
          in, wgt + 4 * wstride_co, wstride_ci, wstride_co,
          out + 4 * ostride_co, ostride_co, cin, h, w, k, oy, ox, pad,
          bias + 4);
    };
    index_t ox = 0;
    for (; ox < xlo; ++ox) point(ox);
    for (; ox + 8 <= xhi; ox += 8) {
      v8 a0 = V::set1(bias[0]);
      v8 a1 = V::set1(bias[1]);
      v8 a2 = V::set1(bias[2]);
      v8 a3 = V::set1(bias[3]);
      v8 a4 = V::set1(bias[4]);
      v8 a5 = NCO > 5 ? V::set1(bias[5]) : V::zero();
      v8 a6 = NCO > 6 ? V::set1(bias[6]) : V::zero();
      v8 a7 = NCO > 7 ? V::set1(bias[7]) : V::zero();
      const index_t ix0 = Deconv ? ox + pad : ox - pad;
      for (index_t ci = 0; ci < cin; ++ci) {
        const float* inp = in + ci * h * w;
        const float* wp = wgt + ci * wstride_ci;
        for (index_t ky = ky0; ky < ky1; ++ky) {
          const float* row = inp + (iy0 + step * ky) * w + ix0;
          const index_t kb = ky * kk;
          #pragma GCC unroll 8
          for (index_t kx = 0; kx < kk; ++kx) {
            const v8 v = V::loadu(row + step * kx);
            a0 = V::fmadd(a0, v, V::set1(wp[kb + kx]));
            a1 = V::fmadd(a1, v, V::set1(wp[wstride_co + kb + kx]));
            a2 = V::fmadd(a2, v, V::set1(wp[2 * wstride_co + kb + kx]));
            a3 = V::fmadd(a3, v, V::set1(wp[3 * wstride_co + kb + kx]));
            a4 = V::fmadd(a4, v, V::set1(wp[4 * wstride_co + kb + kx]));
            if (NCO > 5) {
              a5 = V::fmadd(a5, v, V::set1(wp[5 * wstride_co + kb + kx]));
            }
            if (NCO > 6) {
              a6 = V::fmadd(a6, v, V::set1(wp[6 * wstride_co + kb + kx]));
            }
            if (NCO > 7) {
              a7 = V::fmadd(a7, v, V::set1(wp[7 * wstride_co + kb + kx]));
            }
          }
        }
      }
      V::storeu(out + ox, a0);
      V::storeu(out + ostride_co + ox, a1);
      V::storeu(out + 2 * ostride_co + ox, a2);
      V::storeu(out + 3 * ostride_co + ox, a3);
      V::storeu(out + 4 * ostride_co + ox, a4);
      if (NCO > 5) V::storeu(out + 5 * ostride_co + ox, a5);
      if (NCO > 6) V::storeu(out + 6 * ostride_co + ox, a6);
      if (NCO > 7) V::storeu(out + 7 * ostride_co + ox, a7);
    }
    if (ox < xhi && kk <= 8) {
      // Partial-width interior tail over a zero-padded stack copy —
      // same bit-equality argument as the row4 bodies.
      const index_t n = xhi - ox;  // 1..7 live columns
      v8 a0 = V::set1(bias[0]);
      v8 a1 = V::set1(bias[1]);
      v8 a2 = V::set1(bias[2]);
      v8 a3 = V::set1(bias[3]);
      v8 a4 = V::set1(bias[4]);
      v8 a5 = NCO > 5 ? V::set1(bias[5]) : V::zero();
      v8 a6 = NCO > 6 ? V::set1(bias[6]) : V::zero();
      v8 a7 = NCO > 7 ? V::set1(bias[7]) : V::zero();
      const index_t lx0 = Deconv ? ox + pad - (kk - 1) : ox - pad;
      float rb[16];
      for (index_t ci = 0; ci < cin; ++ci) {
        const float* inp = in + ci * h * w;
        const float* wp = wgt + ci * wstride_ci;
        for (index_t ky = ky0; ky < ky1; ++ky) {
          const float* row = inp + (iy0 + step * ky) * w + lx0;
          const index_t kb = ky * kk;
          const index_t live = n + kk - 1;
          for (index_t t = 0; t < live; ++t) rb[t] = row[t];
          for (index_t t = live; t < 15; ++t) rb[t] = 0.0f;
          #pragma GCC unroll 8
          for (index_t kx = 0; kx < kk; ++kx) {
            const v8 v = V::loadu(rb + (Deconv ? kk - 1 - kx : kx));
            a0 = V::fmadd(a0, v, V::set1(wp[kb + kx]));
            a1 = V::fmadd(a1, v, V::set1(wp[wstride_co + kb + kx]));
            a2 = V::fmadd(a2, v, V::set1(wp[2 * wstride_co + kb + kx]));
            a3 = V::fmadd(a3, v, V::set1(wp[3 * wstride_co + kb + kx]));
            a4 = V::fmadd(a4, v, V::set1(wp[4 * wstride_co + kb + kx]));
            if (NCO > 5) {
              a5 = V::fmadd(a5, v, V::set1(wp[5 * wstride_co + kb + kx]));
            }
            if (NCO > 6) {
              a6 = V::fmadd(a6, v, V::set1(wp[6 * wstride_co + kb + kx]));
            }
            if (NCO > 7) {
              a7 = V::fmadd(a7, v, V::set1(wp[7 * wstride_co + kb + kx]));
            }
          }
        }
      }
      float tb[8];
      const auto store_n = [&](v8 acc, index_t co) {
        V::storeu(tb, acc);
        for (index_t j = 0; j < n; ++j) out[co * ostride_co + ox + j] = tb[j];
      };
      store_n(a0, 0);
      store_n(a1, 1);
      store_n(a2, 2);
      store_n(a3, 3);
      store_n(a4, 4);
      if (NCO > 5) store_n(a5, 5);
      if (NCO > 6) store_n(a6, 6);
      if (NCO > 7) store_n(a7, 7);
      ox = xhi;
    }
    for (; ox < wo; ++ox) point(ox);
  }

  template <bool Deconv>
  static void f32_row8(const float* in, const float* wgt,
                       index_t wstride_ci, index_t wstride_co, float* out,
                       index_t ostride_co, int nco, index_t cin, index_t h,
                       index_t w, index_t k, index_t oy, index_t pad,
                       index_t wo, const float* bias) {
    const auto run = [&](auto nc) {
      with_k(k, [&](auto kc) {
        f32_row8_body<decltype(nc)::value, decltype(kc)::value, Deconv>(
            in, wgt, wstride_ci, wstride_co, out, ostride_co, cin, h, w, k,
            oy, pad, wo, bias);
      });
    };
    switch (nco) {
      case 5: run(std::integral_constant<int, 5>{}); break;
      case 6: run(std::integral_constant<int, 6>{}); break;
      case 7: run(std::integral_constant<int, 7>{}); break;
      default: run(std::integral_constant<int, 8>{}); break;
    }
  }

  static void conv2d_row8_s1_fma(const float* in, const float* wgt,
                                 index_t wstride_ci, index_t wstride_co,
                                 float* out, index_t ostride_co, int nco,
                                 index_t cin, index_t h, index_t w,
                                 index_t k, index_t oy, index_t pad,
                                 index_t wo, const float* bias,
                                 bool deconv) {
    if (nco <= 4) {
      lowp_row4(in, wgt, wstride_ci, wstride_co, out, ostride_co, nco, cin,
                h, w, k, oy, pad, wo, bias, deconv);
      return;
    }
    with_dir(deconv, [&](auto dc) {
      f32_row8<decltype(dc)::value>(in, wgt, wstride_ci, wstride_co, out,
                                    ostride_co, nco, cin, h, w, k, oy, pad,
                                    wo, bias);
    });
  }

  // Converting epilogue stores: the affine/activation expression is the
  // one from scale_shift_act (two-rounding madd — identical fp32 bits
  // to the fp32-mode epilogue); only the store narrows with RNE.
  static void scale_shift_act_store_f16(const float* x, std::uint16_t* y,
                                        index_t n, float scale, float shift,
                                        int act, float slope) {
    const v8 sc = V::set1(scale), sh = V::set1(shift);
    const v8 z = V::zero();
    const v8 sl = V::set1(slope);
    index_t i = 0;
    for (; i + 8 <= n; i += 8) {
      v8 t = V::madd(sh, V::loadu(x + i), sc);
      if (act == 1) {
        t = V::max(t, z);
      } else if (act == 2) {
        t = V::blend_gt0(t, t, V::mul(sl, t));
      }
      V::storeu_f16(y + i, t);
    }
    for (; i < n; ++i) {
      float t = scale * x[i] + shift;
      if (act == 1) {
        t = t > 0.0f ? t : 0.0f;
      } else if (act == 2) {
        t = t > 0.0f ? t : slope * t;
      }
      y[i] = f32_to_f16_bits_ftz(t);
    }
  }

  static void scale_shift_act_store_bf16(const float* x, std::uint16_t* y,
                                         index_t n, float scale,
                                         float shift, int act,
                                         float slope) {
    const v8 sc = V::set1(scale), sh = V::set1(shift);
    const v8 z = V::zero();
    const v8 sl = V::set1(slope);
    index_t i = 0;
    for (; i + 8 <= n; i += 8) {
      v8 t = V::madd(sh, V::loadu(x + i), sc);
      if (act == 1) {
        t = V::max(t, z);
      } else if (act == 2) {
        t = V::blend_gt0(t, t, V::mul(sl, t));
      }
      V::storeu_bf16(y + i, t);
    }
    for (; i < n; ++i) {
      float t = scale * x[i] + shift;
      if (act == 1) {
        t = t > 0.0f ? t : 0.0f;
      } else if (act == 2) {
        t = t > 0.0f ? t : slope * t;
      }
      y[i] = f32_to_bf16_bits(t);
    }
  }

  static void cvt_f32_to_f16(const float* x, std::uint16_t* y, index_t n) {
    index_t i = 0;
    for (; i + 8 <= n; i += 8) V::storeu_f16(y + i, V::loadu(x + i));
    for (; i < n; ++i) y[i] = f32_to_f16_bits_ftz(x[i]);
  }
  static void cvt_f16_to_f32(const std::uint16_t* x, float* y, index_t n) {
    index_t i = 0;
    for (; i + 8 <= n; i += 8) V::storeu(y + i, V::loadu_f16(x + i));
    for (; i < n; ++i) y[i] = f16_bits_to_f32(x[i]);
  }
  static void cvt_f32_to_bf16(const float* x, std::uint16_t* y, index_t n) {
    index_t i = 0;
    for (; i + 8 <= n; i += 8) V::storeu_bf16(y + i, V::loadu(x + i));
    for (; i < n; ++i) y[i] = f32_to_bf16_bits(x[i]);
  }
  static void cvt_bf16_to_f32(const std::uint16_t* x, float* y, index_t n) {
    index_t i = 0;
    for (; i + 8 <= n; i += 8) V::storeu(y + i, V::loadu_bf16(x + i));
    for (; i < n; ++i) y[i] = bf16_bits_to_f32(x[i]);
  }

  // ----- probes -----------------------------------------------------
  static void probe_madd(const float* a, const float* b, const float* c,
                         float* out) {
    V::storeu(out, V::madd(V::loadu(c), V::loadu(a), V::loadu(b)));
  }
  static void probe_fmadd(const float* a, const float* b, const float* c,
                          float* out) {
    V::storeu(out, V::fmadd(V::loadu(c), V::loadu(a), V::loadu(b)));
  }
  static void probe_mul(const float* a, const float* b, float* out) {
    V::storeu(out, V::mul(V::loadu(a), V::loadu(b)));
  }
  static void probe_add(const float* a, const float* b, float* out) {
    V::storeu(out, V::add(V::loadu(a), V::loadu(b)));
  }
  static void probe_min(const float* a, const float* b, float* out) {
    V::storeu(out, V::min(V::loadu(a), V::loadu(b)));
  }
  static void probe_max(const float* a, const float* b, float* out) {
    V::storeu(out, V::max(V::loadu(a), V::loadu(b)));
  }
  static float probe_reduce(const float* a) {
    return V::reduce_add(V::loadu(a));
  }
  static void probe_load_partial(const float* p, index_t n, float* out) {
    V::storeu(out, V::load_partial(p, n));
  }
};

template <class V>
KernelTable make_table(const char* name) {
  KernelTable t;
  t.name = name;
  t.conv2d_row_s1 = &Kernels<V>::conv2d_row_s1;
  t.conv2d_row4_s1 = &Kernels<V>::conv2d_row4_s1;
  t.conv3d_row4_s1 = &Kernels<V>::conv3d_row4_s1;
  t.grad_input_row4 = &Kernels<V>::grad_input_row4;
  t.grad_weight4 = &Kernels<V>::grad_weight4;
  t.scale_shift = &Kernels<V>::scale_shift;
  t.scale_shift_act = &Kernels<V>::scale_shift_act;
  t.relu = &Kernels<V>::relu;
  t.leaky_relu = &Kernels<V>::leaky_relu;
  t.add_scalar = &Kernels<V>::add_scalar;
  t.cmul = &V::cmul;
  t.dot = &Kernels<V>::dot;
  t.conv2d_row8_s1_fma = &Kernels<V>::conv2d_row8_s1_fma;
  t.scale_shift_act_store_f16 = &Kernels<V>::scale_shift_act_store_f16;
  t.scale_shift_act_store_bf16 = &Kernels<V>::scale_shift_act_store_bf16;
  t.cvt_f32_to_f16 = &Kernels<V>::cvt_f32_to_f16;
  t.cvt_f16_to_f32 = &Kernels<V>::cvt_f16_to_f32;
  t.cvt_f32_to_bf16 = &Kernels<V>::cvt_f32_to_bf16;
  t.cvt_bf16_to_f32 = &Kernels<V>::cvt_bf16_to_f32;
  // int8 kernels are exact integer arithmetic: one portable body is
  // bitwise-identical everywhere, so scalar/sse2 share it and only the
  // avx2 TU overrides these entries with vpmaddwd versions.
  t.conv2d_row4_s1_i8 = &conv2d_row4_s1_i8_generic;
  t.quant_epilogue_store_i8 = &quant_epilogue_store_i8_generic;
  t.dequant_epilogue_f32 = &dequant_epilogue_f32_generic;
  t.quant_f32_to_i8 = &quant_f32_to_i8_generic;
  t.dequant_i8_to_f32 = &dequant_i8_to_f32_generic;
  t.probe_madd = &Kernels<V>::probe_madd;
  t.probe_fmadd = &Kernels<V>::probe_fmadd;
  t.probe_mul = &Kernels<V>::probe_mul;
  t.probe_add = &Kernels<V>::probe_add;
  t.probe_min = &Kernels<V>::probe_min;
  t.probe_max = &Kernels<V>::probe_max;
  t.probe_reduce = &Kernels<V>::probe_reduce;
  t.probe_load_partial = &Kernels<V>::probe_load_partial;
  return t;
}

// Shared scalar complex-multiply element: the exact mul/sub/add pairing
// every backend (and every vector tail) must reproduce.
inline void cmul_one(double* a, const double* b) {
  const double ar = a[0], ai = a[1];
  const double br = b[0], bi = b[1];
  a[0] = ar * br - ai * bi;
  a[1] = ai * br + ar * bi;
}

}  // namespace

}  // namespace ccovid::simd::detail
