// Fixed-width portable SIMD layer with runtime backend dispatch.
//
// Every vector kernel in the library is written once, against an
// 8-lane f32 vector abstraction (`V::v8`), and compiled three times
// into per-backend translation units:
//
//   scalar  — plain C++ over a float[8] struct (always available; the
//             compiler may still auto-vectorize it, which is fine:
//             auto-vectorization never reassociates FP math at -O2)
//   sse2    — two __m128 halves (x86-64 baseline)
//   avx2    — one __m256 (requires AVX2; selected only when the CPU
//             reports it)
//
// One backend is chosen at first use: CPUID caps the candidates, the
// `CCOVID_SIMD=scalar|sse2|avx2|auto` environment variable (or the
// `--simd` flag on the CLI tools via set_backend_spec) narrows them.
//
// THE LANE-DETERMINISM CONTRACT
//
// Golden digests must be bitwise-identical across scalar/sse2/avx2 and
// across task-engine widths. Two rules make that hold:
//
//  1. Per-output vectorization preserves scalar order. Kernels assign
//     one OUTPUT element per lane (8 output pixels of one row);
//     each lane accumulates its own taps in exactly the order the
//     scalar code does. `madd(acc, a, b)` is specified as acc + (a*b)
//     with TWO roundings — hardware FMA contraction is deliberately
//     not used, because its single rounding would split scalar and
//     AVX2 results. The kernels are memory-bound; the spare multiply
//     port is not the bottleneck.
//
//  2. Cross-lane reductions use the canonical strided-lane tree.
//     When a kernel must sum across lanes (dot products), elements are
//     assigned to lanes round-robin (element i -> lane i%8, tails
//     zero-filled) and reduced with the fixed tree
//         q_i = l_i + l_{i+4}           (i = 0..3)
//         r_0 = q_0 + q_2,  r_1 = q_1 + q_3
//         sum = r_0 + r_1
//     in every backend, including the scalar emulation. The scalar
//     fallback therefore computes the SAME 8 virtual partial sums and
//     the SAME reduction tree as the widest backend — not a sequential
//     sum that happens to be close.
//
// Instrumented op/byte counts (ops/instrumented.h) model logical taps,
// not instructions, so the roofline inputs are backend-independent.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/types.h"

namespace ccovid::simd {

/// Width of the virtual vector: every backend exposes exactly 8 f32
/// lanes, whatever the underlying register width.
inline constexpr int kLanes = 8;

enum class Backend : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Parameters of the fused int8 dequant -> batch-norm/activation ->
/// requant epilogue (see KernelTable::quant_epilogue_store_i8). The
/// int32 conv accumulator for output channel co dequantizes as
///   t = fma(float(acc), m, bias)        (m = s_in * s_w[co])
/// then runs the affine+activation expression of scale_shift_act and
/// requantizes with round-to-nearest-even, clamped to [-127, 127].
struct QuantEpilogueParams {
  float m0 = 1.0f, m1 = 1.0f;        // dequant multiplier per channel
  float bias0 = 0.0f, bias1 = 0.0f;  // conv bias (fp32 domain)
  int has_affine = 0;                // apply scale/shift (+act) when set
  float scale0 = 1.0f, scale1 = 1.0f;
  float shift0 = 0.0f, shift1 = 0.0f;
  int act = 0;  // 0 none, 1 relu, 2 leaky
  float slope = 0.0f;
  float inv_out = 1.0f;  // 1 / s_out for the requantize store
};

/// Dispatch table of vector kernels. One instance per compiled backend;
/// `kernels()` returns the active one. Entries marked "probe_" exist
/// for tests/test_simd.cpp to pin per-primitive bitwise equality across
/// backends; they are trivial wrappers over the lane primitives.
struct KernelTable {
  const char* name;  // "scalar" / "sse2" / "avx2"

  // ----- 2-D forward rows ------------------------------------------
  //
  // Every 2-D forward row entry below computes one stride-1 output row
  // oy in either tap direction, picked by its trailing `deconv` flag:
  //   conv   (deconv = false): iy = oy - pad + ky, ix = ox - pad + kx;
  //   deconv (deconv = true):  iy = oy + pad - ky, ix = ox + pad - kx,
  //          the gather form of the transposed convolution.
  // Each output sums from its bias over taps in ascending (ci, ky, kx)
  // order, skipping out-of-range ones. One direction-templated body per
  // numeric contract serves both directions.

  /// One output row of one output channel. `wstride` is the float
  /// distance between consecutive ci slices of the (k x k) filter
  /// (conv's (Cout, Cin, K, K) layout: k*k; deconv's (Cin, Cout, K, K):
  /// cout*k*k). Border columns run a scalar path with the same tap
  /// order; interior columns run 8 outputs per vector.
  void (*conv2d_row_s1)(const float* in, const float* wgt, index_t wstride,
                        float* out, index_t cin, index_t h, index_t w,
                        index_t k, index_t oy, index_t pad, index_t wo,
                        float bias, bool deconv);

  /// Multi-output-channel row for the graph executor: one output row
  /// for `nco` (1..4) consecutive output channels per call. Filter co j
  /// lives at wgt + j*wstride_co (ci slices wstride_ci apart; conv
  /// weights give wstride_ci = k*k, wstride_co = cin*k*k, deconv
  /// weights wstride_ci = cout*k*k, wstride_co = k*k); its output row at
  /// out + j*ostride_co; its bias at bias[j]. Each channel keeps its OWN
  /// accumulator with the single-channel kernel's tap order, so
  /// per-element results are bitwise identical — the win is purely ILP:
  /// four independent chains share every input-row load instead of one
  /// latency-bound chain per call. Interior columns run 16/8 per pass.
  void (*conv2d_row4_s1)(const float* in, const float* wgt,
                         index_t wstride_ci, index_t wstride_co, float* out,
                         index_t ostride_co, int nco, index_t cin,
                         index_t h, index_t w, index_t k, index_t oy,
                         index_t pad, index_t wo, const float* bias,
                         bool deconv);

  /// One stride-1 conv3d output row (oz, oy) for `nco` (1..4)
  /// consecutive output channels. `in` is one batch item's (cin, d, h,
  /// w) input; filters are contiguous (Cout, Cin, K, K, K) from wgt
  /// (channel co0's); output row j at out + j*ostride_co; bias[j].
  /// Taps run in ascending (ci, kz, ky, kx) order per output, skipping
  /// out-of-range ones — the conv2d_row4_s1 body with a depth-tap loop
  /// between ci and ky — so each output is bitwise the direct scalar
  /// loop's. Interior columns run 16/8 per pass, borders scalar.
  void (*conv3d_row4_s1)(const float* in, const float* wgt, float* out,
                         index_t ostride_co, int nco, index_t cin,
                         index_t d, index_t h, index_t w, index_t k,
                         index_t oz, index_t oy, index_t pad, index_t wo,
                         const float* bias);

  /// Input gradient of conv2d and deconv2d: one row y of `nc` (1..4)
  /// consecutive input-gradient channels,
  ///   gin[c][y][x] = sum_ky sum_kx sum_j go[j][oy][ox] * w(j, c, ky, kx)
  /// over the nj channels of grad_out (ho x wo planes, contiguous).
  /// flip (conv2d's): oy = (y + pad - ky) / stride where it divides
  /// evenly; otherwise (deconv2d's) oy = y * stride - pad + ky; ox
  /// alike. w(j, c, ky, kx) = wgt[j*wstride_j + c*wstride_c + ky*k +
  /// kx] with wgt at channel c0; row c of the output at
  /// gin + c*gin_cstride. Each output sums from 0.0f in ascending
  /// (ky, kx, j) order, skipping out-of-range taps, with two-rounding
  /// madd — the direct scalar loop's order. Stride-1 interior columns
  /// run 16/8 per pass; borders and stride > 1 run the scalar point.
  void (*grad_input_row4)(const float* go, index_t nj, index_t ho,
                          index_t wo, const float* wgt, index_t wstride_j,
                          index_t wstride_c, float* gin,
                          index_t gin_cstride, int nc, index_t w,
                          index_t k, index_t stride, index_t pad,
                          index_t y, bool flip);

  /// Weight gradient of conv2d and deconv2d for one A plane and `nb`
  /// (1..4) consecutive B planes:
  ///   gw[b][ky][kx] = sum_{n,y,x} double(A[y][x]) *
  ///                   B[b][y*stride - pad + ky][x*stride - pad + kx]
  /// (conv2d: A = grad_out, B = input; deconv2d: A = input, B =
  /// grad_out). A planes are (ha x wa), a_nstride apart per batch item;
  /// B planes (hb x wb), b_cstride apart per channel and b_nstride per
  /// item. Each tap's double sum runs over (n, y, x) ascending, skipping
  /// out-of-range taps, and rounds to float once; gw holds nb
  /// consecutive (k x k) slices. Four consecutive kx taps share one
  /// 4 x f64 vector; float products are exact in double, so the lanes
  /// reproduce the scalar sum bit for bit.
  void (*grad_weight4)(const float* a, index_t a_nstride, index_t ha,
                       index_t wa, const float* b, index_t b_nstride,
                       index_t b_cstride, int nb, index_t hb, index_t wb,
                       index_t n, index_t k, index_t stride, index_t pad,
                       float* gw);

  /// y[i] = scale * x[i] + shift — the batch-norm (+ folded affine)
  /// epilogue.
  void (*scale_shift)(const float* x, float* y, index_t n, float scale,
                      float shift);

  /// Fused batch-norm + activation epilogue for the graph executor:
  /// t = scale*x + shift, then act 0 = none, 1 = relu, 2 = leaky.
  /// Deliberately NOT restrict-qualified: x == y (in-place over a conv
  /// output slab) is supported. Bitwise-identical to scale_shift
  /// followed by relu/leaky_relu — the vector body and the scalar tail
  /// apply the exact per-element expressions of those kernels.
  void (*scale_shift_act)(const float* x, float* y, index_t n, float scale,
                          float shift, int act, float slope);

  /// y[i] = max(x[i], 0) with maxps NaN/-0 semantics (NaN -> 0).
  void (*relu)(const float* x, float* y, index_t n);

  /// y[i] = x[i] > 0 ? x[i] : slope * x[i].
  void (*leaky_relu)(const float* x, float* y, index_t n, float slope);

  /// y[i] += v — conv bias epilogue.
  void (*add_scalar)(float* y, index_t n, float v);

  /// In-place complex multiply over interleaved (re, im) f64 pairs:
  /// a[i] *= b[i] with re' = re_a*re_b - im_a*im_b and
  /// im' = im_a*re_b + re_a*im_b — the FBP ramp-filter spectrum
  /// product. Element-wise, so lane determinism is order-free; every
  /// backend keeps the exact mul/sub/add pairing above.
  void (*cmul)(double* a, const double* b, index_t n);

  /// Canonical lane-deterministic dot product: strided 8-lane partials
  /// + the fixed reduction tree (see header comment).
  float (*dot)(const float* a, const float* b, index_t n);

  // ----- low-precision storage formats ------------------------------
  //
  // THE LOW-PRECISION NUMERIC CONTRACT. The kernels below define a NEW
  // deterministic contract, separate from the fp32 one: activations
  // (and, at the executor level, weights) are STORED in fp16/bf16/int8
  // and widened for the taps: half formats to fp32 copies before the
  // row runs, int8 in registers. Accumulation is fp32 with
  // SINGLE-rounding fused multiply-add (scalar backends use std::fmaf,
  // which is correctly rounded and therefore bitwise equal to VFMADD*)
  // for the half formats, and exact int32 for int8. The
  // two-roundings rule of the fp32 contract exists to match historical
  // scalar digests; the low-precision paths have no history to match,
  // so they take the FMA throughput win — per-precision golden digests
  // pin THEIR bits across backends and widths instead.

  /// The half formats' conv row: one stride-1 output row for `nco`
  /// (1..8) consecutive output channels, arguments as conv2d_row4_s1.
  /// The graph executor widens fp16/bf16 activations and weights to fp32
  /// (elementwise-exact) and runs this on the copies. Each output starts
  /// from its bias and takes one single-rounding fmadd per tap in
  /// ascending (ci, ky, kx) order, so it is NOT interchangeable with
  /// conv2d_row4_s1, which keeps the two-roundings fp32 contract. Up to
  /// eight accumulators share each input load (nco <= 4 runs a quad
  /// body): the co=8 DDnet dense-layer convs are memory-bound, and
  /// grouping output channels never changes a channel's own order.
  void (*conv2d_row8_s1_fma)(const float* in, const float* wgt,
                             index_t wstride_ci, index_t wstride_co,
                             float* out, index_t ostride_co, int nco,
                             index_t cin, index_t h, index_t w, index_t k,
                             index_t oy, index_t pad, index_t wo,
                             const float* bias, bool deconv);

  /// scale_shift_act with a converting store: the fp32 affine+act
  /// expression is bit-identical to scale_shift_act, only the store
  /// rounds to the half format (RNE).
  void (*scale_shift_act_store_f16)(const float* x, std::uint16_t* y,
                                    index_t n, float scale, float shift,
                                    int act, float slope);
  void (*scale_shift_act_store_bf16)(const float* x, std::uint16_t* y,
                                     index_t n, float scale, float shift,
                                     int act, float slope);

  /// Array format conversions (element-wise, RNE on narrowing).
  void (*cvt_f32_to_f16)(const float* x, std::uint16_t* y, index_t n);
  void (*cvt_f16_to_f32)(const std::uint16_t* x, float* y, index_t n);
  void (*cvt_f32_to_bf16)(const float* x, std::uint16_t* y, index_t n);
  void (*cvt_bf16_to_f32)(const std::uint16_t* x, float* y, index_t n);

  /// Symmetric-int8 row kernel over CHANNEL-PAIR-INTERLEAVED
  /// activations, conv or deconv taps as above: the plane of channel
  /// pair p (channels 2p, 2p+1) starts at in + p*h*w*2 and stores pixel
  /// (y, x) as two adjacent bytes [c_even, c_odd] — the layout VPMADDWD
  /// wants (one 16-byte load covers 8 output pixels x 2 input channels).
  /// Weights are pre-widened int16 pairs, co-major in both directions:
  /// channel co's slice starts at wgt + co*wstride_co (wstride_co in
  /// int16 elements) and stores tap (p, ky, kx) as [w_2p, w_2p+1].
  /// Accumulation is exact int32 (from zero — bias lives in the fp32
  /// epilogue), so every backend is bitwise identical by construction;
  /// scalar and sse2 share one portable body and avx2 overrides with the
  /// vpmaddwd kernel.
  void (*conv2d_row4_s1_i8)(const std::int8_t* in, const std::int16_t* wgt,
                            index_t wstride_co, std::int32_t* out,
                            index_t ostride_co, int nco, index_t cinp,
                            index_t h, index_t w, index_t k, index_t oy,
                            index_t pad, index_t wo, bool deconv);

  /// Fused int8 epilogue: dequantize two accumulator planes, apply the
  /// affine/activation, requantize, and store one interleaved channel
  /// pair. acc1 may be null (odd trailing channel): the odd bytes
  /// store 0.
  void (*quant_epilogue_store_i8)(const std::int32_t* acc0,
                                  const std::int32_t* acc1,
                                  std::int8_t* out, index_t n,
                                  const QuantEpilogueParams& p);

  /// Dequant epilogue with an fp32 store (graph-output steps).
  void (*dequant_epilogue_f32)(const std::int32_t* acc, float* out,
                               index_t n, float m, float bias,
                               int has_affine, float scale, float shift,
                               int act, float slope);

  /// Two planar fp32 channels -> one interleaved int8 pair plane
  /// (x1 null writes 0 odd bytes): q = clamp(rne(x * inv_scale)).
  void (*quant_f32_to_i8)(const float* x0, const float* x1,
                          std::int8_t* out, index_t n, float inv_scale);
  /// Inverse: interleaved pair plane -> two planar fp32 channels
  /// (x1 null drops the odd channel).
  void (*dequant_i8_to_f32)(const std::int8_t* in, float* x0, float* x1,
                            index_t n, float scale);

  // ----- test probes (8-wide in/out arrays) -------------------------
  void (*probe_madd)(const float* a, const float* b, const float* c,
                     float* out);                           // c + a*b
  void (*probe_fmadd)(const float* a, const float* b, const float* c,
                      float* out);          // fma(a, b, c), one rounding
  void (*probe_mul)(const float* a, const float* b, float* out);
  void (*probe_add)(const float* a, const float* b, float* out);
  void (*probe_min)(const float* a, const float* b, float* out);
  void (*probe_max)(const float* a, const float* b, float* out);
  float (*probe_reduce)(const float* a);  // fixed-tree sum of 8 lanes
  void (*probe_load_partial)(const float* p, index_t n, float* out);
};

/// Human-readable backend name ("scalar"/"sse2"/"avx2").
const char* backend_name(Backend b);

/// Parses "scalar", "sse2", "avx2" or "auto". Returns false on any
/// other spelling. `is_auto` is set when the spec was "auto" (in which
/// case `out` is left untouched).
bool parse_backend(const std::string& spec, Backend* out, bool* is_auto);

/// True when the backend is both compiled into this binary and
/// supported by the executing CPU.
bool backend_available(Backend b);

/// Selects a backend explicitly. Unavailable requests clamp to the
/// best available backend at or below the request; the effective
/// choice is returned.
Backend set_backend(Backend b);

/// Parses a CCOVID_SIMD-style spec and applies it ("auto" re-runs the
/// default CPUID pick). Returns false (and changes nothing) on an
/// invalid spec — the CLI tools turn that into a usage error.
bool set_backend_spec(const std::string& spec);

/// The backend the next kernel call will use (resolving the
/// environment override and CPUID on first call).
Backend active_backend();

/// Per-backend table, independent of the active selection: nullptr
/// when the backend is not compiled in or the CPU lacks it. Used by
/// tests to compare backends side by side.
const KernelTable* table_for(Backend b);

/// Active dispatch table. First call resolves CCOVID_SIMD + CPUID;
/// afterwards it is one acquire load. Fetch the reference once per op,
/// outside inner loops.
const KernelTable& kernels();

}  // namespace ccovid::simd
