#include "ops/conv2d.h"

#include <algorithm>
#include <stdexcept>

#include "core/parallel.h"
#include "core/simd.h"
#include "trace/trace.h"

namespace ccovid::ops {

namespace {

void check_conv_args(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const Conv2dParams& p) {
  if (input.rank() != 4) {
    throw std::invalid_argument("conv2d: input must be NCHW, got " +
                                input.shape().str());
  }
  if (weight.rank() != 4 || weight.dim(2) != weight.dim(3)) {
    throw std::invalid_argument("conv2d: weight must be (Cout,Cin,K,K)");
  }
  if (input.dim(1) != weight.dim(1)) {
    throw std::invalid_argument("conv2d: channel mismatch: input " +
                                input.shape().str() + " weight " +
                                weight.shape().str());
  }
  if (bias.defined() &&
      (bias.rank() != 1 || bias.dim(0) != weight.dim(0))) {
    throw std::invalid_argument("conv2d: bias must be (Cout)");
  }
  if (p.stride < 1) throw std::invalid_argument("conv2d: stride < 1");
  if (p.pad < 0) throw std::invalid_argument("conv2d: negative pad");
}

// Fixed-K inner kernel; the compiler fully unrolls the K loops.
template <int K>
void conv_plane_unrolled(const real_t* CCOVID_RESTRICT in,  // (Cin,H,W)
                         const real_t* CCOVID_RESTRICT w,   // (Cin,K,K)
                         real_t* CCOVID_RESTRICT out,       // (Ho,Wo)
                         index_t cin, index_t h, index_t wdt, index_t ho,
                         index_t wo, index_t stride, index_t pad,
                         real_t bias_v) {
  for (index_t oy = 0; oy < ho; ++oy) {
    for (index_t ox = 0; ox < wo; ++ox) {
      real_t acc = bias_v;
      const index_t iy0 = oy * stride - pad;
      const index_t ix0 = ox * stride - pad;
      for (index_t ci = 0; ci < cin; ++ci) {
        const real_t* inp = in + ci * h * wdt;
        const real_t* wp = w + ci * K * K;
#pragma GCC unroll 8
        for (int ky = 0; ky < K; ++ky) {
          const index_t iy = iy0 + ky;
          if (iy < 0 || iy >= h) continue;
#pragma GCC unroll 8
          for (int kx = 0; kx < K; ++kx) {
            const index_t ix = ix0 + kx;
            if (ix < 0 || ix >= wdt) continue;
            acc += inp[iy * wdt + ix] * wp[ky * K + kx];
          }
        }
      }
      out[oy * wo + ox] = acc;
    }
  }
}

// Generic-K kernel with bounds cached in locals (the PF stage).
void conv_plane_prefetched(const real_t* CCOVID_RESTRICT in,
                           const real_t* CCOVID_RESTRICT w,
                           real_t* CCOVID_RESTRICT out, index_t cin,
                           index_t h, index_t wdt, index_t ho, index_t wo,
                           index_t k, index_t stride, index_t pad,
                           real_t bias_v) {
  const index_t lh = h, lw = wdt, lk = k, ls = stride, lp = pad;
  for (index_t oy = 0; oy < ho; ++oy) {
    for (index_t ox = 0; ox < wo; ++ox) {
      real_t acc = bias_v;
      const index_t iy0 = oy * ls - lp;
      const index_t ix0 = ox * ls - lp;
      for (index_t ci = 0; ci < cin; ++ci) {
        const real_t* inp = in + ci * lh * lw;
        const real_t* wp = w + ci * lk * lk;
        for (index_t ky = 0; ky < lk; ++ky) {
          const index_t iy = iy0 + ky;
          if (iy < 0 || iy >= lh) continue;
          for (index_t kx = 0; kx < lk; ++kx) {
            const index_t ix = ix0 + kx;
            if (ix < 0 || ix >= lw) continue;
            acc += inp[iy * lw + ix] * wp[ky * lk + kx];
          }
        }
      }
      out[oy * wo + ox] = acc;
    }
  }
}

// Baseline (no PF): every inner iteration re-reads the kernel parameters
// through a volatile block, modeling the unoptimized OpenCL kernel that
// fetches sizes from __global argument memory each time. Produces
// identical results; only the parameter loads differ.
struct VolatileBounds {
  volatile index_t h, w, k, stride, pad;
};

void conv_plane_baseline(const real_t* in, const real_t* w, real_t* out,
                         index_t cin, const VolatileBounds& b, index_t ho,
                         index_t wo, real_t bias_v) {
  for (index_t oy = 0; oy < ho; ++oy) {
    for (index_t ox = 0; ox < wo; ++ox) {
      real_t acc = bias_v;
      for (index_t ci = 0; ci < cin; ++ci) {
        for (index_t ky = 0; ky < b.k; ++ky) {
          const index_t iy = oy * b.stride - b.pad + ky;
          if (iy < 0 || iy >= b.h) continue;
          for (index_t kx = 0; kx < b.k; ++kx) {
            const index_t ix = ox * b.stride - b.pad + kx;
            if (ix < 0 || ix >= b.w) continue;
            acc += in[ci * b.h * b.w + iy * b.w + ix] *
                   w[ci * b.k * b.k + ky * b.k + kx];
          }
        }
      }
      out[oy * wo + ox] = acc;
    }
  }
}

}  // namespace

index_t conv_out_extent(index_t in, index_t ksize, index_t stride,
                        index_t pad) {
  return (in + 2 * pad - ksize) / stride + 1;
}

Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              Conv2dParams p, const KernelOptions& opt) {
  check_conv_args(input, weight, bias, p);
  TRACE_SPAN("ops.conv2d");
  const index_t n = input.dim(0), cin = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const index_t cout = weight.dim(0), k = weight.dim(2);
  const index_t ho = conv_out_extent(h, k, p.stride, p.pad);
  const index_t wo = conv_out_extent(w, k, p.stride, p.pad);
  if (ho <= 0 || wo <= 0) {
    throw std::invalid_argument("conv2d: non-positive output extent");
  }
  Tensor out({n, cout, ho, wo});

  const real_t* ip = input.data();
  const real_t* wp = weight.data();
  const real_t* bp = bias.defined() ? bias.data() : nullptr;
  real_t* op = out.data();
  const simd::KernelTable& kt = simd::kernels();

  parallel_for(
      0, n * cout,
      [&](index_t job) {
        const index_t ni = job / cout;
        const index_t co = job % cout;
        const real_t* in_n = ip + ni * cin * h * w;
        const real_t* w_co = wp + co * cin * k * k;
        real_t* out_p = op + (ni * cout + co) * ho * wo;
        const real_t bias_v = bp ? bp[co] : 0.0f;
        if (opt.unroll && p.stride == 1) {
          // Widened-datapath LU stage: 8 output pixels per vector via
          // the dispatched backend; border columns and the scalar
          // emulation accumulate taps in the identical (ci, ky, kx)
          // order, so results match the historical unrolled kernel
          // bitwise on every backend.
          for (index_t oy = 0; oy < ho; ++oy) {
            kt.conv2d_row_s1(in_n, w_co, k * k, out_p + oy * wo, cin, h,
                             w, k, oy, p.pad, wo, bias_v, /*deconv=*/false);
          }
          return;
        }
        if (opt.unroll) {
          switch (k) {
            case 1:
              conv_plane_unrolled<1>(in_n, w_co, out_p, cin, h, w, ho, wo,
                                     p.stride, p.pad, bias_v);
              return;
            case 3:
              conv_plane_unrolled<3>(in_n, w_co, out_p, cin, h, w, ho, wo,
                                     p.stride, p.pad, bias_v);
              return;
            case 5:
              conv_plane_unrolled<5>(in_n, w_co, out_p, cin, h, w, ho, wo,
                                     p.stride, p.pad, bias_v);
              return;
            case 7:
              conv_plane_unrolled<7>(in_n, w_co, out_p, cin, h, w, ho, wo,
                                     p.stride, p.pad, bias_v);
              return;
            default:
              break;  // fall through to the prefetched generic kernel
          }
        }
        if (opt.prefetch || opt.unroll) {
          conv_plane_prefetched(in_n, w_co, out_p, cin, h, w, ho, wo, k,
                                p.stride, p.pad, bias_v);
        } else {
          const VolatileBounds b{h, w, k, p.stride, p.pad};
          conv_plane_baseline(in_n, w_co, out_p, cin, b, ho, wo, bias_v);
        }
      },
      /*grain=*/1);
  return out;
}

Tensor conv2d_reference(const Tensor& input, const Tensor& weight,
                        const Tensor& bias, Conv2dParams p) {
  check_conv_args(input, weight, bias, p);
  const index_t n = input.dim(0), cin = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const index_t cout = weight.dim(0), k = weight.dim(2);
  const index_t ho = conv_out_extent(h, k, p.stride, p.pad);
  const index_t wo = conv_out_extent(w, k, p.stride, p.pad);
  Tensor out({n, cout, ho, wo});
  for (index_t ni = 0; ni < n; ++ni) {
    for (index_t co = 0; co < cout; ++co) {
      for (index_t oy = 0; oy < ho; ++oy) {
        for (index_t ox = 0; ox < wo; ++ox) {
          double acc = bias.defined() ? bias.at(co) : 0.0;
          for (index_t ci = 0; ci < cin; ++ci) {
            for (index_t ky = 0; ky < k; ++ky) {
              for (index_t kx = 0; kx < k; ++kx) {
                const index_t iy = oy * p.stride - p.pad + ky;
                const index_t ix = ox * p.stride - p.pad + kx;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                acc += static_cast<double>(input.at(ni, ci, iy, ix)) *
                       weight.at(co, ci, ky, kx);
              }
            }
          }
          out.at(ni, co, oy, ox) = static_cast<real_t>(acc);
        }
      }
    }
  }
  return out;
}

namespace detail {

void grad_input_gather(const Tensor& grad_out, const real_t* wgt,
                       index_t wstride_j, index_t wstride_c, bool flip,
                       index_t k, index_t stride, index_t pad, Tensor& gin) {
  const index_t n = gin.dim(0), nc = gin.dim(1), h = gin.dim(2),
                w = gin.dim(3);
  const index_t nj = grad_out.dim(1), ho = grad_out.dim(2),
                wo = grad_out.dim(3);
  const index_t quads = (nc + 3) / 4;
  const index_t bands = (h + 15) / 16;
  const real_t* gp = grad_out.data();
  real_t* op = gin.data();
  const simd::KernelTable& kt = simd::kernels();
  // Race-free: a job owns rows [16*band, 16*band + 16) of one channel
  // quad of one batch item.
  parallel_for(
      0, n * quads * bands,
      [&](index_t job) {
        const index_t band = job % bands;
        const index_t q = (job / bands) % quads;
        const index_t ni = job / (bands * quads);
        const index_t c0 = 4 * q;
        const int ncq = static_cast<int>(std::min<index_t>(4, nc - c0));
        const real_t* go_n = gp + ni * nj * ho * wo;
        real_t* g = op + (ni * nc + c0) * h * w;
        const index_t y1 = std::min(h, 16 * band + 16);
        for (index_t y = 16 * band; y < y1; ++y) {
          kt.grad_input_row4(go_n, nj, ho, wo, wgt + c0 * wstride_c,
                             wstride_j, wstride_c, g + y * w, h * w, ncq, w,
                             k, stride, pad, y, flip);
        }
      },
      /*grain=*/1);
}

void grad_weight_sweep(const Tensor& a, const Tensor& b, index_t k,
                       index_t stride, index_t pad, Tensor& gw) {
  const index_t n = a.dim(0), na = a.dim(1), ha = a.dim(2), wa = a.dim(3);
  const index_t nb = b.dim(1), hb = b.dim(2), wb = b.dim(3);
  const index_t quads = (nb + 3) / 4;
  const real_t* ap = a.data();
  const real_t* bp = b.data();
  real_t* gp = gw.data();
  const simd::KernelTable& kt = simd::kernels();
  parallel_for(
      0, na * quads,
      [&](index_t job) {
        const index_t ai = job / quads;
        const index_t b0 = 4 * (job % quads);
        const int nbq = static_cast<int>(std::min<index_t>(4, nb - b0));
        kt.grad_weight4(ap + ai * ha * wa, na * ha * wa, ha, wa,
                        bp + b0 * hb * wb, nb * hb * wb, hb * wb, nbq, hb,
                        wb, n, k, stride, pad, gp + (ai * nb + b0) * k * k);
      },
      /*grain=*/1);
}

}  // namespace detail

Tensor conv2d_backward_input(const Tensor& grad_out, const Tensor& weight,
                             index_t input_h, index_t input_w,
                             Conv2dParams p) {
  TRACE_SPAN("ops.conv2d.grad_input");
  const index_t cin = weight.dim(1), k = weight.dim(2);
  Tensor gin({grad_out.dim(0), cin, input_h, input_w});
  // weight (Cout, Cin, K, K): j = co, c = ci.
  detail::grad_input_gather(grad_out, weight.data(), cin * k * k, k * k,
                            /*flip=*/true, k, p.stride, p.pad, gin);
  return gin;
}

Tensor conv2d_backward_weight(const Tensor& grad_out, const Tensor& input,
                              index_t ksize, Conv2dParams p) {
  TRACE_SPAN("ops.conv2d.grad_weight");
  Tensor gw({grad_out.dim(1), input.dim(1), ksize, ksize});
  detail::grad_weight_sweep(grad_out, input, ksize, p.stride, p.pad, gw);
  return gw;
}

Tensor channel_sum(const Tensor& grad_out) {
  const index_t n = grad_out.dim(0), c = grad_out.dim(1);
  index_t sp = 1;
  for (int d = 2; d < grad_out.rank(); ++d) sp *= grad_out.dim(d);
  Tensor gb({c});
  const real_t* gp = grad_out.data();
  for (index_t ci = 0; ci < c; ++ci) {
    double acc = 0.0;
    for (index_t ni = 0; ni < n; ++ni) {
      const real_t* g = gp + (ni * c + ci) * sp;
      for (index_t i = 0; i < sp; ++i) acc += g[i];
    }
    gb.at(ci) = static_cast<real_t>(acc);
  }
  return gb;
}

}  // namespace ccovid::ops
