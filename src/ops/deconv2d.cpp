#include "ops/deconv2d.h"

#include <stdexcept>

#include "core/parallel.h"
#include "core/simd.h"
#include "ops/conv2d.h"
#include "trace/trace.h"

namespace ccovid::ops {

namespace {

void check_deconv_args(const Tensor& input, const Tensor& weight,
                       const Tensor& bias, const Deconv2dParams& p) {
  if (input.rank() != 4) {
    throw std::invalid_argument("deconv2d: input must be NCHW");
  }
  if (weight.rank() != 4 || weight.dim(2) != weight.dim(3)) {
    throw std::invalid_argument("deconv2d: weight must be (Cin,Cout,K,K)");
  }
  if (input.dim(1) != weight.dim(0)) {
    throw std::invalid_argument("deconv2d: channel mismatch: input " +
                                input.shape().str() + " weight " +
                                weight.shape().str());
  }
  if (bias.defined() &&
      (bias.rank() != 1 || bias.dim(0) != weight.dim(1))) {
    throw std::invalid_argument("deconv2d: bias must be (Cout)");
  }
  if (p.stride < 1) throw std::invalid_argument("deconv2d: stride < 1");
  if (p.pad < 0) throw std::invalid_argument("deconv2d: negative pad");
}

// --- Scatter baseline (Fig. 9a) -------------------------------------
//
// For each input element, the partial products with every filter tap are
// accumulated straight into the output buffer. The output plane is
// touched K*K*Cin times per element — the "recurring load and store
// operations" §4.2.1 identifies. Parallel over (n, co): each thread owns
// one output plane, so the scatter is race-free.
void deconv_scatter_plane(const real_t* CCOVID_RESTRICT in,  // (Cin,H,W)
                          const real_t* CCOVID_RESTRICT w,   // (Cin,Cout,K,K)
                          real_t* CCOVID_RESTRICT out,       // (Ho,Wo)
                          index_t cin, index_t cout, index_t co, index_t h,
                          index_t wdt, index_t ho, index_t wo, index_t k,
                          index_t stride, index_t pad, real_t bias_v,
                          bool prefetch) {
  for (index_t i = 0; i < ho * wo; ++i) out[i] = bias_v;
  if (prefetch) {
    const index_t lh = h, lw = wdt, lk = k, ls = stride, lp = pad;
    for (index_t ci = 0; ci < cin; ++ci) {
      const real_t* inp = in + ci * lh * lw;
      const real_t* wp = w + (ci * cout + co) * lk * lk;
      for (index_t iy = 0; iy < lh; ++iy) {
        for (index_t ix = 0; ix < lw; ++ix) {
          const real_t v = inp[iy * lw + ix];
          const index_t oy0 = iy * ls - lp;
          const index_t ox0 = ix * ls - lp;
          for (index_t ky = 0; ky < lk; ++ky) {
            const index_t oy = oy0 + ky;
            if (oy < 0 || oy >= ho) continue;
            for (index_t kx = 0; kx < lk; ++kx) {
              const index_t ox = ox0 + kx;
              if (ox < 0 || ox >= wo) continue;
              out[oy * wo + ox] += v * wp[ky * lk + kx];
            }
          }
        }
      }
    }
    return;
  }
  // No-PF flavor: bounds re-read through volatiles each iteration.
  volatile index_t vh = h, vw = wdt, vk = k, vs = stride, vp = pad;
  for (index_t ci = 0; ci < cin; ++ci) {
    for (index_t iy = 0; iy < vh; ++iy) {
      for (index_t ix = 0; ix < vw; ++ix) {
        const real_t v = in[ci * vh * vw + iy * vw + ix];
        for (index_t ky = 0; ky < vk; ++ky) {
          const index_t oy = iy * vs - vp + ky;
          if (oy < 0 || oy >= ho) continue;
          for (index_t kx = 0; kx < vk; ++kx) {
            const index_t ox = ix * vs - vp + kx;
            if (ox < 0 || ox >= wo) continue;
            out[oy * wo + ox] += v * w[(ci * cout + co) * vk * vk + ky * vk + kx];
          }
        }
      }
    }
  }
}

// --- Gather / inverse coefficient mapping (Fig. 9b) ------------------
//
// Each output element solves oy = iy*stride - pad + ky for iy, which
// introduces the integer division + divisibility test the paper flags.
void deconv_gather_plane(const real_t* CCOVID_RESTRICT in,
                         const real_t* CCOVID_RESTRICT w,
                         real_t* CCOVID_RESTRICT out, index_t cin,
                         index_t cout, index_t co, index_t h, index_t wdt,
                         index_t ho, index_t wo, index_t k, index_t stride,
                         index_t pad, real_t bias_v) {
  const index_t lh = h, lw = wdt, lk = k, ls = stride, lp = pad;
  for (index_t oy = 0; oy < ho; ++oy) {
    for (index_t ox = 0; ox < wo; ++ox) {
      real_t acc = bias_v;
      for (index_t ky = 0; ky < lk; ++ky) {
        const index_t iy_num = oy + lp - ky;
        if (iy_num < 0 || iy_num % ls != 0) continue;
        const index_t iy = iy_num / ls;
        if (iy >= lh) continue;
        for (index_t kx = 0; kx < lk; ++kx) {
          const index_t ix_num = ox + lp - kx;
          if (ix_num < 0 || ix_num % ls != 0) continue;
          const index_t ix = ix_num / ls;
          if (ix >= lw) continue;
          for (index_t ci = 0; ci < cin; ++ci) {
            acc += in[ci * lh * lw + iy * lw + ix] *
                   w[(ci * cout + co) * lk * lk + ky * lk + kx];
          }
        }
      }
      out[oy * wo + ox] = acc;
    }
  }
}

}  // namespace

index_t deconv_out_extent(index_t in, index_t ksize, index_t stride,
                          index_t pad) {
  return (in - 1) * stride - 2 * pad + ksize;
}

Tensor deconv2d(const Tensor& input, const Tensor& weight,
                const Tensor& bias, Deconv2dParams p,
                const KernelOptions& opt) {
  check_deconv_args(input, weight, bias, p);
  TRACE_SPAN("ops.deconv2d");
  const index_t n = input.dim(0), cin = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const index_t cout = weight.dim(1), k = weight.dim(2);
  const index_t ho = deconv_out_extent(h, k, p.stride, p.pad);
  const index_t wo = deconv_out_extent(w, k, p.stride, p.pad);
  if (ho <= 0 || wo <= 0) {
    throw std::invalid_argument("deconv2d: non-positive output extent");
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
        real_t* out_p = op + (ni * cout + co) * ho * wo;
        const real_t bias_v = bp ? bp[co] : 0.0f;
        if (!opt.refactor) {
          deconv_scatter_plane(in_n, wp, out_p, cin, cout, co, h, w, ho, wo,
                               k, p.stride, p.pad, bias_v,
                               opt.prefetch || opt.unroll);
          return;
        }
        if (opt.unroll && p.stride == 1) {
          // Vectorized gather (LU stage): lane = output pixel, taps in
          // the ascending (ci, ky, kx) order of the old unrolled
          // kernel. Weight slices for this co start at co*k*k and are
          // cout*k*k apart per ci.
          for (index_t oy = 0; oy < ho; ++oy) {
            kt.conv2d_row_s1(in_n, wp + co * k * k, cout * k * k,
                             out_p + oy * wo, cin, h, w, k, oy, p.pad, wo,
                             bias_v, /*deconv=*/true);
          }
          return;
        }
        deconv_gather_plane(in_n, wp, out_p, cin, cout, co, h, w, ho, wo, k,
                            p.stride, p.pad, bias_v);
      },
      /*grain=*/1);
  return out;
}

Tensor deconv2d_reference(const Tensor& input, const Tensor& weight,
                          const Tensor& bias, Deconv2dParams p) {
  check_deconv_args(input, weight, bias, p);
  const index_t n = input.dim(0), cin = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const index_t cout = weight.dim(1), k = weight.dim(2);
  const index_t ho = deconv_out_extent(h, k, p.stride, p.pad);
  const index_t wo = deconv_out_extent(w, k, p.stride, p.pad);
  Tensor out({n, cout, ho, wo});
  for (index_t ni = 0; ni < n; ++ni) {
    for (index_t co = 0; co < cout; ++co) {
      for (index_t oy = 0; oy < ho; ++oy) {
        for (index_t ox = 0; ox < wo; ++ox) {
          double acc = bias.defined() ? bias.at(co) : 0.0;
          for (index_t ci = 0; ci < cin; ++ci) {
            for (index_t ky = 0; ky < k; ++ky) {
              const index_t iy_num = oy + p.pad - ky;
              if (iy_num < 0 || iy_num % p.stride != 0) continue;
              const index_t iy = iy_num / p.stride;
              if (iy >= h) continue;
              for (index_t kx = 0; kx < k; ++kx) {
                const index_t ix_num = ox + p.pad - kx;
                if (ix_num < 0 || ix_num % p.stride != 0) continue;
                const index_t ix = ix_num / p.stride;
                if (ix >= w) continue;
                acc += static_cast<double>(input.at(ni, ci, iy, ix)) *
                       weight.at(ci, co, ky, kx);
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

Tensor deconv2d_backward_input(const Tensor& grad_out, const Tensor& weight,
                               Deconv2dParams p) {
  // d(deconv)/d(input): gin[iy,ix] = sum_{ky,kx,co} gout[iy*s - pad + ky]
  // * w[ci,co,ky,kx] — a direct correlation of grad_out with the weights.
  TRACE_SPAN("ops.deconv2d.grad_input");
  const index_t ho = grad_out.dim(2), wo = grad_out.dim(3);
  const index_t cin = weight.dim(0), cout = weight.dim(1),
                k = weight.dim(2);
  const index_t h = (ho + 2 * p.pad - k) / p.stride + 1;
  const index_t w = (wo + 2 * p.pad - k) / p.stride + 1;
  Tensor gin({grad_out.dim(0), cin, h, w});
  // weight (Cin, Cout, K, K): j = co, c = ci.
  detail::grad_input_gather(grad_out, weight.data(), k * k, cout * k * k,
                            /*flip=*/false, k, p.stride, p.pad, gin);
  return gin;
}

Tensor deconv2d_backward_weight(const Tensor& grad_out, const Tensor& input,
                                index_t ksize, Deconv2dParams p) {
  TRACE_SPAN("ops.deconv2d.grad_weight");
  Tensor gw({input.dim(1), grad_out.dim(1), ksize, ksize});
  detail::grad_weight_sweep(input, grad_out, ksize, p.stride, p.pad, gw);
  return gw;
}

}  // namespace ccovid::ops
