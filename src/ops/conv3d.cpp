#include "ops/conv3d.h"

#include <algorithm>
#include <stdexcept>

#include "core/parallel.h"
#include "core/simd.h"
#include "trace/trace.h"

namespace ccovid::ops {

namespace {

void check_args(const Tensor& input, const Tensor& weight,
                const Tensor& bias, const Conv3dParams& p) {
  if (input.rank() != 5) {
    throw std::invalid_argument("conv3d: input must be NCDHW");
  }
  if (weight.rank() != 5 || weight.dim(2) != weight.dim(3) ||
      weight.dim(3) != weight.dim(4)) {
    throw std::invalid_argument("conv3d: weight must be (Cout,Cin,K,K,K)");
  }
  if (input.dim(1) != weight.dim(1)) {
    throw std::invalid_argument("conv3d: channel mismatch");
  }
  if (bias.defined() && (bias.rank() != 1 || bias.dim(0) != weight.dim(0))) {
    throw std::invalid_argument("conv3d: bias must be (Cout)");
  }
  if (p.pad < 0) {
    throw std::invalid_argument("conv3d: bad params");
  }
}

}  // namespace

Tensor conv3d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              Conv3dParams p) {
  check_args(input, weight, bias, p);
  TRACE_SPAN("ops.conv3d");
  const index_t n = input.dim(0), cin = input.dim(1), d = input.dim(2),
                h = input.dim(3), w = input.dim(4);
  const index_t cout = weight.dim(0), k = weight.dim(2);
  const index_t od = d + 2 * p.pad - k + 1;
  const index_t oh = h + 2 * p.pad - k + 1;
  const index_t ow = w + 2 * p.pad - k + 1;
  if (od <= 0 || oh <= 0 || ow <= 0) {
    throw std::invalid_argument("conv3d: non-positive output extent");
  }
  Tensor out({n, cout, od, oh, ow});
  const Tensor zero_bias = bias.defined() ? Tensor() : Tensor({cout});
  const real_t* ip = input.data();
  const real_t* wp = weight.data();
  const real_t* bp = bias.defined() ? bias.data() : zero_bias.data();
  real_t* op = out.data();
  const simd::KernelTable& kt = simd::kernels();

  // One job per (n, output-channel quad, output depth plane): the
  // compact classifier's dense layers have only a handful of output
  // channels, too few jobs to fill the lanes at (n, quad) granularity.
  // The row kernel keeps each output's (ci, kz, ky, kx) tap order, so
  // the split is bit-neutral.
  const index_t nquads = (cout + 3) / 4;
  const index_t plane = oh * ow;
  parallel_for(
      0, n * nquads * od,
      [&](index_t job) {
        const index_t oz = job % od;
        const index_t co0 = job / od % nquads * 4;
        const index_t ni = job / od / nquads;
        const int nco = static_cast<int>(std::min<index_t>(4, cout - co0));
        real_t* out_p = op + (ni * cout + co0) * od * plane + oz * plane;
        for (index_t oy = 0; oy < oh; ++oy) {
          kt.conv3d_row4_s1(ip + ni * cin * d * h * w,
                            wp + co0 * cin * k * k * k, out_p + oy * ow,
                            od * plane, nco, cin, d, h, w, k, oz, oy,
                            p.pad, ow, bp + co0);
        }
      },
      /*grain=*/1);
  return out;
}

Tensor conv3d_backward_input(const Tensor& grad_out, const Tensor& weight,
                             index_t in_d, index_t in_h, index_t in_w,
                             Conv3dParams p) {
  const index_t n = grad_out.dim(0), cout = grad_out.dim(1),
                od = grad_out.dim(2), oh = grad_out.dim(3),
                ow = grad_out.dim(4);
  const index_t cin = weight.dim(1), k = weight.dim(2);
  Tensor gin({n, cin, in_d, in_h, in_w});
  const real_t* gp = grad_out.data();
  const real_t* wp = weight.data();
  real_t* op = gin.data();

  parallel_for(
      0, n * cin,
      [&](index_t job) {
        const index_t ni = job / cin;
        const index_t ci = job % cin;
        real_t* g = op + (ni * cin + ci) * in_d * in_h * in_w;
        const real_t* go_n = gp + ni * cout * od * oh * ow;
        for (index_t iz = 0; iz < in_d; ++iz) {
          for (index_t iy = 0; iy < in_h; ++iy) {
            for (index_t ix = 0; ix < in_w; ++ix) {
              real_t acc = 0.0f;
              for (index_t kz = 0; kz < k; ++kz) {
                const index_t oz = iz + p.pad - kz;
                if (oz < 0 || oz >= od) continue;
                for (index_t ky = 0; ky < k; ++ky) {
                  const index_t oy = iy + p.pad - ky;
                  if (oy < 0 || oy >= oh) continue;
                  for (index_t kx = 0; kx < k; ++kx) {
                    const index_t ox = ix + p.pad - kx;
                    if (ox < 0 || ox >= ow) continue;
                    for (index_t co = 0; co < cout; ++co) {
                      acc += go_n[((co * od + oz) * oh + oy) * ow + ox] *
                             wp[(((co * cin + ci) * k + kz) * k + ky) * k +
                                kx];
                    }
                  }
                }
              }
              g[(iz * in_h + iy) * in_w + ix] = acc;
            }
          }
        }
      },
      /*grain=*/1);
  return gin;
}

Tensor conv3d_backward_weight(const Tensor& grad_out, const Tensor& input,
                              index_t ksize, Conv3dParams p) {
  const index_t n = grad_out.dim(0), cout = grad_out.dim(1),
                od = grad_out.dim(2), oh = grad_out.dim(3),
                ow = grad_out.dim(4);
  const index_t cin = input.dim(1), d = input.dim(2), h = input.dim(3),
                w = input.dim(4);
  Tensor gw({cout, cin, ksize, ksize, ksize});
  const real_t* gp = grad_out.data();
  const real_t* ip = input.data();
  real_t* wp = gw.data();

  parallel_for(
      0, cout * cin,
      [&](index_t job) {
        const index_t co = job / cin;
        const index_t ci = job % cin;
        for (index_t kz = 0; kz < ksize; ++kz) {
          for (index_t ky = 0; ky < ksize; ++ky) {
            for (index_t kx = 0; kx < ksize; ++kx) {
              double acc = 0.0;
              for (index_t ni = 0; ni < n; ++ni) {
                const real_t* go = gp + (ni * cout + co) * od * oh * ow;
                const real_t* in_p = ip + (ni * cin + ci) * d * h * w;
                for (index_t oz = 0; oz < od; ++oz) {
                  const index_t iz = oz - p.pad + kz;
                  if (iz < 0 || iz >= d) continue;
                  for (index_t oy = 0; oy < oh; ++oy) {
                    const index_t iy = oy - p.pad + ky;
                    if (iy < 0 || iy >= h) continue;
                    for (index_t ox = 0; ox < ow; ++ox) {
                      const index_t ix = ox - p.pad + kx;
                      if (ix < 0 || ix >= w) continue;
                      acc += static_cast<double>(
                                 go[(oz * oh + oy) * ow + ox]) *
                             in_p[(iz * h + iy) * w + ix];
                    }
                  }
                }
              }
              wp[(((co * cin + ci) * ksize + kz) * ksize + ky) * ksize +
                 kx] = static_cast<real_t>(acc);
            }
          }
        }
      },
      /*grain=*/1);
  return gw;
}

}  // namespace ccovid::ops
