#include "ops/batchnorm.h"

#include <cmath>
#include <stdexcept>

#include "core/parallel.h"
#include "core/simd.h"
#include "trace/trace.h"

namespace ccovid::ops {

namespace {

struct NCS {
  index_t n, c, spatial;
};

NCS split_ncs(const Tensor& t) {
  if (t.rank() < 2) {
    throw std::invalid_argument("batch_norm: rank must be >= 2");
  }
  index_t spatial = 1;
  for (int i = 2; i < t.rank(); ++i) spatial *= t.dim(i);
  return {t.dim(0), t.dim(1), spatial};
}

void check_param(const Tensor& p, index_t c, const char* name) {
  if (!p.defined() || p.rank() != 1 || p.dim(0) != c) {
    throw std::invalid_argument(std::string("batch_norm: ") + name +
                                " must be (C)");
  }
}

}  // namespace

ChannelNorm channel_norm(const real_t* x, index_t planes, index_t stride,
                         index_t spatial, real_t gamma, real_t beta,
                         real_t eps) {
  double sum = 0.0, sum_sq = 0.0;
  for (index_t p = 0; p < planes; ++p) {
    const real_t* xp = x + p * stride;
    for (index_t i = 0; i < spatial; ++i) {
      sum += xp[i];
      sum_sq += static_cast<double>(xp[i]) * xp[i];
    }
  }
  const index_t count = planes * spatial;
  const double mean = sum / count;
  const double var = std::max(0.0, sum_sq / count - mean * mean);
  ChannelNorm r;
  r.mean = static_cast<real_t>(mean);
  r.var = static_cast<real_t>(var);
  r.inv_std = static_cast<real_t>(1.0 / std::sqrt(var + eps));
  r.scale = gamma * r.inv_std;
  r.shift = beta - r.scale * r.mean;
  return r;
}

Tensor batch_norm_train(const Tensor& input, const Tensor& gamma,
                        const Tensor& beta, BatchNormStats& stats,
                        real_t eps) {
  TRACE_SPAN("ops.batch_norm_train");
  const NCS d = split_ncs(input);
  check_param(gamma, d.c, "gamma");
  check_param(beta, d.c, "beta");

  stats.mean = Tensor({d.c});
  stats.var = Tensor({d.c});
  stats.inv_std = Tensor({d.c});
  Tensor out(input.shape());

  const real_t* ip = input.data();
  const real_t* gp = gamma.data();
  const real_t* bp = beta.data();
  real_t* mp = stats.mean.data();
  real_t* vp = stats.var.data();
  real_t* sp = stats.inv_std.data();
  real_t* op = out.data();

  parallel_for(
      0, d.c,
      [&](index_t c) {
        const ChannelNorm cn = channel_norm(ip + c * d.spatial, d.n,
                                            d.c * d.spatial, d.spatial,
                                            gp[c], bp[c], eps);
        mp[c] = cn.mean;
        vp[c] = cn.var;
        sp[c] = cn.inv_std;
        const simd::KernelTable& kt = simd::kernels();
        for (index_t ni = 0; ni < d.n; ++ni) {
          const real_t* x = ip + (ni * d.c + c) * d.spatial;
          real_t* y = op + (ni * d.c + c) * d.spatial;
          kt.scale_shift(x, y, d.spatial, cn.scale, cn.shift);
        }
      },
      /*grain=*/1);
  return out;
}

Tensor instance_norm(const Tensor& input, const Tensor& gamma,
                     const Tensor& beta, real_t eps) {
  TRACE_SPAN("ops.instance_norm");
  const NCS d = split_ncs(input);
  check_param(gamma, d.c, "gamma");
  check_param(beta, d.c, "beta");
  Tensor out(input.shape());
  const real_t* ip = input.data();
  real_t* op = out.data();
  const simd::KernelTable& kt = simd::kernels();
  parallel_for(
      0, d.n * d.c,
      [&](index_t plane) {
        const index_t c = plane % d.c;
        const real_t* x = ip + plane * d.spatial;
        const ChannelNorm cn = channel_norm(x, 1, 0, d.spatial,
                                            gamma.data()[c],
                                            beta.data()[c], eps);
        kt.scale_shift(x, op + plane * d.spatial, d.spatial, cn.scale,
                       cn.shift);
      },
      /*grain=*/1);
  return out;
}

Tensor batch_norm_infer(const Tensor& input, const Tensor& gamma,
                        const Tensor& beta, const Tensor& running_mean,
                        const Tensor& running_var, real_t eps) {
  TRACE_SPAN("ops.batch_norm_infer");
  const NCS d = split_ncs(input);
  check_param(gamma, d.c, "gamma");
  check_param(beta, d.c, "beta");
  check_param(running_mean, d.c, "running_mean");
  check_param(running_var, d.c, "running_var");

  Tensor out(input.shape());
  const real_t* ip = input.data();
  real_t* op = out.data();
  const real_t* gp = gamma.data();
  const real_t* bp = beta.data();
  const real_t* mp = running_mean.data();
  const real_t* vp = running_var.data();

  const simd::KernelTable& kt = simd::kernels();
  parallel_for(
      0, d.n * d.c,
      [&](index_t plane) {
        const index_t c = plane % d.c;
        const real_t inv_std =
            1.0f / std::sqrt(vp[c] + eps);
        const real_t scale = gp[c] * inv_std;
        const real_t shift = bp[c] - scale * mp[c];
        // Vectorized affine epilogue: same mul-then-add per element as
        // the scalar loop it replaces, eight pixels per vector.
        kt.scale_shift(ip + plane * d.spatial, op + plane * d.spatial,
                       d.spatial, scale, shift);
      },
      /*grain=*/1);
  return out;
}

BatchNormGrads batch_norm_backward(const Tensor& grad_out,
                                   const Tensor& input, const Tensor& gamma,
                                   const BatchNormStats& stats) {
  const NCS d = split_ncs(input);
  BatchNormGrads g{Tensor(input.shape()), Tensor({d.c}), Tensor({d.c})};

  const real_t* gop = grad_out.data();
  const real_t* ip = input.data();
  const real_t* gp = gamma.data();
  const real_t* mp = stats.mean.data();
  const real_t* sp = stats.inv_std.data();
  real_t* gip = g.grad_input.data();
  real_t* ggp = g.grad_gamma.data();
  real_t* gbp = g.grad_beta.data();
  const index_t count = d.n * d.spatial;

  parallel_for(
      0, d.c,
      [&](index_t c) {
        const real_t mean = mp[c];
        const real_t inv_std = sp[c];
        // First pass: sum of dy and sum of dy * xhat.
        double sum_dy = 0.0, sum_dy_xhat = 0.0;
        for (index_t ni = 0; ni < d.n; ++ni) {
          const real_t* dy = gop + (ni * d.c + c) * d.spatial;
          const real_t* x = ip + (ni * d.c + c) * d.spatial;
          for (index_t i = 0; i < d.spatial; ++i) {
            const real_t xhat = (x[i] - mean) * inv_std;
            sum_dy += dy[i];
            sum_dy_xhat += static_cast<double>(dy[i]) * xhat;
          }
        }
        ggp[c] = static_cast<real_t>(sum_dy_xhat);
        gbp[c] = static_cast<real_t>(sum_dy);
        // Second pass: dx = gamma*inv_std/count *
        //   (count*dy - sum_dy - xhat*sum_dy_xhat)
        const real_t k = gp[c] * inv_std / static_cast<real_t>(count);
        const real_t mdy = static_cast<real_t>(sum_dy);
        const real_t mdyx = static_cast<real_t>(sum_dy_xhat);
        for (index_t ni = 0; ni < d.n; ++ni) {
          const real_t* dy = gop + (ni * d.c + c) * d.spatial;
          const real_t* x = ip + (ni * d.c + c) * d.spatial;
          real_t* dx = gip + (ni * d.c + c) * d.spatial;
          for (index_t i = 0; i < d.spatial; ++i) {
            const real_t xhat = (x[i] - mean) * inv_std;
            dx[i] = k * (static_cast<real_t>(count) * dy[i] - mdy -
                         xhat * mdyx);
          }
        }
      },
      /*grain=*/1);
  return g;
}

}  // namespace ccovid::ops
