#include "autograd/functions.h"

#include <cmath>
#include <memory>
#include <stdexcept>

namespace ccovid::autograd {

namespace {

Tensor maybe_value(const Var& v) {
  return v.defined() ? v.value() : Tensor();
}

}  // namespace

Var conv2d(const Var& x, const Var& w, const Var& b, ops::Conv2dParams p,
           const ops::KernelOptions& opt) {
  Tensor out = ops::conv2d(x.value(), w.value(), maybe_value(b), p, opt);
  Var y = Var::make_node(std::move(out), {x, w, b});
  if (y.requires_grad()) {
    const index_t h = x.value().dim(2), wd = x.value().dim(3);
    const index_t k = w.value().dim(2);
    y.set_backward([x, w, b, p, h, wd, k](const Tensor& g) {
      if (x.requires_grad()) {
        accumulate_grad(x, ops::conv2d_backward_input(g, w.value(), h, wd, p));
      }
      if (w.requires_grad()) {
        accumulate_grad(w, ops::conv2d_backward_weight(g, x.value(), k, p));
      }
      if (b.defined() && b.requires_grad()) {
        accumulate_grad(b, ops::channel_sum(g));
      }
    });
  }
  return y;
}

Var deconv2d(const Var& x, const Var& w, const Var& b, ops::Deconv2dParams p,
             const ops::KernelOptions& opt) {
  Tensor out = ops::deconv2d(x.value(), w.value(), maybe_value(b), p, opt);
  Var y = Var::make_node(std::move(out), {x, w, b});
  if (y.requires_grad()) {
    const index_t k = w.value().dim(2);
    y.set_backward([x, w, b, p, k](const Tensor& g) {
      if (x.requires_grad()) {
        accumulate_grad(x, ops::deconv2d_backward_input(g, w.value(), p));
      }
      if (w.requires_grad()) {
        accumulate_grad(w, ops::deconv2d_backward_weight(g, x.value(), k, p));
      }
      if (b.defined() && b.requires_grad()) {
        accumulate_grad(b, ops::channel_sum(g));
      }
    });
  }
  return y;
}

Var conv3d(const Var& x, const Var& w, const Var& b, ops::Conv3dParams p) {
  Tensor out = ops::conv3d(x.value(), w.value(), maybe_value(b), p);
  Var y = Var::make_node(std::move(out), {x, w, b});
  if (y.requires_grad()) {
    const index_t d = x.value().dim(2), h = x.value().dim(3),
                  wd = x.value().dim(4);
    const index_t k = w.value().dim(2);
    y.set_backward([x, w, b, p, d, h, wd, k](const Tensor& g) {
      if (x.requires_grad()) {
        accumulate_grad(
            x, ops::conv3d_backward_input(g, w.value(), d, h, wd, p));
      }
      if (w.requires_grad()) {
        accumulate_grad(w, ops::conv3d_backward_weight(g, x.value(), k, p));
      }
      if (b.defined() && b.requires_grad()) {
        accumulate_grad(b, ops::channel_sum(g));
      }
    });
  }
  return y;
}

Var linear(const Var& x, const Var& w, const Var& b) {
  Tensor out = ops::linear(x.value(), w.value(), maybe_value(b));
  Var y = Var::make_node(std::move(out), {x, w, b});
  if (y.requires_grad()) {
    y.set_backward([x, w, b](const Tensor& g) {
      if (x.requires_grad()) {
        accumulate_grad(x, ops::linear_backward_input(g, w.value()));
      }
      if (w.requires_grad()) {
        accumulate_grad(w, ops::linear_backward_weight(g, x.value()));
      }
      if (b.defined() && b.requires_grad()) {
        accumulate_grad(b, ops::linear_backward_bias(g));
      }
    });
  }
  return y;
}

Var batch_norm(const Var& x, const Var& gamma, const Var& beta,
               Tensor& running_mean, Tensor& running_var, bool training,
               real_t momentum, real_t eps) {
  if (!training) {
    Tensor out = ops::batch_norm_infer(x.value(), gamma.value(),
                                       beta.value(), running_mean,
                                       running_var, eps);
    Var y = Var::make_node(std::move(out), {x, gamma, beta});
    if (y.requires_grad()) {
      // Eval-mode backward: y = scale*x + shift with frozen statistics.
      Tensor rm = running_mean.clone();
      Tensor rv = running_var.clone();
      y.set_backward([x, gamma, beta, rm, rv, eps](const Tensor& g) {
        const index_t c = gamma.value().dim(0);
        index_t spatial = 1;
        for (int i = 2; i < x.value().rank(); ++i) {
          spatial *= x.value().dim(i);
        }
        const index_t n = x.value().dim(0);
        if (x.requires_grad()) {
          Tensor gx(x.value().shape());
          for (index_t plane = 0; plane < n * c; ++plane) {
            const index_t ch = plane % c;
            const real_t scale =
                gamma.value().at(ch) / std::sqrt(rv.at(ch) + eps);
            const real_t* gp = g.data() + plane * spatial;
            real_t* xp = gx.data() + plane * spatial;
            for (index_t i = 0; i < spatial; ++i) xp[i] = scale * gp[i];
          }
          accumulate_grad(x, gx);
        }
        if (gamma.requires_grad() || beta.requires_grad()) {
          Tensor gg({c});
          Tensor gb({c});
          for (index_t plane = 0; plane < n * c; ++plane) {
            const index_t ch = plane % c;
            const real_t inv_std = 1.0f / std::sqrt(rv.at(ch) + eps);
            const real_t* gp = g.data() + plane * spatial;
            const real_t* xp = x.value().data() + plane * spatial;
            double sg = 0.0, sb = 0.0;
            for (index_t i = 0; i < spatial; ++i) {
              sg += static_cast<double>(gp[i]) * (xp[i] - rm.at(ch)) *
                    inv_std;
              sb += gp[i];
            }
            gg.at(ch) += static_cast<real_t>(sg);
            gb.at(ch) += static_cast<real_t>(sb);
          }
          if (gamma.requires_grad()) accumulate_grad(gamma, gg);
          if (beta.requires_grad()) accumulate_grad(beta, gb);
        }
      });
    }
    return y;
  }

  auto stats = std::make_shared<ops::BatchNormStats>();
  Tensor out =
      ops::batch_norm_train(x.value(), gamma.value(), beta.value(), *stats,
                            eps);
  // Update running statistics (out-of-graph side effect, as in PyTorch).
  // momentum == 0 is the eval-mode batch-stats path (see
  // BatchNorm::forward): the update would be a no-op, and skipping it
  // keeps concurrent inference threads from racing on the buffers.
  if (momentum != 0.0f) {
    const index_t c = gamma.value().dim(0);
    for (index_t ch = 0; ch < c; ++ch) {
      running_mean.at(ch) = (1.0f - momentum) * running_mean.at(ch) +
                            momentum * stats->mean.at(ch);
      running_var.at(ch) = (1.0f - momentum) * running_var.at(ch) +
                           momentum * stats->var.at(ch);
    }
  }
  Var y = Var::make_node(std::move(out), {x, gamma, beta});
  if (y.requires_grad()) {
    y.set_backward([x, gamma, beta, stats](const Tensor& g) {
      ops::BatchNormGrads grads =
          ops::batch_norm_backward(g, x.value(), gamma.value(), *stats);
      if (x.requires_grad()) accumulate_grad(x, grads.grad_input);
      if (gamma.requires_grad()) accumulate_grad(gamma, grads.grad_gamma);
      if (beta.requires_grad()) accumulate_grad(beta, grads.grad_beta);
    });
  }
  return y;
}

Var max_pool2d(const Var& x, ops::Pool2dParams p) {
  // The argmax is built only when a gradient will flow through it.
  ops::MaxPool2dResult res = ops::max_pool2d(
      x.value(), p, x.requires_grad() && GradMode::enabled());
  Var y = Var::make_node(std::move(res.output), {x});
  if (y.requires_grad()) {
    const index_t h = x.value().dim(2), w = x.value().dim(3);
    y.set_backward([x, argmax = std::move(res.argmax), h, w](
                       const Tensor& g) {
      accumulate_grad(x, ops::max_pool2d_backward(g, argmax, h, w));
    });
  }
  return y;
}

Var avg_pool2d(const Var& x, ops::Pool2dParams p) {
  Tensor out = ops::avg_pool2d(x.value(), p);
  Var y = Var::make_node(std::move(out), {x});
  if (y.requires_grad()) {
    const index_t h = x.value().dim(2), w = x.value().dim(3);
    y.set_backward([x, p, h, w](const Tensor& g) {
      accumulate_grad(x, ops::avg_pool2d_backward(g, p, h, w));
    });
  }
  return y;
}

Var unpool2d(const Var& x, index_t scale) {
  Tensor out = ops::unpool2d_bilinear(x.value(), scale);
  Var y = Var::make_node(std::move(out), {x});
  if (y.requires_grad()) {
    const index_t h = x.value().dim(2), w = x.value().dim(3);
    y.set_backward([x, scale, h, w](const Tensor& g) {
      accumulate_grad(x, ops::unpool2d_bilinear_backward(g, scale, h, w));
    });
  }
  return y;
}

Var max_pool3d(const Var& x, ops::Pool3dParams p) {
  ops::MaxPool3dResult res = ops::max_pool3d(
      x.value(), p, x.requires_grad() && GradMode::enabled());
  Var y = Var::make_node(std::move(res.output), {x});
  if (y.requires_grad()) {
    const index_t d = x.value().dim(2), h = x.value().dim(3),
                  w = x.value().dim(4);
    y.set_backward([x, argmax = std::move(res.argmax), d, h, w](
                       const Tensor& g) {
      accumulate_grad(x, ops::max_pool3d_backward(g, argmax, d, h, w));
    });
  }
  return y;
}

Var avg_pool3d(const Var& x, ops::Pool3dParams p) {
  Tensor out = ops::avg_pool3d(x.value(), p);
  Var y = Var::make_node(std::move(out), {x});
  if (y.requires_grad()) {
    const index_t d = x.value().dim(2), h = x.value().dim(3),
                  w = x.value().dim(4);
    y.set_backward([x, p, d, h, w](const Tensor& g) {
      accumulate_grad(x, ops::avg_pool3d_backward(g, p, d, h, w));
    });
  }
  return y;
}

Var global_avg_pool3d(const Var& x) {
  Tensor out = ops::global_avg_pool3d(x.value());
  Var y = Var::make_node(std::move(out), {x});
  if (y.requires_grad()) {
    const index_t d = x.value().dim(2), h = x.value().dim(3),
                  w = x.value().dim(4);
    y.set_backward([x, d, h, w](const Tensor& g) {
      accumulate_grad(x, ops::global_avg_pool3d_backward(g, d, h, w));
    });
  }
  return y;
}

Var relu(const Var& x) {
  Var y = Var::make_node(ops::relu(x.value()), {x});
  if (y.requires_grad()) {
    y.set_backward([x](const Tensor& g) {
      accumulate_grad(x, ops::relu_backward(g, x.value()));
    });
  }
  return y;
}

Var leaky_relu(const Var& x, real_t slope) {
  Var y = Var::make_node(ops::leaky_relu(x.value(), slope), {x});
  if (y.requires_grad()) {
    y.set_backward([x, slope](const Tensor& g) {
      accumulate_grad(x, ops::leaky_relu_backward(g, x.value(), slope));
    });
  }
  return y;
}

Var sigmoid(const Var& x) {
  Tensor out = ops::sigmoid(x.value());
  Var y = Var::make_node(out, {x});
  if (y.requires_grad()) {
    y.set_backward([x, out](const Tensor& g) {
      accumulate_grad(x, ops::sigmoid_backward(g, out));
    });
  }
  return y;
}

Var concat(const std::vector<Var>& xs) {
  std::vector<Tensor> vals;
  vals.reserve(xs.size());
  std::vector<index_t> channels;
  for (const Var& v : xs) {
    vals.push_back(v.value());
    channels.push_back(v.value().dim(1));
  }
  Var y = Var::make_node(ops::concat_channels(vals), xs);
  if (y.requires_grad()) {
    y.set_backward([xs, channels](const Tensor& g) {
      std::vector<Tensor> parts = ops::split_channels(g, channels);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (xs[i].requires_grad()) accumulate_grad(xs[i], parts[i]);
      }
    });
  }
  return y;
}

Var reshape(const Var& x, Shape shape) {
  // clone keeps the node's value independent of the parent buffer.
  Var y = Var::make_node(x.value().clone().reshape(shape), {x});
  if (y.requires_grad()) {
    Shape orig = x.value().shape();
    y.set_backward([x, orig](const Tensor& g) {
      accumulate_grad(x, g.clone().reshape(orig));
    });
  }
  return y;
}

Var add(const Var& a, const Var& b) {
  Var y = Var::make_node(a.value().add(b.value()), {a, b});
  if (y.requires_grad()) {
    y.set_backward([a, b](const Tensor& g) {
      if (a.requires_grad()) accumulate_grad(a, g);
      if (b.requires_grad()) accumulate_grad(b, g);
    });
  }
  return y;
}

Var sub(const Var& a, const Var& b) {
  Var y = Var::make_node(a.value().sub(b.value()), {a, b});
  if (y.requires_grad()) {
    y.set_backward([a, b](const Tensor& g) {
      if (a.requires_grad()) accumulate_grad(a, g);
      if (b.requires_grad()) {
        Tensor neg = g.clone();
        neg.mul_(-1.0f);
        accumulate_grad(b, neg);
      }
    });
  }
  return y;
}

Var mul(const Var& a, const Var& b) {
  Var y = Var::make_node(a.value().mul(b.value()), {a, b});
  if (y.requires_grad()) {
    y.set_backward([a, b](const Tensor& g) {
      if (a.requires_grad()) accumulate_grad(a, g.mul(b.value()));
      if (b.requires_grad()) accumulate_grad(b, g.mul(a.value()));
    });
  }
  return y;
}

Var div(const Var& a, const Var& b) {
  Tensor out(a.value().shape());
  {
    const real_t* pa = a.value().data();
    const real_t* pb = b.value().data();
    real_t* po = out.data();
    const index_t n = out.numel();
    for (index_t i = 0; i < n; ++i) po[i] = pa[i] / pb[i];
  }
  Var y = Var::make_node(std::move(out), {a, b});
  if (y.requires_grad()) {
    y.set_backward([a, b](const Tensor& g) {
      const index_t n = g.numel();
      if (a.requires_grad()) {
        Tensor ga(g.shape());
        const real_t* pg = g.data();
        const real_t* pb = b.value().data();
        real_t* po = ga.data();
        for (index_t i = 0; i < n; ++i) po[i] = pg[i] / pb[i];
        accumulate_grad(a, ga);
      }
      if (b.requires_grad()) {
        Tensor gb(g.shape());
        const real_t* pg = g.data();
        const real_t* pa = a.value().data();
        const real_t* pb = b.value().data();
        real_t* po = gb.data();
        for (index_t i = 0; i < n; ++i) {
          po[i] = -pg[i] * pa[i] / (pb[i] * pb[i]);
        }
        accumulate_grad(b, gb);
      }
    });
  }
  return y;
}

Var add_scalar(const Var& a, real_t s) {
  Tensor out = a.value().clone();
  {
    real_t* p = out.data();
    const index_t n = out.numel();
    for (index_t i = 0; i < n; ++i) p[i] += s;
  }
  Var y = Var::make_node(std::move(out), {a});
  if (y.requires_grad()) {
    y.set_backward([a](const Tensor& g) { accumulate_grad(a, g); });
  }
  return y;
}

Var mul_scalar(const Var& a, real_t s) {
  Tensor out = a.value().clone();
  out.mul_(s);
  Var y = Var::make_node(std::move(out), {a});
  if (y.requires_grad()) {
    y.set_backward([a, s](const Tensor& g) {
      Tensor gs = g.clone();
      gs.mul_(s);
      accumulate_grad(a, gs);
    });
  }
  return y;
}

Var pow_scalar(const Var& a, real_t e) {
  Tensor out(a.value().shape());
  {
    const real_t* pa = a.value().data();
    real_t* po = out.data();
    const index_t n = out.numel();
    for (index_t i = 0; i < n; ++i) po[i] = std::pow(pa[i], e);
  }
  Var y = Var::make_node(std::move(out), {a});
  if (y.requires_grad()) {
    y.set_backward([a, e](const Tensor& g) {
      Tensor ga(g.shape());
      const real_t* pg = g.data();
      const real_t* pa = a.value().data();
      real_t* po = ga.data();
      const index_t n = g.numel();
      for (index_t i = 0; i < n; ++i) {
        po[i] = pg[i] * e * std::pow(pa[i], e - 1.0f);
      }
      accumulate_grad(a, ga);
    });
  }
  return y;
}

Var clamp_min(const Var& a, real_t floor) {
  Tensor out(a.value().shape());
  {
    const real_t* pa = a.value().data();
    real_t* po = out.data();
    const index_t n = out.numel();
    for (index_t i = 0; i < n; ++i) po[i] = pa[i] > floor ? pa[i] : floor;
  }
  Var y = Var::make_node(std::move(out), {a});
  if (y.requires_grad()) {
    y.set_backward([a, floor](const Tensor& g) {
      Tensor ga(g.shape());
      const real_t* pg = g.data();
      const real_t* pa = a.value().data();
      real_t* po = ga.data();
      const index_t n = g.numel();
      for (index_t i = 0; i < n; ++i) po[i] = pa[i] > floor ? pg[i] : 0.0f;
      accumulate_grad(a, ga);
    });
  }
  return y;
}

Var sum(const Var& a) {
  Tensor out({1});
  out.at(0) = a.value().sum();
  Var y = Var::make_node(std::move(out), {a});
  if (y.requires_grad()) {
    y.set_backward([a](const Tensor& g) {
      accumulate_grad(a, Tensor::full(a.value().shape(), g.at(0)));
    });
  }
  return y;
}

Var mean(const Var& a) {
  Tensor out({1});
  out.at(0) = a.value().mean();
  Var y = Var::make_node(std::move(out), {a});
  if (y.requires_grad()) {
    const real_t inv = 1.0f / static_cast<real_t>(a.value().numel());
    y.set_backward([a, inv](const Tensor& g) {
      accumulate_grad(a, Tensor::full(a.value().shape(), g.at(0) * inv));
    });
  }
  return y;
}

}  // namespace ccovid::autograd
