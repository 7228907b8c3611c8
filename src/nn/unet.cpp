#include "nn/unet.h"

#include <stdexcept>

#include "nn/graph_capture.h"

namespace ccovid::nn {

UNetDenoiser::UNetDenoiser(UNetConfig cfg) : cfg_(cfg) {
  const index_t base = cfg_.base_channels;
  stem_ = std::make_shared<Conv2d>(cfg_.in_channels, base, 3);
  stem_bn_ = std::make_shared<BatchNorm>(base);
  register_module("stem", stem_);
  register_module("stem_bn", stem_bn_);

  index_t c = base;
  for (int l = 0; l < cfg_.levels; ++l) {
    Level e{std::make_shared<Conv2d>(c, c * 2, 3),
            std::make_shared<BatchNorm>(c * 2)};
    const std::string tag = "enc" + std::to_string(l) + ".";
    register_module(tag + "conv", e.conv);
    register_module(tag + "bn", e.bn);
    encoder_.push_back(std::move(e));
    c *= 2;
  }
  for (int l = 0; l < cfg_.levels; ++l) {
    Level d{std::make_shared<Conv2d>(c + c / 2, c / 2, 3),
            std::make_shared<BatchNorm>(c / 2)};
    const std::string tag = "dec" + std::to_string(l) + ".";
    register_module(tag + "conv", d.conv);
    register_module(tag + "bn", d.bn);
    decoder_.push_back(std::move(d));
    c /= 2;
  }
  head_ = std::make_shared<Conv2d>(base, cfg_.out_channels, 1);
  register_module("head", head_);
}

Var UNetDenoiser::forward(const Var& x) const {
  const index_t div = index_t(1) << cfg_.levels;
  if (x.value().dim(2) % div != 0 || x.value().dim(3) % div != 0) {
    throw std::invalid_argument("UNetDenoiser: extent must divide " +
                                std::to_string(div));
  }
  const ops::Pool2dParams pool{2, 2, 0};
  Var t = stem_->forward(x);
  t = stem_bn_->forward(t);
  t = autograd::leaky_relu(t, cfg_.leaky_slope);

  std::vector<Var> skips;
  for (int l = 0; l < cfg_.levels; ++l) {
    skips.push_back(t);
    t = autograd::max_pool2d(t, pool);
    t = encoder_[l].conv->forward(t);
    t = encoder_[l].bn->forward(t);
    t = autograd::leaky_relu(t, cfg_.leaky_slope);
  }
  for (int l = 0; l < cfg_.levels; ++l) {
    t = autograd::unpool2d(t, 2);
    t = autograd::concat(
        {t, skips[static_cast<std::size_t>(cfg_.levels - 1 - l)]});
    t = decoder_[l].conv->forward(t);
    t = decoder_[l].bn->forward(t);
    t = autograd::leaky_relu(t, cfg_.leaky_slope);
  }
  t = head_->forward(t);
  if (cfg_.residual) {
    t = autograd::add(t, x.requires_grad() ? x : x.detach());
  }
  return t;
}

graph::Graph UNetDenoiser::build_graph(index_t n, index_t h,
                                       index_t w) const {
  const index_t div = index_t(1) << cfg_.levels;
  if (h % div != 0 || w % div != 0) {
    throw std::invalid_argument("UNetDenoiser: extent must divide " +
                                std::to_string(div));
  }
  const ops::Pool2dParams pool{2, 2, 0};
  graph::Graph g;
  const int input = g.add_input({n, cfg_.in_channels, h, w});

  int t = capture_conv(&g, input, *stem_);
  t = capture_bn(&g, t, *stem_bn_);
  t = g.add_leaky_relu(t, cfg_.leaky_slope);

  std::vector<int> skips;
  for (int l = 0; l < cfg_.levels; ++l) {
    skips.push_back(t);
    t = g.add_max_pool(t, pool);
    t = capture_conv(&g, t, *encoder_[size_t(l)].conv);
    t = capture_bn(&g, t, *encoder_[size_t(l)].bn);
    t = g.add_leaky_relu(t, cfg_.leaky_slope);
  }
  for (int l = 0; l < cfg_.levels; ++l) {
    t = g.add_unpool(t, 2);
    t = g.add_concat(
        {t, skips[static_cast<std::size_t>(cfg_.levels - 1 - l)]});
    t = capture_conv(&g, t, *decoder_[size_t(l)].conv);
    t = capture_bn(&g, t, *decoder_[size_t(l)].bn);
    t = g.add_leaky_relu(t, cfg_.leaky_slope);
  }
  t = capture_conv(&g, t, *head_);
  if (cfg_.residual) t = g.add_add(t, input);
  g.mark_output(t);
  return g;
}

Tensor UNetDenoiser::enhance(const Tensor& image) const {
  if (image.rank() != 2) {
    throw std::invalid_argument("UNetDenoiser::enhance: expected (H, W)");
  }
  if (!training() && !batch_stats_always()) {
    auto cg =
        compiled_for(image.dim(0), image.dim(1), core::Precision::kF32);
    Tensor in = image.clone().reshape({1, 1, image.dim(0), image.dim(1)});
    return cg->run(in).reshape({image.dim(0), image.dim(1)});
  }
  autograd::NoGradGuard no_grad;
  Var in(image.clone().reshape({1, 1, image.dim(0), image.dim(1)}));
  return forward(in).value().clone().reshape({image.dim(0), image.dim(1)});
}

}  // namespace ccovid::nn
