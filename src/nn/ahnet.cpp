#include "nn/ahnet.h"

#include <stdexcept>

#include "nn/graph_capture.h"
#include "nn/slice_map.h"

namespace ccovid::nn {

namespace {

void check_extent(index_t h, index_t w, int levels) {
  const index_t div = index_t(1) << levels;
  if (h % div != 0 || w % div != 0) {
    throw std::invalid_argument("AhNet: extent must be divisible by " +
                                std::to_string(div));
  }
}

}  // namespace

AhNet::AhNet(AhNetConfig cfg) : cfg_(cfg) {
  const index_t base = cfg_.base_channels;
  stem_ = std::make_shared<Conv2d>(cfg_.in_channels, base, 3);
  stem_bn_ = std::make_shared<BatchNorm>(base);
  register_module("stem", stem_);
  register_module("stem_bn", stem_bn_);

  index_t c = base;
  for (int l = 0; l < cfg_.levels; ++l) {
    EncLevel e;
    e.conv = std::make_shared<Conv2d>(c, c * 2, 3);
    e.bn = std::make_shared<BatchNorm>(c * 2);
    const std::string tag = "enc" + std::to_string(l) + ".";
    register_module(tag + "conv", e.conv);
    register_module(tag + "bn", e.bn);
    encoder_.push_back(std::move(e));
    c *= 2;
  }
  for (int l = 0; l < cfg_.levels; ++l) {
    DecLevel d;
    // Input: unpooled (c) + skip (c/2) channels.
    d.conv = std::make_shared<Conv2d>(c + c / 2, c / 2, 3);
    d.bn = std::make_shared<BatchNorm>(c / 2);
    const std::string tag = "dec" + std::to_string(l) + ".";
    register_module(tag + "conv", d.conv);
    register_module(tag + "bn", d.bn);
    decoder_.push_back(std::move(d));
    c /= 2;
  }
  head_ = std::make_shared<Conv2d>(base, 1, 1);
  register_module("head", head_);
}

Var AhNet::forward(const Var& x) const {
  check_extent(x.value().dim(2), x.value().dim(3), cfg_.levels);
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
  return head_->forward(t);
}

graph::Graph AhNet::build_graph(index_t n, index_t h, index_t w) const {
  check_extent(h, w, cfg_.levels);
  const ops::Pool2dParams pool{2, 2, 0};
  graph::Graph g;
  const int input = g.add_input({n, cfg_.in_channels, h, w});

  // Mirrors forward() node for node (same op order, same parameters).
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
  g.mark_output(capture_conv(&g, t, *head_));
  return g;
}

Tensor AhNet::segment_volume(const Tensor& volume) const {
  // Training mode updates running statistics: walk the slices in order.
  const bool eval = !training();
  return map_slices(
      volume, "segment_volume", eval, [&](const Tensor& slice, real_t* mp) {
        const index_t h = slice.dim(0), w = slice.dim(1);
        const Tensor in = slice.reshape({1, 1, h, w});
        const Tensor logits =
            eval ? compiled_for(h, w, core::Precision::kF32)->run(in)
                 : forward(Var(in)).value();
        const real_t* lp = logits.data();
        for (index_t i = 0; i < h * w; ++i) {
          mp[i] = lp[i] > 0.0f ? 1.0f : 0.0f;
        }
      });
}

Tensor AhNet::apply_mask(const Tensor& volume, const Tensor& mask) {
  if (volume.shape() != mask.shape()) {
    throw std::invalid_argument("apply_mask: shape mismatch");
  }
  return volume.mul(mask);
}

}  // namespace ccovid::nn
