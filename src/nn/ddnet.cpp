#include "nn/ddnet.h"

#include <stdexcept>

#include "core/precision.h"
#include "nn/graph_capture.h"

namespace ccovid::nn {

DDnet::DDnet(DDnetConfig cfg) : cfg_(cfg) {
  if (cfg_.levels < 1 || cfg_.dense_layers < 1 || cfg_.base_channels < 1) {
    throw std::invalid_argument("DDnet: bad config");
  }
  const index_t base = cfg_.base_channels;

  // "Convolution 1": 7x7 stem to base width at full resolution; its
  // output is both the encoder input and the full-resolution global
  // shortcut source.
  stem_ = std::make_shared<Conv2d>(cfg_.in_channels, base, 7);
  stem_bn_ = std::make_shared<BatchNorm>(base);
  register_module("stem", stem_);
  register_module("stem_bn", stem_bn_);

  for (int l = 0; l < cfg_.levels; ++l) {
    EncoderLevel e;
    e.block = std::make_shared<DenseBlock2d>(base, cfg_.growth,
                                             cfg_.dense_layers,
                                             cfg_.leaky_slope);
    e.transition =
        std::make_shared<Conv2d>(e.block->out_channels(), base, 1);
    e.bn = std::make_shared<BatchNorm>(base);
    const std::string tag = "enc" + std::to_string(l) + ".";
    register_module(tag + "block", e.block);
    register_module(tag + "transition", e.transition);
    register_module(tag + "bn", e.bn);
    encoder_.push_back(e);
    all_convs_.push_back(e.transition);
  }
  all_convs_.push_back(stem_);

  for (int l = 0; l < cfg_.levels; ++l) {
    // Decoder level l operates at scale 2^(levels-1-l) relative to the
    // bottom; the last level reaches full resolution and emits the
    // output image.
    const bool is_output = (l == cfg_.levels - 1);
    DecoderLevel d;
    // Input: unpooled trunk (base) concatenated with the matching-scale
    // global shortcut (base) -> 2*base channels.
    d.deconv5 = std::make_shared<Deconv2d>(2 * base, 2 * base, 5);
    d.bn5 = std::make_shared<BatchNorm>(2 * base);
    d.deconv1 = std::make_shared<Deconv2d>(
        2 * base, is_output ? cfg_.out_channels : base, 1);
    d.bn1 = is_output ? nullptr : std::make_shared<BatchNorm>(base);
    const std::string tag = "dec" + std::to_string(l) + ".";
    register_module(tag + "deconv5", d.deconv5);
    register_module(tag + "bn5", d.bn5);
    register_module(tag + "deconv1", d.deconv1);
    if (d.bn1) register_module(tag + "bn1", d.bn1);
    decoder_.push_back(d);
    all_deconvs_.push_back(d.deconv5);
    all_deconvs_.push_back(d.deconv1);
  }
}

Var DDnet::forward(const Var& x) const {
  const index_t h = x.value().dim(2), w = x.value().dim(3);
  const index_t div = index_t(1) << cfg_.levels;
  if (h % div != 0 || w % div != 0) {
    throw std::invalid_argument("DDnet: input extent must be divisible by " +
                                std::to_string(div));
  }
  const ops::Pool2dParams pool{3, 2, 1};

  Var t = stem_->forward(x);
  t = stem_bn_->forward(t);
  t = autograd::leaky_relu(t, cfg_.leaky_slope);

  // skips[l] is the trunk at scale /2^l (l = 0 is full resolution).
  std::vector<Var> skips;
  skips.push_back(t);
  for (int l = 0; l < cfg_.levels; ++l) {
    t = autograd::max_pool2d(t, pool);
    t = encoder_[l].block->forward(t);
    t = encoder_[l].transition->forward(t);
    t = encoder_[l].bn->forward(t);
    t = autograd::leaky_relu(t, cfg_.leaky_slope);
    if (l + 1 < cfg_.levels) skips.push_back(t);
  }

  for (int l = 0; l < cfg_.levels; ++l) {
    const bool is_output = (l == cfg_.levels - 1);
    t = autograd::unpool2d(t, 2);
    // Global shortcut from the encoder trunk at this scale (§2.2.3).
    const Var& skip = skips[static_cast<std::size_t>(cfg_.levels - 1 - l)];
    t = autograd::concat({t, skip});
    t = decoder_[l].deconv5->forward(t);
    t = decoder_[l].bn5->forward(t);
    t = autograd::leaky_relu(t, cfg_.leaky_slope);
    t = decoder_[l].deconv1->forward(t);
    if (!is_output) {
      t = decoder_[l].bn1->forward(t);
      t = autograd::leaky_relu(t, cfg_.leaky_slope);
    }
  }

  if (cfg_.residual) {
    t = autograd::add(t, x.requires_grad() ? x : x.detach());
  }
  return t;
}

graph::Graph DDnet::build_graph(index_t n, index_t h, index_t w) const {
  const index_t div = index_t(1) << cfg_.levels;
  if (h % div != 0 || w % div != 0) {
    throw std::invalid_argument("DDnet: input extent must be divisible by " +
                                std::to_string(div));
  }
  const ops::Pool2dParams pool{3, 2, 1};
  graph::Graph g;
  const int input = g.add_input({n, cfg_.in_channels, h, w});

  // Mirrors forward() node for node (same op order, same parameters),
  // so the compiled unfused schedule reproduces the module bitwise.
  int t = capture_conv(&g, input, *stem_);
  t = capture_bn(&g, t, *stem_bn_);
  t = g.add_leaky_relu(t, cfg_.leaky_slope);

  std::vector<int> skips;
  skips.push_back(t);
  for (int l = 0; l < cfg_.levels; ++l) {
    t = g.add_max_pool(t, pool);
    t = encoder_[size_t(l)].block->append_to_graph(&g, t);
    t = capture_conv(&g, t, *encoder_[size_t(l)].transition);
    t = capture_bn(&g, t, *encoder_[size_t(l)].bn);
    t = g.add_leaky_relu(t, cfg_.leaky_slope);
    if (l + 1 < cfg_.levels) skips.push_back(t);
  }

  for (int l = 0; l < cfg_.levels; ++l) {
    const bool is_output = (l == cfg_.levels - 1);
    t = g.add_unpool(t, 2);
    t = g.add_concat(
        {t, skips[static_cast<std::size_t>(cfg_.levels - 1 - l)]});
    t = capture_deconv(&g, t, *decoder_[size_t(l)].deconv5);
    t = capture_bn(&g, t, *decoder_[size_t(l)].bn5);
    t = g.add_leaky_relu(t, cfg_.leaky_slope);
    t = capture_deconv(&g, t, *decoder_[size_t(l)].deconv1);
    if (!is_output) {
      t = capture_bn(&g, t, *decoder_[size_t(l)].bn1);
      t = g.add_leaky_relu(t, cfg_.leaky_slope);
    }
  }

  if (cfg_.residual) t = g.add_add(t, input);
  g.mark_output(t);
  return g;
}

Tensor DDnet::enhance(const Tensor& image) const {
  if (image.rank() != 2) {
    throw std::invalid_argument("DDnet::enhance: expected (H, W)");
  }
  // The storage precision is sampled ONCE per request: a concurrent
  // set_active_precision (serve --precision toggles) can never mix
  // formats within a single enhance() call.
  const core::Precision prec = core::active_precision();
  // Eval mode with frozen statistics runs the compiled graph; training
  // mode and batch-stats-always both change the batch-norm semantics
  // the capture froze, so they take the module walk below. At fp32 the
  // graph is bitwise identical to the walk; fp16/bf16/int8 swap the
  // storage format of weights and intermediates (DESIGN.md §13) and
  // only exist on the graph path.
  if (!training() && !batch_stats_always()) {
    auto cg = compiled_for(image.dim(0), image.dim(1), prec);
    Tensor in = image.clone().reshape({1, 1, image.dim(0), image.dim(1)});
    return cg->run(in).reshape({image.dim(0), image.dim(1)});
  }
  autograd::NoGradGuard no_grad;
  Var in(image.clone().reshape({1, 1, image.dim(0), image.dim(1)}));
  Var out = forward(in);
  return out.value().clone().reshape({image.dim(0), image.dim(1)});
}

void DDnet::set_kernel_options(const ops::KernelOptions& opt) {
  for (auto& c : all_convs_) c->set_kernel_options(opt);
  for (auto& d : all_deconvs_) d->set_kernel_options(opt);
  for (auto& e : encoder_) e.block->set_kernel_options(opt);
}

}  // namespace ccovid::nn
