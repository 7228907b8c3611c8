#include "pipeline/enhancement_ai.h"

#include <stdexcept>

#include "metrics/image_quality.h"
#include "nn/slice_map.h"

namespace ccovid::pipeline {

namespace {

autograd::Var slice_to_batch_var(const Tensor& slice, bool requires_grad) {
  return autograd::Var(
      slice.clone().reshape({1, 1, slice.dim(0), slice.dim(1)}),
      requires_grad);
}

Tensor slice_to_batch(const Tensor& slice) {
  return slice.clone().reshape({1, 1, slice.dim(0), slice.dim(1)});
}

}  // namespace

EnhancementAI::EnhancementAI(nn::DDnetConfig cfg) : net_(cfg) {}

std::vector<EpochLog> EnhancementAI::train(
    const data::EnhancementDataset& dataset,
    const EnhancementTrainConfig& cfg, Rng& rng) {
  if (dataset.train.empty()) {
    throw std::invalid_argument("EnhancementAI::train: empty train split");
  }
  autograd::Adam opt(net_.parameters(), cfg.lr);
  autograd::ExponentialLR sched(opt, cfg.lr_decay);

  std::vector<EpochLog> logs;
  std::vector<index_t> order(dataset.train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    net_.set_training(true);
    // Shuffle; batch size is 1 per the paper.
    for (index_t i = static_cast<index_t>(order.size()) - 1; i > 0; --i) {
      std::swap(order[i], order[rng.uniform_int(0, i)]);
    }
    double train_loss = 0.0;
    for (index_t idx : order) {
      const data::LowDosePair& pair = dataset.train[idx];
      autograd::Var x = slice_to_batch_var(pair.low, false);
      autograd::Var pred = net_.forward(x);
      autograd::Var loss = autograd::enhancement_loss(
          pred, slice_to_batch(pair.full), cfg.msssim_weight, 11,
          cfg.msssim_scales);
      opt.zero_grad();
      loss.backward();
      opt.step();
      train_loss += static_cast<double>(loss.value().at(0));
    }
    train_loss /= static_cast<double>(order.size());

    const double val_loss =
        dataset.val.empty() ? train_loss : dataset_loss(dataset.val, cfg);
    logs.push_back({epoch + 1, train_loss, val_loss});
    sched.step();
  }
  net_.set_training(false);
  return logs;
}

double EnhancementAI::dataset_loss(
    const std::vector<data::LowDosePair>& pairs,
    const EnhancementTrainConfig& cfg) const {
  autograd::NoGradGuard no_grad;
  // set_training is non-const; evaluate with current mode but frozen
  // stats are only used when the caller switched to eval. During
  // training epochs we still report the batch-stat loss, as PyTorch does
  // when eval() is not called.
  double total = 0.0;
  for (const auto& pair : pairs) {
    autograd::Var x = slice_to_batch_var(pair.low, false);
    autograd::Var pred = const_cast<nn::DDnet&>(net_).forward(x);
    autograd::Var loss = autograd::enhancement_loss(
        pred, slice_to_batch(pair.full), cfg.msssim_weight, 11,
        cfg.msssim_scales);
    total += static_cast<double>(loss.value().at(0));
  }
  return total / static_cast<double>(pairs.size());
}

Tensor EnhancementAI::enhance(const Tensor& low_dose) const {
  return net_.enhance(low_dose);
}

Tensor EnhancementAI::enhance_volume(const Tensor& volume) const {
  // Training mode updates running statistics: enhance slices in order.
  return nn::map_slices(volume, "enhance_volume", !net_.training(),
                        [&](const Tensor& slice, real_t* out) {
                          const Tensor enhanced = net_.enhance(slice);
                          std::copy(enhanced.data(),
                                    enhanced.data() + enhanced.numel(), out);
                        });
}

EnhancementEval EnhancementAI::evaluate(
    const std::vector<data::LowDosePair>& test) const {
  if (test.empty()) {
    throw std::invalid_argument("EnhancementAI::evaluate: empty test set");
  }
  EnhancementEval e;
  for (const auto& pair : test) {
    const Tensor enhanced = enhance(pair.low);
    e.mse_low += metrics::mse(pair.full, pair.low);
    e.mse_enhanced += metrics::mse(pair.full, enhanced);
    e.msssim_low += metrics::ms_ssim(pair.full, pair.low);
    e.msssim_enhanced += metrics::ms_ssim(pair.full, enhanced);
  }
  const double inv = 1.0 / static_cast<double>(test.size());
  e.mse_low *= inv;
  e.mse_enhanced *= inv;
  e.msssim_low *= inv;
  e.msssim_enhanced *= inv;
  return e;
}

}  // namespace ccovid::pipeline
