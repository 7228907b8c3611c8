// Enhancement AI (§2.2, §3.1): DDnet trained on (low-dose, full-dose)
// image pairs with the composite MSE + 0.1*(1 - MS-SSIM) loss, Adam at
// lr 1e-4 decayed x0.8 per epoch, batch size 1 — the paper's §3.1.1
// hyperparameters exactly. Multi-node training goes through
// dist::DdpTrainer; this class is the single-process trainer + inference
// wrapper used by the pipeline and examples.
#pragma once

#include <vector>

#include "autograd/losses.h"
#include "autograd/optim.h"
#include "data/dataset.h"
#include "nn/ddnet.h"

namespace ccovid::pipeline {

struct EnhancementTrainConfig {
  int epochs = 50;        ///< paper: 50
  double lr = 1e-4;       ///< paper: 1e-4
  double lr_decay = 0.8;  ///< paper: x0.8 per epoch
  real_t msssim_weight = 0.1f;
  int msssim_scales = 5;  ///< auto-reduced for small images
};

struct EpochLog {
  int epoch;
  double train_loss;
  double val_loss;
};

/// Table 8's four numbers.
struct EnhancementEval {
  double mse_low = 0.0;        ///< MSE(Y, X)
  double msssim_low = 0.0;     ///< MS-SSIM(Y, X)
  double mse_enhanced = 0.0;   ///< MSE(Y, f(X))
  double msssim_enhanced = 0.0;
};

class EnhancementAI {
 public:
  explicit EnhancementAI(nn::DDnetConfig cfg = nn::DDnetConfig::paper());

  /// Trains on the dataset's train split, evaluating the loss on the
  /// validation split after each epoch (Fig. 11a's two curves).
  std::vector<EpochLog> train(const data::EnhancementDataset& dataset,
                              const EnhancementTrainConfig& cfg, Rng& rng);

  /// Enhances one [0,1] slice (H, W); inference only.
  Tensor enhance(const Tensor& low_dose) const;

  /// Enhances every slice of a (D, H, W) volume, slices in parallel
  /// through nn::map_slices (in order while the network trains).
  Tensor enhance_volume(const Tensor& low_dose_volume) const;

  /// MSE / MS-SSIM of the raw and enhanced test images vs ground truth.
  EnhancementEval evaluate(const std::vector<data::LowDosePair>& test) const;

  nn::DDnet& network() { return net_; }
  const nn::DDnet& network() const { return net_; }

 private:
  double dataset_loss(const std::vector<data::LowDosePair>& pairs,
                      const EnhancementTrainConfig& cfg) const;

  nn::DDnet net_;
};

}  // namespace ccovid::pipeline
