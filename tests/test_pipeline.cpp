// Pipeline stages: Enhancement AI training improves image quality
// (Table 8's direction), Segmentation AI learns lung masks, and the
// framework's diagnose path produces sane outputs.
#include <gtest/gtest.h>

#include "core/digest.h"
#include "core/parallel.h"
#include "core/precision.h"
#include "nn/layers.h"
#include "pipeline/framework.h"

namespace ccovid::pipeline {
namespace {

data::EnhancementDataset tiny_enhancement_dataset(Rng& rng) {
  data::EnhancementDatasetConfig cfg;
  cfg.image_px = 32;
  cfg.num_train = 6;
  cfg.num_val = 2;
  cfg.num_test = 2;
  cfg.lowdose.photons_per_ray = 3e4;  // visible noise at tiny scale
  return data::make_enhancement_dataset(cfg, rng);
}

nn::DDnetConfig tiny_ddnet_cfg() {
  nn::DDnetConfig cfg = nn::DDnetConfig::tiny();
  return cfg;
}

TEST(EnhancementAI, TrainingReducesLoss) {
  nn::seed_init_rng(1);
  Rng rng(2);
  data::EnhancementDataset ds = tiny_enhancement_dataset(rng);
  EnhancementAI ai(tiny_ddnet_cfg());
  EnhancementTrainConfig cfg;
  cfg.epochs = 6;
  cfg.lr = 2e-3;
  cfg.msssim_scales = 1;
  const auto logs = ai.train(ds, cfg, rng);
  ASSERT_EQ(logs.size(), 6u);
  EXPECT_LT(logs.back().train_loss, logs.front().train_loss);
  for (const auto& log : logs) {
    EXPECT_TRUE(std::isfinite(log.train_loss));
    EXPECT_TRUE(std::isfinite(log.val_loss));
  }
}

TEST(EnhancementAI, EnhancementImprovesMsSsim) {
  // Table 8's key direction: MS-SSIM(Y, f(X)) > MS-SSIM(Y, X) and
  // MSE(Y, f(X)) < MSE(Y, X) after training.
  nn::seed_init_rng(3);
  Rng rng(4);
  data::EnhancementDataset ds = tiny_enhancement_dataset(rng);
  EnhancementAI ai(tiny_ddnet_cfg());
  EnhancementTrainConfig cfg;
  cfg.epochs = 10;
  cfg.lr = 2e-3;
  cfg.msssim_scales = 1;
  ai.train(ds, cfg, rng);
  const EnhancementEval eval = ai.evaluate(ds.test);
  EXPECT_LT(eval.mse_enhanced, eval.mse_low);
  EXPECT_GT(eval.msssim_enhanced, eval.msssim_low);
}

TEST(EnhancementAI, EnhanceVolumeSliceWise) {
  nn::seed_init_rng(5);
  EnhancementAI ai(tiny_ddnet_cfg());
  Rng rng(6);
  Tensor vol({3, 16, 16});
  rng.fill_uniform(vol, 0.0, 1.0);
  const Tensor out = ai.enhance_volume(vol);
  EXPECT_EQ(out.shape(), vol.shape());
}

TEST(EnhancementAI, EnhanceVolumeBitwiseAcrossWidthsAndDepths) {
  // The module walk is fp32: the graph must be too, whatever the
  // process-wide precision.
  const core::PrecisionGuard fp32(core::Precision::kF32);
  nn::seed_init_rng(5);
  EnhancementAI ai(tiny_ddnet_cfg());
  ai.network().set_training(false);
  Rng rng(7);
  // Depth 1, depth below the lane count, and depths that are not a
  // multiple of it.
  for (const index_t depth : {1, 3, 5, 6}) {
    Tensor vol({depth, 16, 16});
    rng.fill_uniform(vol, 0.0, 1.0);
    // Reference: the module walk over each slice, one after another.
    Tensor want({depth, 16, 16});
    for (index_t z = 0; z < depth; ++z) {
      Tensor slice({1, 1, 16, 16});
      std::copy(vol.data() + z * 256, vol.data() + (z + 1) * 256,
                slice.data());
      autograd::NoGradGuard no_grad;
      const Tensor e = ai.network().forward(autograd::Var(slice)).value();
      std::copy(e.data(), e.data() + 256, want.data() + z * 256);
    }
    for (const int width : {1, 2, 4, 8}) {
      ParallelPin pin(width);
      EXPECT_EQ(fnv1a64(ai.enhance_volume(vol)), fnv1a64(want))
          << "depth " << depth << ", width " << width;
    }
  }
}

TEST(EnhancementAI, EnhanceVolumeErrorsReachTheCaller) {
  nn::seed_init_rng(5);
  EnhancementAI ai(tiny_ddnet_cfg());
  ai.network().set_training(false);
  ParallelPin pin(4);
  // Tiny DDnet needs extents divisible by 4: every slice throws.
  EXPECT_THROW(ai.enhance_volume(Tensor({5, 10, 10})),
               std::invalid_argument);
  EXPECT_THROW(ai.enhance_volume(Tensor({16, 16})), std::invalid_argument);
}

TEST(SegmentationAI, TrainingImprovesDice) {
  nn::seed_init_rng(7);
  Rng rng(8);
  data::ClassificationDatasetConfig dcfg;
  dcfg.depth = 4;
  dcfg.image_px = 32;
  dcfg.num_train = 8;
  dcfg.num_test = 4;
  const data::ClassificationDataset ds =
      data::make_classification_dataset(dcfg, rng);

  SegmentationAI ai;
  const SegmentationEval before = ai.evaluate(ds.test);
  SegmentationTrainConfig cfg;
  cfg.epochs = 10;
  cfg.lr = 5e-3;
  const auto losses = ai.train(ds.train, cfg, rng);
  EXPECT_LT(losses.back(), losses.front());
  const SegmentationEval after = ai.evaluate(ds.test);
  EXPECT_GT(after.dice, before.dice);
  EXPECT_GT(after.pixel_accuracy, 0.7);
}

TEST(SegmentationAI, DiceIdentities) {
  Tensor a = Tensor::ones({2, 4, 4});
  Tensor b = Tensor::zeros({2, 4, 4});
  EXPECT_DOUBLE_EQ(SegmentationAI::dice(a, a), 1.0);
  EXPECT_DOUBLE_EQ(SegmentationAI::dice(a, b), 0.0);
  EXPECT_DOUBLE_EQ(SegmentationAI::dice(b, b), 1.0);  // empty-empty
}

TEST(ClassificationAI, LearnsSeparableVolumes) {
  nn::seed_init_rng(9);
  Rng rng(10);
  // Trivially separable synthetic task: positives have a bright block.
  std::vector<Tensor> volumes;
  std::vector<int> labels;
  for (int i = 0; i < 12; ++i) {
    Tensor v({4, 16, 16});
    rng.fill_uniform(v, 0.0, 0.3);
    const int label = i % 2;
    if (label == 1) {
      for (index_t z = 1; z < 3; ++z) {
        for (index_t y = 4; y < 12; ++y) {
          for (index_t x = 4; x < 12; ++x) v.at(z, y, x) += 0.6f;
        }
      }
    }
    volumes.push_back(std::move(v));
    labels.push_back(label);
  }
  ClassificationAI ai;
  ClassificationTrainConfig cfg;
  cfg.epochs = 12;
  cfg.lr = 3e-3;
  cfg.augment = false;
  const auto logs = ai.train(volumes, labels, cfg, rng);
  EXPECT_LT(logs.back().train_loss, logs.front().train_loss);
  // Training-set AUC should be well above chance.
  const auto scores = ai.score_all(volumes, labels);
  EXPECT_GT(metrics::auc(scores.probabilities, scores.labels), 0.8);
}

TEST(ClassificationAI, PaperPresetMatchesSection331) {
  const auto cfg = ClassificationTrainConfig::paper();
  EXPECT_EQ(cfg.epochs, 100);
  EXPECT_DOUBLE_EQ(cfg.lr, 1e-6);
  EXPECT_DOUBLE_EQ(cfg.augment_cfg.noise_prob, 0.75);
  EXPECT_DOUBLE_EQ(cfg.augment_cfg.noise_variance, 0.1);
  EXPECT_DOUBLE_EQ(cfg.augment_cfg.contrast_prob, 0.5);
  EXPECT_DOUBLE_EQ(cfg.augment_cfg.intensity_magnitude, 0.1);
}

TEST(Framework, DiagnoseProducesProbability) {
  nn::seed_init_rng(11);
  Rng rng(12);
  auto enh = std::make_shared<EnhancementAI>(tiny_ddnet_cfg());
  auto seg = std::make_shared<SegmentationAI>();
  auto cls = std::make_shared<ClassificationAI>();
  enh->network().set_training(false);
  ComputeCovid19Pipeline pipeline(enh, seg, cls);

  const data::PhantomVolume vol = data::make_volume(4, 16, true, rng);
  const Diagnosis with = pipeline.diagnose(vol.hu, true);
  const Diagnosis without = pipeline.diagnose(vol.hu, false);
  EXPECT_GE(with.probability, 0.0);
  EXPECT_LE(with.probability, 1.0);
  EXPECT_GE(without.probability, 0.0);
  EXPECT_LE(without.probability, 1.0);
  EXPECT_EQ(with.positive, with.probability >= with.threshold);
}

TEST(Framework, ScoreVolumesMatchesDiagnose) {
  nn::seed_init_rng(13);
  Rng rng(14);
  auto enh = std::make_shared<EnhancementAI>(tiny_ddnet_cfg());
  auto seg = std::make_shared<SegmentationAI>();
  auto cls = std::make_shared<ClassificationAI>();
  enh->network().set_training(false);
  ComputeCovid19Pipeline pipeline(enh, seg, cls);

  std::vector<Tensor> volumes;
  volumes.push_back(data::make_volume(4, 16, false, rng).hu);
  volumes.push_back(data::make_volume(4, 16, true, rng).hu);
  const auto scores = pipeline.score_volumes(volumes, false);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_NEAR(scores[0],
              pipeline.diagnose(volumes[0], false).probability, 1e-6);
}

TEST(Framework, RejectsNonVolumeInput) {
  nn::seed_init_rng(15);
  auto enh = std::make_shared<EnhancementAI>(tiny_ddnet_cfg());
  auto seg = std::make_shared<SegmentationAI>();
  auto cls = std::make_shared<ClassificationAI>();
  ComputeCovid19Pipeline pipeline(enh, seg, cls);
  Tensor slice({16, 16});
  EXPECT_THROW(pipeline.diagnose(slice, false), std::invalid_argument);
}

}  // namespace
}  // namespace ccovid::pipeline
