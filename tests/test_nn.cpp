// Network modules: parameter bookkeeping, state-dict round trips, DDnet
// architecture invariants (37 convolutions / 8 deconvolutions, Table 2
// shapes), the 3-D classifier, the AH-Net segmenter (its slice-parallel
// segment_volume bitwise equal to a slice-by-slice module walk) and the
// slice map's width rule.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>

#include "autograd/losses.h"
#include "autograd/optim.h"
#include "core/digest.h"
#include "core/parallel.h"
#include "nn/ahnet.h"
#include "nn/ddnet.h"
#include "nn/densenet3d.h"
#include "nn/slice_map.h"

namespace ccovid::nn {
namespace {

// ----------------------------------------------------------- Module
TEST(Module, ParametersCollectedRecursively) {
  seed_init_rng(1);
  DenseBlock2d block(4, 4, 2);
  // Per layer: bn1(gamma,beta) + conv1(w,b) + bn2(gamma,beta) + conv5(w,b)
  // = 8 params, 2 layers = 16.
  EXPECT_EQ(block.named_parameters().size(), 16u);
}

TEST(Module, NamedParametersHaveHierarchicalNames) {
  seed_init_rng(2);
  Conv2d conv(1, 2, 3);
  const auto params = conv.named_parameters();
  std::set<std::string> names;
  for (const auto& [n, v] : params) names.insert(n);
  EXPECT_TRUE(names.count("weight"));
  EXPECT_TRUE(names.count("bias"));
}

TEST(Module, StateDictRoundTrip) {
  seed_init_rng(3);
  Conv2d a(2, 3, 3);
  seed_init_rng(99);
  Conv2d b(2, 3, 3);
  EXPECT_GT(max_abs_diff(a.named_parameters()[0].second.value(),
                         b.named_parameters()[0].second.value()),
            0.0f);
  b.load_state_dict(a.state_dict());
  EXPECT_TRUE(allclose(a.named_parameters()[0].second.value(),
                       b.named_parameters()[0].second.value()));
}

TEST(Module, SaveLoadFile) {
  const std::string path =
      std::filesystem::temp_directory_path() / "ccovid_module.tnsr";
  seed_init_rng(4);
  BatchNorm bn(3);
  bn.save(path);
  seed_init_rng(5);
  BatchNorm bn2(3);
  bn2.load(path);
  EXPECT_TRUE(allclose(bn.state_dict().at("param.gamma"),
                       bn2.state_dict().at("param.gamma")));
  std::remove(path.c_str());
}

TEST(Module, LoadRejectsMissingEntries) {
  seed_init_rng(6);
  Conv2d conv(1, 1, 3);
  TensorMap empty;
  EXPECT_THROW(conv.load_state_dict(empty), std::runtime_error);
}

TEST(Module, CopyParametersProducesIdenticalForward) {
  seed_init_rng(7);
  DDnetConfig cfg = DDnetConfig::tiny();
  DDnet a(cfg);
  seed_init_rng(1234);
  DDnet b(cfg);
  b.copy_parameters_from(a);
  Rng rng(8);
  Tensor img({16, 16});
  rng.fill_uniform(img, 0.0, 1.0);
  a.set_training(false);
  b.set_training(false);
  EXPECT_TRUE(allclose(a.enhance(img), b.enhance(img), 1e-5f, 1e-5f));
}

TEST(Module, TrainingFlagPropagates) {
  seed_init_rng(9);
  DDnet net(DDnetConfig::tiny());
  net.set_training(false);
  EXPECT_FALSE(net.training());
  net.set_training(true);
  EXPECT_TRUE(net.training());
}

// ------------------------------------------------------------- DDnet
TEST(DDnet, PaperConfigHas37ConvAnd8DeconvLayers) {
  seed_init_rng(10);
  DDnet net(DDnetConfig::paper());
  index_t convs = 0, deconvs = 0;
  for (const auto& [name, v] : net.named_parameters()) {
    if (name.find("weight") == std::string::npos) continue;
    if (name.find("dec") == 0) {
      ++deconvs;
    } else if (name.find("fc") == std::string::npos) {
      ++convs;
    }
  }
  EXPECT_EQ(convs, 37);   // §2.2: "37 convolution layers"
  EXPECT_EQ(deconvs, 8);  // §2.2: "eight deconvolution layers"
}

TEST(DDnet, PreservesInputShape) {
  seed_init_rng(11);
  DDnet net(DDnetConfig::tiny());
  net.set_training(false);
  Rng rng(12);
  Tensor img({16, 24});  // rectangular, divisible by 2^levels
  rng.fill_uniform(img, 0.0, 1.0);
  const Tensor out = net.enhance(img);
  EXPECT_EQ(out.shape(), img.shape());
}

TEST(DDnet, RejectsIndivisibleExtent) {
  seed_init_rng(13);
  DDnet net(DDnetConfig::tiny());  // levels = 2 -> divisible by 4
  Rng rng(14);
  Tensor img({10, 10});
  EXPECT_THROW(net.enhance(img), std::invalid_argument);
}

TEST(DDnet, ResidualConfigPassesThroughEarlyTraining) {
  // With residual learning and near-zero-init weights, the output stays
  // close to the input before training — the denoising identity prior.
  seed_init_rng(15);
  DDnetConfig cfg = DDnetConfig::tiny();
  cfg.residual = true;
  DDnet net(cfg);
  net.set_training(false);
  Rng rng(16);
  Tensor img({16, 16});
  rng.fill_uniform(img, 0.3, 0.7);
  const Tensor out = net.enhance(img);
  EXPECT_LT(max_abs_diff(out, img), 0.5f);
}

TEST(DDnet, OneTrainingStepReducesLoss) {
  seed_init_rng(17);
  DDnetConfig cfg = DDnetConfig::tiny();
  DDnet net(cfg);
  Rng rng(18);
  Tensor target({1, 1, 16, 16});
  rng.fill_uniform(target, 0.2, 0.8);
  Tensor noisy = target.clone();
  for (index_t i = 0; i < noisy.numel(); ++i) {
    noisy.data()[i] += static_cast<real_t>(rng.gaussian(0, 0.1));
  }
  autograd::Adam opt(net.parameters(), 1e-3);
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 8; ++step) {
    autograd::Var x(noisy.clone());
    autograd::Var pred = net.forward(x);
    autograd::Var loss = autograd::enhancement_loss(pred, target, 0.1f, 11, 1);
    if (step == 0) first = loss.value().at(0);
    last = loss.value().at(0);
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  EXPECT_LT(last, first);
}

TEST(DDnet, KernelOptionSelectionPreservesOutput) {
  seed_init_rng(19);
  DDnet net(DDnetConfig::tiny());
  net.set_training(false);
  Rng rng(20);
  Tensor img({16, 16});
  rng.fill_uniform(img, 0.0, 1.0);
  net.set_kernel_options(ops::KernelOptions::all());
  const Tensor fast = net.enhance(img);
  net.set_kernel_options(ops::KernelOptions::baseline());
  const Tensor slow = net.enhance(img);
  EXPECT_TRUE(allclose(fast, slow, 1e-4f, 1e-4f));
}

// -------------------------------------------------------- DenseNet3d
TEST(DenseNet3d, EmitsSingleLogit) {
  seed_init_rng(21);
  DenseNet3d net;
  net.set_training(false);
  Rng rng(22);
  Tensor vol({1, 1, 8, 16, 16});
  rng.fill_uniform(vol, 0.0, 1.0);
  const autograd::Var out = net.forward(autograd::Var(vol));
  EXPECT_EQ(out.value().shape(), Shape({1, 1}));
}

TEST(DenseNet3d, PredictProbabilityInUnitInterval) {
  seed_init_rng(23);
  DenseNet3d net;
  net.set_training(false);
  Rng rng(24);
  Tensor vol({8, 16, 16});
  rng.fill_uniform(vol, 0.0, 1.0);
  const double p = net.predict_probability(vol);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
}

TEST(DenseNet3d, Densenet121PresetHasFourStages) {
  const DenseNet3dConfig cfg = DenseNet3dConfig::densenet121();
  EXPECT_EQ(cfg.block_layers[0], 6);
  EXPECT_EQ(cfg.block_layers[3], 16);
  EXPECT_EQ(cfg.growth, 32);
}

TEST(DenseNet3d, TrainingStepReducesBce) {
  seed_init_rng(25);
  DenseNet3d net;
  Rng rng(26);
  // One strongly positive (bright) and one negative (dark) volume.
  Tensor pos({1, 1, 4, 8, 8});
  Tensor neg({1, 1, 4, 8, 8});
  rng.fill_uniform(pos, 0.7, 1.0);
  rng.fill_uniform(neg, 0.0, 0.3);
  Tensor one({1, 1});
  one.at(0, 0) = 1.0f;
  Tensor zero({1, 1});
  autograd::Adam opt(net.parameters(), 5e-3);
  double first = 0.0, best = 1e9;
  for (int step = 0; step < 30; ++step) {
    autograd::Var lp = net.forward(autograd::Var(pos.clone()));
    autograd::Var ln = net.forward(autograd::Var(neg.clone()));
    autograd::Var loss =
        autograd::add(autograd::bce_with_logits_loss(lp, one),
                      autograd::bce_with_logits_loss(ln, zero));
    if (step == 0) first = loss.value().at(0);
    if (step >= 25) best = std::min(best, double(loss.value().at(0)));
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  EXPECT_LT(best, first);
}

// ------------------------------------------------------------- AhNet
TEST(AhNet, LogitsMatchInputResolution) {
  seed_init_rng(27);
  AhNet net;
  net.set_training(false);
  Rng rng(28);
  Tensor x({1, 1, 16, 16});
  rng.fill_uniform(x, 0.0, 1.0);
  const autograd::Var out = net.forward(autograd::Var(x));
  EXPECT_EQ(out.value().shape(), Shape({1, 1, 16, 16}));
}

TEST(AhNet, SegmentVolumeIsBinary) {
  seed_init_rng(29);
  AhNet net;
  net.set_training(false);
  Rng rng(30);
  Tensor vol({3, 16, 16});
  rng.fill_uniform(vol, 0.0, 1.0);
  const Tensor mask = net.segment_volume(vol);
  EXPECT_EQ(mask.shape(), vol.shape());
  for (index_t i = 0; i < mask.numel(); ++i) {
    EXPECT_TRUE(mask.data()[i] == 0.0f || mask.data()[i] == 1.0f);
  }
}

TEST(AhNet, ApplyMaskZeroesBackground) {
  Tensor vol = Tensor::full({2, 4, 4}, 5.0f);
  Tensor mask = Tensor::zeros({2, 4, 4});
  mask.at(0, 1, 1) = 1.0f;
  const Tensor masked = AhNet::apply_mask(vol, mask);
  EXPECT_FLOAT_EQ(masked.at(0, 1, 1), 5.0f);
  EXPECT_FLOAT_EQ(masked.at(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(masked.sum(), 5.0f);
}

TEST(AhNet, RejectsIndivisibleExtent) {
  seed_init_rng(31);
  AhNet net;
  Tensor x({1, 1, 10, 10});
  EXPECT_THROW(net.forward(autograd::Var(x)), std::invalid_argument);
  net.set_training(false);
  EXPECT_THROW(net.segment_volume(Tensor({3, 10, 10})),
               std::invalid_argument);
  EXPECT_THROW(net.segment_volume(Tensor({16, 16})), std::invalid_argument);
}

/// The mask segment_volume must produce: each slice through the module
/// walk on its own, one after another.
Tensor slice_by_slice_mask(const AhNet& net, const Tensor& vol) {
  autograd::NoGradGuard no_grad;
  const index_t d = vol.dim(0), h = vol.dim(1), w = vol.dim(2);
  Tensor mask({d, h, w});
  for (index_t z = 0; z < d; ++z) {
    Tensor slice({1, 1, h, w});
    std::copy(vol.data() + z * h * w, vol.data() + (z + 1) * h * w,
              slice.data());
    const Tensor logits = net.forward(autograd::Var(slice)).value();
    for (index_t i = 0; i < h * w; ++i) {
      mask.data()[z * h * w + i] = logits.data()[i] > 0.0f ? 1.0f : 0.0f;
    }
  }
  return mask;
}

TEST(AhNet, SegmentVolumeBitwiseAcrossWidthsDepthsAndPaths) {
  for (const bool batch_stats : {false, true}) {
    seed_init_rng(33);
    AhNet net;
    net.set_training(false);
    net.set_batch_stats_always(batch_stats);
    Rng rng(34);
    // Depth 1, depth below the lane count, and depths that are not a
    // multiple of it.
    for (const index_t depth : {1, 3, 5, 6}) {
      Tensor vol({depth, 16, 16});
      rng.fill_uniform(vol, 0.0, 1.0);
      const std::uint64_t want = fnv1a64(slice_by_slice_mask(net, vol));
      for (const int width : {1, 2, 4, 8}) {
        ParallelPin pin(width);
        EXPECT_EQ(fnv1a64(net.segment_volume(vol)), want)
            << "batch stats " << batch_stats << ", depth " << depth
            << ", width " << width;
      }
    }
  }
}

// -------------------------------------------------------- slice map
TEST(SliceMap, PinsEachSliceByTheWidthRule) {
  // Each output plane records the kernel width its slice ran at.
  const auto widths = [](index_t depth, bool parallel) {
    return map_slices(Tensor({depth, 2, 2}), "widths", parallel,
                      [](const Tensor&, real_t* out) {
                        out[0] = static_cast<real_t>(num_threads());
                      });
  };
  ParallelPin pin(8);
  for (const index_t depth : {2, 3, 8, 20}) {
    const Tensor w = widths(depth, true);
    for (index_t z = 0; z < depth; ++z) {
      EXPECT_EQ(w.at(z, 0, 0),
                static_cast<real_t>(std::max<index_t>(1, 8 / depth)))
          << "depth " << depth;
    }
  }
  // One slice, or slices run in order, keep the caller's width.
  EXPECT_EQ(widths(1, true).at(0, 0, 0), 8.0f);
  EXPECT_EQ(widths(3, false).at(2, 0, 0), 8.0f);
}

TEST(SliceMap, ExceptionInOneSliceReachesTheCaller) {
  Tensor vol({7, 4, 4});
  for (index_t z = 0; z < 7; ++z) vol.at(z, 0, 0) = real_t(z);
  for (const bool parallel : {true, false}) {
    for (const int width : {1, 4}) {
      ParallelPin pin(width);
      EXPECT_THROW(map_slices(vol, "throwing", parallel,
                              [](const Tensor& slice, real_t*) {
                                if (slice.at(0, 0) == 5.0f) {
                                  throw std::runtime_error("slice 5");
                                }
                              }),
                   std::runtime_error)
          << "parallel " << parallel << ", width " << width;
    }
  }
}

TEST(SliceMap, SlicesRunWithGradientsOff) {
  ParallelPin pin(4);
  const Tensor out = map_slices(
      Tensor({6, 2, 2}), "grad", true, [](const Tensor&, real_t* plane) {
        plane[0] = autograd::GradMode::enabled() ? 1.0f : 0.0f;
      });
  EXPECT_EQ(out.sum(), 0.0f);
}

// ----------------------------------------------------- initialization
TEST(Init, GaussianStdDevMatchesPaper) {
  seed_init_rng(32);
  Conv2d conv(16, 16, 5);
  const Tensor& w = conv.named_parameters()[0].second.value();
  double sum = 0.0, sum_sq = 0.0;
  for (index_t i = 0; i < w.numel(); ++i) {
    sum += w.data()[i];
    sum_sq += static_cast<double>(w.data()[i]) * w.data()[i];
  }
  const double mean = sum / w.numel();
  const double stddev = std::sqrt(sum_sq / w.numel() - mean * mean);
  EXPECT_NEAR(mean, 0.0, 0.002);
  EXPECT_NEAR(stddev, 0.01, 0.002);  // §3.1.1
}

TEST(Init, SeedReproducesWeights) {
  seed_init_rng(42);
  Conv2d a(2, 2, 3);
  seed_init_rng(42);
  Conv2d b(2, 2, 3);
  EXPECT_TRUE(allclose(a.named_parameters()[0].second.value(),
                       b.named_parameters()[0].second.value()));
}

}  // namespace
}  // namespace ccovid::nn
