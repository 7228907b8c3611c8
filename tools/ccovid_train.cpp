// ccovid_train — train the three ComputeCOVID19+ models on synthetic
// data and save their weights for ccovid_diagnose.
//
//   ccovid_train --out-dir models [--px 32] [--depth 8] [--volumes 40]
//                [--epochs 16] [--seed 7] [--ranks 1]
//                [--guard] [--recv-timeout S]
//                [--collective ring|tree|bcast-halving|auto]
//                [--bucket-kb 1024] [--no-overlap]
//
// With --ranks R > 1 the Enhancement AI trains through dist::DdpTrainer
// (R modeled nodes, bucketed all-reduce overlapped with backward by
// default); --collective picks the all-reduce algorithm (auto defers to
// CCOVID_COLLECTIVE, else the interconnect cost model), --bucket-kb
// sets the gradient bucket budget, and --no-overlap falls back to the
// reduce-after-backward path. All combinations produce bitwise
// identical weights. DDP frames are always sequence- and
// checksum-verified; --guard bounds every receive wait at
// --recv-timeout seconds (default CCOVID_RECV_TIMEOUT, else 2 s), so a
// lost message or a dead rank raises a typed CommError instead of
// hanging the collective. With --trace-out the per-rank
// ddp.compute/allreduce/apply lanes land in the chrome trace.
//
// Produces models/ddnet.tnsr, models/ahnet.tnsr, models/densenet3d.tnsr
// plus a models/manifest.txt recording the configurations.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "core/parallel.h"
#include "core/simd.h"
#include "ct/hu.h"
#include "dist/ddp.h"
#include "net/error.h"
#include "pipeline/classification_ai.h"
#include "pipeline/enhancement_ai.h"
#include "pipeline/segmentation_ai.h"
#include "trace/export.h"
#include "trace/trace.h"

using namespace ccovid;

int main(int argc, char** argv) {
  std::string out_dir = "models";
  std::string trace_out;
  index_t px = 32, depth = 8, volumes = 40;
  int epochs = 16, ranks = 1;
  std::uint64_t seed = 7;
  // Receive-wait bound for the --ranks path under --guard; defaults to
  // CCOVID_RECV_TIMEOUT (else 2 s) — see net/error.h.
  double recv_timeout_s = net::default_recv_timeout_s();
  bool guard = false;
  bool overlap = true;
  std::size_t bucket_kb = 1024;
  dist::Collective collective = dist::Collective::kAuto;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--out-dir") && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--px") && i + 1 < argc) {
      px = std::atoll(argv[++i]);
    } else if (!std::strcmp(argv[i], "--depth") && i + 1 < argc) {
      depth = std::atoll(argv[++i]);
    } else if (!std::strcmp(argv[i], "--volumes") && i + 1 < argc) {
      volumes = std::atoll(argv[++i]);
    } else if (!std::strcmp(argv[i], "--epochs") && i + 1 < argc) {
      epochs = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      set_num_threads(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--ranks") && i + 1 < argc) {
      ranks = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--recv-timeout") && i + 1 < argc) {
      const std::optional<double> t = net::parse_recv_timeout_s(argv[++i]);
      if (!t) {
        std::fprintf(stderr, "--recv-timeout: expected seconds in (0, 1e9]\n");
        return 1;
      }
      recv_timeout_s = *t;
      guard = true;
    } else if (!std::strcmp(argv[i], "--guard")) {
      guard = true;
    } else if (!std::strcmp(argv[i], "--collective") && i + 1 < argc) {
      const auto parsed = dist::parse_collective(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr,
                     "--collective: unknown algorithm '%s' "
                     "(ring|tree|bcast-halving|auto)\n",
                     argv[i]);
        return 1;
      }
      collective = *parsed;
    } else if (!std::strcmp(argv[i], "--bucket-kb") && i + 1 < argc) {
      const long long kb = std::atoll(argv[++i]);
      if (kb <= 0) {
        std::fprintf(stderr, "--bucket-kb: expected KiB > 0\n");
        return 1;
      }
      bucket_kb = static_cast<std::size_t>(kb);
    } else if (!std::strcmp(argv[i], "--no-overlap")) {
      overlap = false;
    } else if (!std::strcmp(argv[i], "--simd") && i + 1 < argc) {
      if (!simd::set_backend_spec(argv[++i])) {
        std::fprintf(stderr, "--simd: unknown backend '%s' (scalar|sse2|avx2|auto)\n",
                     argv[i]);
        return 1;
      }
    } else if (!std::strcmp(argv[i], "--trace-out") && i + 1 < argc) {
      trace_out = argv[++i];
      trace::set_level(1);
    } else {
      std::printf(
          "usage: ccovid_train --out-dir D [--px N] [--depth D] "
          "[--volumes V] [--epochs E] [--seed S] [--threads N]\n"
          "                   [--ranks R] [--guard] [--recv-timeout S]\n"
          "                   [--collective ring|tree|bcast-halving|auto]\n"
          "                   [--bucket-kb N] [--no-overlap]\n"
          "                   [--simd MODE] [--trace-out PATH]\n"
          "  --guard  bound each DDP receive wait at --recv-timeout S seconds\n"
          "           (--recv-timeout implies it; frames are always verified)\n");
      return !std::strcmp(argv[i], "--help") ? 0 : 1;
    }
  }

  Rng rng(seed);
  nn::seed_init_rng(seed);

  // --- cohort ---
  data::ClassificationDatasetConfig ccfg;
  ccfg.depth = depth;
  ccfg.image_px = px;
  ccfg.num_train = volumes;
  ccfg.num_test = 0;
  ccfg.min_lesion_radius_frac = 4.0 / double(px);
  std::printf("generating %lld training volumes...\n", (long long)volumes);
  const data::ClassificationDataset cds =
      data::make_classification_dataset(ccfg, rng);

  // --- Enhancement AI ---
  data::EnhancementDatasetConfig ecfg;
  ecfg.image_px = px;
  ecfg.num_train = std::max<index_t>(12, volumes / 2);
  ecfg.num_val = 2;
  ecfg.num_test = 0;
  ecfg.lowdose.photons_per_ray = 2e4;
  const data::EnhancementDataset eds =
      data::make_enhancement_dataset(ecfg, rng);
  nn::DDnetConfig ncfg;
  ncfg.base_channels = 8;
  ncfg.growth = 8;
  ncfg.levels = 2;
  ncfg.dense_layers = 2;
  pipeline::EnhancementAI enh(ncfg);
  pipeline::EnhancementTrainConfig etc;
  etc.epochs = epochs;
  etc.lr = 2e-3;
  etc.msssim_scales = 1;
  std::printf("training Enhancement AI (%d epochs)...\n", etc.epochs);
  if (ranks > 1) {
    // Multi-node path: one DDnet replica per modeled rank, gradients
    // synchronized by ring all-reduce. Lock-step Adam updates keep the
    // replicas bit-identical, so saving rank 0 saves the cluster model.
    dist::DdpConfig dcfg;
    dcfg.world_size = ranks;
    dcfg.per_worker_batch = 1;
    dcfg.lr = etc.lr;
    dcfg.lr_decay = etc.lr_decay;
    dcfg.guard.enabled = guard;
    dcfg.guard.recv_timeout_s = recv_timeout_s;
    dcfg.overlap = overlap;
    dcfg.bucket_bytes = bucket_kb * 1024;
    dcfg.collective = collective;
    dist::DdpTrainer trainer(
        [&ncfg] { return std::make_shared<nn::DDnet>(ncfg); }, dcfg);
    auto loss_fn = [&eds, &etc](nn::Module& model, int /*rank*/,
                                const std::vector<index_t>& samples) {
      auto& net = dynamic_cast<nn::DDnet&>(model);
      autograd::Var total;
      for (const index_t s : samples) {
        const auto& pair = eds.train[s];
        autograd::Var x(pair.low.clone().reshape(
            {1, 1, pair.low.dim(0), pair.low.dim(1)}));
        autograd::Var loss = autograd::enhancement_loss(
            net.forward(x),
            pair.full.clone().reshape(
                {1, 1, pair.full.dim(0), pair.full.dim(1)}),
            etc.msssim_weight, 11, etc.msssim_scales);
        total = total.defined() ? autograd::add(total, loss) : loss;
      }
      return autograd::mul_scalar(
          total, 1.0f / static_cast<real_t>(samples.size()));
    };
    for (int e = 0; e < etc.epochs; ++e) {
      const dist::EpochStats st = trainer.train_epoch(
          static_cast<index_t>(eds.train.size()), loss_fn, rng);
      trainer.decay_lr();
      std::printf("  epoch %d/%d loss %.5f (modeled cluster %.2fs)\n",
                  e + 1, etc.epochs, st.mean_loss, st.modeled_seconds);
    }
    dynamic_cast<nn::DDnet&>(trainer.model(0)).save(out_dir + "/ddnet.tnsr");
  } else {
    enh.train(eds, etc, rng);
    enh.network().save(out_dir + "/ddnet.tnsr");
  }

  // --- Segmentation AI ---
  pipeline::SegmentationAI seg;
  pipeline::SegmentationTrainConfig scfg;
  scfg.epochs = std::max(6, epochs / 2);
  scfg.lr = 5e-3;
  std::printf("training Segmentation AI (%d epochs)...\n", scfg.epochs);
  seg.train(cds.train, scfg, rng);
  seg.network().save(out_dir + "/ahnet.tnsr");

  // --- Classification AI ---
  std::vector<Tensor> vols;
  std::vector<int> labels;
  for (const auto& s : cds.train) {
    vols.push_back(ct::normalize_hu(s.hu).mul(s.lung_mask));
    labels.push_back(s.label);
  }
  pipeline::ClassificationAI cls;
  pipeline::ClassificationTrainConfig ctc;
  ctc.epochs = epochs;
  ctc.lr = 1e-3;
  std::printf("training Classification AI (%d epochs)...\n", ctc.epochs);
  cls.train(vols, labels, ctc, rng);
  cls.network().save(out_dir + "/densenet3d.tnsr");

  std::ofstream manifest(out_dir + "/manifest.txt");
  manifest << "px " << px << "\ndepth " << depth << "\nvolumes " << volumes
           << "\nepochs " << epochs << "\nseed " << seed << "\nranks "
           << ranks << "\n";
  std::printf("models written to %s/\n", out_dir.c_str());
  if (!trace_out.empty()) {
    if (trace::write_chrome_json(trace_out)) {
      std::printf("trace written to %s (chrome://tracing)\n",
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    }
  }
  return 0;
}
