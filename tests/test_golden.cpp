// Golden-trace harness: FNV-1a digests of per-stage outputs for fixed
// seeds. Every case recomputes its digest at kernel widths 1, 2 and 8
// and requires all three to agree before comparing against the stored
// value: the task engine partitions ranges as a pure function of
// (range, grain), so thread count must never move a bit. A digest
// mismatch means a refactor changed the numerics — intentionally or
// not.
//
// Regenerating after an INTENTIONAL numeric change:
//   ./tests/test_golden --update-golden
// rewrites tests/golden/digests.txt in the source tree (the path is
// baked in at configure time); commit the updated file together with
// the change that moved the numbers.
//
// This binary defines its own main() (gtest_main's archive member is
// not pulled in) to host the --update-golden flag.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autograd/losses.h"
#include "core/digest.h"
#include "core/precision.h"
#include "core/parallel.h"
#include "core/random.h"
#include "core/tensor.h"
#include "ct/fbp.h"
#include "ct/geometry.h"
#include "ct/siddon.h"
#include "data/phantom.h"
#include "dist/ddp.h"
#include "graph/graph.h"
#include "graph_fuzzer.h"
#include "nn/ddnet.h"
#include "nn/densenet3d.h"
#include "nn/layers.h"
#include "pipeline/framework.h"
#include "serve/monitor.h"
#include "trace/trace.h"

namespace ccovid {
namespace {

#ifndef CCOVID_GOLDEN_FILE
#error "CCOVID_GOLDEN_FILE must point at tests/golden/digests.txt"
#endif

bool g_update = false;
std::map<std::string, std::uint64_t> g_computed;

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const std::map<std::string, std::uint64_t>& stored_digests() {
  static const auto* stored = [] {
    auto* m = new std::map<std::string, std::uint64_t>();
    std::ifstream in(CCOVID_GOLDEN_FILE);
    std::string name, hex;
    while (in >> name >> hex) {
      (*m)[name] = std::stoull(hex, nullptr, 16);
    }
    return m;
  }();
  return *stored;
}

void check_golden(const std::string& name, std::uint64_t digest) {
  g_computed[name] = digest;
  if (g_update) {
    SUCCEED() << name << " recomputed: " << hex64(digest);
    return;
  }
  const auto& stored = stored_digests();
  const auto it = stored.find(name);
  ASSERT_NE(it, stored.end())
      << "no golden digest recorded for '" << name
      << "'.\nRun `./tests/test_golden --update-golden` and commit "
      << CCOVID_GOLDEN_FILE;
  EXPECT_EQ(hex64(digest), hex64(it->second))
      << "'" << name << "' output changed bitwise. If the numeric change "
      << "is intentional, regenerate with `./tests/test_golden "
      << "--update-golden` and commit " << CCOVID_GOLDEN_FILE
      << "; otherwise this is a regression.";
}

// Computes `body()`'s digest at kernel widths 1, 2 and 8 — each width
// once with tracing off and once fully enabled (level 2, which also
// records task-engine scheduling events) — asserts all six agree
// bitwise, and returns the shared value for the golden comparison.
// Width independence is the engine's partition contract; trace
// independence is the tracing subsystem's only-reads-clocks contract
// (spans must never perturb numerics). The low-precision formats have
// no fp32 history to match, so their digests ARE their numeric
// contract — across task widths, trace levels and (via the CI backend
// sweep) SIMD backends.
template <typename Body>
std::uint64_t digest_across_widths(Body&& body) {
  std::uint64_t at1 = 0;
  bool have_reference = false;
  for (const int width : {1, 2, 8}) {
    ParallelPin pin(width);
    for (const int trace_level : {0, 2}) {
      trace::set_level(trace_level);
      const std::uint64_t h = body();
      trace::set_level(0);
      if (!have_reference) {
        at1 = h;
        have_reference = true;
      } else {
        EXPECT_EQ(hex64(h), hex64(at1))
            << "digest moved at width " << width << ", trace level "
            << trace_level
            << ": either the chunk partition leaked thread count into "
               "the numerics, or tracing perturbed a kernel";
      }
    }
  }
  trace::clear();  // drop the bulk events before the next case
  return at1;
}

// The fp32 digests pin fp32: the process-wide precision (e.g. a
// CCOVID_PRECISION=fp16 environment) must not reach them.
TEST(Golden, DdnetForward) {
  const core::PrecisionGuard pguard(core::Precision::kF32);
  nn::seed_init_rng(3);
  nn::DDnet net(nn::DDnetConfig::tiny());
  net.set_training(false);
  Tensor x({16, 16});
  Rng rng(5);
  rng.fill_uniform(x, 0.0, 1.0);
  const std::uint64_t h =
      digest_across_widths([&] { return fnv1a64(net.enhance(x)); });
  check_golden("ddnet_forward_tiny_s3_in16", h);
}

// Per-precision digests of the SAME tiny DDnet forward on the
// compiled-graph path, the path the serve runtime runs.
TEST(Golden, DdnetForwardLowPrecision) {
  nn::seed_init_rng(3);
  nn::DDnet net(nn::DDnetConfig::tiny());
  net.set_training(false);
  Tensor x({16, 16});
  Rng rng(5);
  rng.fill_uniform(x, 0.0, 1.0);
  for (const core::Precision prec :
       {core::Precision::kF16, core::Precision::kBf16,
        core::Precision::kInt8}) {
    const core::PrecisionGuard pguard(prec);
    const std::string name = std::string("ddnet_forward_tiny_s3_in16_") +
                             core::precision_name(prec);
    SCOPED_TRACE(name);
    check_golden(name, digest_across_widths(
                           [&] { return fnv1a64(net.enhance(x)); }));
  }
}

// Low-precision digests of the twelve random DAGs of the graph fuzzer
// (tests/graph_fuzzer.h), fused and unfused. The DDnet digests above
// pin one fused network; these add unfused graphs and random
// interleavings of every step kind (standalone bn, activation, pool,
// unpool, add, odd-channel concats) in every storage format. int8
// calibrates each DAG on its own input.
TEST(Golden, GraphFuzzLowPrecision) {
  for (const core::Precision prec :
       {core::Precision::kF16, core::Precision::kBf16,
        core::Precision::kInt8}) {
    for (const bool fuse : {true, false}) {
      std::vector<graph_fuzz::FuzzCase> cases;
      std::vector<graph::CompiledGraph> compiled;
      for (int seed = 1; seed <= graph_fuzz::kFuzzCases; ++seed) {
        cases.push_back(graph_fuzz::fuzz_case(seed));
        graph::CompileOptions opt;
        opt.fuse = fuse;
        opt.precision = prec;
        if (prec == core::Precision::kInt8) {
          opt.calibration =
              graph::calibrate(cases.back().g, {cases.back().input});
        }
        compiled.push_back(graph::compile(cases.back().g, opt));
      }
      const std::string name = std::string("graph_fuzz12_") +
                               core::precision_name(prec) +
                               (fuse ? "_fused" : "_unfused");
      SCOPED_TRACE(name);
      check_golden(name, digest_across_widths([&] {
                     std::uint64_t d = kFnv1aOffset;
                     for (size_t i = 0; i < cases.size(); ++i) {
                       d = fnv1a64(compiled[i].run(cases[i].input), d);
                     }
                     return d;
                   }));
    }
  }
}

// One seeded DDP training step at world size 2, reduced to a digest of
// the mean loss and BOTH ranks' post-step parameters. The deterministic
// collectives fold contributions in canonical rank order per element
// (dist/collective.h), and the async engine replays the sequential
// accumulation order (autograd/engine.h), so this digest must not move
// across collective algorithms, gradient bucket sizes, overlapped vs
// post-backward reduction, or task-engine widths — the sweep below
// asserts the whole grid lands on ONE golden value.
std::uint64_t ddp_step_digest(dist::Collective coll, std::size_t bucket_bytes,
                              bool overlap, const Tensor& input,
                              const Tensor& target) {
  nn::seed_init_rng(100);
  dist::DdpConfig cfg;
  cfg.world_size = 2;
  cfg.per_worker_batch = 1;
  cfg.collective = coll;
  cfg.bucket_bytes = bucket_bytes;
  cfg.overlap = overlap;
  dist::DdpTrainer trainer(
      [] {
        return std::static_pointer_cast<nn::Module>(
            std::make_shared<nn::DDnet>(nn::DDnetConfig::tiny()));
      },
      cfg);
  auto loss_fn = [&](nn::Module& model, int /*rank*/,
                     const std::vector<index_t>& samples) {
    auto& net = dynamic_cast<nn::DDnet&>(model);
    autograd::Var pred =
        net.forward(autograd::Var(input.clone()));
    (void)samples;
    return autograd::mse_loss(pred, target);
  };
  Rng rng(102);
  const dist::EpochStats stats = trainer.train_epoch(2, loss_fn, rng);
  std::uint64_t h = fnv1a64(&stats.mean_loss, sizeof(stats.mean_loss));
  for (int r = 0; r < cfg.world_size; ++r) {
    for (const auto& p : trainer.model(r).parameters()) {
      h = fnv1a64(p.value(), h);
    }
  }
  return h;
}

// DDP rank threads resolve their backward width from the process-global
// lane count — ParallelPin is per-thread and never reaches them, so the
// width axis of the DDP sweep must move the global setting.
class GlobalWidth {
 public:
  explicit GlobalWidth(int n) : prev_(num_threads()) { set_num_threads(n); }
  ~GlobalWidth() { set_num_threads(prev_); }

 private:
  int prev_;
};

// Seeded (noisy input, clean target) pair of one extent x extent image.
void ddp_pair(index_t extent, Tensor* input, Tensor* target) {
  Rng rng(103);
  *target = Tensor({1, 1, extent, extent});
  rng.fill_uniform(*target, 0.2, 0.8);
  *input = target->clone();
  for (index_t j = 0; j < input->numel(); ++j) {
    input->data()[j] += static_cast<real_t>(rng.gaussian(0, 0.1));
  }
}

// Runs the step over every collective, bucket size, overlap mode and
// width, asserts the whole grid lands on one digest, and returns it.
std::uint64_t ddp_sweep_digest(const Tensor& input, const Tensor& target) {
  const dist::Collective kColls[] = {dist::Collective::kRing,
                                     dist::Collective::kTree,
                                     dist::Collective::kBcastHalving};
  // 1 KiB forces many buckets on the tiny model; 1 MiB and 0 both pack
  // the whole model — the boundary positions must not move a bit.
  const std::size_t kBuckets[] = {1024, std::size_t{1} << 20, 0};

  std::uint64_t ref = 0;
  bool have_reference = false;
  auto note = [&](std::uint64_t h, const char* what) {
    if (!have_reference) {
      ref = h;
      have_reference = true;
    } else {
      EXPECT_EQ(hex64(h), hex64(ref))
          << "DDP step digest moved at " << what
          << ": gradient synchronization leaked the collective choice, "
             "bucket layout, overlap mode or task width into the bits";
    }
  };
  for (const dist::Collective coll : kColls) {
    for (const std::size_t bucket : kBuckets) {
      for (const int width : {1, 2, 8}) {
        GlobalWidth pin(width);
        note(ddp_step_digest(coll, bucket, /*overlap=*/true, input, target),
             "overlapped sweep cell");
      }
    }
    // Sequential mode reduces once after backward; bucket size is inert
    // there, so one cell per collective covers it.
    GlobalWidth pin(2);
    note(ddp_step_digest(coll, std::size_t{1} << 20, /*overlap=*/false,
                         input, target),
         "sequential-reduction cell");
  }
  return ref;
}

TEST(Golden, DdpStepGradientSync) {
  Tensor input, target;
  ddp_pair(12, &input, &target);
  check_golden("ddp_step_tiny_w2_mse12", ddp_sweep_digest(input, target));
}

// The same step on 40x40 images. At 12x12 each gradient row holds one
// 8-wide block at most; 40, 20 and 10 pixel rows also run 16-wide
// interiors, scalar borders and ragged tails in the conv/deconv input
// gradients, and many-row sweeps in the weight gradients.
TEST(Golden, DdpStepWide) {
  Tensor input, target;
  ddp_pair(40, &input, &target);
  check_golden("ddp_step_tiny_w2_mse40", ddp_sweep_digest(input, target));
}

TEST(Golden, FbpReconstruction) {
  const ct::FanBeamGeometry g = ct::paper_geometry().scaled(32);
  const index_t n = g.image_px;
  Tensor mu({n, n});
  for (index_t iy = 0; iy < n; ++iy) {
    for (index_t ix = 0; ix < n; ++ix) {
      const double x = (ix + 0.5) / static_cast<double>(n) - 0.5;
      const double y = (iy + 0.5) / static_cast<double>(n) - 0.5;
      if (x * x + y * y <= 0.09) mu.at(iy, ix) = 0.02f;
    }
  }
  const std::uint64_t h = digest_across_widths([&] {
    const Tensor sino = ct::forward_project(mu, g);
    std::uint64_t d = fnv1a64(sino);
    return fnv1a64(ct::fbp_reconstruct(sino, g), d);
  });
  check_golden("fbp_disc32_sino_and_recon", h);
}

TEST(Golden, FullDiagnose) {
  const core::PrecisionGuard pguard(core::Precision::kF32);
  nn::seed_init_rng(3);
  auto enh = std::make_shared<pipeline::EnhancementAI>(nn::DDnetConfig::tiny());
  auto seg = std::make_shared<pipeline::SegmentationAI>();
  auto cls = std::make_shared<pipeline::ClassificationAI>();
  enh->network().set_training(false);
  seg->network().set_training(false);
  cls->network().set_training(false);
  const pipeline::ComputeCovid19Pipeline pipe(enh, seg, cls);

  Rng rng(11);
  const data::PhantomVolume vol = data::make_volume(2, 8, true, rng);
  // Digest the full-workflow AND the enhancement-off probability bits:
  // a drift in any stage moves at least one of them.
  const std::uint64_t h = digest_across_widths([&] {
    std::uint64_t d = kFnv1aOffset;
    for (const bool enhance : {true, false}) {
      const pipeline::Diagnosis dx =
          pipe.diagnose(vol.hu, enhance, 0.5, nullptr);
      d = fnv1a64(&dx.probability, sizeof(dx.probability), d);
      const unsigned char pos = dx.positive ? 1 : 0;
      d = fnv1a64(&pos, 1, d);
    }
    return d;
  });
  check_golden("diagnose_tiny_s3_vol8", h);
}

// The compact 3-D DenseNet's logit on its own, over a volume wide
// enough that every conv3d layer runs vector interior columns (16- and
// 8-wide blocks) as well as scalar borders and ragged tails. The tiny
// diagnose case above is 8 pixels wide, so all of its conv3d columns
// take the border path.
TEST(Golden, ClassifierLogit) {
  nn::seed_init_rng(3);
  nn::DenseNet3d net(nn::DenseNet3dConfig::compact());
  net.set_training(false);
  Rng rng(17);
  Tensor vol({1, 1, 12, 40, 40});
  rng.fill_uniform(vol, 0.0, 1.0);
  const std::uint64_t h = digest_across_widths([&] {
    autograd::NoGradGuard no_grad;
    return fnv1a64(net.forward(autograd::Var(vol)).value());
  });
  check_golden("densenet3d_logit_12x40x40", h);
}

// The two slice-wise stages on their own: the enhanced volume and the
// lung mask segmented from it, over a depth that is not a multiple of
// any swept width. Slices may run on any lane in any order, so this
// pins that the slice map never lets scheduling reach the bits.
TEST(Golden, VolumeStages) {
  const core::PrecisionGuard pguard(core::Precision::kF32);
  nn::seed_init_rng(3);
  pipeline::EnhancementAI enh(nn::DDnetConfig::tiny());
  pipeline::SegmentationAI seg;
  enh.network().set_training(false);
  seg.network().set_training(false);
  Rng rng(13);
  Tensor vol({6, 16, 16});
  rng.fill_uniform(vol, 0.0, 1.0);
  const std::uint64_t h = digest_across_widths([&] {
    const Tensor enhanced = enh.enhance_volume(vol);
    return fnv1a64(seg.segment(enhanced), fnv1a64(enhanced));
  });
  check_golden("volume_stages_tiny", h);
}

// The result-cache key of a fixed seeded volume. No file or frame
// stores a key, so this line exists to make a change of the key
// function a visible, deliberate edit. 5 x 13 x 19 voxels are 4940
// bytes: 154 32-byte stripes, then an 8- and a 4-byte tail word.
TEST(Golden, ScanKey) {
  Rng rng(23);
  Tensor vol({5, 13, 19});
  rng.fill_uniform(vol, -1000.0, 400.0);
  const std::uint64_t key = serve::ResultCache::scan_key(
      vol, true, 0.5, core::Precision::kF32, /*graph_fusion=*/true,
      /*epoch=*/0);
  check_golden("scan_key_vol5x13x19", key);
}

}  // namespace
}  // namespace ccovid

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") ccovid::g_update = true;
  }
  const int rc = RUN_ALL_TESTS();
  if (ccovid::g_update && rc == 0) {
    std::ofstream out(CCOVID_GOLDEN_FILE, std::ios::trunc);
    for (const auto& [name, digest] : ccovid::g_computed) {
      out << name << " " << ccovid::hex64(digest) << "\n";
    }
    std::printf("rewrote %s with %zu digest(s)\n", CCOVID_GOLDEN_FILE,
                ccovid::g_computed.size());
  }
  return rc;
}
