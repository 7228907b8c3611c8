#include "nn/compiled_network.h"

#include <vector>

#include "core/random.h"
#include "graph/graph.h"

namespace ccovid::nn {

std::shared_ptr<graph::CompiledGraph> CompiledNetwork::compiled_for(
    index_t h, index_t w, core::Precision prec) const {
  // h/w are CT image extents (< 2^30), so the precision tag fits in
  // the top bits of the cache key.
  const std::uint64_t key = (std::uint64_t(int(prec)) << 61) |
                            (std::uint64_t(std::uint32_t(h)) << 30) |
                            std::uint64_t(std::uint32_t(w));
  std::lock_guard<std::mutex> lock(graph_mu_);
  auto it = graph_cache_.find(key);
  if (it != graph_cache_.end()) return it->second;
  graph::Graph g = build_graph(1, h, w);
  graph::CompileOptions opt;
  opt.precision = prec;
  if (prec == core::Precision::kInt8) {
    // Seeded synthetic calibration batch: CT slices are normalized to
    // [0, 1], so uniform images bound every activation's dynamic range
    // deterministically (same seed -> same scales -> same quantized
    // graph on every host).
    Rng rng(0x5ca1ab1e);
    std::vector<Tensor> batch;
    for (int b = 0; b < 2; ++b) {
      Tensor t({1, g.input_shape().c, h, w});
      rng.fill_uniform(t, 0.0, 1.0);
      batch.push_back(std::move(t));
    }
    opt.calibration = graph::calibrate(g, batch);
  }
  auto cg = std::make_shared<graph::CompiledGraph>(graph::compile(g, opt));
  graph_cache_.emplace(key, cg);
  return cg;
}

void CompiledNetwork::invalidate_graphs() const {
  std::lock_guard<std::mutex> lock(graph_mu_);
  graph_cache_.clear();
}

void CompiledNetwork::on_set_training(bool /*training*/) {
  invalidate_graphs();
}
void CompiledNetwork::on_state_loaded() { invalidate_graphs(); }
void CompiledNetwork::on_set_batch_stats(bool on) {
  batch_stats_always_ = on;
  invalidate_graphs();
}

}  // namespace ccovid::nn
