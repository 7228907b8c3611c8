// Base of the networks with a compiled eval-mode fast path (DDnet,
// UNetDenoiser, AhNet). It owns their one keyed cache of compiled
// inference graphs (graph/graph.h) and drops it whenever training, a
// state load or a batch-statistics switch moves what a capture froze.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/precision.h"
#include "nn/module.h"

namespace ccovid::graph {
class Graph;
class CompiledGraph;
}  // namespace ccovid::graph

namespace ccovid::nn {

class CompiledNetwork : public Module {
 public:
  /// Captures the eval-mode forward pass for an (n, in_channels, h, w)
  /// input. Frozen batch-norms become batchnorm nodes; after
  /// set_batch_stats_always(true) they become instance-norm nodes.
  virtual graph::Graph build_graph(index_t n, index_t h, index_t w) const = 0;

 protected:
  /// build_graph(1, h, w) compiled (fused) at storage precision `prec`
  /// on first use; later calls with the same key share it.
  /// Thread-safe: serve workers share one network. int8
  /// scales come from a seeded synthetic calibration batch (uniform
  /// [0, 1] images, the range slices are normalized to), so the
  /// quantized graph is the same on every host.
  std::shared_ptr<graph::CompiledGraph> compiled_for(
      index_t h, index_t w, core::Precision prec) const;

  bool batch_stats_always() const { return batch_stats_always_; }

  void on_set_training(bool training) override;
  void on_set_batch_stats(bool on) override;
  void on_state_loaded() override;

 private:
  void invalidate_graphs() const;

  mutable std::mutex graph_mu_;
  mutable std::unordered_map<std::uint64_t,
                             std::shared_ptr<graph::CompiledGraph>>
      graph_cache_;
  bool batch_stats_always_ = false;
};

}  // namespace ccovid::nn
