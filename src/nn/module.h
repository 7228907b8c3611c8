// Module: the unit of network composition (cf. torch::nn::Module).
// Owns named parameters (Vars), named non-learnable buffers (running
// statistics), and named submodules; provides recursive parameter
// collection for the optimizer / DDP gradient sync, train/eval mode
// switching, and state-dict (de)serialization.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "core/precision.h"
#include "core/random.h"
#include "core/serialize.h"

namespace ccovid::nn {

using autograd::Var;

class Module {
 public:
  virtual ~Module() = default;

  /// All learnable parameters, depth-first (deterministic order — the
  /// DDP all-reduce relies on every replica seeing the same order).
  std::vector<Var> parameters() const;

  /// Parameters with hierarchical dotted names, e.g. "db1.conv1.weight".
  std::vector<std::pair<std::string, Var>> named_parameters() const;

  /// Buffers (running statistics etc.) with hierarchical names.
  std::vector<std::pair<std::string, Tensor>> named_buffers() const;

  /// Training-mode flag, propagated to submodules (controls batch-norm
  /// statistic selection and augmentation hooks).
  void set_training(bool training);
  bool training() const { return training_; }

  /// Recursively switches every BatchNorm in the tree to per-sample
  /// (batch) statistics even in eval mode. Batch-size-1 training — which
  /// the paper uses for Enhancement AI and which our volume classifiers
  /// share — leaves running statistics that are inconsistent with the
  /// statistics the weights were trained against; per-sample statistics
  /// (instance-norm behaviour) are the consistent inference-time choice.
  void set_batch_stats_always(bool on);

  /// Sum of parameter element counts.
  index_t num_parameters() const;

  /// Serializes parameters + buffers. load_state_dict requires that
  /// every entry exists with an identical shape.
  TensorMap state_dict() const;
  void load_state_dict(const TensorMap& dict);
  void save(const std::string& path) const;
  void load(const std::string& path);

  /// Copies parameter *values* from another module of identical
  /// architecture (used to replicate models across DDP workers).
  void copy_parameters_from(const Module& other);

 protected:
  /// Hook for set_batch_stats_always; overridden by BatchNorm.
  virtual void on_set_batch_stats(bool /*on*/) {}

  /// Called by set_training before recursing into children. Networks
  /// that cache compiled inference graphs (nn/ddnet.h) override this to
  /// invalidate them — training moves weights and running statistics
  /// out from under the captured constants.
  virtual void on_set_training(bool /*training*/) {}

  /// Called after load_state_dict / copy_parameters_from finished
  /// writing new parameter and buffer values; same invalidation purpose
  /// as on_set_training.
  virtual void on_state_loaded() {}

  Var register_parameter(const std::string& name, Tensor init);
  /// Registers a shallow copy of `t`: Tensor storage is shared, so
  /// in-place updates through the layer's own member (running statistics)
  /// are visible to state_dict()/load_state_dict(). The layer must not
  /// reassign its member to a different tensor afterwards.
  void register_buffer(const std::string& name, const Tensor& t);
  void register_module(const std::string& name, std::shared_ptr<Module> m);

 private:
  void collect_params(const std::string& prefix,
                      std::vector<std::pair<std::string, Var>>& out) const;
  void collect_buffers(const std::string& prefix,
                       std::vector<std::pair<std::string, Tensor>>& out) const;

  std::vector<std::pair<std::string, Var>> params_;
  std::vector<std::pair<std::string, Tensor>> buffers_;
  std::vector<std::pair<std::string, std::shared_ptr<Module>>> children_;
  bool training_ = true;
};

/// Fake-quant round-trip of a module's weight tensors in place:
/// every rank >= 2 parameter (conv/deconv/linear kernels) is squeezed
/// through the given storage format and back to fp32 — fp16/bf16 via
/// the core/half.h RNE conversions, int8 via symmetric per-leading-axis
/// absmax scales with the executor's clamp+lrintf rounding. Rank-0/1
/// parameters (biases, norm gains) are untouched, mirroring the graph
/// executor, which keeps those fp32 at every precision.
///
/// This is how accuracy deltas are measured for networks without a
/// compiled-graph path (the 3-D classifiers behind the AUC numbers):
/// the model sees exactly the weight error the storage format would
/// introduce, while the arithmetic stays fp32. No-op for kF32.
/// Networks that cache compiled graphs (DDnet) should use the
/// precision axis itself instead.
void fake_quantize_weights(Module& m, core::Precision prec);

}  // namespace ccovid::nn
