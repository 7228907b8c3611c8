// Distributed data-parallel trainer (§4.1).
//
// Mirrors PyTorch DistributedDataParallel over gloo: one model replica
// per "node" (here: thread), independent forward/backward over disjoint
// data shards, gradients synchronized each step, identical Adam updates
// keeping replicas in lock-step.
//
// Gradient synchronization comes in two modes sharing one bit pattern:
//
//  * sequential (overlap=false): backward completes, the flat gradient
//    is reduced in one deterministic collective (dist/collective.h).
//  * overlapped (overlap=true, default): parameters are packed into
//    fixed-size buckets in REVERSE registration order (PyTorch DDP's
//    heuristic — the deepest layers' gradients finalize first). The
//    async backward engine's finalize hook counts down each bucket's
//    outstanding parameters, and the rank thread drains buckets in
//    bucket order, launching each bucket's allreduce while backward is
//    still producing the shallower layers' gradients. The optimizer
//    steps only after every bucket reduced and the backward run
//    finished — there is no partially-synchronized step.
//
// Both modes fold contributions in canonical rank order per element
// (see dist/collective.h), so gradients and post-step weights are
// bitwise identical across overlap on/off, bucket sizes, collective
// algorithms, and task-engine widths — tests/test_golden.cpp pins one
// digest for the whole sweep.
//
// Because this process runs on a single machine, wall time says nothing
// about cluster scaling; the trainer therefore reports *modeled* cluster
// time per epoch: max over ranks of the thread-CPU compute time plus the
// interconnect model's collective cost for the real gradient byte counts
// (Table 3's runtime column). Accuracy effects of batch size are real:
// the trained weights come out of genuine synchronized SGD.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "autograd/optim.h"
#include "dist/collective.h"
#include "dist/comm.h"
#include "dist/interconnect.h"
#include "nn/module.h"

namespace ccovid::dist {

struct DdpConfig {
  int world_size = 1;
  index_t per_worker_batch = 1;
  double lr = 1e-4;           ///< Enhancement AI default (§3.1.1)
  double lr_decay = 0.8;      ///< exponential per-epoch decay (§3.1.1)
  InterconnectModel net;
  /// Receive-wait policy (see net/error.h). Frames are always
  /// verified, so corrupt, duplicated or out-of-order traffic raises
  /// CommError from train_epoch; enabled, a receive that waits longer
  /// than recv_timeout_s raises kTimeout instead of hanging the
  /// collective (a dropped message or a dead rank).
  GuardOptions guard;
  /// Scan the averaged gradient after each all-reduce and throw a typed
  /// StageError("dist.grad.allreduce") on NaN/Inf — a poisoned gradient
  /// reaches every rank through the sum, so training either converges
  /// or raises; it never silently diverges.
  bool check_finite_grads = false;
  /// Overlap per-bucket allreduce with the still-running backward pass
  /// (see the header comment). Off = reduce once after backward; the
  /// resulting bits are identical either way.
  bool overlap = true;
  /// Gradient bucket budget in bytes (>= one parameter per bucket;
  /// 0 = whole model in a single bucket).
  std::size_t bucket_bytes = 1 << 20;
  /// Allreduce algorithm; kAuto defers to CCOVID_COLLECTIVE and then to
  /// the interconnect cost model (dist/collective.h).
  Collective collective = Collective::kAuto;
};

struct EpochStats {
  double mean_loss = 0.0;        ///< average per-step loss across ranks
  double modeled_seconds = 0.0;  ///< modeled cluster wall time
  double wall_seconds = 0.0;     ///< actual local wall time
  std::uint64_t allreduce_bytes_per_rank = 0;
  index_t steps = 0;
  Collective collective = Collective::kAuto;  ///< resolved algorithm
};

class DdpTrainer {
 public:
  using ModelFactory = std::function<std::shared_ptr<nn::Module>()>;
  /// Builds the loss graph for `model` over the given sample ids.
  /// Called concurrently from different ranks — must only share
  /// read-only state across ranks.
  using LossFn = std::function<autograd::Var(
      nn::Module& model, int rank, const std::vector<index_t>& samples)>;

  DdpTrainer(const ModelFactory& factory, DdpConfig cfg);

  /// One epoch over a dataset of `dataset_size` samples, shuffled with
  /// `rng`. Incomplete trailing global batches are dropped (as
  /// DistributedSampler does).
  EpochStats train_epoch(index_t dataset_size, const LossFn& loss_fn,
                         Rng& rng);

  /// Applies the per-epoch exponential learning-rate decay.
  void decay_lr();

  nn::Module& model(int rank = 0) { return *models_.at(rank); }
  const DdpConfig& config() const { return cfg_; }
  /// Flat gradient length (elements) — the all-reduce payload.
  index_t gradient_elements() const;

  /// One gradient bucket: parameters [param_lo, param_hi) in
  /// registration order, occupying [elem_off, elem_off + elems) of the
  /// flat gradient. Buckets are drained in index order; bucket 0 holds
  /// the LAST-registered (deepest) parameters.
  struct Bucket {
    std::size_t param_lo = 0;
    std::size_t param_hi = 0;
    index_t elem_off = 0;
    index_t elems = 0;
  };
  const std::vector<Bucket>& buckets() const { return buckets_; }

 private:
  void plan_buckets();

  DdpConfig cfg_;
  std::vector<std::shared_ptr<nn::Module>> models_;
  std::vector<std::unique_ptr<autograd::Adam>> optims_;
  std::vector<Bucket> buckets_;
  /// bucket_of_param_[i] = index in buckets_ of parameter i's bucket.
  std::vector<std::size_t> bucket_of_param_;
  World world_;
};

/// Thread CPU time of the calling thread, seconds.
double thread_cpu_seconds();

}  // namespace ccovid::dist
