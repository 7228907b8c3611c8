// Dependency-counting ready-queue backward engine (the torch
// engine.cpp shape, scaled to this tape): instead of walking the DAG in
// reverse topological order on one thread, every node carries an
// outstanding-dependency count — the number of consumer edges whose
// closures have not yet finished — and nodes whose count reaches zero
// are drained through the process-wide work-stealing TaskEngine.
//
// Bitwise determinism at any worker width
// ---------------------------------------
// The sequential walk accumulates gradient contributions into a shared
// Var in a fixed order: consumers run root-first in reverse topological
// order, and each closure's accumulate_grad calls land in program
// order. Floating-point addition is not associative, so replaying that
// exact order is the whole contract. The engine therefore never
// accumulates from worker threads. Each contribution is STAGED against
// its target node, tagged with (consumer's sequential execution rank,
// intra-closure call index); when the target's dependency count hits
// zero — every contribution is in — the staged list is sorted by tag
// and reduced left to right, which replays the sequential accumulation
// bit for bit. Nodes whose gradient buffer is already defined (leaf
// parameters after Adam::zero_grad) receive add_ in the same order, so
// the defined-grad path matches too.
//
// Completion is edge-counted, not contribution-counted: a consumer that
// finishes (closure run, skipped for an undefined grad, or abandoned
// after a captured exception) decrements each parent once per recorded
// edge, so dead branches and ops that do not propagate to every parent
// cannot wedge the drain.
//
// Mode selection: the async engine is the default backward path
// (CCOVID_ASYNC_BACKWARD=0 restores the sequential walk process-wide);
// BackwardModeGuard pins the calling thread either way, which is how
// the fuzzer and the gradcheck suites compare the two implementations
// in-process. A caller-thread width cap of 1 (ParallelPin) drains the
// ready queue inline with zero task-engine traffic — same staging
// code path, no threads.
#pragma once

#include <functional>
#include <memory>

#include "autograd/variable.h"

namespace ccovid::autograd {

enum class BackwardMode {
  kSequential,  ///< single-threaded reverse-topological walk
  kAsync,       ///< dependency-counting ready queue over the TaskEngine
};

/// Effective mode for the calling thread: thread override if set, else
/// the process default (CCOVID_ASYNC_BACKWARD, async unless =0).
BackwardMode backward_mode();

/// RAII thread-local mode pin (restores the previous override).
class BackwardModeGuard {
 public:
  explicit BackwardModeGuard(BackwardMode m);
  ~BackwardModeGuard();
  BackwardModeGuard(const BackwardModeGuard&) = delete;
  BackwardModeGuard& operator=(const BackwardModeGuard&) = delete;

 private:
  int prev_;  ///< encoded previous override (-1 = none)
};

struct BackwardOptions {
  /// Called after a node's gradient is FINAL (all staged contributions
  /// reduced; closure, if any, already run) — the overlap hook DDP uses
  /// to mark gradient buckets ready while backward is still running.
  /// Fires on whichever thread finalized the node, possibly
  /// concurrently for different nodes; must be cheap and thread-safe.
  /// Not called for nodes abandoned after a captured exception.
  std::function<void(const detail::VarImpl*)> on_node_finalized;
  /// Called exactly once, after the LAST node finalized (before any
  /// waiter wakes). Runs on whichever thread finished last — must be
  /// cheap and thread-safe. Called even when the run aborted on an
  /// exception (wait() still reports the error). DDP uses it to release
  /// bucket waiters for parameters the step's graph never touched.
  std::function<void()> on_complete;
  /// Correlation id stamped on the engine's node spans (trace level 2),
  /// so a DDP rank's backward compute lands in that rank's trace lane.
  std::uint64_t trace_correlation = 0;
};

/// In-flight asynchronous backward pass. The destructor blocks until
/// the drain finished (hooks may reference caller-owned state), but
/// only wait() rethrows a captured exception — call it.
class BackwardRun {
 public:
  BackwardRun() = default;
  BackwardRun(BackwardRun&&) noexcept = default;
  BackwardRun& operator=(BackwardRun&&) noexcept = default;
  ~BackwardRun();

  /// Blocks until every node finalized and on_complete returned;
  /// rethrows the first exception a closure raised. Idempotent.
  void wait();

  /// True once every node has been finalized (or abandoned after an
  /// exception) and on_complete returned — wait() will not block.
  bool finished() const;

 private:
  friend BackwardRun backward_start(const std::shared_ptr<detail::VarImpl>&,
                                    const Tensor&, BackwardOptions);
  std::shared_ptr<struct BackwardRunState> state_;
};

/// Starts the dependency-driven drain from `root` seeded with `seed`
/// and returns without waiting for completion (the overlap primitive).
/// With a caller width cap of 1 the whole drain runs inline before
/// returning. Gradients and post-run graph state are bitwise identical
/// to Var::backward's sequential walk at any width.
BackwardRun backward_start(const std::shared_ptr<detail::VarImpl>& root,
                           const Tensor& seed, BackwardOptions opts = {});

/// Blocking convenience used by Var::backward in async mode.
void backward_async(const std::shared_ptr<detail::VarImpl>& root,
                    const Tensor& seed);

namespace detail {

/// Thread-local staging context: while a closure runs under the engine,
/// accumulate_grad routes contributions here instead of touching the
/// target's grad buffer. Null outside engine execution.
struct EngineExecContext;
EngineExecContext* current_engine_context();

/// Stages one contribution (clones `g`) tagged with the running
/// consumer's execution rank and its next intra-closure call index.
void stage_contribution(EngineExecContext* ctx, const VarImpl* target,
                        const Tensor& g);

}  // namespace detail

}  // namespace ccovid::autograd
