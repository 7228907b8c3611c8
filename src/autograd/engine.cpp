#include "autograd/engine.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/env.h"
#include "core/parallel.h"
#include "core/task_engine.h"
#include "trace/trace.h"

namespace ccovid::autograd {

namespace {

// -1 = no thread override; else a BackwardMode value.
thread_local int g_mode_override = -1;

bool process_default_async() {
  static const bool async = [] {
    const auto v = env::choice("CCOVID_ASYNC_BACKWARD", {"0", "1", "on", "off"},
                               "async engine (1)");
    return !(v && (*v == "0" || *v == "off"));
  }();
  return async;
}

}  // namespace

BackwardMode backward_mode() {
  if (g_mode_override >= 0) return static_cast<BackwardMode>(g_mode_override);
  return process_default_async() ? BackwardMode::kAsync
                                 : BackwardMode::kSequential;
}

BackwardModeGuard::BackwardModeGuard(BackwardMode m) : prev_(g_mode_override) {
  g_mode_override = static_cast<int>(m);
}

BackwardModeGuard::~BackwardModeGuard() { g_mode_override = prev_; }

namespace detail {

/// One gradient contribution parked until its target's dependency count
/// drains: `rank` is the contributing consumer's sequential execution
/// rank, `seq` its call index inside that consumer's closure — together
/// the exact position this add_ held in the sequential walk.
struct StagedGrad {
  std::uint32_t rank = 0;
  std::uint32_t seq = 0;
  Tensor grad;
};

struct NodeState {
  VarImpl* node = nullptr;
  std::vector<const VarImpl*> parents;  ///< per recorded edge (multiplicity)
  std::atomic<std::uint32_t> deps{0};   ///< outstanding consumer edges
  std::mutex mu;                        ///< guards `staged`
  std::vector<StagedGrad> staged;
};

struct EngineExecContext {
  BackwardRunState* run = nullptr;
  std::uint32_t consumer_rank = 0;
  std::uint32_t seq = 0;
};

namespace {
thread_local EngineExecContext* g_exec_ctx = nullptr;
}  // namespace

EngineExecContext* current_engine_context() { return g_exec_ctx; }

}  // namespace detail

/// Shared state of one drain. Nodes are stored in SEQUENTIAL EXECUTION
/// order (reverse topological, root first), so a node's index doubles
/// as its execution rank for contribution tags.
struct BackwardRunState : std::enable_shared_from_this<BackwardRunState> {
  std::shared_ptr<detail::VarImpl> root;  ///< keeps the graph alive
  std::unique_ptr<detail::NodeState[]> nodes;
  std::uint32_t count = 0;
  std::unordered_map<const detail::VarImpl*, std::uint32_t> index;
  BackwardOptions opts;

  bool inline_drain = false;  ///< width 1: caller drains, no tasks
  int width = 1;

  std::mutex mu;  ///< guards ready/in_flight/error
  std::vector<std::uint32_t> ready;
  int in_flight = 0;
  std::exception_ptr error;
  std::atomic<bool> aborted{false};
  std::atomic<std::uint32_t> remaining{0};
  /// Set (under mu) once on_complete returned; waiters and finished()
  /// key on this, not on `remaining`, which reaches zero before the
  /// hook runs.
  std::atomic<bool> complete{false};
  std::condition_variable done_cv;

  void record_error(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (!error) error = std::move(e);
    aborted.store(true, std::memory_order_relaxed);
  }

  /// Folds the staged contributions into `node->grad`, replaying the
  /// sequential accumulation order: sort by (consumer rank, call index)
  /// and reduce left to right. First contribution into an undefined
  /// buffer adopts the staged clone — bitwise the sequential
  /// `grad = g.clone()`; everything else is add_ in order.
  void fold_staged(detail::NodeState& s) {
    std::vector<detail::StagedGrad> staged;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      staged.swap(s.staged);
    }
    if (staged.empty()) return;
    std::sort(staged.begin(), staged.end(),
              [](const detail::StagedGrad& a, const detail::StagedGrad& b) {
                return a.rank != b.rank ? a.rank < b.rank : a.seq < b.seq;
              });
    std::size_t i = 0;
    if (!s.node->grad.defined()) {
      s.node->grad = std::move(staged[0].grad);
      i = 1;
    }
    for (; i < staged.size(); ++i) s.node->grad.add_(staged[i].grad);
  }

  void execute(std::uint32_t idx) {
    detail::NodeState& s = nodes[idx];
    fold_staged(s);
    const bool abort = aborted.load(std::memory_order_relaxed);
    if (!abort && s.node->backward_fn && s.node->grad.defined()) {
      detail::EngineExecContext ctx;
      ctx.run = this;
      ctx.consumer_rank = idx;
      detail::EngineExecContext* prev = detail::g_exec_ctx;
      detail::g_exec_ctx = &ctx;
      try {
        trace::ScopedCorrelation corr(opts.trace_correlation
                                          ? opts.trace_correlation
                                          : trace::correlation_id());
        TRACE_SPAN_V("autograd.node");
        s.node->backward_fn(s.node->grad);
      } catch (...) {
        record_error(std::current_exception());
      }
      detail::g_exec_ctx = prev;
      // Release the closure (and its captured activations) once used,
      // exactly as the sequential walk does.
      s.node->backward_fn = nullptr;
    }
    if (!aborted.load(std::memory_order_relaxed) && opts.on_node_finalized) {
      try {
        opts.on_node_finalized(s.node);
      } catch (...) {
        record_error(std::current_exception());
      }
    }
    for (const detail::VarImpl* p : s.parents) {
      const std::uint32_t pidx = index.find(p)->second;
      if (nodes[pidx].deps.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        enqueue_ready(pidx);
      }
    }
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (opts.on_complete) {
        try {
          opts.on_complete();
        } catch (...) {
          record_error(std::current_exception());
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      complete.store(true, std::memory_order_release);
      done_cv.notify_all();
    }
  }

  void enqueue_ready(std::uint32_t idx) {
    if (inline_drain) {
      ready.push_back(idx);  // caller-local, no lock needed
      return;
    }
    std::lock_guard<std::mutex> lock(mu);
    ready.push_back(idx);
    dispatch_locked();
  }

  /// Keeps at most `width` node tasks in flight; finished tasks pull
  /// the next ready node. Scheduling order is free — determinism lives
  /// entirely in the staged-fold ordering.
  void dispatch_locked();

  void run_task(std::uint32_t idx) {
    execute(idx);
    std::lock_guard<std::mutex> lock(mu);
    --in_flight;
    dispatch_locked();
  }
};

void BackwardRunState::dispatch_locked() {
  while (in_flight < width && !ready.empty()) {
    const std::uint32_t idx = ready.back();
    ready.pop_back();
    ++in_flight;
    // The task holds a shared_ptr: a BackwardRun destroyed right after
    // the run completed must not free state a finishing task still
    // touches (the in_flight bookkeeping below).
    TaskEngine::instance().submit(
        [self = shared_from_this(), idx] { self->run_task(idx); });
  }
}

namespace detail {

void stage_contribution(EngineExecContext* ctx, const VarImpl* target,
                        const Tensor& g) {
  BackwardRunState* run = ctx->run;
  const auto it = run->index.find(target);
  if (it == run->index.end()) {
    // A contribution to a node outside the drained graph (not reachable
    // from the root): accumulate directly, as the sequential walk would
    // never reorder it against anything.
    const_cast<VarImpl*>(target)->accumulate(g);
    return;
  }
  NodeState& s = run->nodes[it->second];
  StagedGrad sg;
  sg.rank = ctx->consumer_rank;
  sg.seq = ctx->seq++;
  sg.grad = g.clone();
  std::lock_guard<std::mutex> lock(s.mu);
  s.staged.push_back(std::move(sg));
}

}  // namespace detail

BackwardRun::~BackwardRun() {
  if (!state_) return;
  // Hooks and staged state may reference caller-owned memory: block
  // until the drain finished, but never throw from a destructor.
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->done_cv.wait(lock, [this] {
    return state_->complete.load(std::memory_order_acquire);
  });
}

void BackwardRun::wait() {
  if (!state_) return;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->done_cv.wait(lock, [this] {
    return state_->complete.load(std::memory_order_acquire);
  });
  if (state_->error) {
    std::exception_ptr e = state_->error;
    state_->error = nullptr;  // rethrow once; dtor stays silent
    lock.unlock();
    std::rethrow_exception(e);
  }
}

bool BackwardRun::finished() const {
  return !state_ || state_->complete.load(std::memory_order_acquire);
}

BackwardRun backward_start(const std::shared_ptr<detail::VarImpl>& root,
                           const Tensor& seed, BackwardOptions opts) {
  // Topological order by the SAME iterative post-order DFS the
  // sequential walk uses; reversing it yields the sequential execution
  // order, whose positions become the contribution tags.
  std::vector<detail::VarImpl*> order;
  std::unordered_set<detail::VarImpl*> visited;
  std::vector<std::pair<detail::VarImpl*, std::size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      detail::VarImpl* child = node->parents[next_child].get();
      ++next_child;
      if (visited.insert(child).second) stack.emplace_back(child, 0);
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  auto state = std::make_shared<BackwardRunState>();
  state->root = root;
  state->opts = std::move(opts);
  state->count = static_cast<std::uint32_t>(order.size());
  state->nodes.reset(new detail::NodeState[state->count]);
  state->index.reserve(order.size());
  for (std::uint32_t i = 0; i < state->count; ++i) {
    detail::VarImpl* node = order[state->count - 1 - i];
    state->nodes[i].node = node;
    state->index.emplace(node, i);
  }
  // Edge-counted dependencies: every recorded parent occurrence is one
  // outstanding edge (mul(x, x) holds x twice and contributes twice).
  for (std::uint32_t i = 0; i < state->count; ++i) {
    detail::NodeState& s = state->nodes[i];
    s.parents.reserve(s.node->parents.size());
    for (const auto& p : s.node->parents) {
      s.parents.push_back(p.get());
      state->nodes[state->index.find(p.get())->second].deps.fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  state->remaining.store(state->count, std::memory_order_relaxed);

  // Seed the root directly, as the sequential walk does before its loop.
  root->accumulate(seed);

  int width = thread_num_threads();
  if (width <= 0) width = num_threads();
  state->width = std::max(1, width);
  state->inline_drain = state->width == 1;

  BackwardRun run;
  run.state_ = state;
  if (state->inline_drain) {
    // Width 1: drain on the calling thread — the staging/fold path is
    // identical, only the scheduling is degenerate.
    state->ready.push_back(0);  // root has no consumers
    while (!state->ready.empty()) {
      const std::uint32_t idx = state->ready.back();
      state->ready.pop_back();
      state->execute(idx);
    }
    return run;
  }
  TaskEngine::instance().ensure_workers(state->width);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->ready.push_back(0);
    state->dispatch_locked();
  }
  return run;
}

void backward_async(const std::shared_ptr<detail::VarImpl>& root,
                    const Tensor& seed) {
  backward_start(root, seed).wait();
}

}  // namespace ccovid::autograd
