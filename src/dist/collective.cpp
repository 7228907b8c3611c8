#include "dist/collective.h"

#include <stdexcept>

#include "core/env.h"

namespace ccovid::dist {

namespace {

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

/// Canonical fold of `n` concatenated raw contributions (rank order,
/// `len` elements each) into `data`. This is THE fold — every algorithm
/// funnels through it so the bit pattern cannot depend on topology.
void fold_blocks(const std::vector<real_t>& blocks, std::size_t len, int n,
                 std::vector<real_t>& data) {
  for (std::size_t i = 0; i < len; ++i) data[i] = blocks[i];
  for (int r = 1; r < n; ++r) {
    const real_t* src = blocks.data() + static_cast<std::size_t>(r) * len;
    for (std::size_t i = 0; i < len; ++i) data[i] += src[i];
  }
}

/// Ring: circulate every rank's raw contribution n-1 hops around the
/// ring, then fold locally in rank order.
void ring_all_reduce(World& w, int rank, std::vector<real_t>& data) {
  const int n = w.size();
  const std::size_t len = data.size();
  const int next = (rank + 1) % n;
  const int prev = (rank + n - 1) % n;
  std::vector<real_t> blocks(len * static_cast<std::size_t>(n));
  std::copy(data.begin(), data.end(),
            blocks.begin() + static_cast<std::ptrdiff_t>(len) * rank);
  for (int s = 0; s < n - 1; ++s) {
    const int send_origin = ((rank - s) % n + n) % n;
    const int recv_origin = ((rank - s - 1) % n + n) % n;
    const auto base =
        blocks.begin() + static_cast<std::ptrdiff_t>(len) * send_origin;
    w.send(rank, next, Message(base, base + static_cast<std::ptrdiff_t>(len)));
    Message in = w.recv(rank, prev);
    if (in.size() != len) {
      throw std::runtime_error("collective ring: length mismatch");
    }
    std::copy(in.begin(), in.end(),
              blocks.begin() + static_cast<std::ptrdiff_t>(len) * recv_origin);
  }
  fold_blocks(blocks, len, n, data);
}

/// Tree: binomial gather of contiguous-rank raw blocks to rank 0, one
/// canonical fold at the root, binomial broadcast of the result.
void tree_all_reduce(World& w, int rank, std::vector<real_t>& data) {
  const int n = w.size();
  const std::size_t len = data.size();
  const int k_max = InterconnectModel::ceil_log2(n);

  // Gather. Invariant: before step k, `block` holds the raw
  // contributions of ranks [rank, min(rank + 2^k, n)) concatenated in
  // rank order. A rank whose k-th bit is set ships its block downward
  // at step k and is done.
  std::vector<real_t> block = data;
  bool sent = false;
  for (int k = 0; k < k_max && !sent; ++k) {
    const int bit = 1 << k;
    if ((rank & bit) != 0) {
      w.send(rank, rank - bit, Message(block.begin(), block.end()));
      sent = true;
    } else if (rank + bit < n) {
      Message in = w.recv(rank, rank + bit);
      block.insert(block.end(), in.begin(), in.end());
    }
  }
  if (rank == 0) {
    if (block.size() != len * static_cast<std::size_t>(n)) {
      throw std::runtime_error("collective tree: gather length mismatch");
    }
    fold_blocks(block, len, n, data);
  }

  // Broadcast the folded result back down the same tree.
  for (int k = k_max - 1; k >= 0; --k) {
    const int bit = 1 << k;
    const int pos = rank & (2 * bit - 1);
    if (pos == 0) {
      if (rank + bit < n) {
        w.send(rank, rank + bit, Message(data.begin(), data.end()));
      }
    } else if (pos == bit) {
      Message in = w.recv(rank, rank - bit);
      if (in.size() != len) {
        throw std::runtime_error("collective tree: broadcast length mismatch");
      }
      std::copy(in.begin(), in.end(), data.begin());
    }
  }
}

/// Bcast-halving (recursive doubling): at step k every rank swaps its
/// aligned 2^k-rank raw block with the partner across bit k, doubling
/// the contiguous range it holds; after ceil(log2 n) steps every rank
/// folds the full rank-ordered concatenation. Power-of-two worlds only.
void halving_all_reduce(World& w, int rank, std::vector<real_t>& data) {
  const int n = w.size();
  const std::size_t len = data.size();
  const int k_max = InterconnectModel::ceil_log2(n);
  std::vector<real_t> block = data;  // ranks [base, base + 2^k)
  for (int k = 0; k < k_max; ++k) {
    const int bit = 1 << k;
    const int partner = rank ^ bit;
    w.send(rank, partner, Message(block.begin(), block.end()));
    Message in = w.recv(rank, partner);
    if (in.size() != block.size()) {
      throw std::runtime_error("collective bcast-halving: length mismatch");
    }
    if ((rank & bit) != 0) {
      // Partner's block covers the lower rank range: it goes first.
      block.insert(block.begin(), in.begin(), in.end());
    } else {
      block.insert(block.end(), in.begin(), in.end());
    }
  }
  fold_blocks(block, len, n, data);
}

}  // namespace

const char* collective_name(Collective c) {
  switch (c) {
    case Collective::kRing:
      return "ring";
    case Collective::kTree:
      return "tree";
    case Collective::kBcastHalving:
      return "bcast-halving";
    case Collective::kAuto:
      break;
  }
  return "auto";
}

std::optional<Collective> parse_collective(const std::string& name) {
  for (const Collective c : {Collective::kAuto, Collective::kRing,
                             Collective::kTree, Collective::kBcastHalving}) {
    if (name == collective_name(c)) return c;
  }
  return std::nullopt;
}

Collective env_collective() {
  const auto v = env::choice("CCOVID_COLLECTIVE",
                             {"ring", "tree", "bcast-halving", "auto"},
                             "auto (cost-model choice)");
  if (!v) return Collective::kAuto;
  return parse_collective(*v).value_or(Collective::kAuto);
}

Collective resolve_collective(Collective requested,
                              const InterconnectModel& net,
                              std::uint64_t bytes, int world) {
  Collective c = requested;
  if (c == Collective::kAuto) c = env_collective();
  if (c == Collective::kAuto) c = net.best_collective(bytes, world);
  return c;
}

void all_reduce(World& world, int rank, std::vector<real_t>& data,
                Collective alg) {
  if (world.size() == 1 || data.empty()) return;
  switch (alg) {
    case Collective::kRing:
      ring_all_reduce(world, rank, data);
      return;
    case Collective::kTree:
      tree_all_reduce(world, rank, data);
      return;
    case Collective::kBcastHalving:
      if (!is_pow2(world.size())) {
        ring_all_reduce(world, rank, data);  // same bits, see header
        return;
      }
      halving_all_reduce(world, rank, data);
      return;
    case Collective::kAuto:
      break;
  }
  throw std::invalid_argument(
      "collective::all_reduce: resolve kAuto before the wire call");
}

}  // namespace ccovid::dist
