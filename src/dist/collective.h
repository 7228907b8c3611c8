// Deterministic allreduce family used by the DDP gradient path.
//
// THE CONTRACT: every algorithm produces, on every rank, the canonical
// linear fold of the per-rank contributions
//
//     result[i] = ((c0[i] + c1[i]) + c2[i]) + ... + c_{n-1}[i]
//
// — bitwise, not just numerically. The algorithms therefore never ship
// partial sums whose fold shape depends on the topology; they move the
// RAW contributions (ring circulation, binomial gather of contiguous
// rank ranges, recursive doubling of aligned blocks) and fold in rank
// order at the end. That makes the gradient bits independent of the
// chosen collective, of DDP bucket boundaries (a fold over a
// concatenation is the concatenation of folds), and of the task-engine
// width — which is what lets tests/test_golden.cpp pin ONE digest for
// the whole collective x bucket-size x width sweep.
//
// This is the only allreduce in the tree. A classic Baidu ring
// (reduce-scatter + all-gather) would fold each chunk in a rotation of
// rank order, so its bits would depend on chunk layout and therefore on
// bucket size; these algorithms trade that bandwidth for the contract.
//
// Selection: an explicit --collective choice wins; kAuto defers to the
// CCOVID_COLLECTIVE environment variable ("ring" | "tree" |
// "bcast-halving" | "auto"), and a still-unresolved kAuto asks the
// interconnect cost model for the cheapest algorithm at the given
// transfer size.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dist/comm.h"
#include "dist/interconnect.h"

namespace ccovid::dist {

/// CLI / env spelling of an algorithm ("ring", "tree", "bcast-halving",
/// "auto").
const char* collective_name(Collective c);

/// Parses a spelling; nullopt on unknown input.
std::optional<Collective> parse_collective(const std::string& name);

/// CCOVID_COLLECTIVE environment override (kAuto when unset; unknown
/// values warn once via env::choice and fall back to kAuto).
Collective env_collective();

/// Resolves a requested algorithm to a concrete one: explicit choice >
/// CCOVID_COLLECTIVE > cost-model argmin for (bytes, world).
Collective resolve_collective(Collective requested,
                              const InterconnectModel& net,
                              std::uint64_t bytes, int world);

/// Deterministic allreduce over `world`'s point-to-point channels:
/// every rank calls with its contribution in `data`; on return `data`
/// holds the canonical rank-order fold on every rank. `alg` must be
/// concrete (resolve kAuto first); kBcastHalving on a non-power-of-two
/// world runs the ring.
void all_reduce(World& world, int rank, std::vector<real_t>& data,
                Collective alg);

}  // namespace ccovid::dist
