// Metrics-driven adaptive progress control (ROADMAP item 4).
//
// The paper fixes the segment→ghost binding and the dynamic-binding policy
// statically for a whole run. This module closes the loop: at every epoch
// boundary (user barrier / fence) the Casper layer seals one round of
// per-binding-item op/byte counters, and every origin independently replays
// the SAME pure decision function over the SAME sealed snapshot — the exact
// no-consensus trick the ghost-failure rebinding remap uses. When the
// windowed EWMA load of the items bound to one ghost skews past a threshold,
// the items are re-partitioned across the node's ghosts (greedy LPT); when
// the observed PUT/GET size mix favors it, the dynamic-binding policy flips
// between op-counting and byte-counting.
//
// Everything here is pure integer arithmetic over virtual-time-stamped
// counter snapshots: no wall clock, no RNG, no iteration over hash maps.
// Decisions are therefore exact-match invariant across fiber schedules and
// engine shard counts, and identical on every origin — which is what lets a
// remap preserve accumulate atomicity without a consensus round (all origins
// route any shared byte to the same ghost at any instant).
//
// Layering: this header is self-contained (obs + std only) so core::Config
// can embed AdaptiveConfig without a core→progress→core include cycle. The
// Casper layer owns all MPI-side wiring (sealing, issue-time routing,
// fault composition); see DESIGN.md §15.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace casper::progress {

/// Numeric mirror of core::DynamicLb (static_asserted at the layer).
inline constexpr int kLbNone = 0;
inline constexpr int kLbRandom = 1;
inline constexpr int kLbOpCount = 2;
inline constexpr int kLbByteCount = 3;

struct AdaptiveConfig {
  bool enabled = false;
};

/// Remap granularity under segment binding: each ghost's static chunk is
/// split into this many 16B-aligned subchunks the controller can move
/// independently. Rank binding moves whole per-target bindings instead.
inline constexpr int kSubchunks = 4;

/// Item layout for one node: items [first, first+count) are partitioned
/// over `slots` ghost slots (indices into the node's ghost list).
struct AdaptNode {
  int first = 0;
  int count = 0;
  int slots = 1;
};

/// One origin's sealed counters for one round on one window. Published to
/// the shared board before the epoch barrier, read by every origin after it.
struct AdaptSample {
  std::vector<std::uint64_t> item_ops;    // per item, this round
  std::vector<std::uint64_t> item_bytes;  // per item, this round
  std::uint64_t dyn_ops = 0;              // dynamically-balanced PUT/GETs
  std::uint64_t dyn_bytes = 0;
  std::uint64_t dyn_max_bytes = 0;
  /// LEVEL, not a round delta: accumulate-class ops issued but not yet
  /// flushed at seal time. Any nonzero slot vetoes the remap this round —
  /// moving a byte's serializing ghost while an RMW to it is in flight
  /// would split atomicity across two ghosts.
  std::uint64_t unflushed_acc = 0;
};

/// Replicated per-origin decision state. Every origin evolves its own copy
/// through decide(); identical inputs keep all copies exactly equal.
struct AdaptState {
  std::vector<int> map;             ///< item -> ghost slot (node-relative)
  std::vector<obs::Ewma> weight;    ///< per-item windowed load estimate
  int policy = kLbNone;             ///< effective dynamic-binding policy
  std::uint64_t round = 0;          ///< decide() calls so far
};

struct AdaptOutcome {
  bool remapped = false;
  bool policy_changed = false;
  bool skipped_unflushed = false;  ///< remap vetoed by in-flight accumulates
  bool cold = true;                ///< no node reached kMinRoundOps
  std::uint64_t digest = 0;        ///< FNV of (round, policy, map)
};

/// Greedy LPT partition: items sorted by (weight desc, index asc) assigned
/// one by one to the least-loaded slot (ties: lowest slot). Deterministic
/// for any input; `map` receives one slot per item.
void lpt_partition(const std::uint64_t* weight, int nitems, int slots,
                   int* map);

/// Max-over-mean per-slot load in percent (100 = perfectly balanced, 0 = no
/// load at all) for `nitems` items under `map`.
int load_skew_pct(const std::uint64_t* weight, const int* map, int nitems,
                  int slots);

/// Dynamic-binding policy recommendation from one round's PUT/GET mix:
/// uniform op sizes favor op-counting (cheapest adequate proxy); a heavy
/// tail (max >= 1.5x mean) favors byte-counting. Below `min_ops` the
/// current policy is kept. kLbNone is never recommended.
int recommend_policy(int current, std::uint64_t dyn_ops,
                     std::uint64_t dyn_bytes, std::uint64_t dyn_max_bytes,
                     std::uint64_t min_ops);

/// FNV-1a digest of the decision state (round, policy, map) — the
/// cross-schedule/cross-shard invariance witness.
std::uint64_t digest(const AdaptState& st);

/// One adaptation round: fold the sealed board into `st` and decide. Pure:
/// output depends only on (nodes, board, st). The caller provides the
/// board in a fixed order (user comm rank) — though every aggregate is a
/// commutative sum, so even the order is immaterial.
AdaptOutcome decide(const std::vector<AdaptNode>& nodes,
                    const std::vector<AdaptSample>& board, AdaptState& st);

}  // namespace casper::progress
