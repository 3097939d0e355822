#include "progress/adaptive.hpp"

#include <algorithm>
#include <numeric>

#include "sim/hash.hpp"

namespace casper::progress {

namespace {
/// EWMA smoothing (obs::Ewma shift): the per-item load estimate has a
/// half-life of roughly 2^shift rounds, so phase shifts are tracked in a few
/// epochs without thrashing on one noisy round.
constexpr int kEwmaShift = 2;
/// Byte-equivalent weight of one operation: item load = bytes + ops*cost
/// (an op has fixed ghost-side service overhead even when tiny).
constexpr std::uint64_t kOpCostBytes = 512;
/// Re-partition when max per-ghost load exceeds this percentage of the mean
/// (125 = 1.25x). At or below, the current map is kept: a balanced workload
/// never remaps and stays byte-identical to static binding.
constexpr int kSkewPct = 125;
/// Rounds with fewer total ops than this (per node) are ignored entirely:
/// no EWMA advance, no remap; cold windows keep their bindings. Also the
/// minimum PUT/GET sample for a policy switch.
constexpr std::uint64_t kMinRoundOps = 16;
}  // namespace

void lpt_partition(const std::uint64_t* weight, int nitems, int slots,
                   int* map) {
  std::vector<int> order(static_cast<std::size_t>(nitems));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (weight[a] != weight[b]) return weight[a] > weight[b];
    return a < b;
  });
  std::vector<std::uint64_t> load(static_cast<std::size_t>(slots), 0);
  for (int i : order) {
    int best = 0;
    for (int s = 1; s < slots; ++s) {
      if (load[static_cast<std::size_t>(s)] <
          load[static_cast<std::size_t>(best)]) {
        best = s;
      }
    }
    map[i] = best;
    load[static_cast<std::size_t>(best)] += weight[i];
  }
}

int load_skew_pct(const std::uint64_t* weight, const int* map, int nitems,
                  int slots) {
  std::vector<std::uint64_t> load(static_cast<std::size_t>(slots), 0);
  std::uint64_t total = 0;
  for (int i = 0; i < nitems; ++i) {
    load[static_cast<std::size_t>(map[i])] += weight[i];
    total += weight[i];
  }
  if (total == 0) return 0;
  const std::uint64_t mx = *std::max_element(load.begin(), load.end());
  // max/mean in percent: mean = total/slots, so pct = max*slots*100/total.
  return static_cast<int>((mx * static_cast<std::uint64_t>(slots) * 100) /
                          total);
}

int recommend_policy(int current, std::uint64_t dyn_ops,
                     std::uint64_t dyn_bytes, std::uint64_t dyn_max_bytes,
                     std::uint64_t min_ops) {
  if (dyn_ops < min_ops || dyn_ops == 0) return current;
  const std::uint64_t mean = dyn_bytes / dyn_ops;
  // Heavy-tailed sizes (max >= 1.5x mean): op counts misjudge ghost load,
  // count bytes instead. Near-uniform sizes: op counting is equivalent and
  // cheaper to reason about.
  return (2 * dyn_max_bytes >= 3 * mean) ? kLbByteCount : kLbOpCount;
}

std::uint64_t digest(const AdaptState& st) {
  std::uint64_t h = sim::kFnvBasis;
  auto mix = [&h](std::uint64_t v) { h = sim::fnv1a(&v, sizeof v, h); };
  mix(st.round);
  mix(static_cast<std::uint64_t>(st.policy));
  for (int s : st.map) mix(static_cast<std::uint64_t>(s));
  return h;
}

AdaptOutcome decide(const std::vector<AdaptNode>& nodes,
                    const std::vector<AdaptSample>& board, AdaptState& st) {
  AdaptOutcome out;
  const std::size_t nitems = st.map.size();

  // Aggregate the board (commutative sums — origin order immaterial).
  std::vector<std::uint64_t> ops(nitems, 0), bytes(nitems, 0);
  std::uint64_t dyn_ops = 0, dyn_bytes = 0, dyn_max = 0, unflushed = 0;
  for (const AdaptSample& s : board) {
    for (std::size_t i = 0; i < nitems; ++i) {
      ops[i] += s.item_ops[i];
      bytes[i] += s.item_bytes[i];
    }
    dyn_ops += s.dyn_ops;
    dyn_bytes += s.dyn_bytes;
    dyn_max = std::max(dyn_max, s.dyn_max_bytes);
    unflushed += s.unflushed_acc;
  }
  ++st.round;

  std::vector<std::uint64_t> w;
  std::vector<int> remap;
  for (const AdaptNode& nd : nodes) {
    std::uint64_t node_ops = 0;
    for (int i = 0; i < nd.count; ++i) {
      node_ops += ops[static_cast<std::size_t>(nd.first + i)];
    }
    if (node_ops < kMinRoundOps) continue;  // cold: freeze this node
    out.cold = false;
    w.assign(static_cast<std::size_t>(nd.count), 0);
    for (int i = 0; i < nd.count; ++i) {
      const std::size_t gi = static_cast<std::size_t>(nd.first + i);
      st.weight[gi].advance(bytes[gi] + ops[gi] * kOpCostBytes, kEwmaShift);
      w[static_cast<std::size_t>(i)] = st.weight[gi].v;
    }
    if (nd.slots <= 1) continue;
    if (unflushed != 0) {
      // An accumulate-class op is still in flight somewhere: adopting a new
      // map now would let two ghosts RMW the same byte. Wait a round.
      out.skipped_unflushed = true;
      continue;
    }
    if (load_skew_pct(w.data(), st.map.data() + nd.first, nd.count,
                      nd.slots) <= kSkewPct) {
      continue;
    }
    remap.assign(static_cast<std::size_t>(nd.count), 0);
    lpt_partition(w.data(), nd.count, nd.slots, remap.data());
    if (!std::equal(remap.begin(), remap.end(), st.map.begin() + nd.first)) {
      std::copy(remap.begin(), remap.end(), st.map.begin() + nd.first);
      out.remapped = true;
    }
  }

  if (st.policy != kLbNone) {
    const int np = recommend_policy(st.policy, dyn_ops, dyn_bytes, dyn_max,
                                    kMinRoundOps);
    if (np != st.policy) {
      st.policy = np;
      out.policy_changed = true;
    }
  }

  out.digest = digest(st);
  return out;
}

}  // namespace casper::progress
