// CasperLayer: metrics-driven adaptive progress control (DESIGN.md §15,
// ROADMAP item 4).
//
// At every epoch boundary on the user world (barrier or fence), each origin
// seals its private round counters into its own slot of the window's shared
// board (pre-barrier), then — after the barrier — replays the pure decision
// function progress::decide() over the complete board against its own
// replica of the controller state. Identical inputs keep every replica
// exactly equal, so a remap needs no consensus round: the same trick the
// ghost-failure rebinding remap uses. The board is double-buffered by round
// parity; the barrier between consecutive rounds is both the memory fence
// (cross-shard happens-before via its message chain) and the reuse guard
// (the seal of round r+2 cannot overlap the decide-reads of round r because
// no origin passes barrier r+1 before every origin finished decide r).
//
// The controller itself never advances virtual time and emits observability
// only from user rank 0, so an adaptive run that never remaps is
// byte-identical in timing to a static run.
#include <algorithm>

#include "core/layer_impl.hpp"
#include "mpi/check.hpp"
#include "progress/adaptive.hpp"

namespace casper::core {

using mpi::Env;

// AdaptState::policy mirrors core::DynamicLb numerically.
static_assert(static_cast<int>(DynamicLb::None) == progress::kLbNone);
static_assert(static_cast<int>(DynamicLb::Random) == progress::kLbRandom);
static_assert(static_cast<int>(DynamicLb::OpCounting) ==
              progress::kLbOpCount);
static_assert(static_cast<int>(DynamicLb::ByteCounting) ==
              progress::kLbByteCount);

void CasperLayer::init_adapt(CspWin& cw) {
  auto& ad = cw.adapt;
  ad.on = true;
  const std::size_t nnodes = node_ghosts_.size();
  ad.nodes.assign(nnodes, progress::AdaptNode{});
  std::vector<int> init_map;
  int first = 0;
  for (std::size_t n = 0; n < nnodes; ++n) {
    const int g = static_cast<int>(node_ghosts_[n].size());
    int count = 0;
    if (cfg_.binding == Binding::Rank) {
      count = static_cast<int>(node_users_[n].size());
      init_map.resize(static_cast<std::size_t>(first + count), 0);
    } else {
      // The segment table's subchunks are the items. Each starts on the
      // slot of the chunk holding its first byte, so when the subchunk size
      // divides the chunk (the common power-of-two case) the initial map
      // routes byte-for-byte like the static binding.
      const SegTable& st = cw.seg[n];
      count = static_cast<int>(st.count);
      init_map.resize(static_cast<std::size_t>(first + count), 0);
      for (int i = 0; i < count; ++i) {
        init_map[static_cast<std::size_t>(first + i)] = static_cast<int>(
            std::min(static_cast<std::size_t>(i) * st.piece / st.chunk,
                     static_cast<std::size_t>(g - 1)));
      }
    }
    ad.nodes[n] = progress::AdaptNode{first, count, g};
    first += count;
  }
  if (cfg_.binding == Binding::Rank) {
    // Initial slots = the static (possibly NUMA-aware) rank binding.
    for (const TargetInfo& ti : cw.tgt) {
      const auto& ng = node_ghosts_[static_cast<std::size_t>(ti.node)];
      const auto it = std::find(ng.begin(), ng.end(), ti.bound_ghost);
      init_map[static_cast<std::size_t>(
          ad.nodes[static_cast<std::size_t>(ti.node)].first + ti.local_idx)] =
          static_cast<int>(it - ng.begin());
    }
  }
  const std::size_t nitems = static_cast<std::size_t>(first);
  for (auto& buf : ad.board) {
    buf.resize(cw.ep.size());
    for (auto& s : buf) {
      s.item_ops.assign(nitems, 0);
      s.item_bytes.assign(nitems, 0);
    }
  }
  for (auto& ep : cw.ep) {
    ep.adapt.map = init_map;
    ep.adapt.weight.assign(nitems, obs::Ewma{});
    ep.adapt.policy = static_cast<int>(cfg_.dynamic);
    ep.adapt.round = 0;
    ep.adapt_acc.item_ops.assign(nitems, 0);
    ep.adapt_acc.item_bytes.assign(nitems, 0);
  }
}

void CasperLayer::adapt_note(CspWin& cw, OriginEp& ep, const TargetInfo& ti,
                             std::size_t node_off, std::size_t nbytes) {
  const auto& nd = cw.adapt.nodes[static_cast<std::size_t>(ti.node)];
  auto& acc = ep.adapt_acc;
  if (cfg_.binding == Binding::Rank) {
    const auto item = static_cast<std::size_t>(nd.first + ti.local_idx);
    ++acc.item_ops[item];
    acc.item_bytes[item] += nbytes;
    return;
  }
  // Segment: attribute exactly per subchunk, so a remapped piece keeps an
  // honest weight no matter which ghost currently serves it.
  const std::size_t sb = cw.seg[static_cast<std::size_t>(ti.node)].piece;
  const std::size_t last = static_cast<std::size_t>(nd.count - 1);
  std::size_t off = node_off;
  std::size_t left = nbytes;
  while (true) {
    const std::size_t ci = std::min(off / sb, last);
    const std::size_t item = static_cast<std::size_t>(nd.first) + ci;
    const std::size_t take =
        ci == last ? left : std::min(left, (ci + 1) * sb - off);
    ++acc.item_ops[item];
    acc.item_bytes[item] += take;
    left -= take;
    if (left == 0) break;
    off += take;
  }
}

void CasperLayer::adapt_seal(CspWin& cw, int me_u) {
  auto& ep = cw.ep[static_cast<std::size_t>(me_u)];
  auto& acc = ep.adapt_acc;
  progress::AdaptSample& out =
      cw.adapt.board[ep.adapt.round & 1][static_cast<std::size_t>(me_u)];
  std::copy(acc.item_ops.begin(), acc.item_ops.end(), out.item_ops.begin());
  std::copy(acc.item_bytes.begin(), acc.item_bytes.end(),
            out.item_bytes.begin());
  out.dyn_ops = acc.dyn_ops;
  out.dyn_bytes = acc.dyn_bytes;
  out.dyn_max_bytes = acc.dyn_max_bytes;
  out.unflushed_acc = acc.unflushed_acc;  // a level, not a delta: keep it
  std::fill(acc.item_ops.begin(), acc.item_ops.end(), 0);
  std::fill(acc.item_bytes.begin(), acc.item_bytes.end(), 0);
  acc.dyn_ops = 0;
  acc.dyn_bytes = 0;
  acc.dyn_max_bytes = 0;
}

void CasperLayer::adapt_decide(Env& env, CspWin& cw, int me_u) {
  auto& ep = cw.ep[static_cast<std::size_t>(me_u)];
  const auto& board = cw.adapt.board[ep.adapt.round & 1];
  const progress::AdaptOutcome out =
      progress::decide(cw.adapt.nodes, board, ep.adapt);
  if (me_u != 0 || !obs::on(rt_->recorder())) return;
  obs::Recorder* rec = rt_->recorder();
  auto& m = rec->metrics();
  ++m.counter("adapt.rounds");
  if (out.remapped) ++m.counter("adapt.rebinds");
  if (out.policy_changed) ++m.counter("adapt.policy_switches");
  if (out.skipped_unflushed) ++m.counter("adapt.skipped_unflushed");
  if (out.cold) ++m.counter("adapt.skipped_cold");
  // Summed digest: an exact-match invariance witness across schedules and
  // shard counts (only rank 0's shard writes it; shard merge sums).
  m.counter("adapt.map_digest") += out.digest;
  rec->trace().instant(
      env.world_rank(), obs::Ev::LbAdapt, env.now(), out.digest,
      static_cast<std::uint64_t>(cw.user_win->id()),
      (out.remapped ? 1u : 0u) | (out.policy_changed ? 2u : 0u) |
          (out.skipped_unflushed ? 4u : 0u));
}

void CasperLayer::adapt_barrier(Env& env, const mpi::Comm& c) {
  // Snapshot the managed windows in a deterministic order. Window
  // allocation/free is collective over the same ranks barriering here, so
  // no rank can be mutating winmap_ concurrently; the lock only orders the
  // map reads against registrations in earlier conservative windows.
  std::vector<CspWin*> wins;
  {
    std::unique_lock<std::mutex> lk(winmap_mu_, std::defer_lock);
    if (rt_->engine().sharded()) lk.lock();
    wins.reserve(winmap_.size());
    for (auto& [impl, cw] : winmap_) {
      (void)impl;
      if (cw->adapt.on) wins.push_back(cw.get());
    }
  }
  std::sort(wins.begin(), wins.end(), [](const CspWin* a, const CspWin* b) {
    return a->user_win->id() < b->user_win->id();
  });
  const int me_u = my_user_rank(env);
  for (CspWin* cw : wins) adapt_seal(*cw, me_u);
  Pmpi::barrier(env, c);
  for (CspWin* cw : wins) adapt_decide(env, *cw, me_u);
}

DynamicLb CasperLayer::effective_lb(const CspWin& cw,
                                    const OriginEp& ep) const {
  if (!cw.adapt.on) return cfg_.dynamic;
  return static_cast<DynamicLb>(ep.adapt.policy);
}

// ------------------------------------------------- introspection ----------

std::uint64_t CasperLayer::adapt_digest(const mpi::Win& user_win) {
  auto& cw = managed_checked(user_win, "adapt_digest");
  MMPI_REQUIRE(cw.adapt.on, "casper: adapt_digest on a non-adaptive run");
  return progress::digest(cw.ep[0].adapt);
}

std::vector<int> CasperLayer::adapt_map(const mpi::Win& user_win) {
  auto& cw = managed_checked(user_win, "adapt_map");
  MMPI_REQUIRE(cw.adapt.on, "casper: adapt_map on a non-adaptive run");
  return cw.ep[0].adapt.map;
}

int CasperLayer::adapt_policy(const mpi::Win& user_win) {
  auto& cw = managed_checked(user_win, "adapt_policy");
  MMPI_REQUIRE(cw.adapt.on, "casper: adapt_policy on a non-adaptive run");
  return cw.ep[0].adapt.policy;
}

}  // namespace casper::core
