// CasperLayer: ghost failure recovery. A FaultPlan may kill ghost processes
// at chosen virtual times; the runtime detects each death one heartbeat
// later and invokes the handler registered here. Recovery has three tiers:
//
//   1. surviving ghosts on the node absorb the dead ghost's load — rank
//      bindings rebind and binding slots remap (slot_ghost);
//   2. while retransmissions are still addressed to the dead ghost, the
//      runtime forwards them to a live successor precomputed below, so
//      read-modify-writes stay serialized through one live entity;
//   3. when a node loses its LAST ghost the node degrades to original-MPI
//      mode: operations targeting it go directly to the user window
//      (issue_degraded), locks are taken lazily on the user window, and
//      fence epochs switch only after the death is collectively latched
//      (see win_fence).
#include <algorithm>

#include "core/layer_impl.hpp"
#include "fault/plan.hpp"
#include "mpi/check.hpp"

namespace casper::core {

using mpi::Env;

void CasperLayer::setup_fault_recovery() {
  const fault::FaultPlan* fp = rt_->config().fault;
  if (fp == nullptr || fp->kills.empty() || !rt_->faults_on()) return;
  fault_recovery_ = true;
  stat_rebound_ops_ = &rt_->stats().counter("recovery.rebound_ops");
  rt_->set_death_handler(
      [this](int w, sim::Time t) { on_ghost_death(w, t); });

  // Precompute runtime-level successor forwarding: replay the kills in time
  // order against per-node alive sets, so each dying ghost forwards to a
  // ghost that is still alive *after* its own death (chains resolve
  // transitively in the runtime). A kill naming a non-ghost rank is a plan
  // error surfaced here rather than at death time.
  std::vector<fault::GhostKill> kills(fp->kills);
  std::stable_sort(kills.begin(), kills.end(),
                   [](const fault::GhostKill& a, const fault::GhostKill& b) {
                     return a.at < b.at;
                   });
  std::vector<std::vector<int>> alive = node_ghosts_;
  for (const auto& k : kills) {
    const int w = k.world_rank;
    MMPI_REQUIRE(w >= 0 && w < static_cast<int>(ghost_slot_.size()) &&
                     ghost_rank(w),
                 "fault: kill names world rank %d which is not a ghost", w);
    auto& a = alive[static_cast<std::size_t>(rt_->topo().node_of(w))];
    a.erase(std::remove(a.begin(), a.end(), w), a.end());
    rt_->set_rank_successor(w, a.empty() ? -1 : a.front());
  }
}

void CasperLayer::on_ghost_death(int world_rank, sim::Time t) {
  if (world_rank < 0 || world_rank >= static_cast<int>(ghost_slot_.size()) ||
      !ghost_rank(world_rank)) {
    return;
  }
  if (ghost_dead_[static_cast<std::size_t>(world_rank)] != 0) return;
  ghost_dead_[static_cast<std::size_t>(world_rank)] = 1;
  ghost_death_seq_[static_cast<std::size_t>(world_rank)] = ++death_seq_;
  any_ghost_dead_ = true;

  const int node = rt_->topo().node_of(world_rank);
  auto& alive = alive_ghosts_[static_cast<std::size_t>(node)];
  alive.erase(std::remove(alive.begin(), alive.end(), world_rank),
              alive.end());
  ++rt_->stats().counter("recovery.ghost_dead");

  // Rebind every managed window: targets rank-bound to the dead ghost move
  // to a survivor (segment pieces and adaptive slots served by the dead
  // ghost remap through slot_ghost).
  std::uint64_t rebound = 0;
  for (auto& [impl, cwp] : winmap_) {
    CspWin& cw = *cwp;
    for (auto& ti : cw.tgt) {
      if (ti.bound_ghost == world_rank && !alive.empty()) {
        ti.bound_ghost = alive[static_cast<std::size_t>(ti.local_idx) %
                               alive.size()];
        ++rebound;
      }
    }
  }
  rt_->stats().counter("recovery.rebound_targets") += rebound;

  if (alive.empty() &&
      node_degraded_[static_cast<std::size_t>(node)] == 0) {
    node_degraded_[static_cast<std::size_t>(node)] = 1;
    ++rt_->stats().counter("recovery.degraded");
  }

  if (obs::on(rt_->recorder())) {
    obs::Recorder* rec = rt_->recorder();
    rec->trace().instant(world_rank, obs::Ev::GhostDead, t,
                       static_cast<std::uint64_t>(world_rank),
                       static_cast<std::uint64_t>(node), death_seq_);
    rec->trace().instant(world_rank, obs::Ev::Rebind, t, rebound,
                       static_cast<std::uint64_t>(alive.size()),
                       static_cast<std::uint64_t>(
                           node_degraded_[static_cast<std::size_t>(node)]));
  }
}

bool CasperLayer::fence_direct(const CspWin& cw, int node) const {
  // All of the node's ghosts must be dead AND each death must have been
  // observed by every rank before the current fence epoch opened (its
  // sequence number at or below the collectively latched minimum). A death
  // landing mid-epoch keeps the epoch on the redirected path everywhere; the
  // runtime's NIC completion covers it until the next fence.
  for (int g : node_ghosts_[static_cast<std::size_t>(node)]) {
    const std::uint64_t s = ghost_death_seq_[static_cast<std::size_t>(g)];
    if (s == 0 || s > cw.fence_latch) return false;
  }
  return true;
}

void CasperLayer::issue_degraded(Env& env, CspWin& cw, OriginEp& ep,
                                 const mpi::RmaArgs& a) {
  const int target = a.target;
  auto& tl = ep.tl[static_cast<std::size_t>(target)];
  const int me_u = my_user_rank(env);
  if ((tl.locked || ep.lockall) && !tl.user_locked &&
      !(tl.locked && target == me_u)) {
    // Passive epoch: lazily acquire the user-window lock the first time a
    // degraded op targets this rank. (A self win_lock already locked the
    // user window; lockall never does, so self is lazy there too.)
    if (tl.locked) {
      Pmpi::win_lock(env, tl.type, target, tl.mode_assert, cw.user_win);
    } else {
      Pmpi::win_lock(env, mpi::LockType::Shared, target, 0, cw.user_win);
    }
    tl.user_locked = true;
  }
  ++rt_->stats().counter("recovery.direct_ops");

  rt_->p_rma(env, a, cw.user_win);
}

}  // namespace casper::core
