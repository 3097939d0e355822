// CasperLayer: window allocation — the shared-memory mapping and the
// overlapping internal windows (paper II.B, Fig. 2), controlled by the
// `epochs_used` info hint (paper III.A).
#include <algorithm>
#include <utility>

#include "core/layer_impl.hpp"
#include "mpi/check.hpp"

namespace casper::core {

using mpi::Comm;
using mpi::Env;
using mpi::Win;

namespace {
std::size_t align64(std::size_t v) { return (v + 63) & ~std::size_t{63}; }
std::size_t align16(std::size_t v) {
  return (v + mpi::kMaxBasicDtSize - 1) & ~(mpi::kMaxBasicDtSize - 1);
}
}  // namespace

CasperLayer::CspWin* CasperLayer::managed(const Win& w) {
  // Sharded, a lookup can race another rank's registration of a DIFFERENT
  // window inside the same conservative window (std::map insert invalidates
  // nothing, but concurrent find/insert is still a data race), so lookups
  // take the registry lock too. Uncontended in practice; never locked when
  // single-shard.
  std::unique_lock<std::mutex> lk(winmap_mu_, std::defer_lock);
  if (rt_->engine().sharded()) lk.lock();
  auto it = winmap_.find(w.get());
  return it == winmap_.end() ? nullptr : it->second.get();
}

CasperLayer::CspWin& CasperLayer::managed_checked(const Win& w,
                                                  const char* who) {
  auto* cw = managed(w);
  MMPI_REQUIRE(cw != nullptr, "casper: %s on an unmanaged window", who);
  return *cw;
}

int CasperLayer::my_user_rank(Env& env) const {
  return user_world_->rank_of_world(env.world_rank());
}

Win CasperLayer::win_allocate(Env& env, std::size_t bytes, std::size_t du,
                              const mpi::Info& info, const Comm& c,
                              void** base) {
  // Casper manages windows allocated over COMM_USER_WORLD (the common case
  // and the paper's scope). Other communicators fall through to the MPI
  // implementation unmanaged: correct, but without asynchronous progress.
  if (c != user_world_) {
    ++rt_->engine().stats_local().counter("casper_unmanaged_windows");
    return Pmpi::win_allocate(env, bytes, du, info, c, base);
  }
  const unsigned epochs = parse_epochs(info);
  const int me = env.world_rank();
  const int seq = alloc_seq_[static_cast<std::size_t>(me)]++;

  GhostCmd cmd;
  cmd.code = GhostCmd::kWinAlloc;
  cmd.epochs = epochs;
  cmd.disp_unit = static_cast<long long>(du);
  cmd.seq = seq;
  notify_ghosts(env, cmd);

  Layout lay;
  WinHandles h = build_windows(env, bytes, epochs, info, lay);

  // The user-visible window: a window over COMM_USER_WORLD exposing the same
  // shared segments. The application synchronizes and communicates on this
  // handle; Casper intercepts and redirects every call.
  const Comm& nc = node_comm_of_[static_cast<std::size_t>(me)];
  std::byte* seg_base =
      rt_->p_shared_query(env, h.shm, nc->rank_of_world(me)).base;
  Win user_win = Pmpi::win_create(env, seg_base, bytes, du, info, user_world_);
  *base = seg_base;

  // One canonical CspWin per user window, shared by all member ranks: the
  // first rank to get here builds and registers it; later ranks only merge
  // their node's shared-memory window handle into it. Map/pointer work and
  // the pure table fill only, so holding the registry lock here (sharded) is
  // safe — no MPI calls.
  const auto my_node = static_cast<std::size_t>(rt_->topo().node_of(me));
  std::unique_lock<std::mutex> lk(winmap_mu_, std::defer_lock);
  if (rt_->engine().sharded()) lk.lock();
  auto it = winmap_.find(user_win.get());
  if (it != winmap_.end()) {
    it->second->shm_by_node[my_node] = std::move(h.shm);
    return it->second->user_win;
  }
  auto cw = std::make_shared<CspWin>();
  cw->user_win = user_win;
  cw->epochs = epochs;
  cw->seq = seq;
  cw->shm_by_node.resize(static_cast<std::size_t>(rt_->topo().nodes));
  cw->shm_by_node[my_node] = std::move(h.shm);
  cw->ug_wins = std::move(h.ug_wins);
  cw->global_win = std::move(h.global_win);
  fill_tables(*cw, std::move(lay), du);
  winmap_[user_win.get()] = cw;
  ++rt_->engine().stats_local().counter("casper_managed_windows");
  return user_win;
}

CasperLayer::WinHandles CasperLayer::build_windows(Env& env,
                                                   std::size_t bytes,
                                                   unsigned epochs,
                                                   const mpi::Info& info,
                                                   Layout& lay) {
  const auto& topo = rt_->topo();
  const int me = env.world_rank();
  const bool ghost = ghost_rank(me);
  const Comm& nc = node_comm_of_[static_cast<std::size_t>(me)];
  WinHandles h;

  // Step 1: allocate the node shared segment; ghosts contribute zero bytes
  // but get the whole node buffer mapped into their "address space".
  void* shm_base = nullptr;
  h.shm = Pmpi::win_allocate_shared(env, ghost ? 0 : bytes, 1, info, nc,
                                    &shm_base);

  // Compute the node buffer's base and my segment's offset within it from
  // the node-local segment layout.
  const std::byte* node_base = rt_->p_shared_query(env, h.shm, 0).base;
  std::size_t my_offset = 0;
  for (int r = 0; r < nc->size(); ++r) {
    auto seg = rt_->p_shared_query(env, h.shm, r);
    if (nc->world_rank(r) == me) {
      my_offset = static_cast<std::size_t>(seg.base - node_base);
    }
  }

  // Step 2: exchange every rank's (offset, size) so all origins can
  // translate target displacements into ghost-frame displacements.
  lay.places.resize(static_cast<std::size_t>(topo.nranks()));
  Place mine{my_offset, ghost ? 0ull : static_cast<unsigned long long>(bytes)};
  Pmpi::allgather(env, &mine, static_cast<int>(sizeof(Place)),
                  mpi::Dt::Byte, lay.places.data(), rt_->world());

  lay.node_total.assign(static_cast<std::size_t>(topo.nodes), 0);
  for (int node = 0; node < topo.nodes; ++node) {
    std::size_t total = 0;
    for (int u : node_users_[static_cast<std::size_t>(node)]) {
      total += align64(static_cast<std::size_t>(
          lay.places[static_cast<std::size_t>(u)].size));
    }
    lay.node_total[static_cast<std::size_t>(node)] = total;
  }

  // Step 3: the overlapping internal windows over ALL ranks. Each ghost
  // exposes the whole node buffer (byte-addressed); user ranks expose
  // nothing (they are never internal targets — self ops are local).
  std::byte* ghost_base =
      ghost ? const_cast<std::byte*>(node_base) : nullptr;
  const std::size_t ghost_size =
      ghost ? lay.node_total[static_cast<std::size_t>(topo.node_of(me))] : 0;

  if (epochs & kEpochLock) {
    // One overlapping window per node-local user process, so exclusive locks
    // to different user targets on the same node do not serialize, while
    // locks to the same target keep MPI's permission management (III.A).
    h.ug_wins.reserve(static_cast<std::size_t>(max_local_users_));
    for (int i = 0; i < max_local_users_; ++i) {
      h.ug_wins.push_back(Pmpi::win_create(env, ghost_base, ghost_size, 1,
                                           info, rt_->world()));
    }
  }
  if (epochs & (kEpochFence | kEpochPscw | kEpochLockAll)) {
    h.global_win =
        Pmpi::win_create(env, ghost_base, ghost_size, 1, info, rt_->world());
    if (!ghost) {
      // Fence/PSCW are translated onto a permanent passive epoch: lock-all
      // issued once at window allocation (III.C.1).
      Pmpi::win_lock_all(env, 0, h.global_win);
    }
  }
  return h;
}

void CasperLayer::fill_tables(CspWin& cw, Layout lay, std::size_t du) {
  const auto& topo = rt_->topo();
  const auto users = static_cast<std::size_t>(user_world_->size());
  cw.tgt.resize(users);
  cw.ep.resize(users);
  for (int node = 0; node < topo.nodes; ++node) {
    const auto& nu = node_users_[static_cast<std::size_t>(node)];
    const auto& ng = node_ghosts_[static_cast<std::size_t>(node)];
    for (std::size_t li = 0; li < nu.size(); ++li) {
      const int w = nu[li];
      const Place& pl = lay.places[static_cast<std::size_t>(w)];
      auto& ti =
          cw.tgt[static_cast<std::size_t>(user_world_->rank_of_world(w))];
      ti.node = node;
      ti.offset = static_cast<std::size_t>(pl.offset);
      ti.size = static_cast<std::size_t>(pl.size);
      ti.disp_unit = du;
      ti.local_idx = static_cast<int>(li);
      // Static rank binding with NUMA awareness: bind to a ghost in the
      // user's NUMA domain when one exists, round-robin inside the domain.
      if (cfg_.topology_aware && topo.numa_per_node > 1) {
        std::vector<int> same_dom;
        for (int g : ng) {
          if (topo.numa_of(g) == topo.numa_of(w)) same_dom.push_back(g);
        }
        const auto& cands = same_dom.empty() ? ng : same_dom;
        ti.bound_ghost = cands[li % cands.size()];
      } else {
        ti.bound_ghost = ng[li % ng.size()];
      }
    }
  }
  // Segment table (paper III.B.2): each node's exposed memory divides into
  // ghosts_per_node chunks aligned to the maximum basic datatype size (16
  // bytes), one per ghost. The adaptive controller moves kSubchunks pieces
  // of every chunk independently. Origins only read it afterwards.
  const std::size_t sub = cfg_.adaptive.enabled ? progress::kSubchunks : 1;
  cw.seg.resize(static_cast<std::size_t>(topo.nodes));
  for (std::size_t n = 0; n < cw.seg.size(); ++n) {
    const std::size_t g = node_ghosts_[n].size();
    SegTable& st = cw.seg[n];
    st.chunk = std::max(align16((lay.node_total[n] + g - 1) / g),
                        mpi::kMaxBasicDtSize);
    st.piece = align16((st.chunk + sub - 1) / sub);
    st.count = g * sub;
  }
  for (auto& ep : cw.ep) {
    ep.tl.resize(users);
    ep.access_mask.assign((users + 63) / 64, 0);
    ep.ops_to_ghost.assign(static_cast<std::size_t>(nghosts_), 0);
    ep.bytes_to_ghost.assign(static_cast<std::size_t>(nghosts_), 0);
  }
  // Adaptive progress control: size the board and seed every origin's
  // replica.
  if (cfg_.adaptive.enabled) init_adapt(cw);
  ++rt_->engine().stats_local().counter("casper_window_tables");
}

void CasperLayer::free_internal_windows(Env& env, WinHandles h) {
  // The handles are copies: the canonical CspWin is shared between all
  // member ranks, and one rank's teardown must not null the handles another
  // rank is still about to free.
  if (h.global_win &&
      !ghost_rank(env.world_rank())) {
    Pmpi::win_unlock_all(env, h.global_win);
  }
  Pmpi::win_free(env, h.shm);
  for (Win& w : h.ug_wins) Pmpi::win_free(env, w);
  if (h.global_win) Pmpi::win_free(env, h.global_win);
}

void CasperLayer::win_free(Env& env, Win& w) {
  std::shared_ptr<CspWin> keep;  // keep the CspWin alive through teardown
  {
    // Lock scoped to the lookup only: the teardown below makes MPI calls
    // that can switch fibers, and holding winmap_mu_ across a fiber switch
    // would deadlock another fiber on the same worker thread.
    std::unique_lock<std::mutex> lk(winmap_mu_, std::defer_lock);
    if (rt_->engine().sharded()) lk.lock();
    auto it = winmap_.find(w.get());
    if (it != winmap_.end()) keep = it->second;
  }
  if (keep == nullptr) {
    Pmpi::win_free(env, w);
    return;
  }
  GhostCmd cmd;
  cmd.code = GhostCmd::kWinFree;
  cmd.seq = keep->seq;
  notify_ghosts(env, cmd);
  free_internal_windows(
      env, {keep->shm_by_node[static_cast<std::size_t>(
                rt_->topo().node_of(env.world_rank()))],
            keep->ug_wins, keep->global_win});
  Win uw = keep->user_win;
  Pmpi::win_free(env, uw);  // collective: all members are done after this
  {
    std::unique_lock<std::mutex> lk(winmap_mu_, std::defer_lock);
    if (rt_->engine().sharded()) lk.lock();
    winmap_.erase(keep->user_win.get());  // no-op after the first member
  }
  w.reset();
}

Win CasperLayer::win_allocate_shared(Env& env, std::size_t bytes,
                                     std::size_t du, const mpi::Info& info,
                                     const Comm& c, void** base) {
  // Shared windows are node-local by construction; no asynchronous progress
  // problem to solve, pass through (paper supports the allocate model only).
  ++rt_->engine().stats_local().counter("casper_unmanaged_windows");
  return Pmpi::win_allocate_shared(env, bytes, du, info, c, base);
}

Win CasperLayer::win_create(Env& env, void* base, std::size_t bytes,
                            std::size_t du, const mpi::Info& info,
                            const Comm& c) {
  // The "create" model needs OS support (XPMEM/SMARTMAP) to map user memory
  // into the ghosts; like the paper's implementation we fall back to the
  // native MPI path, unmanaged.
  ++rt_->engine().stats_local().counter("casper_unmanaged_windows");
  return Pmpi::win_create(env, base, bytes, du, info, c);
}

int CasperLayer::bound_ghost_of(const Win& user_win, int user_rank) {
  auto& cw = managed_checked(user_win, "bound_ghost_of");
  return cw.tgt[static_cast<std::size_t>(user_rank)].bound_ghost;
}

int CasperLayer::internal_window_count(const Win& user_win) {
  auto& cw = managed_checked(user_win, "internal_window_count");
  return static_cast<int>(cw.ug_wins.size()) + (cw.global_win ? 1 : 0);
}

std::vector<CasperLayer::GhostLoad> CasperLayer::ghost_load(
    const Win& user_win) {
  auto& cw = managed_checked(user_win, "ghost_load");
  std::vector<GhostLoad> out;
  for (const auto& ghosts : node_ghosts_) {
    for (int g : ghosts) {
      GhostLoad gl;
      gl.ghost_world = g;
      for (const auto& ep : cw.ep) {
        gl.ops += ep.ops_to_ghost[ghost_slot(g)];
        gl.bytes += ep.bytes_to_ghost[ghost_slot(g)];
      }
      out.push_back(gl);
    }
  }
  return out;
}

}  // namespace casper::core
