// CasperLayer: ghost deployment, COMM_USER_WORLD setup, the ghost process
// service loop and finalization. Non-RMA calls are the inherited Pmpi
// entries; they reach user processes only because comm_world() returns
// COMM_USER_WORLD — the paper's "MPI_COMM_WORLD substitution".
#include <sstream>

#include "core/layer_impl.hpp"
#include "mpi/check.hpp"

namespace casper::core {

using mpi::Comm;
using mpi::Env;

unsigned parse_epochs(const mpi::Info& info) {
  auto v = info.get(kEpochsUsedKey);
  if (!v) return kEpochAll;
  unsigned mask = 0;
  std::stringstream ss(*v);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok == "fence") {
      mask |= kEpochFence;
    } else if (tok == "pscw") {
      mask |= kEpochPscw;
    } else if (tok == "lock") {
      mask |= kEpochLock;
    } else if (tok == "lockall") {
      mask |= kEpochLockAll;
    } else if (!tok.empty()) {
      MMPI_REQUIRE(false, "casper: unknown epochs_used token '%s'",
                   tok.c_str());
    }
  }
  return mask == 0 ? kEpochAll : mask;
}

int user_ranks(const net::Topology& topo, const Config& cfg) {
  return topo.nodes * (topo.cores_per_node - cfg.ghosts_per_node);
}

bool is_ghost_rank(const net::Topology& topo, const Config& cfg,
                   int world_rank) {
  const int g = cfg.ghosts_per_node;
  const int cpn = topo.cores_per_node;
  if (!cfg.topology_aware || g <= 1 || topo.numa_per_node <= 1) {
    // The last g cores of each node.
    return topo.core_of(world_rank) >= cpn - g;
  }
  // Topology-aware: the last core of each NUMA domain, round-robin over
  // domains, so the ghosts are spread across the node's memory domains.
  const int numa = topo.numa_per_node;
  const int cores_per_numa = (cpn + numa - 1) / numa;
  const int core = topo.core_of(world_rank);
  const int dom = core / cores_per_numa;
  const int dom_begin = dom * cores_per_numa;
  const int dom_end = std::min(cpn, dom_begin + cores_per_numa);
  // ghosts assigned to this domain
  int dom_ghosts = g / numa + (dom < g % numa ? 1 : 0);
  return core >= dom_end - dom_ghosts;
}

std::vector<int> ghost_ranks(const net::Topology& topo, const Config& cfg) {
  std::vector<int> out;
  for (int w = 0; w < topo.nranks(); ++w) {
    if (is_ghost_rank(topo, cfg, w)) out.push_back(w);
  }
  return out;
}

mpi::LayerFactory layer(const Config& cfg) {
  return [cfg](mpi::Runtime& rt) -> std::shared_ptr<mpi::Layer> {
    return std::make_shared<CasperLayer>(rt, cfg);
  };
}

CasperLayer::CasperLayer(mpi::Runtime& rt, Config cfg)
    : Pmpi(rt), cfg_(std::move(cfg)) {
  MMPI_REQUIRE(cfg_.ghosts_per_node >= 1, "casper: need >= 1 ghost per node");
  MMPI_REQUIRE(cfg_.ghosts_per_node < rt_->topo().cores_per_node,
               "casper: ghosts_per_node (%d) must leave user cores on a "
               "%d-core node",
               cfg_.ghosts_per_node, rt_->topo().cores_per_node);
  // One counter pointer per shard: a worker thread must bump its own shard's
  // stats replica (merged after the run). Unsharded, shard_stats(0) is the
  // global stats object and this is the old single-pointer behaviour.
  auto& eng = rt_->engine();
  const std::size_t nshards = static_cast<std::size_t>(eng.shards());
  stat_dynamic_ops_.resize(nshards);
  stat_split_subops_.resize(nshards);
  stat_self_ops_.resize(nshards);
  for (std::size_t s = 0; s < nshards; ++s) {
    sim::Stats& st = eng.shard_stats(static_cast<int>(s));
    stat_dynamic_ops_[s] = &st.counter("casper_dynamic_ops");
    stat_split_subops_[s] = &st.counter("casper_split_subops");
    stat_self_ops_[s] = &st.counter("casper_self_ops");
  }
  for (auto* k : {&ghost_ops_, &ghost_bytes_, &lb_ops_})
    k->set_shards(eng.shards());
  sync_ns_.set_shards(eng.shards());
  setup_topology();
  setup_fault_recovery();
}

void CasperLayer::setup_topology() {
  const auto& topo = rt_->topo();
  const int n = topo.nranks();
  ghost_slot_.assign(static_cast<std::size_t>(n), -1);
  nghosts_ = 0;
  node_ghosts_.assign(static_cast<std::size_t>(topo.nodes), {});
  node_users_.assign(static_cast<std::size_t>(topo.nodes), {});
  node_master_.assign(static_cast<std::size_t>(topo.nodes), -1);
  node_comm_of_.assign(static_cast<std::size_t>(n), nullptr);
  alloc_seq_.assign(static_cast<std::size_t>(n), 0);

  for (int r = 0; r < n; ++r) {
    const int node = topo.node_of(r);
    if (is_ghost_rank(topo, cfg_, r)) {
      ghost_slot_[static_cast<std::size_t>(r)] = nghosts_++;
      node_ghosts_[static_cast<std::size_t>(node)].push_back(r);
    } else {
      node_users_[static_cast<std::size_t>(node)].push_back(r);
      if (node_master_[static_cast<std::size_t>(node)] < 0) {
        node_master_[static_cast<std::size_t>(node)] = r;
      }
    }
  }
  max_local_users_ = 0;
  for (const auto& users : node_users_) {
    max_local_users_ = std::max(max_local_users_,
                                static_cast<int>(users.size()));
    MMPI_REQUIRE(!users.empty(), "casper: a node has no user processes");
  }
  for (const auto& ghosts : node_ghosts_) {
    MMPI_REQUIRE(static_cast<int>(ghosts.size()) == cfg_.ghosts_per_node,
                 "casper: ghost carving mismatch");
  }
  alive_ghosts_ = node_ghosts_;
  ghost_dead_.assign(static_cast<std::size_t>(n), 0);
  ghost_death_seq_.assign(static_cast<std::size_t>(n), 0);
  node_degraded_.assign(static_cast<std::size_t>(topo.nodes), 0);
}

void CasperLayer::setup_comms(Env& env) {
  const int me = env.world_rank();
  const bool ghost = ghost_rank(me);
  // COMM_USER_WORLD: all non-ghost ranks, ordered by world rank.
  Comm uw = rt_->p_comm_split(env, rt_->world(), ghost ? -1 : 0, me);
  if (!ghost) {
    MMPI_REQUIRE(uw != nullptr, "casper: user world creation failed");
    // Every user rank receives the SAME shared CommImpl; publish it once.
    // Sharded, the concurrent shared_ptr assignments from different worker
    // threads would race, so the first arrival writes under the lock and the
    // rest just observe it (each rank reads user_world_ only after its own
    // setup_comms, which synchronized on winmap_mu_).
    std::unique_lock<std::mutex> lk(winmap_mu_, std::defer_lock);
    if (rt_->engine().sharded()) lk.lock();
    if (user_world_ == nullptr) user_world_ = uw;
  }
  // Node communicator including ghosts (used for the shared-memory mapping).
  Comm nc = rt_->p_comm_split(env, rt_->world(),
                              rt_->topo().node_of(me), me);
  node_comm_of_[static_cast<std::size_t>(me)] = nc;
}

void CasperLayer::on_rank_start(Env& env,
                                const std::function<void(Env&)>& user_main) {
  setup_comms(env);
  const int me = env.world_rank();
  const bool ghost = ghost_rank(me);
  if (obs::on(rt_->recorder())) {
    // Refine the default "rank N" track names now roles are known: trace
    // viewers then separate ghost service tracks from user compute tracks.
    if (ghost) {
      rt_->recorder()->trace().set_entity_name(me,
                                             "ghost " + std::to_string(me));
    } else {
      rt_->recorder()->trace().set_entity_name(
          me, "user " + std::to_string(user_world_->rank_of_world(me)));
    }
  }
  if (ghost) {
    ghost_loop(env);
  } else {
    user_main(env);
    user_finalize(env);
  }
}

void CasperLayer::ghost_loop(Env& env) {
  // A ghost is a dedicated progress core: it serves redirected operations at
  // full efficiency, unlike an application process draining its own queue.
  rt_->set_dedicated_progress(env.world_rank(), true);
  // The ghost process simply waits for commands in a receive loop. While it
  // waits it sits inside the MPI runtime, which is exactly what lets the MPI
  // implementation make progress on RMA operations targeted at it
  // (paper II.A).
  for (;;) {
    GhostCmd cmd;
    Pmpi::recv(env, &cmd, static_cast<int>(sizeof(cmd)), mpi::Dt::Byte,
               mpi::kAnySource, kTagCmd, rt_->world());
    switch (cmd.code) {
      case GhostCmd::kWinAlloc: {
        // Ghosts take part in the collective set-up only; the window's
        // tables live in the canonical CspWin a user rank registers.
        Layout lay;
        WinHandles h = build_windows(env, 0, cmd.epochs, mpi::Info{}, lay);
        my_ghost_wins(env.world_rank()).emplace(cmd.seq, std::move(h));
        break;
      }
      case GhostCmd::kWinFree: {
        auto& mine = my_ghost_wins(env.world_rank());
        auto it = mine.find(cmd.seq);
        MMPI_REQUIRE(it != mine.end(),
                     "casper ghost: win-free for unknown window seq %d",
                     cmd.seq);
        WinHandles h = std::move(it->second);
        mine.erase(it);
        free_internal_windows(env, std::move(h));
        break;
      }
      case GhostCmd::kFinalize:
        Pmpi::barrier(env, rt_->world());
        return;
      default:
        MMPI_REQUIRE(false, "casper ghost: bad command %d", cmd.code);
    }
  }
}

std::map<int, CasperLayer::WinHandles>& CasperLayer::my_ghost_wins(int me) {
  // operator[] may create the slot (a map-structure mutation); ghosts on
  // other shards can be doing the same concurrently. The returned map is
  // only ever touched by rank `me`'s fiber, and std::map references stay
  // valid across later inserts, so callers use it outside the lock.
  std::unique_lock<std::mutex> lk(winmap_mu_, std::defer_lock);
  if (rt_->engine().sharded()) lk.lock();
  return ghost_wins_[me];
}

void CasperLayer::user_finalize(Env& env) {
  Pmpi::barrier(env, user_world_);
  GhostCmd fin; fin.code = GhostCmd::kFinalize; notify_ghosts(env, fin);
  Pmpi::barrier(env, rt_->world());
}

void CasperLayer::notify_ghosts(Env& env, const GhostCmd& cmd) {
  const int me = env.world_rank();
  const int node = rt_->topo().node_of(me);
  if (node_master_[static_cast<std::size_t>(node)] != me) return;
  for (int g : node_ghosts_[static_cast<std::size_t>(node)]) {
    Pmpi::send(env, &cmd, static_cast<int>(sizeof(cmd)), mpi::Dt::Byte,
               g, kTagCmd, rt_->world());
  }
}

// ----------------------------------------------------- world and barrier --

Comm CasperLayer::comm_world(Env& env) {
  MMPI_REQUIRE(!ghost_rank(env.world_rank()),
               "casper: ghost rank asked for the user world");
  return user_world_;
}

void CasperLayer::barrier(Env& env, const Comm& c) {
  // A user-world barrier is an adaptation point for the online controller:
  // every origin reaches it, so sealed per-origin counters can be decided on
  // consistently right after it (layer_adapt.cpp). Ghosts never call user
  // collectives, and unrelated comms pass straight through.
  if (cfg_.adaptive.enabled && c == user_world_ &&
      !ghost_rank(env.world_rank())) {
    adapt_barrier(env, c);
    return;
  }
  Pmpi::barrier(env, c);
}

}  // namespace casper::core
