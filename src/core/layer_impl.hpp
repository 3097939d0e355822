// CasperLayer: the interception layer implementing the paper's design.
// Internal header (exposed for white-box tests).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/casper.hpp"
#include "mpi/pmpi.hpp"
#include "mpi/runtime.hpp"

namespace casper::core {

/// Reserved tags for Casper-internal messages on the underlying world.
inline constexpr int kTagCmd = 901001;
inline constexpr int kTagPscwPost = 901002;
inline constexpr int kTagPscwComplete = 901003;

/// Epoch-type mask parsed from the `epochs_used` info hint.
enum EpochMask : unsigned {
  kEpochFence = 1u << 0,
  kEpochPscw = 1u << 1,
  kEpochLock = 1u << 2,
  kEpochLockAll = 1u << 3,
  kEpochAll = 0xF,
};
unsigned parse_epochs(const mpi::Info& info);

/// Command sent from a node's user master to the node's ghosts so they can
/// mirror the user processes' collective window operations.
struct GhostCmd {
  enum Code : int { kWinAlloc = 1, kWinFree = 2, kFinalize = 3 };
  int code = 0;
  unsigned epochs = kEpochAll;
  /// Mirrors the user call; ghosts do not read it, but the command's size
  /// is part of the simulated message cost, so it stays.
  long long disp_unit = 1;
  /// Window sequence number: user processes allocate windows in the same
  /// collective order on every rank, so a per-rank allocation counter
  /// identifies the window; win-free commands name the window to tear down
  /// (frees may happen in any order).
  int seq = 0;
};

/// Casper is a PMPI tool: it overrides only the 19 calls it changes
/// (start-up, the world communicator, the adaptive barrier, window set-up,
/// RMA through rma(), and the synchronization calls it translates); every
/// other call, local flushes and win_sync included, is the inherited Pmpi
/// entry. rma() resolves each redirected op into pieces and issues them in
/// one loop. Its own MPI calls underneath are qualified `Pmpi::x(...)`, so
/// they never re-enter these overrides.
class CasperLayer final : public mpi::Pmpi {
 public:
  CasperLayer(mpi::Runtime& rt, Config cfg);

  // ---- intercepted calls -------------------------------------------------
  void on_rank_start(mpi::Env& env,
                     const std::function<void(mpi::Env&)>& user_main) override;
  mpi::Comm comm_world(mpi::Env& env) override;
  void barrier(mpi::Env& env, const mpi::Comm& c) override;

  mpi::Win win_allocate(mpi::Env& env, std::size_t bytes, std::size_t du,
                        const mpi::Info& info, const mpi::Comm& c,
                        void** base) override;
  mpi::Win win_allocate_shared(mpi::Env& env, std::size_t bytes,
                               std::size_t du, const mpi::Info& info,
                               const mpi::Comm& c, void** base) override;
  mpi::Win win_create(mpi::Env& env, void* base, std::size_t bytes,
                      std::size_t du, const mpi::Info& info,
                      const mpi::Comm& c) override;
  void win_free(mpi::Env& env, mpi::Win& w) override;

  /// Issue one user RMA op through Casper's redirection machinery.
  void rma(mpi::Env& env, const mpi::RmaArgs& a, const mpi::Win& w) override;

  void win_fence(mpi::Env& env, unsigned mode_assert,
                 const mpi::Win& w) override;
  void win_post(mpi::Env& env, const mpi::Group& g, unsigned mode_assert,
                const mpi::Win& w) override;
  void win_start(mpi::Env& env, const mpi::Group& g, unsigned mode_assert,
                 const mpi::Win& w) override;
  void win_complete(mpi::Env& env, const mpi::Win& w) override;
  void win_wait(mpi::Env& env, const mpi::Win& w) override;
  void win_lock(mpi::Env& env, mpi::LockType type, int target,
                unsigned mode_assert, const mpi::Win& w) override;
  void win_unlock(mpi::Env& env, int target, const mpi::Win& w) override;
  void win_lock_all(mpi::Env& env, unsigned mode_assert,
                    const mpi::Win& w) override;
  void win_unlock_all(mpi::Env& env, const mpi::Win& w) override;
  void win_flush(mpi::Env& env, int target, const mpi::Win& w) override;
  void win_flush_all(mpi::Env& env, const mpi::Win& w) override;

  // ---- introspection for tests & benches ---------------------------------
  const mpi::Comm& user_world() const { return user_world_; }
  bool ghost_rank(int world_rank) const {
    return ghost_slot_[static_cast<std::size_t>(world_rank)] >= 0;
  }
  /// World rank of the ghost statically bound to a user rank of a window.
  int bound_ghost_of(const mpi::Win& user_win, int user_rank);
  /// Number of internal windows Casper created for a managed user window
  /// (overlapping lock windows + the fence/pscw/lockall window), for the
  /// Fig. 3(a) hint analysis.
  int internal_window_count(const mpi::Win& user_win);
  const Config& config() const { return cfg_; }

  /// Per-ghost redirection load for a managed window, summed over all
  /// origins: how many operations / bytes each ghost was sent (the
  /// observability real Casper exposes via CSP_VERBOSE; lets applications
  /// and tests see binding-policy balance).
  struct GhostLoad {
    int ghost_world = -1;
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<GhostLoad> ghost_load(const mpi::Win& user_win);

  /// Adaptive-controller introspection (tests & benches; adaptive runs
  /// only): the decision digest, current item→slot map and effective
  /// dynamic policy of origin 0's replica (all origins agree by
  /// construction).
  std::uint64_t adapt_digest(const mpi::Win& user_win);
  std::vector<int> adapt_map(const mpi::Win& user_win);
  int adapt_policy(const mpi::Win& user_win);

 private:
  /// Per-user-target placement of window memory.
  struct TargetInfo {
    int node = 0;
    std::size_t offset = 0;  ///< byte offset of the segment in node buffer
    std::size_t size = 0;
    std::size_t disp_unit = 1;
    int bound_ghost = -1;  ///< world rank (== comm rank in world windows)
    int local_idx = 0;     ///< index among node-local users (ug_win index)
  };

  /// Per-(origin, target) passive-epoch state.
  struct OriginTargetEp {
    bool locked = false;
    mpi::LockType type = mpi::LockType::Shared;
    unsigned mode_assert = 0;
    /// Static-binding-free: set after a flush completes under the lock
    /// (paper III.B.3); enables dynamic binding of PUT/GET.
    bool binding_free = false;
    /// Degraded mode: this origin lazily acquired a lock on the *user*
    /// window for this target because the target node lost all its ghosts
    /// (ops go direct, original-MPI style). Released at unlock time.
    bool user_locked = false;
    /// Accumulate-class ops issued to this target and not yet completed by
    /// a flush/unlock/fence (adaptive runs only): any nonzero count vetoes
    /// a segment remap, which must not move a byte's serializing ghost
    /// while an RMW is in flight.
    std::uint32_t unflushed_acc = 0;
  };

  /// One piece of a (possibly split) redirected operation.
  struct SubOp {
    int ghost = -1;          ///< ghost world rank (target in internal wins)
    std::size_t tdisp = 0;   ///< byte displacement in the ghost's frame
    int tcount = 0;
    mpi::Datatype tdt;
    std::size_t payload_off = 0;  ///< offset into packed origin data
  };

  /// Per-origin epoch state on one Casper window.
  struct OriginEp {
    std::vector<OriginTargetEp> tl;  // per target user rank
    bool lockall = false;
    bool fence_open = false;
    std::vector<int> access_group;    // user comm ranks (PSCW)
    std::vector<int> exposure_group;  // user comm ranks (PSCW)
    /// Bitset mirror of access_group, indexed by user comm rank: the
    /// per-op epoch check must not scan the group vector.
    std::vector<std::uint64_t> access_mask;
    std::vector<std::uint64_t> ops_to_ghost;    // by ghost_slot()
    std::vector<std::uint64_t> bytes_to_ghost;  // by ghost_slot()
    /// Static-binding resolution of the op this origin is issuing, rebuilt
    /// per op. It keeps its capacity, so a warm origin allocates nothing, and
    /// stays intact across the p_rma/win_flush calls of one rma(): only
    /// this origin's next rma() rewrites it.
    std::vector<SubOp> subs;
    /// Adaptive progress control (cfg.adaptive.enabled only; see
    /// layer_adapt.cpp and DESIGN.md §15). `adapt` is this origin's replica
    /// of the controller state — every origin computes the same values from
    /// the same sealed board, so no replica is authoritative. `adapt_acc`
    /// accumulates this origin's round counters privately at issue time;
    /// only adapt_seal() publishes them to the shared board (pre-barrier),
    /// keeping issue-path writes out of other origins' post-barrier reads.
    progress::AdaptState adapt;
    progress::AdaptSample adapt_acc;
  };

  /// The collective handles one rank holds for a Casper window: what its
  /// teardown frees. A ghost keeps only these between kWinAlloc and
  /// kWinFree.
  struct WinHandles {
    mpi::Win shm;                   ///< the rank's node shared-memory window
    std::vector<mpi::Win> ug_wins;  ///< per local-user-index, over world
    mpi::Win global_win;            ///< fence/pscw/lockall window, over world
  };

  /// One rank's segment in its node buffer, as exchanged at window set-up.
  struct Place {
    unsigned long long offset = 0;  ///< segment offset in the node buffer
    unsigned long long size = 0;    ///< segment bytes (0 for ghosts)
  };
  /// Window memory layout every member learns from the set-up allgather;
  /// the per-window table fill reads nothing else.
  struct Layout {
    std::vector<Place> places;            // by world rank
    std::vector<std::size_t> node_total;  // per node: shared buffer bytes
  };

  /// Segment binding's pieces on one node (paper III.B.2): the node buffer
  /// splits into `count` pieces of `piece` bytes (the last piece takes any
  /// remainder). Static: each piece is one ghost's 16B-aligned `chunk`.
  /// Adaptive: each chunk splits into progress::kSubchunks 16B-aligned
  /// pieces.
  struct SegTable {
    std::size_t chunk = 0;
    std::size_t piece = 0;
    std::size_t count = 0;
  };

  /// All internal state Casper keeps for one user window. One canonical
  /// instance is shared by all member ranks: the rank that registers it
  /// fills its per-window tables (tgt, seg, ep, adapt) once; later members
  /// only merge their node's shared-memory window, the one per-node handle.
  struct CspWin {
    mpi::Win user_win;  ///< handle returned to the application
    std::vector<mpi::Win> shm_by_node;  ///< node shared-memory windows
    std::vector<mpi::Win> ug_wins;  ///< per local-user-index, over world
    mpi::Win global_win;            ///< fence/pscw/lockall window, over world
    unsigned epochs = kEpochAll;
    std::vector<TargetInfo> tgt;  // per user comm rank
    std::vector<SegTable> seg;    // per node
    std::vector<OriginEp> ep;     // per user comm rank
    int seq = 0;  ///< allocation sequence number (ghost free matching)
    /// Fence-epoch degradation is latched *collectively*: at every fence all
    /// ranks allreduce the death sequence they observed, so every rank takes
    /// the direct-to-user-window route for the same epochs.
    std::uint64_t fence_latch = 0;
    /// Set once fence epochs on this window also fence the user window
    /// (degraded direct ops need a real epoch there).
    bool fence_user_open = false;
    /// Adaptive-controller shared state (allocated only when enabled).
    /// `board` is double-buffered by round parity: the seal at round r+2
    /// reuses the buffer decide-read at round r, and cannot overlap those
    /// reads because barrier r+1 interposes (no origin passes it before
    /// every origin finished decide r). Each origin writes only its own
    /// slot, pre-barrier; all slots are read post-barrier — the barrier's
    /// message chain is the cross-shard happens-before.
    struct AdaptShared {
      bool on = false;
      std::vector<progress::AdaptNode> nodes;  ///< item layout per node
      std::vector<progress::AdaptSample> board[2];  ///< [parity][origin]
    };
    AdaptShared adapt;
  };

  // --- setup / ghosts ------------------------------------------------------
  void setup_topology();
  void setup_comms(mpi::Env& env);
  void ghost_loop(mpi::Env& env);
  void user_finalize(mpi::Env& env);
  /// Node user-masters send `cmd` to their node's ghosts.
  void notify_ghosts(mpi::Env& env, const GhostCmd& cmd);
  /// Collective (over ALL world ranks) part of a window set-up: the node
  /// shared-memory window, the layout allgather, and the internal windows.
  /// Fills `lay` and returns this rank's handles.
  WinHandles build_windows(mpi::Env& env, std::size_t bytes, unsigned epochs,
                           const mpi::Info& info, Layout& lay);
  /// Pure fill of a window's per-window tables (target placement and
  /// binding, segment table, per-origin epoch state, adaptive state) from
  /// the layout. Runs once per window, in the rank that registers it; no
  /// MPI calls.
  void fill_tables(CspWin& cw, Layout lay, std::size_t du);
  void free_internal_windows(mpi::Env& env, WinHandles h);

  // --- redirection ---------------------------------------------------------
  CspWin* managed(const mpi::Win& w);
  CspWin& managed_checked(const mpi::Win& w, const char* who);
  int my_user_rank(mpi::Env& env) const;
  /// The internal window carrying operations to user target `u` under the
  /// currently active epoch of `origin`.
  mpi::Win& route_window(CspWin& cw, int origin, int target);
  /// Static (non-dynamic) binding: resolve an op from user `origin` on user
  /// target `target` into sub-ops, appended to `out`. Rank and segment
  /// binding, with the adaptive controller off or on, all resolve here;
  /// under the controller each piece is also charged to its item.
  void resolve_static(CspWin& cw, int origin, int target,
                      std::size_t disp_bytes, int tcount,
                      const mpi::Datatype& tdt, std::vector<SubOp>& out);
  /// Ghost world rank serving binding slot `slot` (an index into the node's
  /// ghost list), with the pure death fallback: a dead ghost's slots go to
  /// `alive[slot % alive.size()]`, so every origin agrees on the survivor.
  /// (`origin` only matters under fault injection, where the map is
  /// deliberately made origin-dependent.)
  int slot_ghost(int node, int slot, int origin) const;
  /// Dynamic binding ghost choice (paper III.B.3), PUT/GET only.
  int choose_dynamic_ghost(mpi::Env& env, CspWin& cw, int origin, int node);
  bool dynamic_applicable(const CspWin& cw, int origin, int target,
                          mpi::OpKind kind) const;
  /// Direct local execution of a self-targeted PUT/GET (never delayed).
  void exec_self(mpi::Env& env, const mpi::RmaArgs& a,
                 std::size_t disp_bytes, CspWin& cw);

  // --- adaptive progress control (layer_adapt.cpp) -------------------------
  /// Size the board/replicas and seed the initial map so that adaptive
  /// resolution routes like the static binding until a remap (exactly,
  /// whenever no segment piece straddles a chunk boundary).
  void init_adapt(CspWin& cw);
  /// Issue-time attribution of a dynamically routed op's demand to its
  /// binding item(s), into the origin's PRIVATE accumulators (resolve_static
  /// charges statically routed pieces as it walks them).
  void adapt_note(CspWin& cw, OriginEp& ep, const TargetInfo& ti,
                  std::size_t node_off, std::size_t nbytes);
  /// Publish this origin's round counters to the sealed board (pre-barrier)
  /// and reset the private accumulators.
  void adapt_seal(CspWin& cw, int me_u);
  /// Replay the pure decision over the sealed board (post-barrier): every
  /// origin updates its own replica identically; origin 0 emits the adapt.*
  /// counters and lb.adapt instant.
  void adapt_decide(mpi::Env& env, CspWin& cw, int me_u);
  /// Barrier override body for adaptive runs: seal every managed window,
  /// barrier, decide every managed window.
  void adapt_barrier(mpi::Env& env, const mpi::Comm& c);
  /// Dynamic-binding policy in force: the controller's replica when
  /// adaptive, cfg.dynamic otherwise.
  DynamicLb effective_lb(const CspWin& cw, const OriginEp& ep) const;

  // --- ghost failure recovery (layer_fault.cpp) ----------------------------
  /// Register the runtime death handler and precompute successor forwarding
  /// for every planned ghost kill. No-op without kills in the FaultPlan.
  void setup_fault_recovery();
  /// Death-handler callback, one heartbeat after a kill (event context —
  /// pure state mutation, no MPI calls): removes the ghost from the alive
  /// sets, rebinds its targets onto survivors, and flips the node into
  /// degraded (no-redirect) mode when it was the last.
  void on_ghost_death(int world_rank, sim::Time t);
  /// True when fence-epoch ops on `cw` to targets on `node` must go direct
  /// to user memory: the node's total ghost loss was latched at a fence.
  bool fence_direct(const CspWin& cw, int node) const;
  /// Degraded direct issue on the user window (original-MPI mode), with the
  /// lazy user-window lock for passive epochs.
  void issue_degraded(mpi::Env& env, CspWin& cw, OriginEp& ep,
                      const mpi::RmaArgs& a);
  /// The end of every translated sync call: record the interval [t0, now)
  /// as an EpochTranslate span plus a sync-latency histogram sample, then
  /// report sync `k` (on comm rank `target`, or -1) on the user window.
  void end_sync(mpi::Env& env, CspWin& cw, mpi::SyncKind k, int target,
                sim::Time t0);

  Config cfg_;

  /// Hot-path counter pointers, resolved once at construction (stats map
  /// nodes are stable): per-op increments must not pay a string lookup.
  /// One pointer per engine shard (each shard owns a stats replica, merged
  /// after the run); index with shard_idx(). Unsharded runs hold a single
  /// pointer into the global stats, so behaviour is unchanged.
  std::vector<std::uint64_t*> stat_dynamic_ops_;
  std::vector<std::uint64_t*> stat_split_subops_;
  std::vector<std::uint64_t*> stat_self_ops_;
  /// Recorder handles for keys built per op or per sync; see obs::Interned.
  obs::Interned<std::uint64_t> ghost_ops_;    ///< ghost.<g>.ops, by world rank
  obs::Interned<std::uint64_t> ghost_bytes_;  ///< ghost.<g>.bytes
  obs::Interned<std::uint64_t> lb_ops_;       ///< casper.lb.<policy>
  obs::Interned<obs::Histogram> sync_ns_;     ///< sync_ns.<kind>

  /// Index into the per-shard stat pointer vectors for the calling worker
  /// thread (0 on the main thread and in single-shard runs).
  static std::size_t shard_idx() {
    return static_cast<std::size_t>(sim::Engine::current_shard());
  }
  /// Index of a ghost's per-origin counters (OriginEp::ops_to_ghost).
  std::size_t ghost_slot(int ghost_world) const {
    return static_cast<std::size_t>(
        ghost_slot_[static_cast<std::size_t>(ghost_world)]);
  }

  // topology-derived, computed once in the constructor
  /// By world rank: the ghost's dense index in [0, nghosts_), -1 for users.
  std::vector<int> ghost_slot_;
  int nghosts_ = 0;
  std::vector<std::vector<int>> node_ghosts_;  // per node: ghost world ranks
  std::vector<std::vector<int>> node_users_;   // per node: user world ranks
  std::vector<int> node_master_;               // per node: first user rank
  int max_local_users_ = 0;

  // --- fault recovery state (inert unless the FaultPlan schedules kills) ---
  bool fault_recovery_ = false;
  bool any_ghost_dead_ = false;
  std::vector<std::vector<int>> alive_ghosts_;  // node_ghosts_ minus dead
  std::vector<char> ghost_dead_;                // by world rank
  std::vector<std::uint64_t> ghost_death_seq_;  // by world rank (0 = alive)
  std::vector<char> node_degraded_;             // per node: all ghosts dead
  std::uint64_t death_seq_ = 0;                 // detected deaths so far
  std::uint64_t* stat_rebound_ops_ = nullptr;   // ops issued via rebinding

  mpi::Comm user_world_;
  std::vector<mpi::Comm> node_comm_of_;  // per world rank: its node comm
  std::map<mpi::WinImpl*, std::shared_ptr<CspWin>> winmap_;
  /// Ghost-side record of internal windows: per ghost world rank, keyed by
  /// window sequence number (frees may come in any order).
  std::map<int, std::map<int, WinHandles>> ghost_wins_;
  /// Guards winmap_ (lookups AND registration), the ghost_wins_ map
  /// structure, and the one-time user_world_ publication when the engine is
  /// sharded: member ranks on different worker threads can allocate or free
  /// windows inside the same conservative window, so a find can otherwise
  /// race a concurrent insert. Never locked (defer_lock) in single-shard
  /// runs. Held only around map/pointer accesses — NEVER across an MPI call
  /// (those can switch fibers, and another fiber on the same worker thread
  /// relocking would deadlock).
  std::mutex winmap_mu_;
  /// ghost_wins_[me] with the map-structure race handled: operator[] may
  /// insert, so the slot is created under winmap_mu_ when sharded. The
  /// returned map is only ever mutated by rank `me`'s own fiber (map
  /// references are stable under later inserts).
  std::map<int, WinHandles>& my_ghost_wins(int me);
  /// Per-world-rank count of managed window allocations (sequence source).
  std::vector<int> alloc_seq_;
};

}  // namespace casper::core
