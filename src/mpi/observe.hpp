// Passive observation hooks for RMA conformance checking.
//
// An RmaObserver registered with the Runtime sees five kinds of facts, all
// reported at the simulated instant they become true:
//   * window lifetime     — a window finished collective creation / was freed;
//   * operation issues    — a rank called an RMA communication routine, seen
//                           in PROGRAM ORDER at the Env call surface, before
//                           any interception layer redirects it (so Casper's
//                           routing can neither mask nor fabricate an access);
//   * operation commits   — a software-path or self-executed RMA operation
//                           committed its target-memory write (the write phase
//                           of the read-at-start / write-at-end model), i.e.
//                           the moment real window bytes changed;
//   * epoch boundaries    — a rank opened an access epoch (fence round,
//                           win_start, lock, lock_all), reported on the
//                           *user-facing* window even when the layer
//                           translates the epoch internally;
//   * synchronization     — a rank completed a synchronization call (fence,
//                           unlock, flush, complete/wait) after which MPI
//                           guarantees its operations are visible.
//
// Observers are strictly passive: they may read simulated memory but must not
// issue MPI calls, advance time, or touch engine state. The runtime invokes
// them synchronously while holding the token, so the simulation is quiescent
// at every callback. With no observers attached the whole machinery costs one
// emptiness test per commit or access hook.
#pragma once

#include <cstddef>

#include "mpi/am.hpp"
#include "sim/time.hpp"

namespace casper::mpi {

class WinImpl;

/// Which synchronization primitive completed (from the caller's view; the
/// Casper layer reports the *user-facing* call, not its internal translation).
enum class SyncKind {
  Fence,
  Unlock,
  UnlockAll,
  Flush,
  FlushAll,
  Complete,
  Wait,
};

inline const char* to_string(SyncKind k) {
  switch (k) {
    case SyncKind::Fence: return "fence";
    case SyncKind::Unlock: return "unlock";
    case SyncKind::UnlockAll: return "unlock_all";
    case SyncKind::Flush: return "flush";
    case SyncKind::FlushAll: return "flush_all";
    case SyncKind::Complete: return "complete";
    case SyncKind::Wait: return "wait";
  }
  return "?";
}

/// Which access-epoch primitive opened (from the caller's view; the Casper
/// layer reports the *user-facing* call on the user window, not its internal
/// translation).
enum class EpochEv {
  Fence,     ///< fence round opened (collective; closed by the next fence)
  Start,     ///< PSCW access epoch (win_start; closed by win_complete)
  Lock,      ///< per-target shared lock epoch (closed by win_unlock)
  LockExcl,  ///< per-target exclusive lock epoch (closed by win_unlock)
  LockAll,   ///< lock_all epoch (closed by win_unlock_all)
};

inline const char* to_string(EpochEv k) {
  switch (k) {
    case EpochEv::Fence: return "fence";
    case EpochEv::Start: return "start";
    case EpochEv::Lock: return "lock";
    case EpochEv::LockExcl: return "lock_excl";
    case EpochEv::LockAll: return "lock_all";
  }
  return "?";
}

class RmaObserver {
 public:
  virtual ~RmaObserver() = default;

  /// A window finished collective creation; every rank's segments are final.
  virtual void on_win_register(WinImpl& win) = 0;

  /// A window is about to be freed (memory may be reused afterwards).
  virtual void on_win_free(WinImpl& win) = 0;

  /// Operation `op` committed against target memory at time `t`, processed
  /// by world rank `entity` (the target itself when polling / self-executing,
  /// or the serving agent / ghost).
  virtual void on_op_commit(const AmOp& op, sim::Time t, int entity) = 0;

  /// World rank `world_rank` completed synchronization `kind` on `win`.
  /// `target` is the comm rank the sync addressed (Unlock, Flush) or -1 for
  /// whole-window synchronizations.
  virtual void on_sync(WinImpl& win, int world_rank, SyncKind kind, int target,
                       sim::Time t) = 0;

  // --- optional access-recording hooks (default no-op) ---

  /// Rank `op.origin_world` issued `op` at time `t`, in program order, at the
  /// Env call surface — BEFORE any layer redirection. `op` is a synthesized
  /// descriptor: kind/ranks/window/target-range fields are valid, payload and
  /// opid are not.
  virtual void on_op_issue(const AmOp& op, sim::Time t) {
    (void)op;
    (void)t;
  }

  /// World rank `world_rank` opened access epoch `kind` on `win` at `t`.
  /// `target` is the locked comm rank for Lock/LockExcl, -1 otherwise.
  virtual void on_epoch_begin(WinImpl& win, int world_rank, EpochEv kind,
                              int target, sim::Time t) {
    (void)win;
    (void)world_rank;
    (void)kind;
    (void)target;
    (void)t;
  }

  /// Comm rank `comm_rank` of win->comm() load/stored `len` bytes of its OWN
  /// window segment at byte offset `offset` (Env::local_load / local_store).
  virtual void on_local_access(WinImpl& win, int comm_rank, std::size_t offset,
                               std::size_t len, bool is_store, sim::Time t) {
    (void)win;
    (void)comm_rank;
    (void)offset;
    (void)len;
    (void)is_store;
    (void)t;
  }

  /// True when every callback is internally synchronized: the observer may be
  /// attached to a sharded run, where worker threads invoke it concurrently.
  /// Observers that assume a single-threaded schedule (the shadow oracle)
  /// keep the default.
  virtual bool concurrent_safe() const { return false; }
};

}  // namespace casper::mpi
