// RMA window state: memory segments, epochs, target-side lock manager,
// origin-side completion tracking, and in-flight software-op records used to
// detect atomicity violations (the hazard Casper's static binding prevents).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "mpi/am.hpp"
#include "mpi/comm.hpp"
#include "mpi/types.hpp"
#include "sim/time.hpp"

namespace casper::mpi {

class Runtime;

/// One rank's exposed memory in a window.
struct Segment {
  std::byte* base = nullptr;
  std::size_t size = 0;
  std::size_t disp_unit = 1;
};

/// Which epoch a rank currently has open on a window (origin side).
enum class EpochKind : std::uint8_t { None, Fence, Pscw, Lock, LockAll };

/// Target-side lock manager state for one target rank of a window.
struct TargetLockState {
  int excl_holder = -1;  ///< comm rank holding the exclusive lock, or -1
  int shared_count = 0;  ///< number of granted shared locks
  struct Pending {
    int origin;  ///< comm rank
    LockType type;
  };
  std::deque<Pending> pending;

  bool grantable(LockType t, int origin) const {
    (void)origin;
    if (excl_holder >= 0) return false;
    if (t == LockType::Exclusive) return shared_count == 0;
    return true;  // shared is compatible with shared
  }
  void grant(LockType t, int origin) {
    if (t == LockType::Exclusive) {
      excl_holder = origin;
    } else {
      ++shared_count;
    }
  }
  void release(LockType t, int origin) {
    if (t == LockType::Exclusive) {
      excl_holder = (excl_holder == origin) ? -1 : excl_holder;
    } else {
      --shared_count;
    }
  }
};

/// Origin-side per-target state within an epoch.
struct OriginTargetState {
  enum class LockSt : std::uint8_t { None, Intent, Requested, Granted };
  LockSt lock_st = LockSt::None;
  LockType lock_type = LockType::Shared;
  unsigned lock_assert = 0;
  bool release_pending = false;  ///< unlock sent, release-ack not yet back
  int outstanding = 0;  ///< RMA ops issued but not remotely acknowledged
  /// Ops queued origin-side while the (delayed) lock is not yet granted.
  std::vector<OpDesc> queued;
};

/// One rank's origin-side view of a window.
struct WinOriginState {
  EpochKind epoch = EpochKind::None;
  std::vector<OriginTargetState> tgt;  // indexed by target comm rank
  int nlocked = 0;  // targets locked by p_win_lock/_lock_all, not yet unlocked
  // PSCW bookkeeping.
  std::vector<int> access_group;    // comm ranks I will access
  std::vector<int> exposure_group;  // comm ranks allowed to access me
  int posts_seen = 0;      // "post" notifications received (as origin)
  int completes_seen = 0;  // "complete" notifications received (as target)
  unsigned pscw_assert = 0;
  bool fence_open = false;
};

/// In-flight software operation record: a target-memory byte range being
/// read-modify-written over a span of virtual time by some processing entity
/// (a rank polling, a ghost process, or a progress agent). Two overlapping
/// in-flight writes from *different* entities to the *same* bytes constitute
/// an MPI atomicity/ordering violation — exactly the failure mode the paper's
/// static binding exists to prevent. We detect and count them.
struct InflightOp {
  int entity = 0;  ///< processing entity id: world rank for pollers; agents
                   ///< and NICs use offset id spaces (see Runtime)
  std::uintptr_t lo = 0, hi = 0;  ///< absolute byte range [lo, hi)
  sim::Time t0 = 0, t1 = 0;       ///< half-open processing interval [t0, t1)
  bool is_write = true;
};

/// Shared window state (one instance per window, shared by all member ranks).
class WinImpl {
 public:
  WinImpl(int id, Comm comm) : id_(id), comm_(std::move(comm)) {
    const int n = comm_->size();
    segs.resize(static_cast<std::size_t>(n));
    ost.resize(static_cast<std::size_t>(n));
    locks.resize(static_cast<std::size_t>(n));
    for (auto& o : ost) o.tgt.resize(static_cast<std::size_t>(n));
  }

  int id() const { return id_; }
  const Comm& comm() const { return comm_; }

  /// Exposed memory of each member (indexed by comm rank).
  std::vector<Segment> segs;
  /// Storage owned by the window for the "allocate" model (per comm rank).
  std::vector<std::vector<std::byte>> owned;
  /// Storage for the "allocate shared" model: one buffer per node id.
  std::vector<std::shared_ptr<std::vector<std::byte>>> node_buffers;
  /// Byte offset of each comm rank's segment inside its node buffer
  /// (allocate-shared windows only).
  std::vector<std::size_t> shm_offset;
  bool is_shared = false;

  /// Origin-side state, indexed by comm rank.
  std::vector<WinOriginState> ost;
  /// Target-side lock manager, indexed by target comm rank.
  std::vector<TargetLockState> locks;

  Info info;

 private:
  int id_;
  Comm comm_;
};

}  // namespace casper::mpi
