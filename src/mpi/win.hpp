// RMA window state: memory segments, epochs, target-side lock manager,
// sparse origin-side completion tracking, and in-flight software-op records
// used to detect atomicity violations (the hazard Casper's static binding
// prevents).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
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

/// FIFO queue that allocates nothing until its first push (libstdc++'s
/// std::deque allocates ~576 B at construction). Popped slots are reclaimed
/// when the queue drains, or compacted once they make up half of it.
template <class T>
class LazyFifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  const T& front() const { return items_[head_]; }
  void push_back(const T& v) { items_.push_back(v); }
  void pop_front() {
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= 32 && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

struct OriginTargetState;

/// Target-side lock manager state for one target rank of a window.
struct TargetLockState {
  int excl_holder = -1;  ///< comm rank holding the exclusive lock, or -1
  int shared_count = 0;  ///< number of granted shared locks
  struct Pending {
    int origin;  ///< comm rank
    LockType type;
    OriginTargetState* ots;  ///< the origin's entry the grant lands in
  };
  LazyFifo<Pending> pending;  ///< waiting requests, granted in FIFO order

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

/// Origin-side state for one target, created by the origin's first op to
/// the target, or by a lock on the target itself.
struct OriginTargetState {
  enum class LockSt : std::uint8_t { None, Intent, Requested, Granted };
  int target = -1;      ///< target comm rank
  int outstanding = 0;  ///< RMA ops issued but not remotely acknowledged
  /// Ops queued origin-side while the (delayed) lock is not yet granted:
  /// 1 + the index of the newest one's node in TargetEntries, or 0.
  std::uint32_t queue = 0;
  LockSt lock_st = LockSt::None;
  LockType lock_type = LockType::Shared;
  bool release_pending = false;  ///< unlock sent, release-ack not yet back

  bool has_queued() const { return queue != 0; }
  /// A flush of this target can return: the lock is not waiting for a grant
  /// and every op has left the origin and been acknowledged.
  bool flush_done() const {
    return lock_st != LockSt::Requested && !has_queued() && outstanding == 0;
  }
};
static_assert(sizeof(OriginTargetState) == 16,
              "one entry per touched (origin, target) pair; keep it small");

/// One origin's sparse per-target entries. Lookup is one open-addressing
/// probe on the target rank; a slot points straight at its entry. Entries
/// live in fixed-size chunks and never move, so pointers to them stay valid
/// across progress waits, and in in-flight ops and lock requests, for the
/// life of the window.
class TargetEntries {
 public:
  OriginTargetState* find(int target) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t s = home(target);;) {
      OriginTargetState* e = slots_[s];
      if (e == nullptr || e->target == target) return e;
      if (++s == slots_.size()) s = 0;
    }
  }

  /// Create the entry for `target`, which must not have one yet.
  OriginTargetState& add(int target) {
    if (size_ % kChunk == 0) {
      chunks_.push_back(std::make_unique<OriginTargetState[]>(kChunk));
    }
    const auto i = static_cast<std::uint32_t>(size_);
    OriginTargetState& e = at(i);
    e.target = target;
    // While targets arrive in ascending order (lock loops run low to high)
    // storage order is target order; the first one out of order switches
    // to an explicit ascending index.
    if (order_.empty() && i > 0 && target < at(i - 1).target) {
      order_.resize(i);
      std::iota(order_.begin(), order_.end(), 0u);
    }
    if (!order_.empty()) {
      order_.insert(std::upper_bound(order_.begin(), order_.end(), target,
                                     [this](int t, std::uint32_t j) {
                                       return t < at(j).target;
                                     }),
                    i);
    }
    ++size_;
    if (4 * size_ > 3 * slots_.size()) {
      rehash();
    } else {
      place(&e);
    }
    return e;
  }

  std::size_t size() const { return size_; }

  /// Visit every entry in ascending target order. `f` must not add entries.
  template <class F>
  void each(F&& f) const {
    if (order_.empty()) {
      for (std::size_t i = 0; i < size_; ++i) f(at(i));
    } else {
      for (const std::uint32_t i : order_) f(at(i));
    }
  }

  /// Queue op node `op` behind `e`'s delayed lock.
  void enqueue(OriginTargetState& e, AmNode* op) {
    std::uint32_t n = free_;
    if (n != 0) {
      free_ = nodes_[n - 1].next;
    } else {
      nodes_.emplace_back();
      n = static_cast<std::uint32_t>(nodes_.size());
    }
    Node& node = nodes_[n - 1];
    node.op = op;
    if (e.queue == 0) {
      node.next = n;  // a one-node ring
    } else {
      Node& tail = nodes_[e.queue - 1];
      node.next = tail.next;
      tail.next = n;
    }
    e.queue = n;
  }
  /// Hand `e`'s queued op nodes to `f` in issue order and free their links.
  /// `f` must not queue.
  template <class F>
  void drain_queued(OriginTargetState& e, F&& f) {
    const std::uint32_t tail = e.queue;
    if (tail == 0) return;
    e.queue = 0;
    for (std::uint32_t n = nodes_[tail - 1].next;;) {
      Node& node = nodes_[n - 1];
      const std::uint32_t next = node.next;
      f(node.op);
      node.next = free_;
      free_ = n;
      if (n == tail) return;
      n = next;
    }
  }
  std::size_t nqueued(const OriginTargetState& e) const {
    if (e.queue == 0) return 0;
    std::size_t k = 1;
    for (std::uint32_t n = nodes_[e.queue - 1].next; n != e.queue;
         n = nodes_[n - 1].next) {
      ++k;
    }
    return k;
  }

 private:
  static constexpr std::size_t kChunk = 16;

  OriginTargetState& at(std::size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }
  /// Slot groups of eight: a run of neighbouring ranks (a node's ghosts,
  /// say) shares one group and so one cache line. The group is picked by a
  /// Fibonacci hash of the rank's group, scaled to the group count.
  std::size_t home(int target) const {
    const auto t = static_cast<std::uint32_t>(target);
    const std::uint64_t h = (t >> 3) * 0x9E3779B9u;
    return static_cast<std::size_t>((h * (slots_.size() / 8)) >> 32) * 8 +
           (t & 7);
  }
  void place(OriginTargetState* e) {
    std::size_t s = home(e->target);
    while (slots_[s] != nullptr) {
      if (++s == slots_.size()) s = 0;
    }
    slots_[s] = e;
  }
  /// Resize to load 1/2: slot count is any multiple of eight, so the table
  /// tracks the entry count closely instead of doubling past it.
  void rehash() {
    slots_.assign(std::max<std::size_t>(16, (2 * size_ + 7) / 8 * 8),
                  nullptr);
    for (std::size_t i = 0; i < size_; ++i) place(&at(i));
  }

  std::vector<OriginTargetState*> slots_;  ///< load at most 3/4
  std::vector<std::unique_ptr<OriginTargetState[]>> chunks_;
  std::size_t size_ = 0;
  /// Entry indices by ascending target; empty while storage order is that
  /// order.
  std::vector<std::uint32_t> order_;
  /// Ops queued behind delayed locks. Each entry's queue is a ring of
  /// links, and `queue` names its newest (tail) link, whose `next` is the
  /// oldest. Drained links go on a free list, so a warm origin queues
  /// without allocating.
  struct Node {
    AmNode* op = nullptr;  ///< the queued op's arena node
    std::uint32_t next = 0;  ///< 1 + link index
  };
  std::vector<Node> nodes_;
  std::uint32_t free_ = 0;  ///< 1 + index of the first free node, or 0
};

/// One origin's per-target delayed locks that no op has used yet, as
/// ascending, disjoint runs [lo, hi) of targets locked with one type. Such
/// a lock has no OriginTargetState; the first op to the target creates the
/// entry from its run. Runs grow and shrink at either end in O(1)
/// amortized, so lock and unlock loops in ascending or descending target
/// order cost O(1) per call, and storage is O(runs), not O(locked targets).
class LockRuns {
 public:
  bool empty() const { return head_ == runs_.size(); }
  std::size_t size() const { return runs_.size() - head_; }  ///< runs
  /// The lowest member, or INT_MAX when there is none.
  int lowest() const {
    return empty() ? std::numeric_limits<int>::max() : runs_[head_].lo;
  }
  bool contains(int target) const { return find(target) != kNone; }

  /// Add `target`, which must not be a member: it extends or merges the
  /// neighbouring runs of the same type, else it starts a run of one.
  void add(int target, LockType type) {
    std::size_t i = runs_.size();  // the first run above `target`
    if (!empty() && target < runs_.back().lo) {
      i = target < runs_[head_].lo ? head_ : upper(target);
    }
    Run* below = i > head_ ? &runs_[i - 1] : nullptr;
    Run* above = i < runs_.size() ? &runs_[i] : nullptr;
    const bool join_below =
        below != nullptr && below->hi == target && below->type == type;
    const bool join_above =
        above != nullptr && above->lo == target + 1 && above->type == type;
    if (join_below && join_above) {
      below->hi = above->hi;
      erase(i);
    } else if (join_below) {
      ++below->hi;
    } else if (join_above) {
      --above->lo;
    } else {
      insert(i, Run{target, target + 1, type});
    }
  }

  /// Remove `target` and return its run's lock type, or nothing when
  /// `target` is not a member.
  std::optional<LockType> take(int target) {
    const std::size_t i = find(target);
    if (i == kNone) return std::nullopt;
    Run& r = runs_[i];
    const LockType type = r.type;
    if (r.hi - r.lo == 1) {
      erase(i);
    } else if (target == r.lo) {
      ++r.lo;
    } else if (target == r.hi - 1) {
      --r.hi;
    } else {
      const Run upper_part{target + 1, r.hi, type};
      r.hi = target;
      insert(i + 1, upper_part);
    }
    return type;
  }

 private:
  struct Run {
    int lo = 0, hi = 0;  ///< members are the targets in [lo, hi)
    LockType type = LockType::Shared;
  };
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  /// Index of the first run whose `lo` is above `target`.
  std::size_t upper(int target) const {
    return static_cast<std::size_t>(
        std::upper_bound(runs_.begin() + static_cast<std::ptrdiff_t>(head_),
                         runs_.end(), target,
                         [](int t, const Run& r) { return t < r.lo; }) -
        runs_.begin());
  }
  /// Index of the run holding `target`, or kNone. The end runs are tried
  /// first: lock and unlock loops work there.
  std::size_t find(int target) const {
    if (empty()) return kNone;
    std::size_t i = runs_.size() - 1;
    if (target < runs_[i].lo) {
      i = target < runs_[head_].hi ? head_ : upper(target) - 1;
    }
    const Run& r = runs_[i];
    return r.lo <= target && target < r.hi ? i : kNone;
  }
  void insert(std::size_t i, const Run& r) {
    if (i == runs_.size()) {
      // Appending at capacity: drop the freed front slots instead of
      // growing when they are at least half of the storage.
      if (head_ != 0 && runs_.size() == runs_.capacity() &&
          2 * head_ >= runs_.size()) {
        runs_.erase(runs_.begin(),
                    runs_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
      runs_.push_back(r);
    } else if (i == head_) {
      if (head_ == 0) {
        // Prepending with no free front slot: open as many as there are
        // runs, so a descending loop pays the shift once per doubling.
        const std::size_t slack = std::max<std::size_t>(4, runs_.size());
        runs_.insert(runs_.begin(), slack, Run{});
        head_ = slack;
      }
      runs_[--head_] = r;
    } else {
      runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i), r);
    }
  }
  void erase(std::size_t i) {
    if (i != head_) {
      runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (++head_ == runs_.size()) {
      runs_.clear();
      head_ = 0;
    }
  }

  std::vector<Run> runs_;
  std::size_t head_ = 0;  ///< runs_[0, head_) are free front slots
};

/// One rank's origin-side view of a window.
struct WinOriginState {
  using LockSt = OriginTargetState::LockSt;

  int self = -1;  ///< this origin's comm rank
  EpochKind epoch = EpochKind::None;
  /// Set by win_lock_all, cleared by win_unlock_all. While set, a target
  /// with no entry reads as lock_all left it: granted if it is `self`, a
  /// delayed (Intent) shared lock otherwise.
  bool lock_all = false;
  TargetEntries tgt;  ///< entries for the targets touched so far
  /// Unused per-target delayed locks on targets with no entry (never
  /// `self`). Empty while `lock_all` is set: lock_all refuses open runs,
  /// and a lock inside it aborts.
  LockRuns runs;
  int nlocked = 0;  // targets locked by p_win_lock/_lock_all, not yet unlocked
  // PSCW bookkeeping.
  std::vector<int> access_group;    // comm ranks I will access
  std::vector<int> exposure_group;  // comm ranks allowed to access me
  int posts_seen = 0;      // "post" notifications received (as origin)
  int completes_seen = 0;  // "complete" notifications received (as target)
  unsigned pscw_assert = 0;
  bool fence_open = false;

  /// Lock state of a target with no entry: a run member is a delayed
  /// (Intent) lock; anything else outside lock_all reads as a
  /// default-constructed entry.
  LockSt untouched_lock(int target) const {
    if (lock_all) return target == self ? LockSt::Granted : LockSt::Intent;
    return runs.contains(target) ? LockSt::Intent : LockSt::None;
  }
  /// The entry for `target`, created (as it read untouched, taking it out
  /// of its run) on first use. Only this origin's own calls create entries.
  OriginTargetState& touch(int target) {
    if (OriginTargetState* e = tgt.find(target)) return *e;
    OriginTargetState& e = tgt.add(target);
    if (const std::optional<LockType> type = runs.take(target)) {
      e.lock_st = LockSt::Intent;
      e.lock_type = *type;
    } else {
      e.lock_st = untouched_lock(target);
    }
    return e;
  }
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
    for (int r = 0; r < n; ++r) ost[static_cast<std::size_t>(r)].self = r;
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
  /// Number of targets `origin` holds an entry for (tests read this).
  std::size_t origin_entries(int origin) const {
    return ost[static_cast<std::size_t>(origin)].tgt.size();
  }
  /// Target-side lock manager, indexed by target comm rank.
  std::vector<TargetLockState> locks;

  Info info;

 private:
  int id_;
  Comm comm_;
};

}  // namespace casper::mpi
