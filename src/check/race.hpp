// Online RMA race analyzer: epoch-scoped access-pattern conflict detection.
//
// The shadow oracle (check/oracle.hpp) validates VALUE outcomes at sync
// points; races that happen to land on benign values (overlapping PUTs of
// equal bytes, a load racing a PUT that wrote what was already there) slip
// through it. This analyzer checks the ACCESS PATTERN itself against the
// MPI-3 RMA consistency rules, in the PARCOACH rma_analyzer shape: per
// window and per target rank it keeps an interval tree of byte-range
// accesses tagged {origin, kind, epoch, virtual time, per-origin sequence},
// and flags overlapping accesses that are illegal within an epoch.
//
// Placement — why the recorder sees PRE-redirection accesses: operations are
// recorded from RmaObserver::on_op_issue, which the Env call surface reports
// in program order before the interception layer runs. Casper's ghost
// routing therefore cannot mask a race (two user ops serialized by one ghost
// are still a program-level race) and cannot fabricate one (split/redirected
// internal ops are never reported as user accesses). Local load/store
// accesses enter through Env::local_load/local_store the same way.
//
// Legality matrix for two overlapping accesses in concurrent epochs
// (read = GET / local load; acc = ACC / GET_ACC / FAO / CAS):
//
//                read        put       acc          local store
//   read         legal       race      race[1]      race[2]
//   put           —          race      race         race
//   acc           —           —        legal[3]     race
//   local store   —           —         —           legal[2]
//
//   [1] GET vs acc is a race (only accumulate-class ops are atomic w.r.t.
//       each other); GET_ACC's read side rides the acc-class atomicity.
//   [2] local accesses only exist on the segment owner, so store-vs-store is
//       same-origin program order (legal); load-vs-remote-write is a race.
//   [3] accumulate-class ops on the same basic datatype are element-wise
//       atomic in this simulator (and under MPI-3 same_op_no_op semantics),
//       so they stay legal regardless of op by default; RaceOptions::
//       strict_same_op additionally requires the same op, mirroring the
//       letter of the MPI-3 default. Different basic datatypes = race.
//
// Same-origin accesses are ordered (hence legal) when they sit in different
// epochs or on different sides of a flush; within one epoch and flush
// generation only acc-vs-acc (accumulate ordering), read-vs-read and
// local-vs-local pairs are ordered.
//
// Epoch concurrency is decided schedule-invariantly:
//   * fence and PSCW epochs are collective — two different origins' epochs
//     are THE SAME epoch iff they have the same per-origin generation
//     number, so verdicts cannot depend on which rank's fence returned
//     first;
//   * passive epochs (lock / lock_all) genuinely overlap in virtual time or
//     not — the predicate is strict interval overlap of [open, close), with
//     the exception that a per-target EXCLUSIVE lock epoch is serialized by
//     the target's lock manager against every other passive epoch on that
//     target (delayed acquisition makes call-time intervals overlap even
//     though the critical sections never do);
//   * same-origin accesses are concurrent only within one epoch + flush
//     generation.
// Detection is eager and symmetric: each pair is checked exactly once, when
// the later-arriving access is inserted (an epoch's concurrency relation to
// every earlier epoch is already determined at that moment), so the verdict
// set is independent of host arrival order — sharded runs (the analyzer is
// concurrent_safe) and perturbed fiber schedules produce the same groups.
//
// Gating: the observation sites cost one emptiness test when no observer is
// attached (mpi/observe.hpp); the analyzer itself is ordinary library code
// in casper_check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mpi/observe.hpp"
#include "obs/record.hpp"
#include "sim/time.hpp"

namespace casper::check {

/// Access kinds the analyzer distinguishes (the RMA op kinds plus the two
/// local flavors).
enum class AccessKind : std::uint8_t {
  LocalLoad,
  LocalStore,
  Put,
  Get,
  Acc,
  GetAcc,
  Fao,
  Cas,
};

const char* to_string(AccessKind k);

constexpr bool access_is_read(AccessKind k) {
  return k == AccessKind::Get || k == AccessKind::LocalLoad;
}
constexpr bool access_is_acc(AccessKind k) {
  return k == AccessKind::Acc || k == AccessKind::GetAcc ||
         k == AccessKind::Fao || k == AccessKind::Cas;
}
constexpr bool access_is_local(AccessKind k) {
  return k == AccessKind::LocalLoad || k == AccessKind::LocalStore;
}

/// Epoch styles tracked per (window, origin).
enum class EpochStyle : std::uint8_t { Fence, Pscw, Lock, LockAll };

const char* to_string(EpochStyle s);

/// Names of the accumulate operations and basic datatypes (diagnostics and
/// repro files).
const char* to_string(mpi::AccOp op);
const char* to_string(mpi::Dt dt);

/// One recorded byte-range access (one contiguous block; strided datatypes
/// expand to one entry per block).
struct Access {
  std::size_t lo = 0;  ///< byte range within the target's segment
  std::size_t hi = 0;
  int origin = -1;          ///< origin world rank
  std::uint64_t seq = 0;    ///< per-(window, origin) program-order number
  AccessKind kind = AccessKind::Put;
  mpi::AccOp op = mpi::AccOp::Replace;
  mpi::Dt dt = mpi::Dt::Byte;
  std::uint64_t flush_gen = 0;  ///< per-(origin, target) flush generation
  int epoch = -1;               ///< index into the window's epoch table
  sim::Time t = 0;              ///< issue virtual time
};

/// Interval tree of accesses over one (window, target-rank) byte space: a
/// deterministic treap keyed by (lo, priority) and augmented with subtree
/// max-hi for overlap queries. Priorities are a pure hash of the entry, so
/// the tree shape depends only on the entry SET, never on insertion order.
class IntervalTree {
 public:
  void insert(const Access& a);
  /// Merge `a` into an existing entry with identical identity (origin,
  /// epoch, kind, op, dt, flush generation) whose range overlaps or is
  /// adjacent; keeps the earliest seq / time. Returns false (and does not
  /// insert) when no such entry exists.
  bool coalesce(const Access& a);
  /// Visit every entry overlapping [lo, hi).
  template <typename F>
  void query(std::size_t lo, std::size_t hi, F&& f) const {
    query_node(root_, lo, hi, f);
  }
  /// Drop every entry failing `keep`; used by the analyzer to bound memory
  /// once an epoch can no longer conflict with any future access.
  template <typename P>
  void prune(P&& keep) {
    std::vector<Access> live;
    live.reserve(nodes_.size());
    collect(root_, keep, live);
    clear();
    for (const Access& a : live) insert(a);
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();

 private:
  struct Node {
    Access a;
    std::uint64_t prio = 0;
    std::size_t max_hi = 0;
    int l = -1;
    int r = -1;
  };

  static std::uint64_t priority(const Access& a);
  bool key_less(int n, std::size_t lo, std::uint64_t prio) const;
  void pull(int n);
  int insert_node(int t, int n);
  void split(int t, std::size_t lo, std::uint64_t prio, int& l, int& r);
  int erase_node(int t, std::size_t lo, std::uint64_t prio);
  int merge_nodes(int a, int b);
  template <typename F>
  void query_node(int n, std::size_t lo, std::size_t hi, F& f) const {
    if (n < 0) return;
    const Node& nd = nodes_[static_cast<std::size_t>(n)];
    if (nd.max_hi <= lo) return;
    query_node(nd.l, lo, hi, f);
    if (nd.a.lo < hi && nd.a.hi > lo) f(nd.a);
    if (nd.a.lo < hi) query_node(nd.r, lo, hi, f);
  }
  template <typename P>
  void collect(int n, P& keep, std::vector<Access>& out) const {
    if (n < 0) return;
    const Node& nd = nodes_[static_cast<std::size_t>(n)];
    collect(nd.l, keep, out);
    if (keep(nd.a)) out.push_back(nd.a);
    collect(nd.r, keep, out);
  }

  std::vector<Node> nodes_;
  std::vector<int> free_;
  int root_ = -1;
  std::size_t size_ = 0;
};

/// One side of a reported conflict, with its epoch context.
struct ConflictSide {
  Access acc;
  EpochStyle style = EpochStyle::Fence;
  std::uint64_t gen = 0;
  sim::Time epoch_open = 0;
};

/// One detected conflict event (diagnostic record; capped — the invariant
/// aggregate lives in the group view).
struct RaceConflict {
  int win_id = -1;
  int target = -1;      ///< comm rank within the window
  std::size_t lo = 0;   ///< overlapping byte range
  std::size_t hi = 0;
  ConflictSide a;       ///< retained earlier access
  ConflictSide b;       ///< arriving access that completed the pair
  sim::Time t_detect = 0;
  std::string diag;     ///< one-line human-readable description
  /// Last trace lines at detection (export_text form, like fuzzer repros);
  /// present only when a recorder with tracing is attached.
  std::vector<std::string> trace_tail;
};

struct RaceOptions {
  /// Require identical ops for overlapping accumulate-class accesses (the
  /// letter of MPI-3's default same_op_no_op). Off: same basic datatype is
  /// enough, matching the simulator's element-wise atomicity guarantee.
  bool strict_same_op = false;
  std::size_t max_recorded = 64;  ///< diagnostic record cap
  std::size_t tail_lines = 32;    ///< trace-tail length per diagnostic
  /// Rebuild a (window, target) tree once it holds this many entries,
  /// dropping entries whose epoch can no longer conflict with any future
  /// access. Detection-neutral; purely a memory bound.
  std::size_t prune_threshold = 4096;
};

class RaceAnalyzer final : public mpi::RmaObserver {
 public:
  explicit RaceAnalyzer(RaceOptions opt = {}) : opt_(opt) {}

  /// Attach an obs recorder: race.* counters, race.conflict trace instants
  /// and per-diagnostic trace tails. Optional; the analyzer works without.
  void set_recorder(obs::Recorder* rec) { rec_ = rec; }

  // ---- mpi::RmaObserver ---------------------------------------------------
  void on_win_register(mpi::WinImpl& win) override;
  void on_win_free(mpi::WinImpl& win) override;
  void on_op_commit(const mpi::AmOp& op, sim::Time t, int entity) override {
    (void)op;
    (void)t;
    (void)entity;  // the analyzer works on issues, not commits
  }
  void on_op_issue(const mpi::AmOp& op, sim::Time t) override;
  void on_epoch_begin(mpi::WinImpl& win, int world_rank, mpi::EpochEv kind,
                      int target, sim::Time t) override;
  void on_local_access(mpi::WinImpl& win, int comm_rank, std::size_t offset,
                       std::size_t len, bool is_store, sim::Time t) override;
  void on_sync(mpi::WinImpl& win, int world_rank, mpi::SyncKind kind,
               int target, sim::Time t) override;
  /// Every callback takes the internal mutex: safe under sharded engines.
  bool concurrent_safe() const override { return true; }

  // ---- results ------------------------------------------------------------
  /// Normalized conflict group: every conflicting byte between one origin
  /// pair on one (window, target), as a sorted disjoint interval union.
  /// This view is invariant across fiber schedules and shard counts.
  struct Group {
    int win_id = -1;
    int target = -1;
    int origin_a = -1;  ///< origin_a <= origin_b (world ranks)
    int origin_b = -1;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
  };
  std::vector<Group> groups() const;
  /// True when the pair {origin_a, origin_b} has a conflicting byte
  /// intersecting [lo, hi) on (win_id, target). Order of origins irrelevant.
  bool flags(int win_id, int target, int origin_a, int origin_b,
             std::size_t lo, std::size_t hi) const;

  const std::vector<RaceConflict>& conflicts() const { return conflicts_; }
  bool clean() const { return conflict_events_ == 0; }
  /// Raw detection events (can exceed conflicts().size(); with coalescing the
  /// exact count may vary across schedules — use the group view or
  /// conflict_bytes() for invariant comparisons).
  std::uint64_t conflict_events() const { return conflict_events_; }
  std::uint64_t conflict_pairs() const;
  std::uint64_t conflict_bytes() const;
  std::uint64_t accesses_recorded() const { return accesses_; }
  std::uint64_t epochs_opened() const { return epochs_opened_; }
  /// Accesses that arrived with no open epoch (recorded nowhere).
  std::uint64_t unscoped_accesses() const { return unscoped_; }

  /// Drop all state for reuse across runs.
  void reset();

 private:
  static constexpr sim::Time kOpen = std::numeric_limits<sim::Time>::max();

  struct EpochRec {
    EpochStyle style = EpochStyle::Fence;
    bool exclusive = false;
    int target = -1;  ///< locked comm rank (Lock style only)
    std::uint64_t gen = 0;
    sim::Time open_t = 0;
    sim::Time close_t = kOpen;
    bool open() const { return close_t == kOpen; }
  };

  struct OriginState {
    int fence_epoch = -1;
    int pscw_epoch = -1;
    int lockall_epoch = -1;
    std::map<int, int> lock_epochs;  ///< target comm rank -> epoch index
    std::uint64_t fence_gen = 0;     ///< next fence generation
    std::uint64_t pscw_gen = 0;
    std::uint64_t flush_all_gen = 0;
    std::map<int, std::uint64_t> flush_gen;  ///< per-target extra bumps
    std::uint64_t next_seq = 0;
  };

  struct WinState {
    int nranks = 0;  ///< comm size (expected epoch participants)
    std::vector<EpochRec> epochs;
    std::map<int, OriginState> origins;  ///< keyed by origin world rank
    std::map<int, IntervalTree> trees;   ///< keyed by target comm rank
  };

  struct GroupKey {
    int win_id;
    int target;
    int origin_a;  ///< normalized: origin_a <= origin_b
    int origin_b;
    bool operator<(const GroupKey& o) const {
      return std::tie(win_id, target, origin_a, origin_b) <
             std::tie(o.win_id, o.target, o.origin_a, o.origin_b);
    }
  };

  void record_access(mpi::WinImpl& win, int origin_world, int target_comm,
                     AccessKind kind, mpi::AccOp op, mpi::Dt dt,
                     std::size_t lo, std::size_t hi, sim::Time t);
  bool concurrent(const WinState& ws, const Access& a, const Access& b) const;
  bool legal(const Access& a, const Access& b) const;
  void report(WinState& ws, int win_id, int target, const Access& a,
              const Access& b, sim::Time t_now);
  std::uint64_t cur_flush_gen(const OriginState& os, int target) const;
  int current_epoch(const OriginState& os, int target) const;
  void close_epoch(WinState& ws, int& slot, sim::Time t);
  void maybe_prune(WinState& ws, int target, sim::Time t);
  /// Insert [lo, hi) into a sorted disjoint interval union; returns the
  /// number of newly covered bytes.
  static std::size_t union_insert(
      std::vector<std::pair<std::size_t, std::size_t>>& iv, std::size_t lo,
      std::size_t hi);

  RaceOptions opt_;
  obs::Recorder* rec_ = nullptr;
  mutable std::mutex mu_;
  std::map<int, WinState> wins_;  ///< keyed by window id
  std::map<GroupKey, std::vector<std::pair<std::size_t, std::size_t>>>
      groups_;
  std::vector<RaceConflict> conflicts_;
  std::uint64_t conflict_events_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t epochs_opened_ = 0;
  std::uint64_t unscoped_ = 0;
};

}  // namespace casper::check
