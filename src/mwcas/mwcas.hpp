// Descriptor-based multi-word CAS over minimpi RMA (ROADMAP item 3).
//
// A PMWCAS-style library layered purely on the runtime's one-sided atomics:
// CAS installs per-word descriptor pointers, accumulate(Replace) publishes
// descriptor fields, and every read of a mutable word is an atomic-class op
// (get_accumulate NoOp), so the whole protocol rides the same
// RMW-serialization guarantees Casper's ghost redirection claims to
// preserve — and runs identically under original, thread-progress, and
// Casper execution with any ghost count.
//
// Word model: every target cell is one 8-byte double in an RMA window.
// Application values are integers |v| < 2^51 (exact in a double); encoded
// descriptor pointers live at >= 2^52, so a single comparison classifies a
// cell. A pointer packs (generation, owner rank, slot, is-word-descriptor):
//
//   ptr = 2^52 + (((gen * 128 + rank) * 32 + slot) * 2 + is_wd)   < 2^53
//
// Descriptor memory: each rank owns a fixed table of MWCAS descriptors (md)
// and single-use word descriptors (wd) inside its window segment, starting
// at a caller-chosen byte offset (so a host structure — the KV store — can
// append the region to its own segment). Slots are seqlock-recycled: a slot
// publishes fields at seq = 2*gen and retires to 2*gen+1; any helper
// validates its snapshot against the gen baked into the pointer it followed
// and abandons the help when the slot has moved on. The status word encodes
// gen*4 + state for the same reason: a stale helper's status CAS can never
// corrupt the slot's next occupant.
//
// Protocol (two-level, Harris-style conditional install to close the
// late-install hazard):
//   phase 1   for each target word in canonical (rank, offset) order:
//             publish a fresh single-use wd {word, expected, parent}, CAS it
//             over the expected value, then resolve it — upgrade to the
//             parent md pointer iff a FRESH gen-guarded read of the parent
//             status says Undecided, else restore the expected value. A
//             plain-value mismatch CASes status Undecided -> Failed.
//   decide    all installed: CAS status Undecided -> Succeeded.
//   phase 2   CAS every word from the md pointer to desired (Succeeded) or
//             back to expected (Failed).
//   retire    the ORIGIN additionally loops each word until it is free of
//             the op's footprint (md pointer or a child wd) before bumping
//             the slot seq — after which every stale helper action is
//             provably inert (gen-guarded status ops, single-use wds).
//
// Helping: read() on a cell holding a pointer helps the op to completion
// (any rank — origin, bystander, or post-recovery successor — can finish or
// roll back a stalled op). recover() walks the local descriptor table and
// completes any published-but-unretired op: the table is the persisted
// intent log that makes mwcas_dying() + recover() failure-atomic.
//
// Planted bugs (tests/fuzzer only, see MwConfig): skip_help (reads return
// the raw pointer instead of helping), torn_install (phase 2 writes desired
// even for Failed ops), stale_status (helpers run phase 2 with their entry
// status instead of re-reading after the decision). Each manifests as an
// MWCAS-level linearizability violation the checker adapter must catch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/env.hpp"
#include "mpi/win.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace casper::mwcas {

/// One target word of a multi-word CAS.
struct MwTarget {
  int rank = 0;          ///< comm rank owning the word
  std::size_t off = 0;   ///< byte offset in that rank's segment (8-aligned)
  std::int64_t expected = 0;
  std::int64_t desired = 0;
};

/// The engine's shape (descriptor slots, backoff, help depth) is fixed in
/// mwcas.cpp; only the planted bugs vary.
struct MwConfig {
  // --- planted bugs (tests / MWCAS proofs only) ----------------------------
  bool bug_skip_help = false;     ///< reads/installs never help foreign ops
  bool bug_torn_install = false;  ///< phase 2 writes desired on Failed too
  bool bug_stale_status = false;  ///< helpers phase-2 with their entry status
};

/// Client-side protocol counters, per rank.
struct MwStats {
  std::uint64_t ops = 0, success = 0, fail = 0, interrupted = 0;
  std::uint64_t reads = 0, installs = 0, helps = 0, help_completes = 0;
  std::uint64_t rollbacks = 0, recoveries = 0, retries = 0;
  std::uint64_t stale_abandons = 0;
  bool operator==(const MwStats&) const = default;
};

/// Outcome detail for one mwcas (the checker adapter wants the mismatch).
struct MwResult {
  bool ok = false;
  bool interrupted = false;  ///< mwcas_dying() aborted mid-protocol
  int mismatch_index = -1;   ///< word whose observed value broke the op
  std::int64_t observed = 0; ///< that word's value (valid when index >= 0)
};

/// The MWCAS engine for one rank over one window. Construct identically on
/// every rank of `comm` (collective-free: the caller's window provides the
/// memory; open the lock_all epoch and zero the region before first use —
/// MwHeap below does all of that for standalone users).
class Mwcas {
 public:
  Mwcas(mpi::Env& env, const mpi::Comm& comm, const mpi::Win& win,
        std::size_t desc_off, const MwConfig& cfg);

  /// Bytes of descriptor table appended to EACH rank's segment.
  static std::size_t region_bytes();

  /// Multi-word CAS: atomically installs every desired value iff every word
  /// holds its expected value. Targets need not be sorted (canonicalized
  /// internally); duplicate (rank, off) pairs are illegal.
  MwResult mwcas(const MwTarget* t, int n);
  MwResult mwcas(const std::vector<MwTarget>& t) {
    return mwcas(t.data(), static_cast<int>(t.size()));
  }
  /// Single-word convenience on the same cell/value model.
  bool cas1(int rank, std::size_t off, std::int64_t expected,
            std::int64_t desired);

  /// Atomic read of one word; helps (or with bug_skip_help, leaks) any
  /// descriptor it encounters. Plain values only in a correct run.
  std::int64_t read(int rank, std::size_t off);
  /// Unconditional atomic write (accumulate Replace). Only safe for cells
  /// no concurrent mwcas targets (initialization, fresh queue nodes).
  void write(int rank, std::size_t off, std::int64_t v);

  /// Fault injection for the recovery tests: run mwcas but abandon the op —
  /// descriptor published, words possibly mid-install — after
  /// `abort_after_installs` successful word installs. The descriptor table
  /// is then the persisted intent; recover() (or any helping reader)
  /// completes or rolls back the op exactly once.
  MwResult mwcas_dying(const std::vector<MwTarget>& t,
                       int abort_after_installs);

  /// Complete every published-but-unretired descriptor this rank owns (the
  /// failure-atomic replay after a simulated death). Returns the number of
  /// ops completed; outcomes land in stats().recoveries / success / fail.
  int recover();

  const MwStats& stats() const { return stats_; }
  const MwConfig& config() const { return cfg_; }
  int rank() const { return me_; }
  int nranks() const { return nranks_; }
  /// Dump mwcas.* counters into the run's recorder (call once, at close).
  void publish_metrics();

  // --- encoding introspection (tests / checker) ----------------------------
  static bool is_ptr_value(std::int64_t v);

 private:
  struct Ptr {
    std::uint64_t gen = 0;
    int rank = -1;
    int slot = -1;
    bool is_wd = false;
  };
  struct MdSnap {
    bool valid = false;
    int state = 0;  ///< kStUndecided/..., from the snapshot instant
    int n = 0;
    MwTarget w[8];
  };
  struct WdSnap {
    bool valid = false;
    int rank = 0;
    std::size_t off = 0;
    double expected = 0;
    double parent = 0;
  };
  enum CcResult { kInstalled, kMismatch, kDecided };

  // encoding
  double enc_ptr(const Ptr& p) const;
  Ptr dec_ptr(double d) const;
  static bool is_ptr(double d);

  // raw RMA helpers (issue + flush inside one frame: reentrant-safe)
  double aread1(int rank, std::size_t off);
  void areadn(int rank, std::size_t off, double* out, int n);
  void awrite(int rank, std::size_t off, const double* vals, int n);
  double araw_cas(int rank, std::size_t off, double expected, double desired);
  void backoff(int attempt);

  // descriptor table addressing
  std::size_t md_off(int slot) const;
  std::size_t wd_off(int slot) const;

  // slot lifecycle (own slots only)
  int publish_md(const MwTarget* t, int n);   ///< returns slot; bumps gen
  void retire_md(int slot);
  int publish_wd(int rank, std::size_t off, double expected, double parent);
  void retire_wd(int slot);

  // protocol
  MdSnap snap_md(const Ptr& p);
  WdSnap snap_wd(const Ptr& p);
  int read_status(const Ptr& p);  ///< gen-guarded; kStRetired when stale
  bool cas_status(const Ptr& p, int from, int to);
  CcResult cond_cas(const MwTarget& w, const Ptr& parent, double parent_enc,
                    int depth, std::int64_t* observed);
  void resolve_wd(const Ptr& q, const WdSnap& s);
  /// Run phases 1+2 for descriptor `p` (fields from `snap`). `helper` marks
  /// foreign completion (the stale_status bug only bites helpers).
  /// `abort_installs` < 0 runs to completion. Returns the decided state or
  /// kStRetired / kStInterrupted.
  int help_md(const Ptr& p, int depth);
  int run_phases(const Ptr& p, const MdSnap& snap, bool helper, int depth,
                 int abort_installs, int* mismatch_index,
                 std::int64_t* observed);
  /// Origin-only: loop every word until free of this op's footprint.
  void scrub_footprint(const Ptr& p, const MdSnap& snap);
  MwResult run_own(const MwTarget* t, int n, int abort_installs);

  mpi::Env& env_;
  MwConfig cfg_;
  mpi::Comm comm_;
  mpi::Win win_;
  int me_ = -1;
  int nranks_ = 0;
  std::size_t desc_off_ = 0;
  sim::Rng rng_;
  std::vector<std::uint64_t> md_gen_;  ///< last published gen per own md slot
  std::vector<bool> md_live_;          ///< published and not retired
  std::vector<std::uint64_t> wd_gen_;
  std::vector<bool> wd_live_;  ///< nested helps hold several wds at once
  MwStats stats_;
};

/// Standalone word heap for tests/benches: one window of `words_per_rank`
/// data cells per rank followed by the descriptor region, with the
/// collective open/close (zeroing, lock_all, fingerprint) the KV store does
/// for its own segment.
class MwHeap {
 public:
  MwHeap(mpi::Env& env, const mpi::Comm& comm, int words_per_rank,
         const MwConfig& cfg);
  ~MwHeap();

  void open();   ///< collective: allocate, zero, lock_all, barrier
  void close();  ///< collective: barrier, unlock_all, fingerprint, free

  Mwcas& mw() { return *mw_; }
  int words_per_rank() const { return words_; }
  std::size_t word_off(int idx) const {
    return static_cast<std::size_t>(idx) * 8;
  }
  /// Order-independent digest of every rank's final DATA words (descriptor
  /// region excluded — it is scratch); valid after close().
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  mpi::Env& env_;
  mpi::Comm comm_;
  MwConfig cfg_;
  int words_ = 0;
  mpi::Win win_;
  void* base_ = nullptr;
  bool open_ = false;
  std::unique_ptr<Mwcas> mw_;
  std::uint64_t fingerprint_ = 0;
};

/// Recoverable CAS: the failure-atomic client. run() may die mid-descriptor
/// (simulated: abandon after k installs); replay() re-reads the persisted
/// descriptor table and completes or rolls back every in-flight op exactly
/// once — the survivor-side contract PR 5's ghost-kill recovery must keep.
class RecoverCas {
 public:
  explicit RecoverCas(Mwcas& mw) : mw_(mw) {}
  /// Attempt the op, dying after `die_after_installs` installs (< 0 = never
  /// die). interrupted=true means the op is parked in the descriptor table.
  MwResult run(const std::vector<MwTarget>& t, int die_after_installs = -1) {
    return mw_.mwcas_dying(t, die_after_installs);
  }
  /// Post-restart replay; returns ops completed (0 = nothing in flight).
  int replay() { return mw_.recover(); }

 private:
  Mwcas& mw_;
};

}  // namespace casper::mwcas
