// RMA-backed sharded key-value store (ROADMAP item 2).
//
// Every application rank is simultaneously a *server* — it exposes a
// fixed-size bucket array in its segment of one RMA window — and a *client*
// issuing GET/PUT/CAS-update requests against the whole cluster. There is no
// server-side code at all: every operation is implemented purely with
// one-sided MPI (CAS/FAO bucket spinlocks, GET/PUT value transfer, ACC
// statistics counters), so the store runs identically under the original,
// thread-progress, and Casper execution modes with any ghost count — which
// is exactly what makes it a progress-model workload: every lock word and
// value byte moves through whatever progress engine the run configured.
//
// Segment layout (all cells are 8-byte doubles, chosen because every basic
// RMA atomic in the runtime operates on one element and small integers are
// exact in a double):
//
//   [ 8 server counter words ][ bucket 0 ][ bucket 1 ] ... [ bucket B-1 ]
//
//   bucket := [ w0: lock / ticket-next ][ w1: ticket-serving ]
//             [ w2: bucket op count    ][ w3: reserved       ]
//             [ assoc x (key, value) entry pairs ]
//
// Key -> shard mapping: a splitmix64 hash picks the server rank, the next
// hash digits pick the bucket. Collisions chain through the bucket's `assoc`
// entry slots (resize-free open addressing within one bucket); a full bucket
// makes further inserts fail with `overflow` rather than grow.
//
// Locking protocol (KvConfig::lock):
//   CasSpin   — acquire: CAS(w0, 0 -> 1+rank) + flush, deterministic
//               exponential backoff on failure; release: CAS(w0, 1+rank -> 0)
//               which also validates ownership.
//   FaoTicket — acquire: FAO(w0, +1) returns my ticket, then poll w1 with
//               atomic reads (FAO +0; a plain GET would race the releasing
//               ACC) until serving == ticket; release: ACC(w1, +1).
//   LockFree  — no bucket lock at all: entry updates go through the MWCAS
//               library (src/mwcas/), whose descriptor region is appended to
//               each rank's segment. Inserts install the (key, value) pair
//               with one 2-word MWCAS against (0, 0); updates and CAS-updates
//               are single-word CAS loops on the value word; probes are
//               per-word atomic reads that help any in-flight descriptor
//               they meet. Key words are write-once (keys are never deleted),
//               which is what makes the first-empty-slot insert race safe:
//               a key can only ever commit into one slot. The lock words
//               stay zero and lock_acquires/lock_retries stay 0.
// Value writes are flushed BEFORE the releasing CAS/ACC is issued; skipping
// that flush (KvConfig::skip_unlock_flush, test-only) leaves the value PUT
// unordered relative to the lock release — the planted bug the
// linearizability checker must catch (see src/check/linear.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/env.hpp"
#include "mpi/win.hpp"
#include "mwcas/mwcas.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace casper::kv {

/// One completed logical KV operation, as recorded for the linearizability
/// checker: the invocation/response virtual-time interval plus the
/// client-observed arguments and results.
struct KvEvent {
  enum class Kind : std::uint8_t { Get = 0, Put = 1, CasUpd = 2 };
  std::uint64_t key = 0;
  Kind kind = Kind::Get;
  std::int64_t arg1 = 0;    ///< Put: value written | CasUpd: expected
  std::int64_t arg2 = 0;    ///< CasUpd: desired
  std::int64_t result = 0;  ///< Get: value read (0 = absent) | CasUpd: old
  /// Put: applied (false = bucket overflow, store untouched);
  /// CasUpd: swap succeeded; Get: always true.
  bool ok = true;
  int client = -1;          ///< comm rank of the issuing client
  std::uint64_t cseq = 0;   ///< client-local op sequence (deterministic)
  sim::Time inv = 0;        ///< invocation virtual time
  sim::Time resp = 0;       ///< response virtual time
};

/// Where the store reports completed operations. The linearizability checker
/// implements this alongside its RmaObserver face; KvStore calls record()
/// once per logical GET/PUT/CAS-update at response time.
class HistorySink {
 public:
  virtual ~HistorySink() = default;
  virtual void record(const KvEvent& e) = 0;
};

struct KvConfig {
  int nbuckets = 64;  ///< buckets per server rank
  int assoc = 4;      ///< entry slots per bucket (the collision chain)
  enum class LockKind : std::uint8_t {
    CasSpin = 0,
    FaoTicket = 1,
    LockFree = 2,  ///< MWCAS-guarded entries, no bucket lock (see header)
  };
  LockKind lock = LockKind::CasSpin;
  /// MWCAS engine planted bugs for LockFree mode.
  mwcas::MwConfig mw;
  /// PLANTED BUG (tests only): skip the flush between the value PUT and the
  /// lock release, leaving the write unordered w.r.t. the unlock. Readers
  /// that acquire the lock before the PUT commits observe stale values —
  /// the linearizability violation the checker exists to catch.
  bool skip_unlock_flush = false;
};

/// Client-side operation statistics, aggregated across ranks by close().
struct KvStats {
  std::uint64_t gets = 0, puts = 0, cas = 0;
  std::uint64_t hits = 0, misses = 0;
  std::uint64_t inserts = 0, updates = 0, overflows = 0;
  std::uint64_t cas_ok = 0, cas_fail = 0;
  std::uint64_t lock_acquires = 0, lock_retries = 0, unlock_mismatch = 0;

  std::uint64_t ops() const { return gets + puts + cas; }
  bool operator==(const KvStats&) const = default;
};

struct KvResult {
  bool ok = false;          ///< Get: hit | Put: applied | CasUpd: swapped
  std::int64_t value = 0;   ///< Get: value | CasUpd: old value
  int lock_retries = 0;
};

class KvStore {
 public:
  /// Collective over `comm` (construct on every rank, same cfg everywhere).
  KvStore(mpi::Env& env, const KvConfig& cfg, const mpi::Comm& comm);

  /// Collective: allocate the window, zero the table, open the permanent
  /// lock_all passive epoch, barrier.
  void open();

  /// Collective: barrier, close the epoch, aggregate stats + a deterministic
  /// window fingerprint across ranks, harvest the per-bucket contention
  /// histogram into the metrics registry, free the window.
  void close();

  // --- client operations (any rank, between open() and close()) -----------
  KvResult get(std::uint64_t key);
  KvResult put(std::uint64_t key, std::int64_t value);  ///< upsert
  KvResult cas_update(std::uint64_t key, std::int64_t expected,
                      std::int64_t desired);

  /// Attach the linearizability log writer (null detaches). Must be set
  /// before the first operation to cover the whole history.
  void set_sink(HistorySink* sink) { sink_ = sink; }

  // --- introspection -------------------------------------------------------
  int server_of(std::uint64_t key) const;
  int bucket_of(std::uint64_t key) const;
  int nservers() const { return nservers_; }
  /// The n-th key (n >= 0) that hashes to (server, bucket) — deterministic,
  /// distinct per n; used by collision-chain tests to force one bucket.
  std::uint64_t key_for(int server, int bucket, int n) const;

  /// This rank's client-side counters.
  const KvStats& local_stats() const { return stats_; }
  /// Cluster totals; valid after close().
  const KvStats& global_stats() const { return global_; }
  /// Order-independent digest of every rank's final segment bytes (two exact
  /// double-sums of per-rank FNV halves); valid after close(). Equal
  /// fingerprints mean byte-identical final tables.
  std::uint64_t fingerprint() const { return fingerprint_; }
  /// LockFree mode: this rank's MWCAS protocol counters (null otherwise).
  const mwcas::MwStats* mwcas_stats() const {
    return mw_ ? &mw_->stats() : nullptr;
  }
  /// Cluster total of ACC-maintained server counter word `w` (0 = ops,
  /// 1 = hits, 2 = misses, 3 = inserts, 4 = overflows, 5 = cas_ok,
  /// 6 = cas_fail); valid after close(). Tests cross-check these against the
  /// client-side KvStats books.
  std::uint64_t acc_total(int w) const { return acc_totals_[w]; }

  static std::size_t seg_bytes(const KvConfig& cfg);

 private:
  struct Probe {
    int slot = -1;        ///< slot holding the key, or -1
    int empty = -1;       ///< first empty slot, or -1
    std::int64_t value = 0;
  };

  std::size_t bucket_off(int bucket) const;
  std::size_t entry_off(int bucket, int slot) const;
  int lock_bucket(int server, std::size_t boff);  ///< returns retry count
  void unlock_bucket(int server, std::size_t boff);
  Probe probe(int server, int bucket, std::uint64_t key);
  bool lockfree() const { return cfg_.lock == KvConfig::LockKind::LockFree; }
  /// Per-word atomic probe (helps in-flight descriptors); LockFree only.
  Probe lf_probe(int server, int bucket, std::uint64_t key);
  KvResult lf_get(std::uint64_t key, sim::Time inv);
  KvResult lf_put(std::uint64_t key, std::int64_t value, sim::Time inv);
  KvResult lf_cas_update(std::uint64_t key, std::int64_t expected,
                         std::int64_t desired, sim::Time inv);
  /// ACCs ride no unlock in LockFree mode: flush them explicitly.
  void lf_bump(int server, std::size_t boff, int ctr_word);
  void write_entry(int server, int bucket, int slot, std::uint64_t key,
                   std::int64_t value);
  void bump_server_counters(int server, std::size_t boff, int ctr_word);
  void backoff(int attempt);
  void finish(KvEvent e, sim::Time inv, int retries);

  mpi::Env& env_;
  KvConfig cfg_;
  mpi::Comm comm_;
  mpi::Win win_;
  void* base_ = nullptr;
  int me_ = -1;
  int nservers_ = 0;
  bool open_ = false;
  std::uint64_t cseq_ = 0;
  sim::Rng rng_;  ///< per-client backoff jitter stream
  // Scratch buffers for in-flight RMA: the runtime unpacks origin/result
  // payloads at the completing flush, so these must outlive each op — member
  // storage, never stack temporaries. One op is in flight per slot at a time
  // (the store issues from the owning rank's fiber only).
  std::vector<double> read_buf_;  ///< bucket entry GET target (2*assoc)
  double cas_exp_ = 0, cas_des_ = 0, cas_res_ = 0;
  double fao_one_ = 1.0;
  double fao_ticket_ = 0;  ///< ticket-lock FAO result
  double fao_zero_ = 0;    ///< FAO +0 operand (atomic read)
  double serving_ = 0;     ///< ticket-lock poll result
  double entry_buf_[2] = {0, 0};
  double d_one_ = 1.0;  ///< ACC +1 payload (unflushed; rides the unlock)
  /// LockFree mode: the MWCAS engine over this window's appended descriptor
  /// region (null for the locking modes).
  std::unique_ptr<mwcas::Mwcas> mw_;
  std::uint64_t acc_totals_[8] = {};
  HistorySink* sink_ = nullptr;
  KvStats stats_;
  KvStats global_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace casper::kv
