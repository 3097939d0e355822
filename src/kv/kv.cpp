#include "kv/kv.hpp"

#include <cstring>

#include "core/casper.hpp"
#include "mpi/runtime.hpp"
#include "obs/record.hpp"
#include "sim/hash.hpp"

namespace casper::kv {

using mpi::AccOp;
using mpi::Dt;

namespace {

// Layout constants (doubles; byte offsets are words * 8).
constexpr std::size_t kCtrWords = 8;       // per-server ACC counter block
constexpr std::size_t kHdrWords = 4;       // per-bucket header words
constexpr std::size_t kWord = 8;

// Deterministic exponential backoff: attempt k sleeps base*2^min(k,cap) plus
// a seeded jitter in [1, same window] drawn from the client's private
// stream. Exponential growth is load-bearing: it keeps the spinners' retry
// rate below the lock holder's software-progress service rate (a linear
// backoff livelocks original-MPI runs — the holder ends up perpetually
// servicing failing CASes inside its own flushes).
constexpr sim::Time kBackoffBase = sim::ns(300);
constexpr int kBackoffCap = 8;

// Server counter words (ACC Sum maintained by clients).
constexpr std::size_t kCtrOps = 0;
constexpr std::size_t kCtrHits = 1;
constexpr std::size_t kCtrMisses = 2;
constexpr std::size_t kCtrInserts = 3;
constexpr std::size_t kCtrOverflows = 4;
constexpr std::size_t kCtrCasOk = 5;
constexpr std::size_t kCtrCasFail = 6;

std::size_t bucket_bytes(const KvConfig& cfg) {
  return (kHdrWords + 2 * static_cast<std::size_t>(cfg.assoc)) * kWord;
}

}  // namespace

std::size_t KvStore::seg_bytes(const KvConfig& cfg) {
  return kCtrWords * kWord +
         static_cast<std::size_t>(cfg.nbuckets) * bucket_bytes(cfg);
}

KvStore::KvStore(mpi::Env& env, const KvConfig& cfg, const mpi::Comm& comm)
    : env_(env), cfg_(cfg), comm_(comm) {
  me_ = env_.rank(comm_);
  nservers_ = env_.size(comm_);
  rng_ = sim::Rng(env_.runtime().config().seed ^ 0x6b76ULL,
                  0x1000 + static_cast<std::uint64_t>(me_));
  read_buf_.assign(2 * static_cast<std::size_t>(cfg_.assoc), 0.0);
}

int KvStore::server_of(std::uint64_t key) const {
  return static_cast<int>(sim::splitmix64(key) %
                          static_cast<std::uint64_t>(nservers_));
}

int KvStore::bucket_of(std::uint64_t key) const {
  const std::uint64_t h =
      sim::splitmix64(key) / static_cast<std::uint64_t>(nservers_);
  return static_cast<int>(h % static_cast<std::uint64_t>(cfg_.nbuckets));
}

std::uint64_t KvStore::key_for(int server, int bucket, int n) const {
  int seen = 0;
  for (std::uint64_t k = 1;; ++k) {
    if (server_of(k) == server && bucket_of(k) == bucket) {
      if (seen == n) return k;
      ++seen;
    }
  }
}

std::size_t KvStore::bucket_off(int bucket) const {
  return kCtrWords * kWord +
         static_cast<std::size_t>(bucket) * bucket_bytes(cfg_);
}

std::size_t KvStore::entry_off(int bucket, int slot) const {
  return bucket_off(bucket) + kHdrWords * kWord +
         static_cast<std::size_t>(slot) * 2 * kWord;
}

void KvStore::open() {
  mpi::Info info;
  info.set(core::kEpochsUsedKey, "lockall");
  // LockFree appends the MWCAS descriptor region after the data segment;
  // seg_bytes() stays data-only so the close() fingerprint (and every
  // layout offset) is descriptor-free.
  const std::size_t total =
      seg_bytes(cfg_) +
      (lockfree() ? mwcas::Mwcas::region_bytes() : 0);
  win_ = env_.win_allocate(total, 1, info, comm_, &base_);
  std::memset(base_, 0, total);
  env_.win_lock_all(0, win_);
  if (lockfree()) {
    mw_ = std::make_unique<mwcas::Mwcas>(env_, comm_, win_, seg_bytes(cfg_),
                                         cfg_.mw);
  }
  env_.barrier(comm_);
  open_ = true;
}

void KvStore::backoff(int attempt) {
  // Exponential, not linear: under original-MPI progress the lock holder
  // services every spinner's failing CAS inside its own flushes, so the
  // retry arrival rate must drop below the holder's software-progress
  // service rate or the holder never drains its inbox and the whole run
  // livelocks in virtual time.
  const int k = attempt < kBackoffCap ? attempt : kBackoffCap;
  const sim::Time window = kBackoffBase << k;  // base * 2^k
  const sim::Time jitter = 1 + rng_.next_below(window);
  env_.compute(window + jitter);
}

int KvStore::lock_bucket(int server, std::size_t boff) {
  int attempt = 0;
  if (cfg_.lock == KvConfig::LockKind::CasSpin) {
    const double token = 1.0 + static_cast<double>(me_);
    for (;;) {
      cas_exp_ = 0.0;
      cas_des_ = token;
      cas_res_ = -1.0;
      env_.compare_and_swap(&cas_exp_, &cas_des_, &cas_res_, Dt::Double,
                            server, boff, win_);
      env_.win_flush(server, win_);
      if (cas_res_ == 0.0) break;
      ++attempt;
      backoff(attempt);
    }
  } else {
    fao_one_ = 1.0;
    fao_ticket_ = -1.0;
    env_.fetch_and_op(&fao_one_, &fao_ticket_, Dt::Double, server, boff,
                      AccOp::Sum, win_);
    env_.win_flush(server, win_);
    // Poll with an atomic read (FAO +0), not a plain GET: the holder's
    // release is a concurrent ACC on the serving word, and GET is not
    // atomic with respect to accumulates — the runtime's atomicity
    // detector (rightly) flags that mix under thread progress.
    for (;;) {
      fao_zero_ = 0.0;
      serving_ = -1.0;
      env_.fetch_and_op(&fao_zero_, &serving_, Dt::Double, server,
                        boff + kWord, AccOp::Sum, win_);
      env_.win_flush(server, win_);
      if (serving_ == fao_ticket_) break;
      ++attempt;
      backoff(attempt);
    }
  }
  stats_.lock_acquires++;
  stats_.lock_retries += static_cast<std::uint64_t>(attempt);
  obs::Recorder* rec = env_.runtime().config().recorder;
  if (obs::on(rec)) {
    rec->metrics().counter("kv.lock_acquires")++;
    rec->metrics().counter("kv.lock_retries") +=
        static_cast<std::uint64_t>(attempt);
    rec->metrics().histogram("kv.lock_spin").add(
        static_cast<std::uint64_t>(attempt));
  }
  return attempt;
}

void KvStore::unlock_bucket(int server, std::size_t boff) {
  if (cfg_.lock == KvConfig::LockKind::CasSpin) {
    const double token = 1.0 + static_cast<double>(me_);
    cas_exp_ = token;
    cas_des_ = 0.0;
    cas_res_ = -1.0;
    env_.compare_and_swap(&cas_exp_, &cas_des_, &cas_res_, Dt::Double, server,
                          boff, win_);
    env_.win_flush(server, win_);
    if (cas_res_ != token) stats_.unlock_mismatch++;
  } else {
    env_.accumulate(&d_one_, 1, server, boff + kWord, AccOp::Sum, win_);
    env_.win_flush(server, win_);
  }
}

KvStore::Probe KvStore::probe(int server, int bucket, std::uint64_t key) {
  env_.get(read_buf_.data(), 2 * cfg_.assoc, server,
           bucket_off(bucket) + kHdrWords * kWord, win_);
  env_.win_flush(server, win_);
  Probe pr;
  const double kd = static_cast<double>(key);
  for (int s = 0; s < cfg_.assoc; ++s) {
    const double slot_key = read_buf_[2 * static_cast<std::size_t>(s)];
    if (slot_key == kd) {
      pr.slot = s;
      pr.value = static_cast<std::int64_t>(
          read_buf_[2 * static_cast<std::size_t>(s) + 1]);
      return pr;
    }
    if (slot_key == 0.0 && pr.empty < 0) pr.empty = s;
  }
  return pr;
}

void KvStore::write_entry(int server, int bucket, int slot, std::uint64_t key,
                          std::int64_t value) {
  entry_buf_[0] = static_cast<double>(key);
  entry_buf_[1] = static_cast<double>(value);
  env_.put(entry_buf_, 2, server, entry_off(bucket, slot), win_);
  // The visibility flush: makes the value write durable BEFORE the lock is
  // released. Skipping it (the planted bug) leaves the PUT unordered with
  // the release CAS/ACC — both are completed by the unlock's flush, but in
  // either commit order, so a fast next holder can read the stale entry.
  if (!cfg_.skip_unlock_flush) env_.win_flush(server, win_);
}

void KvStore::bump_server_counters(int server, std::size_t boff,
                                   int ctr_word) {
  // Unflushed ACCs: they ride the unlock's flush (commutative, disjoint from
  // the entry bytes, so ordering does not matter).
  env_.accumulate(&d_one_, 1, server, boff + 2 * kWord, AccOp::Sum, win_);
  env_.accumulate(&d_one_, 1, server, kCtrOps * kWord, AccOp::Sum, win_);
  env_.accumulate(&d_one_, 1, server,
                  static_cast<std::size_t>(ctr_word) * kWord, AccOp::Sum,
                  win_);
}

// --- LockFree mode: MWCAS-guarded entries, no bucket lock -------------------

KvStore::Probe KvStore::lf_probe(int server, int bucket, std::uint64_t key) {
  // Per-word atomic reads through the MWCAS engine: each read helps any
  // in-flight descriptor it meets, so only committed values are observed.
  // Key words are write-once (0 -> key, never deleted), so a slot that
  // matched once matches forever and a miss is a sound snapshot: the key
  // can only ever commit into the first slot that was empty when its insert
  // ran, and we scanned that slot while it still read 0.
  Probe pr;
  const auto kd = static_cast<std::int64_t>(key);
  for (int s = 0; s < cfg_.assoc; ++s) {
    const std::int64_t slot_key = mw_->read(server, entry_off(bucket, s));
    if (slot_key == kd) {
      pr.slot = s;
      pr.value = mw_->read(server, entry_off(bucket, s) + kWord);
      return pr;
    }
    if (slot_key == 0 && pr.empty < 0) pr.empty = s;
  }
  return pr;
}

void KvStore::lf_bump(int server, std::size_t boff, int ctr_word) {
  bump_server_counters(server, boff, ctr_word);
  // No unlock flush to ride in this mode.
  env_.win_flush(server, win_);
}

KvResult KvStore::lf_get(std::uint64_t key, sim::Time inv) {
  const int server = server_of(key);
  const int bucket = bucket_of(key);
  const Probe pr = lf_probe(server, bucket, key);
  const bool hit = pr.slot >= 0;
  lf_bump(server, bucket_off(bucket),
          hit ? static_cast<int>(kCtrHits) : static_cast<int>(kCtrMisses));
  stats_.gets++;
  if (hit) {
    stats_.hits++;
  } else {
    stats_.misses++;
  }
  KvEvent e;
  e.key = key;
  e.kind = KvEvent::Kind::Get;
  e.result = hit ? pr.value : 0;
  e.ok = true;
  finish(e, inv, 0);
  return {hit, hit ? pr.value : 0, 0};
}

KvResult KvStore::lf_put(std::uint64_t key, std::int64_t value,
                         sim::Time inv) {
  const int server = server_of(key);
  const int bucket = bucket_of(key);
  int retries = 0;
  bool applied = false;
  int ctr;
  for (;;) {
    const Probe pr = lf_probe(server, bucket, key);
    if (pr.slot >= 0) {
      // Upsert of an existing key: last-writer-wins via a CAS loop on the
      // value word (an unconditional Replace could clobber a concurrent
      // MWCAS descriptor; CAS cannot).
      std::int64_t cur = pr.value;
      const std::size_t voff = entry_off(bucket, pr.slot) + kWord;
      while (!mw_->cas1(server, voff, cur, value)) {
        ++retries;
        cur = mw_->read(server, voff);
      }
      applied = true;
      stats_.updates++;
      ctr = static_cast<int>(kCtrHits);
      break;
    }
    if (pr.empty >= 0) {
      // Fresh insert: key and value commit together or not at all. A lost
      // race means another key claimed the slot (key words are monotone),
      // so the re-probe makes progress every iteration.
      const std::size_t koff = entry_off(bucket, pr.empty);
      const mwcas::MwTarget t[2] = {
          {server, koff, 0, static_cast<std::int64_t>(key)},
          {server, koff + kWord, 0, value}};
      if (mw_->mwcas(t, 2).ok) {
        applied = true;
        stats_.inserts++;
        ctr = static_cast<int>(kCtrInserts);
        break;
      }
      ++retries;
      continue;
    }
    stats_.overflows++;
    ctr = static_cast<int>(kCtrOverflows);
    break;
  }
  lf_bump(server, bucket_off(bucket), ctr);
  stats_.puts++;
  KvEvent e;
  e.key = key;
  e.kind = KvEvent::Kind::Put;
  e.arg1 = value;
  e.ok = applied;
  finish(e, inv, retries);
  return {applied, value, retries};
}

KvResult KvStore::lf_cas_update(std::uint64_t key, std::int64_t expected,
                                std::int64_t desired, sim::Time inv) {
  const int server = server_of(key);
  const int bucket = bucket_of(key);
  int retries = 0;
  const Probe pr = lf_probe(server, bucket, key);
  bool ok = false;
  std::int64_t old = 0;
  if (pr.slot >= 0) {
    const std::size_t voff = entry_off(bucket, pr.slot) + kWord;
    std::int64_t cur = pr.value;
    for (;;) {
      if (cur != expected) {
        old = cur;  // linearizes at the read that observed the mismatch
        break;
      }
      if (mw_->cas1(server, voff, expected, desired)) {
        old = expected;
        ok = true;
        break;
      }
      ++retries;
      cur = mw_->read(server, voff);
    }
  }
  lf_bump(server, bucket_off(bucket),
          ok ? static_cast<int>(kCtrCasOk) : static_cast<int>(kCtrCasFail));
  stats_.cas++;
  if (ok) {
    stats_.cas_ok++;
  } else {
    stats_.cas_fail++;
  }
  KvEvent e;
  e.key = key;
  e.kind = KvEvent::Kind::CasUpd;
  e.arg1 = expected;
  e.arg2 = desired;
  e.result = old;
  e.ok = ok;
  finish(e, inv, retries);
  return {ok, old, retries};
}

void KvStore::finish(KvEvent e, sim::Time inv, int retries) {
  e.inv = inv;
  e.resp = env_.now();
  e.client = me_;
  e.cseq = cseq_++;
  if (sink_ != nullptr) sink_->record(e);
  obs::Recorder* rec = env_.runtime().config().recorder;
  if (obs::on(rec)) {
    obs::Metrics& m = rec->metrics();
    switch (e.kind) {
      case KvEvent::Kind::Get:
        m.counter("kv.gets")++;
        m.counter(e.result != 0 ? "kv.hits" : "kv.misses")++;
        break;
      case KvEvent::Kind::Put:
        m.counter("kv.puts")++;
        if (!e.ok) m.counter("kv.overflows")++;
        break;
      case KvEvent::Kind::CasUpd:
        m.counter("kv.cas")++;
        m.counter(e.ok ? "kv.cas_ok" : "kv.cas_fail")++;
        break;
    }
    m.histogram("kv.op_ns").add(e.resp - e.inv);
    rec->trace().instant(env_.world_rank(), obs::Ev::KvOp, e.resp,
                         static_cast<std::uint64_t>(e.kind), e.key,
                         static_cast<std::uint64_t>(retries));
  }
}

KvResult KvStore::get(std::uint64_t key) {
  const sim::Time inv = env_.now();
  if (lockfree()) return lf_get(key, inv);
  const int server = server_of(key);
  const int bucket = bucket_of(key);
  const std::size_t boff = bucket_off(bucket);
  const int retries = lock_bucket(server, boff);
  const Probe pr = probe(server, bucket, key);
  const bool hit = pr.slot >= 0;
  bump_server_counters(server, boff,
                       hit ? static_cast<int>(kCtrHits)
                           : static_cast<int>(kCtrMisses));
  unlock_bucket(server, boff);
  stats_.gets++;
  if (hit) {
    stats_.hits++;
  } else {
    stats_.misses++;
  }
  KvEvent e;
  e.key = key;
  e.kind = KvEvent::Kind::Get;
  e.result = hit ? pr.value : 0;
  e.ok = true;
  finish(e, inv, retries);
  return {hit, hit ? pr.value : 0, retries};
}

KvResult KvStore::put(std::uint64_t key, std::int64_t value) {
  const sim::Time inv = env_.now();
  if (lockfree()) return lf_put(key, value, inv);
  const int server = server_of(key);
  const int bucket = bucket_of(key);
  const std::size_t boff = bucket_off(bucket);
  const int retries = lock_bucket(server, boff);
  const Probe pr = probe(server, bucket, key);
  bool applied = false;
  int ctr;
  if (pr.slot >= 0) {
    write_entry(server, bucket, pr.slot, key, value);
    applied = true;
    stats_.updates++;
    ctr = static_cast<int>(kCtrHits);
  } else if (pr.empty >= 0) {
    write_entry(server, bucket, pr.empty, key, value);
    applied = true;
    stats_.inserts++;
    ctr = static_cast<int>(kCtrInserts);
  } else {
    stats_.overflows++;
    ctr = static_cast<int>(kCtrOverflows);
  }
  bump_server_counters(server, boff, ctr);
  unlock_bucket(server, boff);
  stats_.puts++;
  KvEvent e;
  e.key = key;
  e.kind = KvEvent::Kind::Put;
  e.arg1 = value;
  e.ok = applied;
  finish(e, inv, retries);
  return {applied, value, retries};
}

KvResult KvStore::cas_update(std::uint64_t key, std::int64_t expected,
                             std::int64_t desired) {
  const sim::Time inv = env_.now();
  if (lockfree()) return lf_cas_update(key, expected, desired, inv);
  const int server = server_of(key);
  const int bucket = bucket_of(key);
  const std::size_t boff = bucket_off(bucket);
  const int retries = lock_bucket(server, boff);
  const Probe pr = probe(server, bucket, key);
  const bool ok = pr.slot >= 0 && pr.value == expected;
  if (ok) write_entry(server, bucket, pr.slot, key, desired);
  const std::int64_t old = pr.slot >= 0 ? pr.value : 0;
  bump_server_counters(
      server, boff,
      ok ? static_cast<int>(kCtrCasOk) : static_cast<int>(kCtrCasFail));
  unlock_bucket(server, boff);
  stats_.cas++;
  if (ok) {
    stats_.cas_ok++;
  } else {
    stats_.cas_fail++;
  }
  KvEvent e;
  e.key = key;
  e.kind = KvEvent::Kind::CasUpd;
  e.arg1 = expected;
  e.arg2 = desired;
  e.result = old;
  e.ok = ok;
  finish(e, inv, retries);
  return {ok, old, retries};
}

void KvStore::close() {
  if (mw_ != nullptr) mw_->publish_metrics();
  env_.barrier(comm_);
  env_.win_unlock_all(win_);
  env_.barrier(comm_);

  // Cluster-wide stats: exact double sums (all counts far below 2^53).
  const std::uint64_t* f = &stats_.gets;
  constexpr int kFields = sizeof(KvStats) / sizeof(std::uint64_t);
  double in[kFields], out[kFields];
  for (int i = 0; i < kFields; ++i) in[i] = static_cast<double>(f[i]);
  env_.allreduce(in, out, kFields, Dt::Double, AccOp::Sum, comm_);
  std::uint64_t* g = &global_.gets;
  for (int i = 0; i < kFields; ++i) {
    g[i] = static_cast<std::uint64_t>(out[i]);
  }

  // Order-independent fingerprint of the final table: exact sums of each
  // rank's segment-FNV halves, folded into one digest.
  const std::uint64_t h = sim::fnv1a(base_, seg_bytes(cfg_));
  double fin[2] = {static_cast<double>(h & 0xffffffffULL),
                   static_cast<double>(h >> 32)};
  double fout[2] = {0, 0};
  env_.allreduce(fin, fout, 2, Dt::Double, AccOp::Sum, comm_);
  fingerprint_ = static_cast<std::uint64_t>(fout[0]) * 0x9e3779b97f4a7c15ULL ^
                 static_cast<std::uint64_t>(fout[1]);

  // ACC-counter totals (server side of the books) and the per-bucket
  // contention histogram, read locally from this rank's own segment.
  const double* words = static_cast<const double*>(base_);
  for (std::size_t w = 0; w < kCtrWords; ++w) {
    in[w] = words[w];
  }
  env_.allreduce(in, out, static_cast<int>(kCtrWords), Dt::Double, AccOp::Sum,
                 comm_);
  for (std::size_t w = 0; w < kCtrWords; ++w) {
    acc_totals_[w] = static_cast<std::uint64_t>(out[w]);
  }
  obs::Recorder* rec = env_.runtime().config().recorder;
  if (obs::on(rec)) {
    obs::Metrics& m = rec->metrics();
    for (int b = 0; b < cfg_.nbuckets; ++b) {
      const double nops = words[bucket_off(b) / kWord + 2];
      m.histogram("kv.bucket_ops").add(static_cast<std::uint64_t>(nops));
      if (nops > 0) m.counter("kv.buckets_used")++;
    }
  }

  mw_.reset();
  env_.win_free(win_);
  open_ = false;
}

}  // namespace casper::kv
