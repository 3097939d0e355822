#include "mwcas/mwcas.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "core/casper.hpp"
#include "mpi/runtime.hpp"
#include "obs/record.hpp"
#include "sim/hash.hpp"

namespace casper::mwcas {

using mpi::AccOp;
using mpi::Dt;

namespace {

constexpr std::size_t kWord = 8;
constexpr int kMaxWords = 8;

constexpr int kMdSlots = 4;  // MWCAS descriptors per rank
constexpr int kWdSlots = 8;  // single-use word descriptors per rank
constexpr int kMaxHelpDepth = 6;  // nested-help recursion bound
static_assert(kMdSlots >= 1 && kMdSlots <= 32);
static_assert(kWdSlots >= 1 && kWdSlots <= 32);
// Each nesting level of a recursive help holds at most one live wd, so the
// recursion bound implies the table bound.
static_assert(kMaxHelpDepth + 2 <= kWdSlots + 1);

// Deterministic exponential backoff between helping retries (same physics
// as the KV bucket locks: the retry rate must drop below the progress
// engine's service rate or original-MPI runs livelock).
constexpr sim::Time kBackoffBase = sim::ns(300);
constexpr int kBackoffCap = 8;

// md slot layout (doubles): [0] seq, [1] status = gen*4+state, [2] n,
// [3 + i*4 ..] per-word {rank, off, expected, desired}.
constexpr int kMdWords = 3 + kMaxWords * 4;
// wd slot layout: [0] seq, [1] rank, [2] off, [3] expected, [4] parent ptr.
constexpr int kWdWords = 5;

// Status lattice. Retired/Interrupted are synthetic (never stored): a
// gen-mismatched status read reports kStRetired; run_phases reports
// kStInterrupted when mwcas_dying's abort point fires.
constexpr int kStUndecided = 0;
constexpr int kStSucceeded = 1;
constexpr int kStFailed = 2;
constexpr int kStRetired = 3;
constexpr int kStInterrupted = 4;

// Encoded pointers live at >= 2^52; application values are |v| < 2^51.
constexpr double kPtrBase = 4503599627370496.0;  // 2^52
constexpr std::int64_t kMaxVal = 1ll << 51;

}  // namespace

// ---------------------------------------------------------------------------
// construction / layout

Mwcas::Mwcas(mpi::Env& env, const mpi::Comm& comm, const mpi::Win& win,
             std::size_t desc_off, const MwConfig& cfg)
    : env_(env), cfg_(cfg), comm_(comm), win_(win), desc_off_(desc_off) {
  me_ = env_.rank(comm_);
  nranks_ = env_.size(comm_);
  assert(nranks_ <= 128);
  rng_ = sim::Rng(env_.runtime().config().seed ^ 0x6d77ULL,
                  0x2000 + static_cast<std::uint64_t>(me_));
  md_gen_.assign(static_cast<std::size_t>(kMdSlots), 0);
  md_live_.assign(static_cast<std::size_t>(kMdSlots), false);
  wd_gen_.assign(static_cast<std::size_t>(kWdSlots), 0);
  wd_live_.assign(static_cast<std::size_t>(kWdSlots), false);
}

std::size_t Mwcas::region_bytes() {
  return (static_cast<std::size_t>(kMdSlots) * kMdWords +
          static_cast<std::size_t>(kWdSlots) * kWdWords) *
         kWord;
}

std::size_t Mwcas::md_off(int slot) const {
  return desc_off_ + static_cast<std::size_t>(slot) * kMdWords * kWord;
}

std::size_t Mwcas::wd_off(int slot) const {
  return desc_off_ +
         static_cast<std::size_t>(kMdSlots) * kMdWords * kWord +
         static_cast<std::size_t>(slot) * kWdWords * kWord;
}

// ---------------------------------------------------------------------------
// pointer encoding

double Mwcas::enc_ptr(const Ptr& p) const {
  const std::uint64_t packed =
      ((p.gen * 128 + static_cast<std::uint64_t>(p.rank)) * 32 +
       static_cast<std::uint64_t>(p.slot)) *
          2 +
      (p.is_wd ? 1 : 0);
  return kPtrBase + static_cast<double>(packed);
}

Mwcas::Ptr Mwcas::dec_ptr(double d) const {
  const auto packed =
      static_cast<std::uint64_t>(d - kPtrBase);
  Ptr p;
  p.is_wd = (packed & 1) != 0;
  p.slot = static_cast<int>((packed >> 1) % 32);
  p.rank = static_cast<int>((packed >> 1) / 32 % 128);
  p.gen = (packed >> 1) / 32 / 128;
  return p;
}

bool Mwcas::is_ptr(double d) { return d >= kPtrBase; }

bool Mwcas::is_ptr_value(std::int64_t v) {
  return v >= static_cast<std::int64_t>(kPtrBase);
}

// ---------------------------------------------------------------------------
// raw RMA helpers
//
// Every read of a mutable word is get_accumulate(NoOp) — an atomic-class op
// that serializes against concurrent CAS/ACC (a plain GET would trip the
// runtime's atomicity detector, and rightly so). Every buffer is a stack
// local and the flush completes inside the same frame, so these helpers are
// safe under the recursive helping the protocol performs (unlike the KV
// store's member-buffer pattern, which is single-op by construction).

double Mwcas::aread1(int rank, std::size_t off) {
  double dummy = 0.0;
  double out = 0.0;
  env_.get_accumulate(&dummy, 1, mpi::contig(Dt::Double), &out, 1,
                      mpi::contig(Dt::Double), rank, off, 1,
                      mpi::contig(Dt::Double), AccOp::NoOp, win_);
  env_.win_flush(rank, win_);
  return out;
}

void Mwcas::areadn(int rank, std::size_t off, double* out, int n) {
  // One bulk get_accumulate commits at a single virtual instant: the result
  // is an atomic snapshot of the whole slot (seq included), which is what
  // makes the seqlock validation sound.
  double dummy[kMdWords] = {};
  assert(n <= kMdWords);
  env_.get_accumulate(dummy, n, mpi::contig(Dt::Double), out, n,
                      mpi::contig(Dt::Double), rank, off, n,
                      mpi::contig(Dt::Double), AccOp::NoOp, win_);
  env_.win_flush(rank, win_);
}

void Mwcas::awrite(int rank, std::size_t off, const double* vals, int n) {
  env_.accumulate(vals, n, rank, off, AccOp::Replace, win_);
  env_.win_flush(rank, win_);
}

double Mwcas::araw_cas(int rank, std::size_t off, double expected,
                       double desired) {
  double result = 0.0;
  env_.compare_and_swap(&expected, &desired, &result, Dt::Double, rank, off,
                        win_);
  env_.win_flush(rank, win_);
  return result;
}

void Mwcas::backoff(int attempt) {
  const int k = attempt < kBackoffCap ? attempt : kBackoffCap;
  const sim::Time window = kBackoffBase << k;
  env_.compute(1 + rng_.next_below(window));
}

// ---------------------------------------------------------------------------
// slot lifecycle (seqlock publish/retire on this rank's own table)

int Mwcas::publish_md(const MwTarget* t, int n) {
  int slot = -1;
  for (int s = 0; s < kMdSlots; ++s) {
    if (!md_live_[static_cast<std::size_t>(s)]) {
      slot = s;
      break;
    }
  }
  if (slot < 0) {
    // Every slot is parked mid-op (abandoned by mwcas_dying): replay them
    // first — exactly what a restarted process would do.
    recover();
    for (int s = 0; s < kMdSlots; ++s) {
      if (!md_live_[static_cast<std::size_t>(s)]) {
        slot = s;
        break;
      }
    }
  }
  assert(slot >= 0);
  const std::uint64_t gen = ++md_gen_[static_cast<std::size_t>(slot)];
  // Fields first (slot seq is still odd/stale), then the seq word: a helper
  // snapshot is valid only when it sees seq == 2*gen, which the ordering of
  // these two flushed writes guarantees implies complete fields.
  double buf[kMdWords - 1] = {};
  buf[0] = static_cast<double>(gen * 4 + kStUndecided);
  buf[1] = static_cast<double>(n);
  for (int i = 0; i < n; ++i) {
    buf[2 + i * 4 + 0] = static_cast<double>(t[i].rank);
    buf[2 + i * 4 + 1] = static_cast<double>(t[i].off);
    buf[2 + i * 4 + 2] = static_cast<double>(t[i].expected);
    buf[2 + i * 4 + 3] = static_cast<double>(t[i].desired);
  }
  awrite(me_, md_off(slot) + kWord, buf, kMdWords - 1);
  const double seq = static_cast<double>(2 * gen);
  awrite(me_, md_off(slot), &seq, 1);
  md_live_[static_cast<std::size_t>(slot)] = true;
  return slot;
}

void Mwcas::retire_md(int slot) {
  const double seq =
      static_cast<double>(2 * md_gen_[static_cast<std::size_t>(slot)] + 1);
  awrite(me_, md_off(slot), &seq, 1);
  md_live_[static_cast<std::size_t>(slot)] = false;
}

int Mwcas::publish_wd(int rank, std::size_t off, double expected,
                      double parent) {
  int slot = -1;
  for (int s = 0; s < kWdSlots; ++s) {
    if (!wd_live_[static_cast<std::size_t>(s)]) {
      slot = s;
      break;
    }
  }
  assert(slot >= 0);  // guaranteed by the kMaxHelpDepth static_assert
  const std::uint64_t gen = ++wd_gen_[static_cast<std::size_t>(slot)];
  double buf[kWdWords - 1];
  buf[0] = static_cast<double>(rank);
  buf[1] = static_cast<double>(off);
  buf[2] = expected;
  buf[3] = parent;
  awrite(me_, wd_off(slot) + kWord, buf, kWdWords - 1);
  const double seq = static_cast<double>(2 * gen);
  awrite(me_, wd_off(slot), &seq, 1);
  wd_live_[static_cast<std::size_t>(slot)] = true;
  return slot;
}

void Mwcas::retire_wd(int slot) {
  const double seq =
      static_cast<double>(2 * wd_gen_[static_cast<std::size_t>(slot)] + 1);
  awrite(me_, wd_off(slot), &seq, 1);
  wd_live_[static_cast<std::size_t>(slot)] = false;
}

// ---------------------------------------------------------------------------
// gen-guarded snapshots and status ops

Mwcas::MdSnap Mwcas::snap_md(const Ptr& p) {
  double buf[kMdWords];
  areadn(p.rank, md_off(p.slot), buf, kMdWords);
  MdSnap s;
  if (static_cast<std::uint64_t>(buf[0]) != 2 * p.gen) return s;  // moved on
  const auto stv = static_cast<std::uint64_t>(buf[1]);
  if (stv / 4 != p.gen) return s;
  s.valid = true;
  s.state = static_cast<int>(stv % 4);
  s.n = static_cast<int>(buf[2]);
  assert(s.n >= 1 && s.n <= kMaxWords);
  for (int i = 0; i < s.n; ++i) {
    s.w[i].rank = static_cast<int>(buf[3 + i * 4 + 0]);
    s.w[i].off = static_cast<std::size_t>(buf[3 + i * 4 + 1]);
    s.w[i].expected = static_cast<std::int64_t>(buf[3 + i * 4 + 2]);
    s.w[i].desired = static_cast<std::int64_t>(buf[3 + i * 4 + 3]);
  }
  return s;
}

Mwcas::WdSnap Mwcas::snap_wd(const Ptr& p) {
  double buf[kWdWords];
  areadn(p.rank, wd_off(p.slot), buf, kWdWords);
  WdSnap s;
  if (static_cast<std::uint64_t>(buf[0]) != 2 * p.gen) return s;
  s.valid = true;
  s.rank = static_cast<int>(buf[1]);
  s.off = static_cast<std::size_t>(buf[2]);
  s.expected = buf[3];
  s.parent = buf[4];
  return s;
}

int Mwcas::read_status(const Ptr& p) {
  const double v = aread1(p.rank, md_off(p.slot) + kWord);
  const auto stv = static_cast<std::uint64_t>(v);
  if (stv / 4 != p.gen) return kStRetired;
  return static_cast<int>(stv % 4);
}

bool Mwcas::cas_status(const Ptr& p, int from, int to) {
  const auto e = static_cast<double>(p.gen * 4 + static_cast<unsigned>(from));
  const auto d = static_cast<double>(p.gen * 4 + static_cast<unsigned>(to));
  // The gen baked into both operands makes a stale helper's CAS inert
  // against the slot's next occupant: it can only ever match its own gen.
  return araw_cas(p.rank, md_off(p.slot) + kWord, e, d) == e;
}

// ---------------------------------------------------------------------------
// two-level conditional install

// Resolve a word descriptor found in a cell: upgrade it to its parent md
// pointer iff a FRESH gen-guarded read of the parent status says Undecided,
// else restore the expected value (which the install CAS proved was the
// cell's value, so restoration is value-preserving even when the wd is
// stale). At most one resolution CAS can succeed per wd — the wd enters the
// cell at most once (single-use) — which closes the late-install hazard.
void Mwcas::resolve_wd(const Ptr& q, const WdSnap& s) {
  const double qenc = enc_ptr(q);
  const Ptr parent = dec_ptr(s.parent);
  const bool upgrade = read_status(parent) == kStUndecided;
  araw_cas(s.rank, s.off, qenc, upgrade ? s.parent : s.expected);
}

Mwcas::CcResult Mwcas::cond_cas(const MwTarget& w, const Ptr& parent,
                                double parent_enc, int depth,
                                std::int64_t* observed) {
  const auto eexp = static_cast<double>(w.expected);
  for (int attempt = 0;; ++attempt) {
    const double v = aread1(w.rank, w.off);
    if (v == parent_enc) return kInstalled;  // some helper beat us to it
    if (is_ptr(v)) {
      if (cfg_.bug_skip_help) {
        // Planted bug: treat the foreign descriptor as a plain mismatch.
        // The raw pointer value leaks into the op's observed word.
        *observed = static_cast<std::int64_t>(v);
        return kMismatch;
      }
      const Ptr q = dec_ptr(v);
      if (q.is_wd) {
        const WdSnap s = snap_wd(q);
        if (s.valid) {
          resolve_wd(q, s);
        } else {
          ++stats_.stale_abandons;  // recycled under us; owner will scrub
        }
      } else if (depth < kMaxHelpDepth) {
        help_md(q, depth + 1);
      }
      // Deep recursion just backs off and retries: the op holding the cell
      // is making progress through its own (or another helper's) phases.
      ++stats_.retries;
      backoff(attempt);
      continue;
    }
    if (v != eexp) {
      *observed = static_cast<std::int64_t>(v);
      return kMismatch;
    }
    // Plain expected value: install through a fresh single-use wd.
    const int ws = publish_wd(w.rank, w.off, eexp, parent_enc);
    Ptr wp;
    wp.gen = wd_gen_[static_cast<std::size_t>(ws)];
    wp.rank = me_;
    wp.slot = ws;
    wp.is_wd = true;
    const double wenc = enc_ptr(wp);
    const double old = araw_cas(w.rank, w.off, eexp, wenc);
    if (old != eexp) {
      retire_wd(ws);
      ++stats_.retries;
      backoff(attempt);
      continue;  // lost the race; reclassify whatever is there now
    }
    // Our wd is in the cell. Upgrade only on a FRESH Undecided — if the op
    // was decided (or retired) while we installed, this install is late and
    // must be undone, not upgraded (a late upgrade after phase 2 would
    // resurrect the md pointer in a cell the op already finalized).
    const bool upgrade = read_status(parent) == kStUndecided;
    araw_cas(w.rank, w.off, wenc, upgrade ? parent_enc : eexp);
    retire_wd(ws);
    if (upgrade) return kInstalled;
    return kDecided;
  }
}

// ---------------------------------------------------------------------------
// phases

int Mwcas::help_md(const Ptr& p, int depth) {
  const MdSnap snap = snap_md(p);
  if (!snap.valid) {
    ++stats_.stale_abandons;
    return kStRetired;
  }
  ++stats_.helps;
  int mi = -1;
  std::int64_t obs = 0;
  const int st = run_phases(p, snap, /*helper=*/true, depth, -1, &mi, &obs);
  if (st == kStSucceeded || st == kStFailed) ++stats_.help_completes;
  return st;
}

int Mwcas::run_phases(const Ptr& p, const MdSnap& snap, bool helper, int depth,
                      int abort_installs, int* mismatch_index,
                      std::int64_t* observed) {
  const double penc = enc_ptr(p);
  const int entry_state = snap.state;
  int st = snap.state;

  if (st == kStUndecided) {
    bool mismatch = false;
    for (int i = 0; i < snap.n && !mismatch && st == kStUndecided; ++i) {
      if (!helper && abort_installs >= 0 && i == abort_installs) {
        return kStInterrupted;
      }
      for (int attempt = 0;; ++attempt) {
        const int cur = read_status(p);
        if (cur != kStUndecided) {
          st = cur;
          break;
        }
        std::int64_t obs = 0;
        const CcResult r = cond_cas(snap.w[i], p, penc, depth, &obs);
        if (r == kInstalled) {
          ++stats_.installs;
          break;
        }
        if (r == kMismatch) {
          *mismatch_index = i;
          *observed = obs;
          cas_status(p, kStUndecided, kStFailed);
          mismatch = true;
          break;
        }
        // kDecided: the op got decided under our install; re-read status.
        ++stats_.retries;
        backoff(attempt);
      }
    }
    if (st == kStUndecided && !mismatch) {
      if (!helper && abort_installs >= 0 && abort_installs >= snap.n) {
        return kStInterrupted;  // die after all installs, before the decide
      }
      cas_status(p, kStUndecided, kStSucceeded);
    }
    // Whether our decide CAS won or a concurrent helper's did, the fresh
    // status is now final for this gen (or the origin retired the slot).
    for (int attempt = 0;; ++attempt) {
      st = read_status(p);
      if (st != kStUndecided) break;
      backoff(attempt);  // unreachable in practice; defensive
    }
  }

  if (st == kStRetired) return st;  // origin finished and scrubbed

  // Phase 2: finalize every word from the md pointer. CASes are penc-guarded
  // so duplicates (other helpers, the origin's scrub) are inert.
  int p2 = st;
  if (cfg_.bug_stale_status && helper && entry_state == kStUndecided &&
      st != entry_state) {
    // Planted bug: the helper finalizes with the status it saw at snapshot
    // time (Undecided, mapped to Failed) instead of the decided status.
    p2 = kStFailed;
  }
  if (cfg_.bug_torn_install) p2 = kStSucceeded;
  for (int i = 0; i < snap.n; ++i) {
    const std::int64_t fin =
        p2 == kStSucceeded ? snap.w[i].desired : snap.w[i].expected;
    araw_cas(snap.w[i].rank, snap.w[i].off, penc, static_cast<double>(fin));
  }
  if (!helper && st == kStFailed) ++stats_.rollbacks;
  return st;
}

// Origin-only: loop every word until it is provably free of this op's
// footprint (the md pointer or a child wd pointing at it). After the scrub,
// retiring the slot is safe: any helper still holding our pointer will fail
// its gen-guarded snapshot/status checks, and any wd it installed AFTER our
// scrub pass restores the cell's own value on resolution.
void Mwcas::scrub_footprint(const Ptr& p, const MdSnap& snap) {
  const double penc = enc_ptr(p);
  const int st = read_status(p);
  for (int i = 0; i < snap.n; ++i) {
    const bool up = st == kStSucceeded || cfg_.bug_torn_install;
    const double fin = static_cast<double>(up ? snap.w[i].desired
                                              : snap.w[i].expected);
    for (int attempt = 0;; ++attempt) {
      const double v = aread1(snap.w[i].rank, snap.w[i].off);
      if (v == penc) {
        araw_cas(snap.w[i].rank, snap.w[i].off, penc, fin);
        continue;  // re-verify (CAS may have lost to a helper's identical one)
      }
      if (!is_ptr(v)) break;  // plain value: footprint gone
      const Ptr q = dec_ptr(v);
      if (!q.is_wd) break;  // a foreign md: our op is out of this cell
      const WdSnap s = snap_wd(q);
      if (!s.valid) {
        backoff(attempt);  // transient recycle; re-read
        continue;
      }
      if (s.parent != penc) break;  // foreign wd over someone else's op
      resolve_wd(q, s);  // our child: decided status => restores the value
    }
  }
}

// ---------------------------------------------------------------------------
// public operations

MwResult Mwcas::run_own(const MwTarget* t, int n, int abort_installs) {
  assert(n >= 1 && n <= kMaxWords);
  MwTarget st[kMaxWords];
  std::copy(t, t + n, st);
  // Canonical install order: every participant (origin, helpers, recovery)
  // walks the words identically, which bounds helping chains and makes the
  // protocol's outcome schedule-invariant. (Insertion sort: n <= 8.)
  const auto before = [](const MwTarget& a, const MwTarget& b) {
    return a.rank != b.rank ? a.rank < b.rank : a.off < b.off;
  };
  for (int i = 1; i < n; ++i) {
    const MwTarget x = st[i];
    int j = i - 1;
    for (; j >= 0 && before(x, st[j]); --j) st[j + 1] = st[j];
    st[j + 1] = x;
  }
  for (int i = 0; i < n; ++i) {
    assert(st[i].expected >= 0 && st[i].expected < kMaxVal);
    assert(st[i].desired >= 0 && st[i].desired < kMaxVal);
    assert(i == 0 || st[i - 1].rank != st[i].rank ||
           st[i - 1].off != st[i].off);
  }
  ++stats_.ops;
  const int slot = publish_md(st, n);
  Ptr p;
  p.gen = md_gen_[static_cast<std::size_t>(slot)];
  p.rank = me_;
  p.slot = slot;
  p.is_wd = false;
  MdSnap snap;
  snap.valid = true;
  snap.state = kStUndecided;
  snap.n = n;
  std::copy(st, st + n, snap.w);

  MwResult r;
  const int fin = run_phases(p, snap, /*helper=*/false, 0, abort_installs,
                             &r.mismatch_index, &r.observed);
  if (fin == kStInterrupted) {
    // The slot stays live: it is the persisted intent recover() replays.
    r.interrupted = true;
    ++stats_.interrupted;
    return r;
  }
  scrub_footprint(p, snap);
  retire_md(slot);
  r.ok = fin == kStSucceeded;
  if (r.ok) {
    // A concurrent helper can drive the op to success after we saw a local
    // mismatch lose the status race; the mismatch detail is then moot.
    r.mismatch_index = -1;
    r.observed = 0;
  }
  if (r.ok) {
    ++stats_.success;
  } else {
    ++stats_.fail;
  }
  obs::Recorder* rec = env_.runtime().config().recorder;
  if (obs::on(rec)) {
    rec->trace().instant(env_.world_rank(), obs::Ev::MwcasOp, env_.now(),
                         r.ok ? 1 : 0, static_cast<std::uint64_t>(n),
                         static_cast<std::uint64_t>(slot));
  }
  return r;
}

MwResult Mwcas::mwcas(const MwTarget* t, int n) {
  return run_own(t, n, /*abort_installs=*/-1);
}

MwResult Mwcas::mwcas_dying(const std::vector<MwTarget>& t,
                            int abort_after_installs) {
  return run_own(t.data(), static_cast<int>(t.size()), abort_after_installs);
}

bool Mwcas::cas1(int rank, std::size_t off, std::int64_t expected,
                 std::int64_t desired) {
  assert(expected >= 0 && expected < kMaxVal);
  assert(desired >= 0 && desired < kMaxVal);
  const auto eexp = static_cast<double>(expected);
  for (int attempt = 0;; ++attempt) {
    const double old = araw_cas(rank, off, eexp, static_cast<double>(desired));
    if (old == eexp) return true;
    if (!is_ptr(old)) return false;
    if (cfg_.bug_skip_help) return false;
    const Ptr q = dec_ptr(old);
    if (q.is_wd) {
      const WdSnap s = snap_wd(q);
      if (s.valid) resolve_wd(q, s);
    } else {
      help_md(q, 1);
    }
    ++stats_.retries;
    backoff(attempt);
  }
}

std::int64_t Mwcas::read(int rank, std::size_t off) {
  ++stats_.reads;
  for (int attempt = 0;; ++attempt) {
    const double v = aread1(rank, off);
    if (!is_ptr(v)) return static_cast<std::int64_t>(v);
    if (cfg_.bug_skip_help) {
      // Planted bug: the raw encoded pointer leaks to the application.
      return static_cast<std::int64_t>(v);
    }
    const Ptr q = dec_ptr(v);
    if (q.is_wd) {
      const WdSnap s = snap_wd(q);
      if (s.valid) resolve_wd(q, s);
    } else {
      help_md(q, 1);
    }
    ++stats_.retries;
    backoff(attempt);
  }
}

void Mwcas::write(int rank, std::size_t off, std::int64_t v) {
  assert(v >= 0 && v < kMaxVal);
  const auto d = static_cast<double>(v);
  awrite(rank, off, &d, 1);
}

int Mwcas::recover() {
  int done = 0;
  for (int s = 0; s < kMdSlots; ++s) {
    if (!md_live_[static_cast<std::size_t>(s)]) continue;
    Ptr p;
    p.gen = md_gen_[static_cast<std::size_t>(s)];
    p.rank = me_;
    p.slot = s;
    p.is_wd = false;
    // Re-read the descriptor from the window — the persisted intent log —
    // rather than trusting any in-memory state a dead process left behind.
    const MdSnap snap = snap_md(p);
    if (snap.valid) {
      int mi = -1;
      std::int64_t obs = 0;
      const int fin =
          run_phases(p, snap, /*helper=*/false, 0, -1, &mi, &obs);
      scrub_footprint(p, snap);
      if (fin == kStSucceeded) {
        ++stats_.success;
      } else if (fin == kStFailed) {
        ++stats_.fail;
      }
    }
    retire_md(s);
    ++stats_.recoveries;
    ++done;
  }
  return done;
}

void Mwcas::publish_metrics() {
  obs::Recorder* rec = env_.runtime().config().recorder;
  if (!obs::on(rec)) return;
  obs::Metrics& m = rec->metrics();
  // += (not =): several Mwcas instances can share one run. Every key is
  // touched even at zero so the obs-invariance exact-match set sees a
  // stable key set.
  m.counter("mwcas.ops") += stats_.ops;
  m.counter("mwcas.success") += stats_.success;
  m.counter("mwcas.fail") += stats_.fail;
  m.counter("mwcas.interrupted") += stats_.interrupted;
  m.counter("mwcas.reads") += stats_.reads;
  m.counter("mwcas.installs") += stats_.installs;
  m.counter("mwcas.helps") += stats_.helps;
  m.counter("mwcas.help_completes") += stats_.help_completes;
  m.counter("mwcas.rollbacks") += stats_.rollbacks;
  m.counter("mwcas.recoveries") += stats_.recoveries;
  m.counter("mwcas.retries") += stats_.retries;
  m.counter("mwcas.stale_abandons") += stats_.stale_abandons;
}

// ---------------------------------------------------------------------------
// MwHeap

MwHeap::MwHeap(mpi::Env& env, const mpi::Comm& comm, int words_per_rank,
               const MwConfig& cfg)
    : env_(env), comm_(comm), cfg_(cfg), words_(words_per_rank) {}

MwHeap::~MwHeap() { assert(!open_); }

void MwHeap::open() {
  assert(!open_);
  const std::size_t data = static_cast<std::size_t>(words_) * 8;
  mpi::Info info;
  info.set(core::kEpochsUsedKey, "lockall");
  win_ = env_.win_allocate(data + Mwcas::region_bytes(), 1, info, comm_,
                           &base_);
  std::memset(base_, 0, data + Mwcas::region_bytes());
  env_.win_lock_all(0, win_);
  env_.barrier(comm_);
  mw_ = std::make_unique<Mwcas>(env_, comm_, win_, data, cfg_);
  open_ = true;
}

void MwHeap::close() {
  assert(open_);
  mw_->publish_metrics();
  env_.barrier(comm_);
  env_.win_unlock_all(win_);
  env_.barrier(comm_);
  // Fingerprint the DATA words only: the descriptor region is scratch whose
  // final bytes depend on helping interleavings; the data words must not.
  const std::uint64_t h =
      sim::fnv1a(base_, static_cast<std::size_t>(words_) * 8);
  double fin[2] = {static_cast<double>(h & 0xffffffffULL),
                   static_cast<double>(h >> 32)};
  double fout[2] = {0, 0};
  env_.allreduce(fin, fout, 2, Dt::Double, AccOp::Sum, comm_);
  fingerprint_ = static_cast<std::uint64_t>(fout[0]) * 0x9e3779b97f4a7c15ULL ^
                 static_cast<std::uint64_t>(fout[1]);
  env_.win_free(win_);
  mw_.reset();
  open_ = false;
}

}  // namespace casper::mwcas
