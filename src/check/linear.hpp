// Per-key linearizability checker for the RMA-backed KV store.
//
// The checker is a history log writer in the style of pmwcas's
// LinearCheckerLogWriter: it rides a run as a kv::HistorySink, recording one
// (invocation, response) virtual-time interval per completed GET / PUT /
// CAS-update, then — after the run — searches every per-key history for a
// legal linearization under sequential register semantics:
//
//   GET      returns the current value (0 = key absent);
//   PUT ok   sets the value; PUT !ok (bucket overflow) is legal only while
//            the key is absent and leaves the store untouched;
//   CASUPD   returns the old value, succeeds iff the key is present and the
//            old value equals `expected`, and on success installs `desired`.
//
// Search: Wing–Gong style backtracking over the partial order induced by the
// intervals (op A precedes op B iff resp_A < inv_B; overlapping ops commute).
// Two standard accelerations keep it fast on real histories:
//   * interval-order fast path — first try the single linearization that
//     orders ops by invocation time; contention-free histories (the vast
//     majority of keys) accept it immediately;
//   * minimal-candidate rule + memoization — only minimal undone ops are
//     candidates, and (done-set, register value) states that already failed
//     are pruned via an exact-equality memo (no lossy hashing: a hash
//     collision here would fabricate a violation verdict).
// Outside the candidate scan, each search step costs O(1). The done set is
// exactly the ops chosen along the frame stack, so each frame carries the
// highest done index and memo eligibility (no done op past the memo's 64-op
// window) is one comparison against it.
//
// Determinism and observer bookkeeping come from the shared HistoryChecker
// base (check/history.hpp): the history is canonically sorted by (key, inv,
// resp, client, cseq) before checking, and the determinism tests exact-match
// history_hash() across schedules and shard counts.
#pragma once

#include <cstdint>
#include <string>

#include "check/history.hpp"
#include "kv/kv.hpp"

namespace casper::check {

struct LinearViolation {
  std::uint64_t key = 0;
  std::string diag;  ///< deterministic: canonical events + failure reason
};

class LinearChecker final
    : public HistoryChecker<LinearChecker, kv::KvEvent, LinearViolation>,
      public kv::HistorySink {
 public:
  using Violation = LinearViolation;

  // --- kv::HistorySink ------------------------------------------------------
  void record(const kv::KvEvent& e) override { HistoryChecker::record(e); }

 private:
  friend HistoryChecker;
  static bool canonical_less(const kv::KvEvent& a, const kv::KvEvent& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.inv != b.inv) return a.inv < b.inv;
    if (a.resp != b.resp) return a.resp < b.resp;
    if (a.client != b.client) return a.client < b.client;
    return a.cseq < b.cseq;
  }
  static std::uint64_t hash_event(const kv::KvEvent& e, std::uint64_t h);
  void analyze();
};

}  // namespace casper::check
