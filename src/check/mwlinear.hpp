// MWCAS-aware linearizability adapter feeding the Wing–Gong checker.
//
// The MWCAS layer's correctness claim is multi-word: an op either installs
// EVERY desired value or none, at one linearization point. The adapter
// reduces that claim to per-word register histories the existing
// LinearChecker (src/check/linear.*) already decides:
//
//   * every word id w becomes register key w+1, with values encoded v -> v+1
//     so the initial word content 0 is distinct from the checker's
//     "key absent" state; a synthetic seed PUT at virtual time 0 installs
//     the initial 0 in every word ever touched;
//   * a Read event becomes a GET;
//   * a successful MWCAS becomes one successful CAS-update PER WORD, all
//     sharing the op's (inv, resp) interval — a torn install (some word kept
//     its expected value, or a rolled-back op leaked a desired value) makes
//     some later read or expected-gathering GET unlinearizable;
//   * a failed MWCAS with a known mismatch word becomes a single failed
//     CAS-update on that word (returning the observed value); a failure
//     decided remotely (helper saw the mismatch, origin never did) emits no
//     register event — omission is sound, it can only under-constrain.
//
// A planted skip-help bug leaks encoded descriptor pointers (>= 2^52) into
// observed values; those enter the register history as reads of values no
// op ever wrote, which the checker rejects.
//
// MsQueue histories get a dedicated FIFO check (values are unique by
// construction): every dequeued value was enqueued exactly once, and the
// real-time order of non-overlapping enqueues is respected by their
// dequeues (a strictly-later enqueue can neither be dequeued strictly
// earlier, nor be dequeued at all while the strictly-earlier one is lost).
//
// Like LinearChecker, the checker derives from HistoryChecker
// (check/history.hpp): the verdict and history_hash() depend only on the SET
// of recorded events, so they are exact-match invariants across fiber
// schedules and shard counts, and the checker is concurrent_safe.
#pragma once

#include <cstdint>
#include <string>

#include "check/history.hpp"
#include "check/linear.hpp"

namespace casper::check {

/// One completed MWCAS-layer operation, recorded at response time.
struct MwEvent {
  enum class Kind : std::uint8_t { Read = 0, Mwcas = 1, Enq = 2, Deq = 3 };
  Kind kind = Kind::Read;
  int client = -1;
  std::uint64_t cseq = 0;
  sim::Time inv = 0;
  sim::Time resp = 0;
  // Read: word[0]/observed. Mwcas: width words with expected/desired,
  // ok/mismatch_index/observed from the MwResult.
  int width = 0;
  std::uint64_t word[8] = {};
  std::int64_t expected[8] = {};
  std::int64_t desired[8] = {};
  bool ok = true;
  int mismatch_index = -1;
  std::int64_t observed = 0;
  std::int64_t value = 0;  ///< Read result | Enq/Deq value (Deq !ok = empty)
};

struct MwViolation {
  std::uint64_t word = 0;  ///< register word (0 for queue violations)
  std::string diag;
};

class MwChecker final
    : public HistoryChecker<MwChecker, MwEvent, MwViolation> {
 public:
  using Violation = MwViolation;

  /// Like history_hash() but excluding the virtual-time intervals: per-client
  /// op streams with their arguments and results only. Thread-mode progress
  /// polling quantizes AM service times, so an arrival landing exactly on a
  /// poll instant makes timestamps legitimately tie-break-dependent there;
  /// the semantic outcome never is.
  std::uint64_t semantic_hash();

 private:
  friend HistoryChecker;
  static bool canonical_less(const MwEvent& a, const MwEvent& b) {
    if (a.inv != b.inv) return a.inv < b.inv;
    if (a.resp != b.resp) return a.resp < b.resp;
    if (a.client != b.client) return a.client < b.client;
    return a.cseq < b.cseq;
  }
  static std::uint64_t hash_event(const MwEvent& e, std::uint64_t h);
  void analyze();
  void check_registers();
  void check_queue();
};

}  // namespace casper::check
