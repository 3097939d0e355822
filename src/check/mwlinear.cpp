#include "check/mwlinear.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "obs/record.hpp"

namespace casper::check {

namespace {

// Register-history encoding: word w -> key w+1, value v -> v+1 (the checker
// uses 0 for "absent"; MWCAS words start at a real 0).
std::uint64_t reg_key(std::uint64_t word) { return word + 1; }
std::int64_t enc_val(std::int64_t v) { return v + 1; }

/// The op's values and word arguments (both hashes end with these).
std::uint64_t hash_values(const MwEvent& e, std::uint64_t h) {
  h = fnv1a(&e.observed, sizeof(e.observed), h);
  h = fnv1a(&e.value, sizeof(e.value), h);
  for (int i = 0; i < e.width; ++i) {
    h = fnv1a(&e.word[i], sizeof(e.word[i]), h);
    h = fnv1a(&e.expected[i], sizeof(e.expected[i]), h);
    h = fnv1a(&e.desired[i], sizeof(e.desired[i]), h);
  }
  return h;
}

}  // namespace

std::uint64_t MwChecker::hash_event(const MwEvent& e, std::uint64_t h) {
  const std::uint64_t head[6] = {
      static_cast<std::uint64_t>(e.kind),
      static_cast<std::uint64_t>(e.client),
      e.cseq,
      static_cast<std::uint64_t>(e.inv),
      static_cast<std::uint64_t>(e.resp),
      (static_cast<std::uint64_t>(e.width) << 8) | (e.ok ? 1u : 0u) |
          (static_cast<std::uint64_t>(e.mismatch_index + 1) << 1),
  };
  return hash_values(e, fnv1a(head, sizeof(head), h));
}

std::uint64_t MwChecker::semantic_hash() {
  std::lock_guard<std::mutex> lk(mu_);
  // Sort by (client, cseq): each client's program order, independent of the
  // global virtual-time interleaving.
  std::vector<const MwEvent*> ordered;
  ordered.reserve(events_.size());
  for (const MwEvent& e : events_) ordered.push_back(&e);
  std::sort(ordered.begin(), ordered.end(),
            [](const MwEvent* a, const MwEvent* b) {
              if (a->client != b->client) return a->client < b->client;
              return a->cseq < b->cseq;
            });
  std::uint64_t h = kFnvBasis;
  for (const MwEvent* e : ordered) {
    const std::uint64_t head[4] = {
        static_cast<std::uint64_t>(e->kind),
        static_cast<std::uint64_t>(e->client),
        e->cseq,
        (static_cast<std::uint64_t>(e->width) << 8) |
            (e->ok ? 1u : 0u) |
            (static_cast<std::uint64_t>(e->mismatch_index + 1) << 1),
    };
    h = hash_values(*e, fnv1a(head, sizeof(head), h));
  }
  return h;
}

// Project the MWCAS history onto per-word registers and let the Wing–Gong
// checker decide it. A fresh LinearChecker per call: it owns the projected
// events and the memoized search state.
void MwChecker::check_registers() {
  LinearChecker reg;
  // Seed every word ever touched with its initial 0 at virtual time 0, so
  // time-0 reads of 0 and expected-0 CASes linearize.
  std::vector<std::uint64_t> words;
  for (const MwEvent& e : events_) {
    const int nw = e.kind == MwEvent::Kind::Read ? 1 : e.width;
    for (int i = 0; i < nw; ++i) words.push_back(e.word[i]);
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  std::uint64_t seed_seq = 0;
  for (const std::uint64_t w : words) {
    kv::KvEvent s;
    s.key = reg_key(w);
    s.kind = kv::KvEvent::Kind::Put;
    s.arg1 = enc_val(0);
    s.ok = true;
    s.client = -1;
    s.cseq = seed_seq++;
    s.inv = 0;
    s.resp = 0;
    reg.record(s);
  }
  for (const MwEvent& e : events_) {
    if (e.kind == MwEvent::Kind::Enq || e.kind == MwEvent::Kind::Deq) continue;
    if (e.kind == MwEvent::Kind::Read) {
      kv::KvEvent g;
      g.key = reg_key(e.word[0]);
      g.kind = kv::KvEvent::Kind::Get;
      g.result = enc_val(e.value);
      g.client = e.client;
      g.cseq = e.cseq << 4;
      g.inv = e.inv;
      g.resp = e.resp;
      reg.record(g);
      continue;
    }
    if (e.ok) {
      // One successful per-word CAS-update per target, sharing the op's
      // interval: the multi-word atomicity claim, word by word.
      for (int i = 0; i < e.width; ++i) {
        kv::KvEvent c;
        c.key = reg_key(e.word[i]);
        c.kind = kv::KvEvent::Kind::CasUpd;
        c.arg1 = enc_val(e.expected[i]);
        c.arg2 = enc_val(e.desired[i]);
        c.result = enc_val(e.expected[i]);
        c.ok = true;
        c.client = e.client;
        c.cseq = (e.cseq << 4) | static_cast<std::uint64_t>(i);
        c.inv = e.inv;
        c.resp = e.resp;
        reg.record(c);
      }
    } else if (e.mismatch_index >= 0) {
      // The origin saw this word break the op: a failed CAS-update that
      // returned the observed value. A leaked descriptor pointer (skip-help
      // bug) lands here as a value nothing ever wrote.
      const int mi = e.mismatch_index;
      kv::KvEvent c;
      c.key = reg_key(e.word[mi]);
      c.kind = kv::KvEvent::Kind::CasUpd;
      c.arg1 = enc_val(e.expected[mi]);
      c.arg2 = enc_val(e.desired[mi]);
      c.result = enc_val(e.observed);
      c.ok = false;
      c.client = e.client;
      c.cseq = (e.cseq << 4) | static_cast<std::uint64_t>(mi);
      c.inv = e.inv;
      c.resp = e.resp;
      reg.record(c);
    }
    // Failed with no local mismatch (a helper decided the failure): no
    // register event — sound omission.
  }
  for (const LinearChecker::Violation& v : reg.check()) {
    Violation mv;
    mv.word = v.key - 1;
    mv.diag = "mwcas register word " + std::to_string(v.key - 1) + ": " +
              v.diag;
    violations_.push_back(mv);
  }
}

// FIFO checks over unique values (the MsQueue clients tag every enqueue
// with a globally unique value).
void MwChecker::check_queue() {
  struct Interval {
    sim::Time inv = 0;
    sim::Time resp = 0;
    bool present = false;
  };
  std::unordered_map<std::int64_t, Interval> enq, deq;
  std::uint64_t empties = 0;
  for (const MwEvent& e : events_) {
    if (e.kind == MwEvent::Kind::Enq) {
      auto& it = enq[e.value];
      if (it.present) {
        violations_.push_back(
            {0, "queue: value " + std::to_string(e.value) +
                    " enqueued twice"});
      }
      it = {e.inv, e.resp, true};
    } else if (e.kind == MwEvent::Kind::Deq) {
      if (!e.ok) {
        ++empties;
        continue;
      }
      auto& it = deq[e.value];
      if (it.present) {
        violations_.push_back(
            {0, "queue: value " + std::to_string(e.value) +
                    " dequeued twice"});
      }
      it = {e.inv, e.resp, true};
      if (enq.find(e.value) == enq.end()) {
        violations_.push_back(
            {0, "queue: dequeued value " + std::to_string(e.value) +
                    " was never enqueued"});
      }
    }
  }
  // Real-time FIFO over non-overlapping enqueue pairs: enq(a) strictly
  // before enq(b) puts a ahead of b, so (i) deq(b) cannot strictly precede
  // deq(a), and (ii) b dequeued while a never is means a was lost.
  std::vector<std::pair<std::int64_t, Interval>> es(enq.begin(), enq.end());
  std::sort(es.begin(), es.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [va, ia] : es) {
    const auto da = deq.find(va);
    for (const auto& [vb, ib] : es) {
      if (va == vb || !(ia.resp < ib.inv)) continue;
      const auto db = deq.find(vb);
      if (db == deq.end()) continue;
      if (da == deq.end()) {
        violations_.push_back(
            {0, "queue: value " + std::to_string(vb) + " dequeued but " +
                    std::to_string(va) + " (enqueued strictly earlier) " +
                    "never was — lost update"});
        break;
      }
      if (db->second.resp < da->second.inv) {
        violations_.push_back(
            {0, "queue: FIFO inversion — " + std::to_string(vb) +
                    " enqueued strictly after " + std::to_string(va) +
                    " but dequeued strictly before it"});
      }
    }
  }
  (void)empties;
}

void MwChecker::analyze() {
  check_registers();
  check_queue();
  // Deterministic ordering of the verdict itself.
  std::sort(violations_.begin(), violations_.end(),
            [](const Violation& a, const Violation& b) {
              if (a.word != b.word) return a.word < b.word;
              return a.diag < b.diag;
            });
  if (obs::on(rec_)) {
    obs::Metrics& m = rec_->metrics();
    m.counter("linear.mw_ops_checked") += events_.size();
    m.counter("linear.mw_violations") += violations_.size();
  }
}

}  // namespace casper::check
