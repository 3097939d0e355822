#include "check/linear.hpp"

#include <algorithm>
#include <cstdio>
#include <span>
#include <unordered_set>

#include "obs/record.hpp"

namespace casper::check {

namespace {

using kv::KvEvent;

/// Sequential register semantics: can `e` fire when the key holds `v`?
/// Returns {legal, value afterwards}.
std::pair<bool, std::int64_t> apply(const KvEvent& e, std::int64_t v) {
  switch (e.kind) {
    case KvEvent::Kind::Get:
      return {e.result == v, v};
    case KvEvent::Kind::Put:
      if (e.ok) return {true, e.arg1};
      // Overflow: only a bucket with no slot for the key rejects a PUT, so
      // the key must be absent; the store is untouched.
      return {v == 0, v};
    case KvEvent::Kind::CasUpd: {
      const bool should_ok = v != 0 && v == e.arg1;
      if (e.result != v || e.ok != should_ok) return {false, v};
      return {true, e.ok ? e.arg2 : v};
    }
  }
  return {false, v};
}

const char* kind_name(KvEvent::Kind k) {
  switch (k) {
    case KvEvent::Kind::Get: return "GET";
    case KvEvent::Kind::Put: return "PUT";
    case KvEvent::Kind::CasUpd: return "CAS";
  }
  return "?";
}

std::string format_event(const KvEvent& e) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "  %s key=%llu arg1=%lld arg2=%lld result=%lld ok=%d "
                "client=%d cseq=%llu [%llu, %llu]",
                kind_name(e.kind), static_cast<unsigned long long>(e.key),
                static_cast<long long>(e.arg1),
                static_cast<long long>(e.arg2),
                static_cast<long long>(e.result), e.ok ? 1 : 0, e.client,
                static_cast<unsigned long long>(e.cseq),
                static_cast<unsigned long long>(e.inv),
                static_cast<unsigned long long>(e.resp));
  return buf;
}

/// Exact-equality memo key for a search state: first undone index, the done
/// bitmap of the 64 ops starting there, and the register value. States with
/// a done op >= f+64 are simply not memoized (rare: needs >64-deep overlap).
struct MemoKey {
  std::uint64_t f;
  std::uint64_t mask;
  std::int64_t value;
  bool operator==(const MemoKey&) const = default;
};

struct MemoHash {
  std::size_t operator()(const MemoKey& k) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t w :
         {k.f, k.mask, static_cast<std::uint64_t>(k.value)}) {
      h = (h ^ w) * 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

enum class SearchResult { Ok, Violation, Budget };

constexpr std::uint64_t kStepBudget = 10'000'000;

/// Wing–Gong backtracking search for one key's history (sorted by inv).
/// Outside push_candidates(), each step costs O(1): the done set is exactly
/// the ops chosen along the frame stack, so its highest index rides in the
/// frames, and every frame's candidates share one stacked vector. (The
/// frontier advance walks only done ops the next candidate scan walks too.)
SearchResult search(std::span<const KvEvent> ev) {
  const std::size_t n = ev.size();
  if (n == 0) return SearchResult::Ok;

  // Interval-order fast path: try the invocation-order linearization.
  {
    std::int64_t v = 0;
    bool ok = true;
    for (const KvEvent& e : ev) {
      const auto [legal, nv] = apply(e, v);
      if (!legal) {
        ok = false;
        break;
      }
      v = nv;
    }
    if (ok) return SearchResult::Ok;
  }

  std::vector<char> done(n, 0);
  std::size_t ndone = 0;
  std::int64_t value = 0;
  std::size_t first_undone = 0;
  std::size_t max_done = 0;  ///< 1 + highest done index; 0 when none is done
  std::vector<int> cands;    ///< every frame's candidates, stacked

  // Append the minimal candidates at the current state: undone j (in inv
  // order from the first undone op) with inv_j <= min resp over undone i
  // scanned before j. Later undone ops have inv >= inv_j, hence
  // resp >= inv_j, so the forward scan with an evolving minimum is exact.
  const auto push_candidates = [&] {
    sim::Time m = ~sim::Time{0};
    for (std::size_t j = first_undone; j < n; ++j) {
      if (done[j]) continue;
      if (ev[j].inv > m) break;
      cands.push_back(static_cast<int>(j));
      m = std::min(m, ev[j].resp);
    }
  };

  const auto memo_key = [&]() -> std::pair<bool, MemoKey> {
    if (max_done > first_undone + 64) return {false, {}};
    std::uint64_t mask = 0;
    for (std::size_t b = 0; b < 64 && first_undone + b < n; ++b) {
      if (done[first_undone + b]) mask |= std::uint64_t{1} << b;
    }
    return {true, {first_undone, mask, value}};
  };

  struct Frame {
    std::size_t next = 0;  ///< next candidate, an index into `cands`
    std::size_t end = 0;   ///< end of this frame's candidates in `cands`
    int chosen = -1;       ///< op applied by the parent to enter this state
    std::int64_t prev_value = 0;
    std::size_t prev_max_done = 0;
  };

  std::unordered_set<MemoKey, MemoHash> dead;
  std::vector<Frame> stk;
  push_candidates();
  stk.push_back({0, cands.size(), -1, 0, 0});
  std::uint64_t steps = 0;

  while (!stk.empty()) {
    if (++steps > kStepBudget) return SearchResult::Budget;
    Frame& fr = stk.back();
    if (fr.next < fr.end) {
      const int j = cands[fr.next++];
      const auto [legal, nv] = apply(ev[static_cast<std::size_t>(j)], value);
      if (!legal) continue;
      done[static_cast<std::size_t>(j)] = 1;
      ++ndone;
      if (ndone == n) return SearchResult::Ok;
      Frame child;
      child.chosen = j;
      child.prev_value = value;
      child.prev_max_done = max_done;
      value = nv;
      max_done = std::max(max_done, static_cast<std::size_t>(j) + 1);
      const std::size_t prev_first = first_undone;
      while (first_undone < n && done[first_undone]) ++first_undone;
      const auto [has_key, key] = memo_key();
      if (has_key && dead.contains(key)) {
        done[static_cast<std::size_t>(j)] = 0;
        --ndone;
        value = child.prev_value;
        max_done = child.prev_max_done;
        first_undone = prev_first;
        continue;
      }
      child.next = cands.size();
      push_candidates();
      child.end = cands.size();
      stk.push_back(child);
    } else {
      // Every child failed: this (done-set, value) state is dead.
      const auto [has_key, key] = memo_key();
      if (has_key) dead.insert(key);
      const Frame top = fr;
      stk.pop_back();
      if (top.chosen >= 0) {
        const auto j = static_cast<std::size_t>(top.chosen);
        cands.resize(stk.back().end);
        done[j] = 0;
        --ndone;
        value = top.prev_value;
        max_done = top.prev_max_done;
        first_undone = std::min(first_undone, j);
      }
    }
  }
  return SearchResult::Violation;
}

}  // namespace

std::uint64_t LinearChecker::hash_event(const kv::KvEvent& e,
                                        std::uint64_t h) {
  const std::uint64_t w[10] = {
      e.key,
      static_cast<std::uint64_t>(e.kind),
      static_cast<std::uint64_t>(e.arg1),
      static_cast<std::uint64_t>(e.arg2),
      static_cast<std::uint64_t>(e.result),
      e.ok ? 1u : 0u,
      static_cast<std::uint64_t>(e.client),
      e.cseq,
      e.inv,
      e.resp,
  };
  return fnv1a(w, sizeof(w), h);
}

void LinearChecker::analyze() {
  std::size_t nkeys = 0;
  for (std::size_t lo = 0; lo < events_.size();) {
    std::size_t hi = lo;
    while (hi < events_.size() && events_[hi].key == events_[lo].key) ++hi;
    ++nkeys;
    const std::span<const kv::KvEvent> hist(events_.data() + lo, hi - lo);
    const SearchResult r = search(hist);
    if (r != SearchResult::Ok) {
      Violation v;
      v.key = hist.front().key;
      v.diag = r == SearchResult::Budget
                   ? "linearizability search budget exhausted (treated as a "
                     "violation)\n"
                   : "no legal linearization exists for this key's history\n";
      const std::size_t show = std::min<std::size_t>(hist.size(), 16);
      for (std::size_t i = 0; i < show; ++i) {
        v.diag += format_event(hist[i]);
        v.diag += '\n';
      }
      if (show < hist.size()) {
        v.diag += "  ... (" + std::to_string(hist.size() - show) +
                  " more events)\n";
      }
      violations_.push_back(std::move(v));
    }
    lo = hi;
  }
  if (obs::on(rec_)) {
    obs::Metrics& m = rec_->metrics();
    m.counter("linear.ops_checked") += events_.size();
    m.counter("linear.keys_checked") += nkeys;
    m.counter("linear.violations") += violations_.size();
  }
}

}  // namespace casper::check
