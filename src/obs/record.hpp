// Recorder: the handle instrumentation sites see. Bundles the tracer and the
// metrics registry and plugs into the engine as a schedule observer.
//
// Gating contract (the "branch on a constant" requirement):
//   - Compile-time: building with -DCASPER_TRACE=0 turns kTraceCompiled into
//     `false`, so `if (obs::on(rec))` folds to `if (false)` and the compiler
//     deletes the instrumentation block outright.
//   - Runtime: in the default CASPER_TRACE=1 build, `on(rec)` is a single
//     null check — no recorder attached (the normal case) costs one
//     predictable branch per site.
// Every instrumentation point in the runtime must be wrapped in
// `if (obs::on(...)) { ... }`; nothing else may touch the recorder.
//
// Sharded runs: each worker thread records into its own Tracer/Metrics
// replica — trace()/metrics() route by sim::Engine::current_shard(), so the
// hot path stays plain stores with no atomics or locks. The main thread and
// single-shard engines read replica 0 (current_shard() is 0 there), which
// keeps every pre-sharding call site working unchanged. A sharded driver
// calls set_shards() before run() and merge_shards() after; the merge is
// keyed purely by virtual time and shard id, so the folded trace and
// counters are deterministic and shard-count-invariant workloads produce
// byte-identical dumps.
#pragma once

#include <cstddef>
#include <deque>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

#ifndef CASPER_TRACE
#define CASPER_TRACE 1
#endif

namespace casper::obs {

inline constexpr bool kTraceCompiled = CASPER_TRACE != 0;

class Recorder final : public sim::SchedObserver {
 public:
  Recorder() : Recorder(std::size_t{1} << 15) {}
  explicit Recorder(std::size_t ring_capacity) : cap_(ring_capacity) {
    shards_.emplace_back(cap_);
  }

  /// The calling shard's replica. Out-of-range ids (a recorder smaller than
  /// the engine's shard count) clamp to the primary, which is safe but
  /// serializes through replica 0 — drivers should call set_shards() first.
  Tracer& trace() { return shards_[shard_index()].trace; }
  const Tracer& trace() const { return shards_[shard_index()].trace; }
  Metrics& metrics() { return shards_[shard_index()].metrics; }
  const Metrics& metrics() const { return shards_[shard_index()].metrics; }

  /// Grow to one replica per shard before a sharded run. Entity names and
  /// anything already recorded stay on replica 0 (the primary). Never
  /// shrinks; must not be called while worker threads are recording.
  void set_shards(int n) {
    while (shards_.size() < static_cast<std::size_t>(n < 1 ? 1 : n))
      shards_.emplace_back(cap_);
  }

  /// Fold every per-shard replica into the primary and drop the extras:
  /// counters and histograms sum; trace records interleave by (virtual time,
  /// shard, per-shard order) with fresh dense seq numbers. Call after run(),
  /// from one thread. No-op for single-shard recorders.
  void merge_shards() {
    if (shards_.size() <= 1) return;
    std::vector<const Tracer*> parts;
    parts.reserve(shards_.size());
    for (const ShardObs& s : shards_) parts.push_back(&s.trace);
    Tracer folded = Tracer::merged(parts, cap_);
    shards_[0].trace = std::move(folded);
    for (std::size_t s = 1; s < shards_.size(); ++s)
      shards_[0].metrics.merge_from(shards_[s].metrics);
    shards_.erase(shards_.begin() + 1, shards_.end());
  }

  /// Replica count (1 until set_shards, back to 1 after merge_shards).
  std::size_t shard_replicas() const { return shards_.size(); }

  /// Engine callback: one instant per fiber resumption (event callbacks,
  /// rank == -1, are engine internals and not traced as switches).
  void on_schedule(sim::Time t, int rank) override {
    if (rank >= 0) trace().instant(rank, Ev::FiberSwitch, t);
  }

 private:
  struct ShardObs {
    explicit ShardObs(std::size_t cap) : trace(cap) {}
    Tracer trace;
    Metrics metrics;
  };

  std::size_t shard_index() const {
    const int s = sim::Engine::current_shard();
    if (s <= 0) return 0;
    const std::size_t i = static_cast<std::size_t>(s);
    return i < shards_.size() ? i : 0;
  }

  std::size_t cap_;
  std::deque<ShardObs> shards_;  ///< deque: growth never moves live replicas
};

/// The single gate for every instrumentation site.
inline bool on(const Recorder* rec) { return kTraceCompiled && rec != nullptr; }

/// Interned handles for a family of metric keys built at run time
/// ("ghost.<g>.ops", "sync.<kind>"), indexed by a small integer such as a
/// rank or an enum value. Each engine shard resolves a handle on its first
/// use into its own recorder replica, so a key enters the dump exactly when
/// an uncached site would create it, and later uses cost one index instead
/// of a string build and a map lookup. Size with set_shards() before worker
/// threads run; each shard then touches only its own table. Handles are
/// valid for one run: merge_shards() drops the replicas they point into.
/// T is std::uint64_t (a counter) or Histogram.
template <class T>
class Interned {
 public:
  void set_shards(int n) {
    tables_.resize(static_cast<std::size_t>(n < 1 ? 1 : n));
  }

  /// The calling shard's metric for `key`; `name()` builds its key string
  /// on first use.
  template <class Name>
  T& get(Recorder& rec, std::size_t key, Name&& name) {
    const int s = sim::Engine::current_shard();
    std::vector<T*>& tab = tables_[s <= 0 ? 0 : static_cast<std::size_t>(s)];
    if (key >= tab.size()) tab.resize(key + 1, nullptr);
    T*& h = tab[key];
    if (h == nullptr) {
      if constexpr (std::is_same_v<T, Histogram>) {
        h = &rec.metrics().histogram(name());
      } else {
        h = &rec.metrics().counter(name());
      }
    }
    return *h;
  }

 private:
  std::vector<std::vector<T*>> tables_ = std::vector<std::vector<T*>>(1);
};

}  // namespace casper::obs
