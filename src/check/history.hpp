// Shared plumbing of the history checkers (LinearChecker, MwChecker): a
// mutexed event log that is canonically sorted before any verdict or hash, a
// cached violation list, and the passive RmaObserver face.
//
// Determinism: events are sorted by Derived::canonical_less before checking
// and hashing, so the verdict and history_hash() depend only on the SET of
// recorded events, never on record() arrival order — the checkers are
// verdict-invariant across fiber schedules and shard counts. record() is
// mutexed and the observer hooks touch only atomics (commit / sync counts
// that tests use to prove a checker rode the run), so a checker is
// concurrent_safe and may attach to sharded runs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "mpi/observe.hpp"
#include "sim/hash.hpp"

namespace casper::obs {
class Recorder;
}

namespace casper::check {

using sim::fnv1a;
using sim::kFnvBasis;

/// CRTP base. `Derived` befriends it and supplies
///   static bool canonical_less(const Event&, const Event&);
///   static std::uint64_t hash_event(const Event&, std::uint64_t h);
///   void analyze();  // fills violations_ from the sorted events_
template <class Derived, class Event, class Violation>
class HistoryChecker : public mpi::RmaObserver {
 public:
  void record(const Event& e) {
    std::lock_guard<std::mutex> g(mu_);
    events_.push_back(e);
    sorted_ = false;
    checked_ = false;
  }

  // --- mpi::RmaObserver (passive ride-along bookkeeping) --------------------
  void on_win_register(mpi::WinImpl&) override {}
  void on_win_free(mpi::WinImpl&) override {}
  void on_op_commit(const mpi::AmOp&, sim::Time, int) override {
    commits_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_sync(mpi::WinImpl&, int, mpi::SyncKind, int, sim::Time) override {
    syncs_.fetch_add(1, std::memory_order_relaxed);
  }
  bool concurrent_safe() const override { return true; }

  // --- verdict --------------------------------------------------------------
  /// Run (or return the cached) analysis over everything recorded.
  const std::vector<Violation>& check() {
    std::lock_guard<std::mutex> g(mu_);
    if (checked_) return violations_;
    canonicalize();
    violations_.clear();
    static_cast<Derived*>(this)->analyze();
    checked_ = true;
    return violations_;
  }
  bool clean() { return check().empty(); }

  std::size_t ops_recorded() const {
    std::lock_guard<std::mutex> g(mu_);
    return events_.size();
  }
  std::uint64_t commits() const {
    return commits_.load(std::memory_order_relaxed);
  }
  std::uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }

  /// FNV-1a over the canonically sorted history — equal hashes mean the runs
  /// recorded the identical set of operations and outcomes.
  std::uint64_t history_hash() {
    std::lock_guard<std::mutex> g(mu_);
    canonicalize();
    std::uint64_t h = kFnvBasis;
    for (const Event& e : events_) h = Derived::hash_event(e, h);
    return h;
  }

  /// Optional: dump linear.* counters into `rec` at check() time.
  void set_recorder(obs::Recorder* rec) { rec_ = rec; }

  void reset() {
    std::lock_guard<std::mutex> g(mu_);
    events_.clear();
    violations_.clear();
    sorted_ = false;
    checked_ = false;
    commits_.store(0, std::memory_order_relaxed);
    syncs_.store(0, std::memory_order_relaxed);
  }

 protected:
  void canonicalize() {
    if (sorted_) return;
    std::sort(events_.begin(), events_.end(),
              [](const Event& a, const Event& b) {
                return Derived::canonical_less(a, b);
              });
    sorted_ = true;
  }

  mutable std::mutex mu_;
  std::vector<Event> events_;
  bool sorted_ = false;
  bool checked_ = false;
  std::vector<Violation> violations_;
  std::atomic<std::uint64_t> commits_{0};
  std::atomic<std::uint64_t> syncs_{0};
  obs::Recorder* rec_ = nullptr;
};

}  // namespace casper::check
