// Host-time ledger for one simulated run, measured from outside the program.
//
// Two hooks split the host time of a run by module without touching src/:
//   * HostLedger is the engine's sim::SchedObserver. At every scheduling
//     decision it stamps steady_clock and charges the interval since the
//     previous stamp to whoever held the token: an event callback ("sim"), a
//     Casper ghost fiber ("core" service loop), or a rank in its current
//     call class.
//   * TracingLayer is a forwarding mpi::Layer decorator around the run's real
//     layer (Casper or the default Pmpi). Every call stamps on entry and exit
//     and tags the rank with the call class (rma, sync, coll, win, p2p), so
//     one rank slice splits into application time and time inside the layer.
// A rank that blocks inside a call keeps its tag, so the scheduler work done
// on its behalf before the next decision is charged to that call; this is
// how "host time per resume inside win_flush_all" is measured.
//
// Everything is per shard: a sharded engine runs one worker thread per shard
// and calls on_schedule concurrently, so each thread touches only the Shard
// block picked by sim::Engine::current_shard(). Per-rank tags are written
// only by the shard that owns the rank.
#pragma once

#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "kv/kv.hpp"
#include "mpi/layer.hpp"
#include "mpi/env.hpp"
#include "sim/engine.hpp"

namespace perfbench {

/// What a host interval is spent on. Ghost and Event are decided by the
/// party holding the token; the rest are the rank's current call class.
enum Cat : std::uint8_t {
  kApp,    ///< workload code outside any layer call
  kInit,   ///< layer start-up/finalize around the workload's main
  kRma,    ///< put/get/accumulate/atomics
  kSync,   ///< epoch and flush calls
  kColl,   ///< collectives and communicator management
  kWin,    ///< window allocation and free
  kP2p,    ///< point-to-point
  kCheck,  ///< history-sink calls (linearizability log)
  kGhost,  ///< a Casper ghost fiber (its service loop)
  kEvent,  ///< an engine event callback
  kCats
};

/// Run phases: set-up (until rank 0 passes the set-up barrier), measured,
/// and the tail (verification and teardown inside the simulation).
enum Phase : int { kSetup = 0, kMeasured = 1, kTail = 2, kPhases = 3 };

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Writes the exiting thread's CPU time to *dst. The engine joins its shard
/// workers inside run(), so the write lands before the ledger is read.
struct CpuAtExit {
  std::uint64_t* dst = nullptr;
  ~CpuAtExit() {
    if (dst != nullptr) *dst = thread_cpu_ns();
  }
};
inline thread_local CpuAtExit tls_cpu_at_exit;

class HostLedger final : public casper::sim::SchedObserver {
 public:
  struct alignas(64) Shard {
    std::uint64_t last = 0;  ///< wall stamp of the previous mark
    int cur = -2;            ///< party holding the token (-1 event, -2 none)
    int phase = kSetup;
    std::uint64_t cpu_start = 0, cpu_end = 0;  ///< thread CPU, busy time
    std::array<std::array<std::uint64_t, kCats>, kPhases> ns{};
    std::array<std::array<std::uint64_t, kCats>, kPhases> calls{};
    /// Resumes of a rank, by the category it resumed into.
    std::array<std::array<std::uint64_t, kCats>, kPhases> resumes{};
    std::array<std::uint64_t, kPhases> events{};
  };

  /// `ghost[r]` marks ranks charged to the Casper service loop.
  HostLedger(int shards, std::vector<bool> ghost)
      : shards_(static_cast<std::size_t>(shards)),
        ghost_(std::move(ghost)),
        tag_(ghost_.size(), kInit) {}

  void on_schedule(casper::sim::Time, int rank) override {
    Shard& sh = mine();
    if (sh.cur == -2) {
      sh.cpu_start = thread_cpu_ns();
      tls_cpu_at_exit.dst = &sh.cpu_end;
    }
    mark(sh);
    sh.phase = phase_.load(std::memory_order_relaxed);
    sh.cur = rank;
    const auto p = static_cast<std::size_t>(sh.phase);
    if (rank < 0) {
      ++sh.events[p];
    } else {
      ++sh.resumes[p][cat_of(rank)];
    }
  }

  /// Called by rank code: charge the slice so far, then switch phase.
  void set_phase(Phase p) {
    mark(mine());
    mine().phase = p;
    phase_.store(p, std::memory_order_relaxed);
  }

  /// Enter a call of class `c` on `rank`'s fiber; returns the tag to restore.
  Cat enter(int rank, Cat c) {
    Shard& sh = mine();
    mark(sh);
    ++sh.calls[static_cast<std::size_t>(sh.phase)][c];
    const Cat prev = tag_[static_cast<std::size_t>(rank)];
    tag_[static_cast<std::size_t>(rank)] = c;
    return prev;
  }
  void leave(int rank, Cat prev) {
    mark(mine());
    tag_[static_cast<std::size_t>(rank)] = prev;
  }

  /// After Engine::run() returns, on the thread that called it (shard 0).
  void finish() {
    Shard& sh = shards_[0];
    mark(sh);
    sh.cpu_end = thread_cpu_ns();
    tls_cpu_at_exit.dst = nullptr;
  }

  const std::vector<Shard>& shards() const { return shards_; }

 private:
  Shard& mine() {
    return shards_[static_cast<std::size_t>(
        casper::sim::Engine::current_shard())];
  }
  std::size_t cat_of(int party) const {
    if (party < 0) return kEvent;
    const auto r = static_cast<std::size_t>(party);
    return ghost_[r] ? kGhost : tag_[r];
  }
  void mark(Shard& sh) {
    const std::uint64_t now = wall_ns();
    if (sh.cur != -2) {
      sh.ns[static_cast<std::size_t>(sh.phase)][cat_of(sh.cur)] +=
          now - sh.last;
    }
    sh.last = now;
  }

  std::vector<Shard> shards_;
  std::vector<bool> ghost_;
  std::vector<Cat> tag_;
  std::atomic<int> phase_{kSetup};
};

/// RAII tag for one call into the layer.
class CallScope {
 public:
  CallScope(HostLedger& l, const casper::mpi::Env& env, Cat c)
      : l_(l), rank_(env.world_rank()), prev_(l.enter(rank_, c)) {}
  ~CallScope() { l_.leave(rank_, prev_); }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  HostLedger& l_;
  int rank_;
  Cat prev_;
};

/// Forwards every call to the wrapped layer inside a CallScope.
class TracingLayer final : public casper::mpi::Layer {
 public:
  using Env = casper::mpi::Env;
  using Comm = casper::mpi::Comm;
  using Dt = casper::mpi::Dt;
  using Datatype = casper::mpi::Datatype;
  using Win = casper::mpi::Win;
  using Request = casper::mpi::Request;
  using Status = casper::mpi::Status;
  using AccOp = casper::mpi::AccOp;
  using Info = casper::mpi::Info;
  using Group = casper::mpi::Group;
  using LockType = casper::mpi::LockType;

  TracingLayer(std::shared_ptr<casper::mpi::Layer> inner, HostLedger& l)
      : in_(std::move(inner)), l_(l) {}

  void on_rank_start(Env& env,
                     const std::function<void(Env&)>& user_main) override {
    CallScope s(l_, env, kInit);
    in_->on_rank_start(env, [&](Env& e) {
      CallScope app(l_, e, kApp);
      user_main(e);
    });
  }
  Comm comm_world(Env& env) override { return in_->comm_world(env); }

  Comm comm_split(Env& env, const Comm& c, int color, int key) override {
    CallScope s(l_, env, kColl);
    return in_->comm_split(env, c, color, key);
  }
  Comm comm_dup(Env& env, const Comm& c) override {
    CallScope s(l_, env, kColl);
    return in_->comm_dup(env, c);
  }

  void send(Env& env, const void* buf, int count, Dt dt, int dest, int tag,
            const Comm& c) override {
    CallScope s(l_, env, kP2p);
    in_->send(env, buf, count, dt, dest, tag, c);
  }
  Status recv(Env& env, void* buf, int count, Dt dt, int src, int tag,
              const Comm& c) override {
    CallScope s(l_, env, kP2p);
    return in_->recv(env, buf, count, dt, src, tag, c);
  }
  Request isend(Env& env, const void* buf, int count, Dt dt, int dest,
                int tag, const Comm& c) override {
    CallScope s(l_, env, kP2p);
    return in_->isend(env, buf, count, dt, dest, tag, c);
  }
  Request irecv(Env& env, void* buf, int count, Dt dt, int src, int tag,
                const Comm& c) override {
    CallScope s(l_, env, kP2p);
    return in_->irecv(env, buf, count, dt, src, tag, c);
  }
  Status wait(Env& env, const Request& req) override {
    CallScope s(l_, env, kP2p);
    return in_->wait(env, req);
  }
  bool test(Env& env, const Request& req) override {
    CallScope s(l_, env, kP2p);
    return in_->test(env, req);
  }
  void waitall(Env& env, Request* reqs, int n) override {
    CallScope s(l_, env, kP2p);
    in_->waitall(env, reqs, n);
  }

  void barrier(Env& env, const Comm& c) override {
    CallScope s(l_, env, kColl);
    in_->barrier(env, c);
  }
  void bcast(Env& env, void* buf, int count, Dt dt, int root,
             const Comm& c) override {
    CallScope s(l_, env, kColl);
    in_->bcast(env, buf, count, dt, root, c);
  }
  void reduce(Env& env, const void* snd, void* rcv, int count, Dt dt,
              AccOp op, int root, const Comm& c) override {
    CallScope s(l_, env, kColl);
    in_->reduce(env, snd, rcv, count, dt, op, root, c);
  }
  void allreduce(Env& env, const void* snd, void* rcv, int count, Dt dt,
                 AccOp op, const Comm& c) override {
    CallScope s(l_, env, kColl);
    in_->allreduce(env, snd, rcv, count, dt, op, c);
  }
  void allgather(Env& env, const void* snd, int count, Dt dt, void* rcv,
                 const Comm& c) override {
    CallScope s(l_, env, kColl);
    in_->allgather(env, snd, count, dt, rcv, c);
  }
  void alltoall(Env& env, const void* snd, int count, Dt dt, void* rcv,
                const Comm& c) override {
    CallScope s(l_, env, kColl);
    in_->alltoall(env, snd, count, dt, rcv, c);
  }
  void gather(Env& env, const void* snd, int count, Dt dt, void* rcv,
              int root, const Comm& c) override {
    CallScope s(l_, env, kColl);
    in_->gather(env, snd, count, dt, rcv, root, c);
  }
  void scatter(Env& env, const void* snd, int count, Dt dt, void* rcv,
               int root, const Comm& c) override {
    CallScope s(l_, env, kColl);
    in_->scatter(env, snd, count, dt, rcv, root, c);
  }

  Win win_allocate(Env& env, std::size_t bytes, std::size_t disp_unit,
                   const Info& info, const Comm& c, void** base) override {
    CallScope s(l_, env, kWin);
    return in_->win_allocate(env, bytes, disp_unit, info, c, base);
  }
  Win win_allocate_shared(Env& env, std::size_t bytes, std::size_t disp_unit,
                          const Info& info, const Comm& c,
                          void** base) override {
    CallScope s(l_, env, kWin);
    return in_->win_allocate_shared(env, bytes, disp_unit, info, c, base);
  }
  Win win_create(Env& env, void* base, std::size_t bytes,
                 std::size_t disp_unit, const Info& info,
                 const Comm& c) override {
    CallScope s(l_, env, kWin);
    return in_->win_create(env, base, bytes, disp_unit, info, c);
  }
  void win_free(Env& env, Win& win) override {
    CallScope s(l_, env, kWin);
    in_->win_free(env, win);
  }

  void put(Env& env, const void* o, int oc, Datatype odt, int t,
           std::size_t td, int tc, Datatype tdt, const Win& w) override {
    CallScope s(l_, env, kRma);
    in_->put(env, o, oc, odt, t, td, tc, tdt, w);
  }
  void get(Env& env, void* o, int oc, Datatype odt, int t, std::size_t td,
           int tc, Datatype tdt, const Win& w) override {
    CallScope s(l_, env, kRma);
    in_->get(env, o, oc, odt, t, td, tc, tdt, w);
  }
  void accumulate(Env& env, const void* o, int oc, Datatype odt, int t,
                  std::size_t td, int tc, Datatype tdt, AccOp op,
                  const Win& w) override {
    CallScope s(l_, env, kRma);
    in_->accumulate(env, o, oc, odt, t, td, tc, tdt, op, w);
  }
  void get_accumulate(Env& env, const void* o, int oc, Datatype odt,
                      void* r, int rc, Datatype rdt, int t, std::size_t td,
                      int tc, Datatype tdt, AccOp op,
                      const Win& w) override {
    CallScope s(l_, env, kRma);
    in_->get_accumulate(env, o, oc, odt, r, rc, rdt, t, td, tc, tdt, op, w);
  }
  void fetch_and_op(Env& env, const void* v, void* r, Dt dt, int t,
                    std::size_t td, AccOp op, const Win& w) override {
    CallScope s(l_, env, kRma);
    in_->fetch_and_op(env, v, r, dt, t, td, op, w);
  }
  void compare_and_swap(Env& env, const void* e, const void* d, void* r,
                        Dt dt, int t, std::size_t td, const Win& w) override {
    CallScope s(l_, env, kRma);
    in_->compare_and_swap(env, e, d, r, dt, t, td, w);
  }

  void win_fence(Env& env, unsigned a, const Win& w) override {
    CallScope s(l_, env, kSync);
    in_->win_fence(env, a, w);
  }
  void win_post(Env& env, const Group& g, unsigned a, const Win& w) override {
    CallScope s(l_, env, kSync);
    in_->win_post(env, g, a, w);
  }
  void win_start(Env& env, const Group& g, unsigned a,
                 const Win& w) override {
    CallScope s(l_, env, kSync);
    in_->win_start(env, g, a, w);
  }
  void win_complete(Env& env, const Win& w) override {
    CallScope s(l_, env, kSync);
    in_->win_complete(env, w);
  }
  void win_wait(Env& env, const Win& w) override {
    CallScope s(l_, env, kSync);
    in_->win_wait(env, w);
  }
  void win_lock(Env& env, LockType lt, int t, unsigned a,
                const Win& w) override {
    CallScope s(l_, env, kSync);
    in_->win_lock(env, lt, t, a, w);
  }
  void win_unlock(Env& env, int t, const Win& w) override {
    CallScope s(l_, env, kSync);
    in_->win_unlock(env, t, w);
  }
  void win_lock_all(Env& env, unsigned a, const Win& w) override {
    CallScope s(l_, env, kSync);
    in_->win_lock_all(env, a, w);
  }
  void win_unlock_all(Env& env, const Win& w) override {
    CallScope s(l_, env, kSync);
    in_->win_unlock_all(env, w);
  }
  void win_flush(Env& env, int t, const Win& w) override {
    CallScope s(l_, env, kSync);
    in_->win_flush(env, t, w);
  }
  void win_flush_all(Env& env, const Win& w) override {
    CallScope s(l_, env, kSync);
    in_->win_flush_all(env, w);
  }
  void win_flush_local(Env& env, int t, const Win& w) override {
    CallScope s(l_, env, kSync);
    in_->win_flush_local(env, t, w);
  }
  void win_flush_local_all(Env& env, const Win& w) override {
    CallScope s(l_, env, kSync);
    in_->win_flush_local_all(env, w);
  }
  void win_sync(Env& env, const Win& w) override {
    CallScope s(l_, env, kSync);
    in_->win_sync(env, w);
  }

 private:
  std::shared_ptr<casper::mpi::Layer> in_;
  HostLedger& l_;
};

/// Forwards history records to the real sink, charged to kCheck.
class TimedSink final : public casper::kv::HistorySink {
 public:
  TimedSink(casper::kv::HistorySink& inner, HostLedger& l)
      : in_(inner), l_(l) {}
  void record(const casper::kv::KvEvent& e) override {
    const int rank = casper::sim::Engine::current().rank();
    const Cat prev = l_.enter(rank, kCheck);
    in_.record(e);
    l_.leave(rank, prev);
  }

 private:
  casper::kv::HistorySink& in_;
  HostLedger& l_;
};

}  // namespace perfbench
