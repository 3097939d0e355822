// Corner-case and error-path tests for minimpi: fence asserts,
// get_accumulate, flush_local, zero-size windows, sparse origin state and
// per-target lock runs, the op node arena (one node per op from issue to
// ack, sharded too), flush wake-ups, the delayed-grant drain order, bounds
// checking, the segment size limit and epoch-misuse aborts (death tests).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/casper.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"

namespace {

using namespace casper;
using mpi::AccOp;
using mpi::Comm;
using mpi::Dt;
using mpi::Info;
using mpi::LockType;
using mpi::RunConfig;
using mpi::Win;

RunConfig cfg(int nodes, int cpn,
              net::Profile prof = net::cray_xc30_regular()) {
  RunConfig c;
  c.machine.profile = std::move(prof);
  c.machine.topo.nodes = nodes;
  c.machine.topo.cores_per_node = cpn;
  return c;
}

TEST(MpiCorners, FenceNoPrecedeSkipsFlush) {
  // A NOPRECEDE fence after ops would be a usage error in a real program;
  // here we just verify that back-to-back asserted fences are cheaper than
  // plain fences (the flush is skipped).
  sim::Time plain = 0, asserted = 0;
  mpi::exec(cfg(2, 1), [&](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.win_fence(mpi::kModeNoPrecede, win);
    double v = 1.0;
    // measure: fence after ops with and without NOPRECEDE
    if (env.rank(w) == 0) env.accumulate(&v, 1, 1, 0, AccOp::Sum, win);
    sim::Time t0 = env.now();
    env.win_fence(0, win);
    if (env.rank(w) == 0) plain = env.now() - t0;
    if (env.rank(w) == 0) env.accumulate(&v, 1, 1, 0, AccOp::Sum, win);
    env.win_fence(0, win);  // complete those ops properly
    t0 = env.now();
    env.win_fence(mpi::kModeNoPrecede | mpi::kModeNoSucceed, win);
    if (env.rank(w) == 0) asserted = env.now() - t0;
    env.win_free(win);
  });
  EXPECT_LE(asserted, plain);
}

TEST(MpiCorners, GetAccumulateFetchesOldAndApplies) {
  mpi::exec(cfg(2, 1), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win = env.win_allocate(4 * sizeof(double), sizeof(double), Info{}, w,
                               &base);
    if (env.rank(w) == 1) {
      auto* d = static_cast<double*>(base);
      for (int i = 0; i < 4; ++i) d[i] = 10.0 * i;
    }
    env.barrier(w);
    if (env.rank(w) == 0) {
      std::vector<double> add = {1, 1, 1, 1};
      std::vector<double> old(4, -1);
      env.win_lock(LockType::Exclusive, 1, 0, win);
      env.get_accumulate(add.data(), 4, mpi::contig(Dt::Double), old.data(),
                         4, mpi::contig(Dt::Double), 1, 0, 4,
                         mpi::contig(Dt::Double), AccOp::Sum, win);
      env.win_unlock(1, win);
      for (int i = 0; i < 4; ++i) EXPECT_EQ(old[static_cast<std::size_t>(i)], 10.0 * i);
    }
    env.barrier(w);
    if (env.rank(w) == 1) {
      auto* d = static_cast<double*>(base);
      for (int i = 0; i < 4; ++i) EXPECT_EQ(d[i], 10.0 * i + 1.0);
    }
    env.win_free(win);
  });
}

TEST(MpiCorners, GetAccumulateNoOpIsAtomicRead) {
  mpi::exec(cfg(2, 1), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    if (env.rank(w) == 1) *static_cast<double*>(base) = 5.5;
    env.barrier(w);
    if (env.rank(w) == 0) {
      double dummy = 0, old = -1;
      env.win_lock(LockType::Shared, 1, 0, win);
      env.get_accumulate(&dummy, 1, mpi::contig(Dt::Double), &old, 1,
                         mpi::contig(Dt::Double), 1, 0, 1,
                         mpi::contig(Dt::Double), AccOp::NoOp, win);
      env.win_unlock(1, win);
      EXPECT_EQ(old, 5.5);
    }
    env.barrier(w);
    if (env.rank(w) == 1) {
      EXPECT_EQ(*static_cast<double*>(base), 5.5);  // untouched
    }
    env.win_free(win);
  });
}

TEST(MpiCorners, FlushLocalIsCheap) {
  mpi::exec(cfg(2, 1), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    if (env.rank(w) == 0) {
      env.win_lock_all(0, win);
      double v = 1.0;
      env.accumulate(&v, 1, 1, 0, AccOp::Sum, win);
      const sim::Time t0 = env.now();
      env.win_flush_local_all(win);  // local completion: no remote wait
      EXPECT_LT(env.now() - t0, sim::us(1));
      env.win_unlock_all(win);
    }
    env.barrier(w);
    env.win_free(win);
  });
}

TEST(MpiCorners, ZeroSizeWindowMembersCoexist) {
  mpi::exec(cfg(1, 3), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    const std::size_t bytes = env.rank(w) == 1 ? 8 * sizeof(double) : 0;
    Win win = env.win_allocate(bytes, sizeof(double), Info{}, w, &base);
    env.win_lock_all(0, win);
    double v = env.rank(w) + 1.0;
    env.accumulate(&v, 1, 1, static_cast<std::size_t>(env.rank(w)), AccOp::Sum,
                   win);
    env.win_flush_all(win);
    env.win_unlock_all(win);
    env.barrier(w);
    if (env.rank(w) == 1) {
      auto* d = static_cast<double*>(base);
      EXPECT_EQ(d[0], 1.0);
      EXPECT_EQ(d[1], 2.0);
      EXPECT_EQ(d[2], 3.0);
    }
    env.win_free(win);
  });
}

TEST(MpiCorners, BcastLargePayload) {
  mpi::exec(cfg(2, 2), [](mpi::Env& env) {
    Comm w = env.world();
    std::vector<double> buf(4096, env.rank(w) == 0 ? 1.25 : 0.0);
    env.bcast(buf.data(), 4096, Dt::Double, 0, w);
    for (double x : buf) ASSERT_EQ(x, 1.25);
  });
}

TEST(MpiCorners, LockAllCreatesEntriesOnlyForTouchedTargets) {
  // Origin-side target state is sparse: lock_all creates no entry, and each
  // target gets one on its first op. Entries outlive the epoch.
  constexpr int kRanks = 8;
  std::vector<std::size_t> before(kRanks), during(kRanks), after(kRanks);
  mpi::exec(cfg(kRanks, 1), [&](mpi::Env& env) {
    Comm w = env.world();
    const int me = env.rank(w);
    void* base = nullptr;
    Win win = env.win_allocate(4 * sizeof(double), sizeof(double), Info{}, w,
                               &base);
    env.win_lock_all(0, win);
    before[static_cast<std::size_t>(me)] = win->origin_entries(me);
    if (me == 0) {
      const double v = 1.0;
      for (int round = 0; round < 3; ++round) {
        for (int t : {2, 5, 7}) env.accumulate(&v, 1, t, 0, AccOp::Sum, win);
      }
      env.win_flush_all(win);
    }
    during[static_cast<std::size_t>(me)] = win->origin_entries(me);
    env.win_unlock_all(win);
    after[static_cast<std::size_t>(me)] = win->origin_entries(me);
    env.barrier(w);
    if (me == 2 || me == 5 || me == 7) {
      EXPECT_EQ(static_cast<double*>(base)[0], 3.0);
    }
    env.win_free(win);
  });
  for (int r = 0; r < kRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(before[i], 0u) << "rank " << r;
    EXPECT_EQ(during[i], r == 0 ? 3u : 0u) << "rank " << r;
    EXPECT_EQ(after[i], during[i]) << "rank " << r;
  }
}

TEST(MpiCorners, LockCreatesEntriesOnlyForTouchedTargets) {
  // Per-target locks are as sparse as lock_all: every rank locks every
  // target in ascending order, and only the self lock and the first op to a
  // target create an entry. The unused locks are runs of neighbouring
  // targets (below and above the self target) that ops split.
  constexpr int kRanks = 8;
  std::vector<std::size_t> before(kRanks), during(kRanks), after(kRanks);
  std::vector<std::size_t> runs_before(kRanks), runs_during(kRanks),
      runs_after(kRanks);
  mpi::exec(cfg(kRanks, 1), [&](mpi::Env& env) {
    Comm w = env.world();
    const int me = env.rank(w);
    const auto i = static_cast<std::size_t>(me);
    void* base = nullptr;
    Win win = env.win_allocate(4 * sizeof(double), sizeof(double), Info{}, w,
                               &base);
    const mpi::LockRuns& runs = win->ost[i].runs;
    for (int t = 0; t < kRanks; ++t) env.win_lock(LockType::Shared, t, 0, win);
    before[i] = win->origin_entries(me);
    runs_before[i] = runs.size();
    if (me == 0) {
      const double v = 1.0;
      for (int round = 0; round < 3; ++round) {
        for (int t : {2, 5, 7}) env.accumulate(&v, 1, t, 0, AccOp::Sum, win);
      }
      env.win_flush_all(win);
    }
    during[i] = win->origin_entries(me);
    runs_during[i] = runs.size();
    for (int t = 0; t < kRanks; ++t) env.win_unlock(t, win);
    after[i] = win->origin_entries(me);
    runs_after[i] = runs.size();
    env.barrier(w);
    if (me == 2 || me == 5 || me == 7) {
      EXPECT_EQ(static_cast<double*>(base)[0], 3.0);
    }
    env.win_free(win);
  });
  for (int r = 0; r < kRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const bool edge = r == 0 || r == kRanks - 1;
    EXPECT_EQ(before[i], 1u) << "rank " << r;
    EXPECT_EQ(runs_before[i], edge ? 1u : 2u) << "rank " << r;
    EXPECT_EQ(during[i], r == 0 ? 4u : 1u) << "rank " << r;
    // Rank 0's run [1, 8) loses 2, 5 and 7: [1, 2), [3, 5), [6, 7).
    EXPECT_EQ(runs_during[i], r == 0 ? 3u : runs_before[i]) << "rank " << r;
    EXPECT_EQ(after[i], during[i]) << "rank " << r;
    EXPECT_EQ(runs_after[i], 0u) << "rank " << r;
  }
}

TEST(MpiCorners, LockRunsMatchAMapOfMembers) {
  // LockRuns against a map of member -> lock type: ascending and descending
  // loops (blocks of four targets alternate the type, so runs are many),
  // then a seeded mix of adds and takes that extend, merge and split runs.
  constexpr int kTargets = 64;
  mpi::LockRuns runs;
  std::map<int, LockType> model;
  auto check = [&] {
    std::size_t nruns = 0;
    int prev = -2;
    LockType prev_type = LockType::Shared;
    for (const auto& [t, type] : model) {
      if (t != prev + 1 || type != prev_type) ++nruns;
      prev = t;
      prev_type = type;
    }
    ASSERT_EQ(runs.size(), nruns);
    ASSERT_EQ(runs.lowest(), model.empty() ? std::numeric_limits<int>::max()
                                           : model.begin()->first);
    for (int t = 0; t < kTargets; ++t) {
      ASSERT_EQ(runs.contains(t), model.count(t) == 1) << "target " << t;
    }
  };
  auto add = [&](int t, LockType type) {
    runs.add(t, type);
    model[t] = type;
  };
  auto take = [&](int t) {
    const auto it = model.find(t);
    const std::optional<LockType> got = runs.take(t);
    ASSERT_EQ(got.has_value(), it != model.end()) << "target " << t;
    if (got) {
      EXPECT_EQ(*got, it->second) << "target " << t;
      model.erase(it);
    }
  };
  auto block_type = [](int t) {
    return (t / 4) % 2 == 0 ? LockType::Shared : LockType::Exclusive;
  };
  for (int pass = 0; pass < 4; ++pass) {
    const bool up_lock = pass % 2 == 0, up_unlock = pass < 2;
    for (int i = 0; i < kTargets; ++i) {
      const int t = up_lock ? i : kTargets - 1 - i;
      if (t % 3 != 0) add(t, block_type(t));
    }
    check();
    for (int i = 0; i < kTargets; ++i) {
      take(up_unlock ? i : kTargets - 1 - i);
      if (i == kTargets / 2) check();
    }
    check();
  }
  std::mt19937 rng(7);
  for (int step = 0; step < 4000; ++step) {
    const int t = static_cast<int>(rng() % kTargets);
    if (model.count(t) != 0 || rng() % 3 == 0) {
      take(t);
    } else {
      add(t, rng() % 4 == 0 ? LockType::Exclusive : LockType::Shared);
    }
    if (step % 50 == 0) check();
  }
  check();
}

/// Commit order and queue depth at one serving rank: records every op
/// `server` commits and the most ops queued or in service there at any
/// commit (every queue depth is seen by a later commit, so this is the
/// peak).
struct ServerCommits final : mpi::RmaObserver {
  struct Commit {
    int origin;
    std::uint64_t opid;
  };
  mpi::Runtime* rt = nullptr;
  int server = -1;
  std::vector<Commit> commits;
  std::size_t peak = 0;

  void on_win_register(mpi::WinImpl&) override {}
  void on_win_free(mpi::WinImpl&) override {}
  void on_sync(mpi::WinImpl&, int, mpi::SyncKind, int, sim::Time) override {}
  void on_op_commit(const mpi::AmOp& op, sim::Time, int entity) override {
    if (entity != server) return;
    commits.push_back({op.origin_world, op.opid});
    peak = std::max(peak, rt->pending_am_count(server) + 1);
  }
};

TEST(MpiCorners, GhostInboxBurstReusesArenaNodes) {
  // 2 nodes x (3 users + 1 ghost): node 0's users each burst accumulates at
  // user 3, so every op queues at node 1's ghost (world rank 7).
  constexpr int kBurst = 200;
  constexpr int kGhost = 7;
  RunConfig rc = cfg(2, 4);
  std::size_t nodes[2] = {0, 0};
  mpi::Runtime rt(
      rc,
      [&](mpi::Env& env) {
        Comm w = env.world();
        const int me = env.rank(w);
        void* base = nullptr;
        Win win = env.win_allocate(8 * sizeof(double), sizeof(double), Info{},
                                   w, &base);
        env.win_lock_all(0, win);
        // One flushed op first: the delayed lock is granted before the
        // bursts, so no op waits in the origin's grant queue and each
        // origin's ops reach the ghost in issue order.
        const double zero = 0.0;
        if (me < 3) {
          env.accumulate(&zero, 1, 3, 0, AccOp::Sum, win);
          env.win_flush(3, win);
        }
        const double v = 1.0;
        for (int pass = 0; pass < 2; ++pass) {
          if (me < 3) {
            for (int i = 0; i < kBurst; ++i) {
              env.accumulate(&v, 1, 3, static_cast<std::size_t>(i % 8),
                             AccOp::Sum, win);
            }
            env.win_flush(3, win);
          }
          env.barrier(w);
          if (me == 0) nodes[pass] = env.runtime().am_nodes();
        }
        env.win_unlock_all(win);
        env.barrier(w);
        if (me == 3) {
          for (int i = 0; i < 8; ++i) {
            EXPECT_EQ(static_cast<double*>(base)[i], 2.0 * 3 * kBurst / 8);
          }
        }
        env.win_free(win);
      },
      core::layer(core::Config{}));
  ServerCommits log;
  log.rt = &rt;
  log.server = kGhost;
  rt.add_observer(&log);
  rt.run();

  // The ghost serves each origin's ops in the order it issued them (the
  // inbox is FIFO: AmQueue.PopsNodesInPushOrder).
  ASSERT_EQ(log.commits.size(), 3u + 2u * 3 * kBurst);
  std::uint64_t last_opid[3] = {0, 0, 0};
  for (std::size_t i = 0; i < log.commits.size(); ++i) {
    const ServerCommits::Commit& c = log.commits[i];
    ASSERT_TRUE(c.origin >= 0 && c.origin < 3) << "commit " << i;
    ASSERT_LT(last_opid[c.origin], c.opid) << "commit " << i;
    last_opid[c.origin] = c.opid;
  }
  // A node holds its op from issue to ack, so the arena covers at least the
  // peak queue depth and at most the peak ops in flight (issued, not yet
  // acked), rounded up to one chunk. Each origin flushes its burst, so at
  // most 3 * kBurst ops are in flight at once; the few lock messages fit in
  // the rounding.
  constexpr std::size_t kChunk = mpi::AmArena::kChunk;
  constexpr std::size_t kInFlight = 3 * kBurst;
  EXPECT_GT(log.peak, kChunk) << "the burst must queue past one chunk";
  EXPECT_GE(nodes[0], log.peak);
  EXPECT_LE(nodes[0], (kInFlight + kChunk - 1) / kChunk * kChunk);
  EXPECT_EQ(nodes[1], nodes[0]) << "second burst allocated new nodes";
}

/// What a sharded cross-node burst leaves behind.
struct BurstOutcome {
  std::vector<double> window;  ///< every user's segment, by user rank
  std::map<std::string, std::uint64_t> counters;
  std::size_t am_nodes = 0;
};

/// Casper on 4 nodes x (3 users + 1 ghost): each user sends `passes` bursts
/// of kBurst accumulates to the user with its local index on the next node,
/// flushing after each burst. Every op's node is allocated on the origin's
/// shard and freed there by the ack, after a ghost on another node (another
/// shard when sharded) served it.
BurstOutcome sharded_burst(int shards, int passes) {
  constexpr int kNodes = 4;
  constexpr int kUsersPerNode = 3;
  constexpr int kBurst = 128;
  constexpr int kSlots = 8;
  RunConfig rc = cfg(kNodes, kUsersPerNode + 1);
  rc.shards = shards;
  BurstOutcome out;
  out.window.assign(kNodes * kUsersPerNode * kSlots, -1.0);
  mpi::Runtime rt(
      rc,
      [&](mpi::Env& env) {
        Comm w = env.world();
        const int me = env.rank(w);
        const int peer = (me + kUsersPerNode) % env.size(w);
        void* base = nullptr;
        Win win = env.win_allocate(kSlots * sizeof(double), sizeof(double),
                                   Info{}, w, &base);
        env.win_lock_all(0, win);
        const double v = me + 1;
        for (int pass = 0; pass < passes; ++pass) {
          for (int i = 0; i < kBurst; ++i) {
            env.accumulate(&v, 1, peer, static_cast<std::size_t>(i % kSlots),
                           AccOp::Sum, win);
          }
          env.win_flush(peer, win);
        }
        env.win_unlock_all(win);
        env.barrier(w);
        // Each user writes only its own slice of the pre-sized vector.
        const auto* d = static_cast<const double*>(base);
        std::copy(d, d + kSlots, out.window.begin() + me * kSlots);
        env.win_free(win);
      },
      core::layer(core::Config{}));
  rt.run();
  out.counters = rt.stats().all();
  out.am_nodes = rt.am_nodes();
  return out;
}

TEST(MpiCorners, ShardedCrossNodeBurstReusesArenaNodes) {
  constexpr int kUsers = 12;
  const BurstOutcome ref = sharded_burst(1, 2);
  for (int u = 0; u < kUsers; ++u) {
    const int src = (u + kUsers - 3) % kUsers;
    for (int k = 0; k < 8; ++k) {
      ASSERT_EQ(ref.window[static_cast<std::size_t>(u * 8 + k)],
                2.0 * (128 / 8) * (src + 1))
          << "user " << u << " slot " << k;
    }
  }
  for (const int shards : {1, 2, 4}) {
    const BurstOutcome two = sharded_burst(shards, 2);
    EXPECT_EQ(two.window, ref.window) << "shards=" << shards;
    EXPECT_EQ(two.counters, ref.counters) << "shards=" << shards;
    EXPECT_EQ(two.am_nodes, sharded_burst(shards, 1).am_nodes)
        << "the repeat burst allocated new nodes, shards=" << shards;
  }
}

/// Counts every fiber resumption per rank. Each rank's count is written only
/// by its own shard's thread, so the rank's fiber may read it unlocked.
struct ResumeCounter final : sim::SchedObserver {
  explicit ResumeCounter(int nranks)
      : resumes(static_cast<std::size_t>(nranks), 0) {}
  void on_schedule(sim::Time, int rank) override {
    if (rank >= 0) ++resumes[static_cast<std::size_t>(rank)];
  }
  std::vector<std::uint64_t> resumes;
};

/// Original MPI on 4 single-rank nodes: rank 0 issues `n` accumulates to
/// rank 2 under lock_all (the lock granted by one flushed op first), then
/// flushes. Returns rank 0's resumptions inside that flush, and rank 2's
/// window.
std::pair<std::uint64_t, std::vector<double>> flush_resumes(int shards,
                                                            int n) {
  RunConfig rc = cfg(4, 1);
  rc.shards = shards;
  std::uint64_t in_flush = 0;
  std::vector<double> window;
  ResumeCounter count(4);
  mpi::Runtime rt(rc, [&](mpi::Env& env) {
    Comm w = env.world();
    const int me = env.rank(w);
    void* base = nullptr;
    Win win = env.win_allocate(4 * sizeof(double), sizeof(double), Info{}, w,
                               &base);
    if (me == 0) {
      const double v = 1.0;
      env.win_lock_all(0, win);
      env.accumulate(&v, 1, 2, 0, AccOp::Sum, win);
      env.win_flush(2, win);
      for (int i = 0; i < n; ++i) {
        env.accumulate(&v, 1, 2, static_cast<std::size_t>(i % 4), AccOp::Sum,
                       win);
      }
      const std::uint64_t before = count.resumes[0];
      env.win_flush(2, win);
      in_flush = count.resumes[0] - before;
      env.win_unlock_all(win);
    }
    env.barrier(w);  // rank 2 serves the accumulates in here
    if (me == 2) {
      const auto* d = static_cast<const double*>(base);
      window.assign(d, d + 4);
    }
    env.win_free(win);
  });
  rt.engine().set_sched_observer(&count);
  rt.run();
  return {in_flush, window};
}

TEST(MpiCorners, FlushResumesOnlyForItsLastAck) {
  // Each ack used to wake the flushing origin, which found its flush still
  // incomplete and blocked again: n resumptions for n outstanding ops.
  constexpr int kOps = 64;
  for (const int shards : {1, 2, 4}) {
    const auto [in_flush, window] = flush_resumes(shards, kOps);
    EXPECT_EQ(in_flush, 1u) << "shards=" << shards;
    EXPECT_EQ(window, (std::vector<double>{17.0, 16.0, 16.0, 16.0}))
        << "shards=" << shards;
  }
}

TEST(MpiCorners, FlushingOriginStillServesItsInbox) {
  // Original MPI, no progress agent: every rank accumulates to its
  // next-node neighbour and flushes. Each flushing origin is also a target,
  // so its flush completes only if it serves the ops queued for it (the
  // inbox deliveries still wake it while acks for unfinished flushes do
  // not). Any shard count gives the same window bytes and clocks.
  constexpr int kRanks = 4;
  constexpr int kOps = 48;
  std::vector<double> ref_window;
  std::vector<sim::Time> ref_clock;
  for (const int shards : {1, 2, 4}) {
    RunConfig rc = cfg(kRanks, 1);
    rc.shards = shards;
    std::vector<double> window(kRanks * 4, -1.0);
    std::vector<sim::Time> clock(kRanks, 0);
    mpi::exec(rc, [&](mpi::Env& env) {
      Comm w = env.world();
      const int me = env.rank(w);
      void* base = nullptr;
      Win win = env.win_allocate(4 * sizeof(double), sizeof(double), Info{},
                                 w, &base);
      env.win_lock_all(0, win);
      const double v = me + 1;
      const int peer = (me + 1) % kRanks;
      for (int i = 0; i < kOps; ++i) {
        env.accumulate(&v, 1, peer, static_cast<std::size_t>(i % 4),
                       AccOp::Sum, win);
      }
      env.win_flush(peer, win);
      clock[static_cast<std::size_t>(me)] = env.now();
      env.win_unlock_all(win);
      env.barrier(w);
      const auto* d = static_cast<const double*>(base);
      std::copy(d, d + 4, window.begin() + me * 4);
      env.win_free(win);
    });
    for (int r = 0; r < kRanks; ++r) {
      const double src = (r + kRanks - 1) % kRanks + 1;
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(window[static_cast<std::size_t>(r * 4 + k)],
                  src * kOps / 4)
            << "rank " << r << " slot " << k << ", shards=" << shards;
      }
    }
    if (ref_clock.empty()) {
      ref_window = window;
      ref_clock = clock;
    }
    EXPECT_EQ(window, ref_window) << "shards=" << shards;
    EXPECT_EQ(clock, ref_clock) << "shards=" << shards;
  }
}

/// Commit order of the single-double payloads one serving rank applies.
struct ValueCommits final : mpi::RmaObserver {
  int server = -1;
  std::vector<double> values;

  void on_win_register(mpi::WinImpl&) override {}
  void on_win_free(mpi::WinImpl&) override {}
  void on_sync(mpi::WinImpl&, int, mpi::SyncKind, int, sim::Time) override {}
  void on_op_commit(const mpi::AmOp& op, sim::Time, int entity) override {
    if (entity != server || op.payload.size() != sizeof(double)) return;
    double v = 0.0;
    std::memcpy(&v, op.payload.data(), sizeof v);
    values.push_back(v);
  }
};

TEST(MpiCorners, DelayedGrantDrainIsOvertakenByNextOp) {
  // Characterizes a known deviation (DESIGN.md §2): ops queued behind a
  // delayed lock go on the wire at grant + k * op_inject, so the op whose
  // issue the grant lands in is injected at once and overtakes every queued
  // op but the first. MPI orders same-origin accumulates to one location,
  // so the last-issued Replace should win; here queued op Q's value does.
  std::vector<double> issued;
  mpi::Runtime rt(cfg(2, 1), [&](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    if (env.rank(w) == 0) {
      env.win_lock(LockType::Exclusive, 1, 0, win);
      // Issue until the grant lands inside an issue: that last op is the
      // first one issued after the grant. The first op creates the entry.
      const mpi::OriginTargetState* ots = nullptr;
      double v = 0.0;
      do {
        v += 1.0;
        issued.push_back(v);
        env.accumulate(&v, 1, 1, 0, AccOp::Replace, win);
        if (ots == nullptr) ots = win->ost[0].tgt.find(1);
      } while (ots->lock_st != mpi::OriginTargetState::LockSt::Granted);
      env.win_unlock(1, win);
    }
    env.barrier(w);
    if (env.rank(w) == 1) {
      EXPECT_EQ(*static_cast<double*>(base), issued[issued.size() - 2])
          << "the last queued op, not the last issued one, wins";
    }
    env.win_free(win);
  });
  ValueCommits log;
  log.server = 1;
  rt.add_observer(&log);
  rt.run();

  // Q queued ops, then the overtaker, which commits first; the queued ops
  // follow in issue order.
  ASSERT_GE(issued.size(), 3u) << "the grant must find at least 2 queued ops";
  const std::size_t q = issued.size() - 1;
  std::vector<double> expect = {issued[q]};
  expect.insert(expect.end(), issued.begin(), issued.begin() + q);
  EXPECT_EQ(log.values, expect);
}

/// Every epoch begin, sync and commit of a run, one line each, in callback
/// order.
struct EpochLog final : mpi::RmaObserver {
  std::vector<std::string> lines;

  void add(const char* what, int rank, int target, sim::Time t) {
    lines.push_back("r" + std::to_string(rank) + " " + what + " " +
                    std::to_string(target) + " @" + std::to_string(t));
  }
  void on_win_register(mpi::WinImpl&) override {}
  void on_win_free(mpi::WinImpl&) override {}
  void on_epoch_begin(mpi::WinImpl&, int world_rank, mpi::EpochEv kind,
                      int target, sim::Time t) override {
    add(mpi::to_string(kind), world_rank, target, t);
  }
  void on_sync(mpi::WinImpl&, int world_rank, mpi::SyncKind kind, int target,
               sim::Time t) override {
    add(mpi::to_string(kind), world_rank, target, t);
  }
  void on_op_commit(const mpi::AmOp& op, sim::Time t, int entity) override {
    add(("commit from " + std::to_string(op.origin_world) + " to").c_str(),
        entity, op.target_world, t);
  }
};

TEST(MpiCorners, PerTargetDelayedLocksObservableBehaviour) {
  // Rank 0 locks targets descending (7, 6), ascending (1, 3), middle-first
  // (2 between 1 and 3), exclusive 4 between shared neighbours, then 5 and
  // itself; ops go to a subset, some targets are unlocked unused (no lock
  // message), one is re-locked, flushes and unlocks come in mixed orders,
  // and a lock_all epoch follows the last per-target unlock. Ranks 3 and 5
  // contend for targets 2 and 4. Pins window bytes, rank 0's clock after
  // every call and every epoch/sync/commit callback.
  constexpr int kRanks = 8;
  constexpr int kLen = 4;  // doubles per rank
  std::vector<double> bytes(kRanks * kLen, -1.0);
  std::vector<sim::Time> now;
  mpi::Runtime rt(cfg(4, 2), [&](mpi::Env& env) {
    Comm w = env.world();
    const int me = env.rank(w);
    void* base = nullptr;
    Win win = env.win_allocate(kLen * sizeof(double), sizeof(double), Info{},
                               w, &base);
    auto acc = [&](double v, int t, std::size_t disp) {
      env.accumulate(&v, 1, t, disp, AccOp::Sum, win);
    };
    auto tick = [&] { now.push_back(env.now()); };
    if (me == 0) {
      for (int t : {7, 6, 1, 3, 2}) {
        env.win_lock(LockType::Shared, t, 0, win);
        tick();
      }
      env.win_lock(LockType::Exclusive, 4, 0, win);
      tick();
      env.win_lock(LockType::Shared, 5, 0, win);
      tick();
      env.win_lock(LockType::Shared, 0, 0, win);
      tick();
      acc(1.0, 2, 0);
      const double four = 4.0;
      env.put(&four, 1, 4, 1, win);
      acc(2.0, 6, 0);
      acc(5.0, 0, 0);
      tick();
      env.win_unlock(7, win);  // never used: no lock message
      tick();
      env.win_unlock(1, win);
      tick();
      env.win_flush(2, win);
      tick();
      env.win_flush(3, win);  // locked, unused
      tick();
      env.win_flush_all(win);
      tick();
      env.win_unlock(2, win);
      tick();
      env.win_unlock(4, win);
      tick();
      env.win_lock(LockType::Exclusive, 1, 0, win);
      tick();
      acc(3.0, 1, 0);
      acc(7.0, 3, 3);
      tick();
      env.win_flush(1, win);
      tick();
      for (int t : {3, 1, 5, 6, 0}) {
        env.win_unlock(t, win);
        tick();
      }
      env.win_lock_all(0, win);
      tick();
      acc(8.0, 5, 0);
      acc(9.0, 7, 3);
      env.win_flush_all(win);
      tick();
      env.win_unlock_all(win);
      tick();
    } else if (me == 3 || me == 5) {
      const int t = me == 3 ? 2 : 4;
      env.win_lock(LockType::Exclusive, t, 0, win);
      acc(me == 3 ? 10.0 : 6.0, t, me == 3 ? 1 : 2);
      env.win_unlock(t, win);
    }
    env.barrier(w);
    std::memcpy(&bytes[static_cast<std::size_t>(me * kLen)], base,
                kLen * sizeof(double));
    env.win_free(win);
  });
  EpochLog log;
  rt.add_observer(&log);
  rt.run();

  const std::vector<double> expect = {
      5, 0, 0, 0,  3, 0,  0, 0,  1, 10, 0, 0,  0, 0, 0, 7,
      0, 4, 6, 0,  8, 0,  0, 0,  2, 0,  0, 0,  0, 0, 0, 9};
  EXPECT_EQ(bytes, expect);
  const std::vector<sim::Time> expect_now = {
      27803, 28053, 28303, 28553, 28803, 29053, 29303, 29553, 30383,
      30383, 30383, 37610, 37610, 37640, 40965, 44290, 44540, 45040,
      47671, 55647, 56772, 56772, 60097, 60097, 60347, 68129, 74779};
  EXPECT_EQ(now, expect_now);
  std::string all;
  for (const std::string& l : log.lines) all += l + "\n";
  EXPECT_EQ(all, R"(r0 lock 7 @27803
r3 lock_excl 2 @27803
r5 lock_excl 4 @27803
r0 lock 6 @28053
r0 lock 1 @28303
r0 lock 3 @28553
r0 lock 2 @28803
r0 lock_excl 4 @29053
r0 lock 5 @29303
r0 lock 0 @29553
r0 commit from 0 to 0 @30383
r0 unlock 7 @30383
r0 unlock 1 @30383
r2 commit from 3 to 2 @30634
r4 commit from 5 to 4 @30634
r5 unlock 4 @32059
r3 unlock 2 @32554
r6 commit from 0 to 6 @36185
r2 commit from 0 to 2 @36210
r4 commit from 0 to 4 @36240
r0 flush 2 @37610
r0 flush 3 @37610
r0 flush_all -1 @37640
r0 unlock 2 @40965
r0 unlock 4 @44290
r0 lock_excl 1 @44540
r1 commit from 0 to 1 @47371
r0 flush 1 @47671
r3 commit from 0 to 3 @50922
r0 unlock 3 @55647
r0 unlock 1 @56772
r0 unlock 5 @56772
r0 unlock 6 @60097
r0 unlock 0 @60097
r0 lock_all -1 @60347
r5 commit from 0 to 5 @66479
r7 commit from 0 to 7 @66729
r0 flush_all -1 @68129
r0 unlock 0 @68129
r0 unlock 1 @68129
r0 unlock 2 @68129
r0 unlock 3 @68129
r0 unlock 4 @68129
r0 unlock 5 @71454
r0 unlock 6 @71454
r0 unlock 7 @74779
r0 unlock_all -1 @74779
)");
}

using MpiDeath = ::testing::Test;

TEST(MpiDeath, RmaOutsideEpochAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      mpi::exec(cfg(2, 1),
                [](mpi::Env& env) {
                  Comm w = env.world();
                  void* base = nullptr;
                  Win win = env.win_allocate(8, 1, Info{}, w, &base);
                  double v = 1.0;
                  env.put(&v, 1, 1 - env.rank(w), 0, win);  // no epoch!
                }),
      "outside any epoch");
  // After lock_all ends, a target with an entry and one without both read
  // as unlocked again.
  for (const int touched : {1, 0}) {
    EXPECT_DEATH(
        mpi::exec(cfg(3, 1),
                  [touched](mpi::Env& env) {
                    Comm w = env.world();
                    void* base = nullptr;
                    Win win = env.win_allocate(8, 1, Info{}, w, &base);
                    double v = 1.0;
                    env.win_lock_all(0, win);
                    if (touched) env.put(&v, 1, 2, 0, win);
                    env.win_unlock_all(win);
                    env.put(&v, 1, 2, 0, win);
                  }),
        "outside any epoch");
  }
}

TEST(MpiDeath, WinFreeInsideLockAllAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      mpi::exec(cfg(2, 1),
                [](mpi::Env& env) {
                  Comm w = env.world();
                  void* base = nullptr;
                  Win win = env.win_allocate(8, 1, Info{}, w, &base);
                  env.win_lock_all(0, win);  // no op touches any target
                  env.win_free(win);
                }),
      "win_free with an open passive epoch");
}

TEST(MpiDeath, WinLockUnderLockAllAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      mpi::exec(cfg(2, 1),
                [](mpi::Env& env) {
                  Comm w = env.world();
                  void* base = nullptr;
                  Win win = env.win_allocate(8, 1, Info{}, w, &base);
                  env.win_lock_all(0, win);
                  env.win_lock(LockType::Shared, 1, 0, win);
                }),
      "nested lock to target 1");
}

TEST(MpiDeath, LockAllOverExistingLockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A NOSUCCEED fence ends the epoch bookkeeping but not the lock on
  // target 1, so the following lock_all finds it still held.
  EXPECT_DEATH(
      mpi::exec(cfg(2, 1),
                [](mpi::Env& env) {
                  Comm w = env.world();
                  void* base = nullptr;
                  Win win = env.win_allocate(8, 1, Info{}, w, &base);
                  env.win_lock(LockType::Shared, 1, 0, win);
                  env.win_fence(mpi::kModeNoSucceed, win);
                  env.win_lock_all(0, win);
                }),
      "lock_all over existing lock");
}

TEST(MpiDeath, RmaOutOfBoundsAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      mpi::exec(cfg(2, 1),
                [](mpi::Env& env) {
                  Comm w = env.world();
                  void* base = nullptr;
                  Win win =
                      env.win_allocate(8, 1, Info{}, w, &base);
                  env.win_lock_all(0, win);
                  double v = 1.0;
                  // 8-byte window, displacement 8 bytes + 8 bytes: overflow
                  env.put(&v, 1, mpi::contig(Dt::Double), 1 - env.rank(w), 8,
                          1, mpi::contig(Dt::Double), win);
                }),
      "out of bounds");
}

TEST(MpiDeath, WindowSegmentOf4GiBAborts) {
  // Op displacements are 32-bit. The length is checked before the window is
  // built, so the small buffer's bytes past its end are never touched.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      mpi::exec(cfg(2, 1),
                [](mpi::Env& env) {
                  double buf[2] = {0.0, 0.0};
                  Win win = env.win_create(buf, mpi::kMaxSegmentBytes, 1,
                                           Info{}, env.world());
                  env.win_free(win);
                }),
      "window segment of 4294967296 bytes: segments must be under 4 GiB");
}

TEST(MpiDeath, NestedLockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      mpi::exec(cfg(2, 1),
                [](mpi::Env& env) {
                  Comm w = env.world();
                  void* base = nullptr;
                  Win win = env.win_allocate(8, 1, Info{}, w, &base);
                  env.win_lock(LockType::Shared, 0, 0, win);
                  env.win_lock(LockType::Shared, 0, 0, win);  // nested
                }),
      "nested lock");
}

TEST(MpiDeath, PassiveEpochEndsWithTheLastUnlock) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Locks on targets 0 and 1; unlocking one of them leaves the passive
  // epoch open, so win_lock_all must still be refused.
  EXPECT_DEATH(
      mpi::exec(cfg(2, 1),
                [](mpi::Env& env) {
                  Comm w = env.world();
                  void* base = nullptr;
                  Win win = env.win_allocate(8, 1, Info{}, w, &base);
                  env.win_lock(LockType::Shared, 0, 0, win);
                  env.win_lock(LockType::Shared, 1, 0, win);
                  env.win_unlock(0, win);
                  env.win_lock_all(0, win);
                }),
      "another epoch is active");
  // Unlocking the second target ends the epoch, also after a lock_all
  // epoch has come and gone on the same window.
  mpi::exec(cfg(2, 1), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win = env.win_allocate(8, 1, Info{}, w, &base);
    env.win_lock_all(0, win);
    env.win_unlock_all(win);
    env.win_lock(LockType::Shared, 0, 0, win);
    env.win_lock(LockType::Shared, 1, 0, win);
    env.win_unlock(0, win);
    env.win_unlock(1, win);
    env.win_lock_all(0, win);
    env.win_unlock_all(win);
    env.win_free(win);
  });
}

TEST(MpiDeath, PerTargetDelayedLockMisuseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Targets 1..3 are locked and unused, 2 in the middle of the others, so
  // each misuse below meets a lock that no op has touched.
  auto locked = [](mpi::Env& env, Win& win) {
    Comm w = env.world();
    void* base = nullptr;
    win = env.win_allocate(8, 1, Info{}, w, &base);
    for (int t : {1, 3, 2}) env.win_lock(LockType::Shared, t, 0, win);
  };
  EXPECT_DEATH(mpi::exec(cfg(4, 1),
                         [&](mpi::Env& env) {
                           Win win;
                           locked(env, win);
                           env.win_lock(LockType::Exclusive, 2, 0, win);
                         }),
               "nested lock to target 2");
  for (const int unlocked : {0, 2}) {
    EXPECT_DEATH(mpi::exec(cfg(4, 1),
                           [&](mpi::Env& env) {
                             Win win;
                             locked(env, win);
                             // Target 2's unused lock ends, then again.
                             if (unlocked == 2) env.win_unlock(2, win);
                             env.win_unlock(unlocked, win);
                           }),
                 "unlock without lock");
  }
  EXPECT_DEATH(mpi::exec(cfg(4, 1),
                         [&](mpi::Env& env) {
                           Win win;
                           locked(env, win);
                           env.win_unlock(1, win);
                           env.win_unlock(3, win);
                           env.win_free(win);  // target 2 is still locked
                         }),
               "win_free with an open passive epoch");
  EXPECT_DEATH(mpi::exec(cfg(4, 1),
                         [&](mpi::Env& env) {
                           Win win;
                           locked(env, win);
                           env.win_unlock(1, win);
                           env.win_unlock(2, win);
                           // Ends the epoch bookkeeping, not target 3's lock.
                           env.win_fence(mpi::kModeNoSucceed, win);
                           env.win_lock_all(0, win);
                         }),
               "lock_all over existing lock");
}

TEST(MpiDeath, DeadlockIsDiagnosed) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      mpi::exec(cfg(2, 1),
                [](mpi::Env& env) {
                  Comm w = env.world();
                  if (env.rank(w) == 0) {
                    int v = 0;
                    env.recv(&v, 1, Dt::Int, 1, 0, w);  // never sent
                  }
                }),
      "DEADLOCK");
}

}  // namespace
