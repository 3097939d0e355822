// Tests for the Casper layer: ghost deployment, window mapping, operation
// redirection, asynchronous progress, binding policies, epoch translation,
// and the epochs_used hint.
#include <gtest/gtest.h>

#include <vector>

#include "core/casper.hpp"
#include "core/layer_impl.hpp"
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

core::Config csp(int ghosts, core::Binding b = core::Binding::Rank,
                 core::DynamicLb d = core::DynamicLb::None) {
  core::Config c;
  c.ghosts_per_node = ghosts;
  c.binding = b;
  c.dynamic = d;
  return c;
}

core::CasperLayer& layer_of(mpi::Env& env) {
  return dynamic_cast<core::CasperLayer&>(env.runtime().layer());
}

TEST(CasperSetup, GhostCarvingAndUserWorld) {
  auto rc = cfg(2, 4);
  auto cc = csp(1);
  EXPECT_EQ(core::user_ranks(rc.machine.topo, cc), 6);
  int user_mains = 0;
  mpi::exec(rc,
            [&](mpi::Env& env) {
              ++user_mains;
              Comm w = env.world();
              EXPECT_EQ(w->size(), 6);
              // ghosts never appear in the user world
              auto& L = layer_of(env);
              for (int r : w->members()) {
                EXPECT_FALSE(L.ghost_rank(r));
              }
            },
            core::layer(cc));
  EXPECT_EQ(user_mains, 6);
}

TEST(CasperSetup, TopologyAwareGhostPlacementSpreadsNuma) {
  // 8-core node, 2 NUMA domains, 2 ghosts: one ghost per domain.
  net::Topology topo;
  topo.nodes = 1;
  topo.cores_per_node = 8;
  topo.numa_per_node = 2;
  auto cc = csp(2);
  std::vector<int> ghosts;
  for (int r = 0; r < 8; ++r) {
    if (core::is_ghost_rank(topo, cc, r)) ghosts.push_back(r);
  }
  ASSERT_EQ(ghosts.size(), 2u);
  EXPECT_NE(topo.numa_of(ghosts[0]), topo.numa_of(ghosts[1]));
}

TEST(CasperRma, FencePutGetThroughGhosts) {
  mpi::exec(cfg(2, 2), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win = env.win_allocate(4 * sizeof(double), sizeof(double), Info{}, w,
                               &base);
    env.win_fence(mpi::kModeNoPrecede, win);
    const int me = env.rank(w);
    const int next = (me + 1) % w->size();
    std::vector<double> v = {me + 1.0, me + 2.0};
    env.put(v.data(), 2, next, 0, win);
    env.win_fence(0, win);
    const int prev = (me + w->size() - 1) % w->size();
    auto* d = static_cast<double*>(base);
    EXPECT_EQ(d[0], prev + 1.0);
    EXPECT_EQ(d[1], prev + 2.0);
    // read it back with get
    std::vector<double> r(2, 0);
    env.get(r.data(), 2, prev, 0, win);
    env.win_fence(mpi::kModeNoSucceed, win);
    EXPECT_EQ(r[0], (prev + w->size() - 1) % w->size() + 1.0);
    env.win_free(win);
  }, core::layer(csp(1)));
}

TEST(CasperRma, AsynchronousProgressWhileTargetComputes) {
  // The headline behaviour: a software-path accumulate completes while the
  // target user process is stuck in computation, because the ghost makes the
  // progress. Without Casper (see MpiRma.SoftwareOpWaitsForTargetProgress)
  // the same pattern waits for the target.
  mpi::exec(cfg(2, 2), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    if (env.rank(w) == 0) {
      double v = 2.5;
      env.win_lock_all(0, win);
      env.accumulate(&v, 1, 1, 0, AccOp::Sum, win);
      env.win_unlock_all(win);
      EXPECT_LT(env.now(), sim::us(150));  // did NOT wait for the target
    } else if (env.rank(w) == 1) {
      env.compute(sim::us(1000));
    }
    env.barrier(w);
    if (env.rank(w) == 1) {
      EXPECT_EQ(*static_cast<double*>(base), 2.5);
    }
    env.win_free(win);
  }, core::layer(csp(1)));
}

TEST(CasperRma, LockPutUnlockRedirected) {
  mpi::exec(cfg(2, 3), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win = env.win_allocate(2 * sizeof(double), sizeof(double), Info{}, w,
                               &base);
    env.barrier(w);
    if (env.rank(w) == 0) {
      double v = 9.0;
      env.win_lock(LockType::Exclusive, 3, 0, win);
      env.put(&v, 1, 3, 1, win);
      env.win_unlock(3, win);
    }
    env.barrier(w);
    if (env.rank(w) == 3) {
      EXPECT_EQ(static_cast<double*>(base)[1], 9.0);
    }
    env.win_free(win);
  }, core::layer(csp(1)));
}

TEST(CasperRma, ConcurrentAccumulatesRankBindingExact) {
  // All users accumulate into user 0 concurrently under lockall with 2
  // ghosts; static rank binding must keep atomicity: the sum is exact and
  // no violation is detected.
  mpi::exec(cfg(2, 4), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    env.win_lock_all(0, win);
    double one = 1.0;
    for (int i = 0; i < 10; ++i) {
      env.accumulate(&one, 1, 0, 0, AccOp::Sum, win);
    }
    env.win_unlock_all(win);
    env.barrier(w);
    if (env.rank(w) == 0) {
      // 2 nodes x (4 cores - 2 ghosts) = 4 users, 10 accumulates each.
      EXPECT_EQ(*static_cast<double*>(base), 40.0);
    }
    EXPECT_EQ(env.runtime().stats().get("atomicity_violations"), 0u);
    env.win_free(win);
  }, core::layer(csp(2)));
}

TEST(CasperRma, SegmentBindingSplitsAndStaysCorrect) {
  // One user exposes a larger window; ops spanning multiple segments are
  // split between ghosts along the byte->segment-owner map (one processing
  // entity per byte, so accumulate atomicity holds); data must be exact.
  mpi::exec(cfg(1, 4), [](mpi::Env& env) {
    Comm w = env.world();
    const std::size_t n = 64;
    void* base = nullptr;
    Win win = env.win_allocate(env.rank(w) == 0 ? n * sizeof(double) : 16,
                               sizeof(double), Info{}, w, &base);
    env.barrier(w);
    env.win_lock_all(0, win);
    if (env.rank(w) != 0) {
      std::vector<double> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
      env.put(v.data(), static_cast<int>(n), 0, 0, win);
      env.win_flush(0, win);
      std::vector<double> ones(n, 1.0);
      env.accumulate(ones.data(), static_cast<int>(n), 0, 0, AccOp::Sum, win);
      env.win_flush(0, win);
      std::vector<double> back(n, -1.0);
      env.get(back.data(), static_cast<int>(n), 0, 0, win);
      env.win_flush(0, win);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(back[i], static_cast<double>(i) + 1.0) << "element " << i;
      }
    }
    env.win_unlock_all(win);
    env.barrier(w);
    if (env.rank(w) == 0) {
      auto* d = static_cast<double*>(base);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(d[i], static_cast<double>(i) + 1.0) << "element " << i;
      }
    }
    EXPECT_EQ(env.runtime().stats().get("atomicity_violations"), 0u);
    EXPECT_GT(env.runtime().stats().get("casper_split_subops"), 0u);
    env.win_free(win);
  }, core::layer(csp(2, core::Binding::Segment)));
}

TEST(CasperRma, DynamicRandomSpreadsPuts) {
  mpi::exec(cfg(2, 4), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win = env.win_allocate(8 * sizeof(double), sizeof(double), Info{}, w,
                               &base);
    env.barrier(w);
    env.win_lock_all(0, win);
    if (env.rank(w) == 1) {
      double v = 1.5;
      for (int i = 0; i < 8; ++i) {
        env.put(&v, 1, 0, static_cast<std::size_t>(i), win);
      }
    }
    env.win_unlock_all(win);
    env.barrier(w);
    if (env.rank(w) == 0) {
      auto* d = static_cast<double*>(base);
      for (int i = 0; i < 8; ++i) EXPECT_EQ(d[i], 1.5);
    }
    EXPECT_GT(env.runtime().stats().get("casper_dynamic_ops"), 0u);
    env.win_free(win);
  }, core::layer(csp(2, core::Binding::Rank, core::DynamicLb::Random)));
}

TEST(CasperRma, PscwTranslationCompletes) {
  mpi::exec(cfg(2, 2), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    if (env.rank(w) == 0) {
      env.win_start(mpi::Group({1}), 0, win);
      double v = 6.0;
      env.accumulate(&v, 1, 1, 0, AccOp::Sum, win);
      env.win_complete(win);
    } else if (env.rank(w) == 1) {
      env.win_post(mpi::Group({0}), 0, win);
      env.win_wait(win);
      EXPECT_EQ(*static_cast<double*>(base), 6.0);
    }
    env.barrier(w);
    env.win_free(win);
  }, core::layer(csp(1)));
}

TEST(CasperHints, EpochsUsedControlsWindowCount) {
  // Default: one overlapping window per local user + the global window.
  mpi::exec(cfg(2, 4), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    auto& L = layer_of(env);
    EXPECT_EQ(L.internal_window_count(win), 3 + 1);  // 3 local users + global
    env.win_free(win);

    Info lockonly;
    lockonly.set(core::kEpochsUsedKey, "lock");
    Win win2 =
        env.win_allocate(sizeof(double), sizeof(double), lockonly, w, &base);
    EXPECT_EQ(L.internal_window_count(win2), 3);  // no global window
    env.win_free(win2);

    Info lockall_only;
    lockall_only.set(core::kEpochsUsedKey, "lockall");
    Win win3 = env.win_allocate(sizeof(double), sizeof(double), lockall_only,
                                w, &base);
    EXPECT_EQ(L.internal_window_count(win3), 1);  // single global window
    env.win_free(win3);
  }, core::layer(csp(1)));
}

TEST(CasperSetup, OneTableFillPerWindowNotPerRank) {
  // 4 nodes x (4 users + 2 ghosts) = 24 ranks. Every rank takes part in the
  // collective window set-up, but the per-window tables (targets, per-origin
  // epoch state) are filled once per window, by the registering rank.
  auto rc = cfg(4, 6);
  constexpr int kWins = 3;
  constexpr int kRounds = 3;
  const char* hints[kWins] = {"lock", "lockall", nullptr};
  const int want_internal[kWins] = {4, 1, 4 + 1};
  std::vector<std::uint64_t> tables_after_round;
  auto body = [&](mpi::Env& env) {
    Comm w = env.world();
    const int me = env.rank(w);
    const int p = env.size(w);
    auto& L = layer_of(env);
    for (int round = 0; round < kRounds; ++round) {
      Win wins[kWins];
      void* bases[kWins] = {};
      for (int i = 0; i < kWins; ++i) {
        Info info;
        if (hints[i] != nullptr) info.set(core::kEpochsUsedKey, hints[i]);
        wins[i] = env.win_allocate(sizeof(double), sizeof(double), info, w,
                                   &bases[i]);
        EXPECT_EQ(L.internal_window_count(wins[i]), want_internal[i]);
      }
      env.barrier(w);
      if (me == 0) {
        tables_after_round.push_back(
            env.runtime().stats().get("casper_window_tables"));
      }
      // Every window routes: each user adds 1 on its right neighbour (on
      // another node for the last user of each node).
      const int next = (me + 1) % p;
      const double one = 1.0;
      env.win_lock(LockType::Shared, next, 0, wins[0]);
      env.accumulate(&one, 1, next, 0, AccOp::Sum, wins[0]);
      env.win_unlock(next, wins[0]);
      for (int i = 1; i < kWins; ++i) {
        env.win_lock_all(0, wins[i]);
        env.accumulate(&one, 1, next, 0, AccOp::Sum, wins[i]);
        env.win_unlock_all(wins[i]);
      }
      env.barrier(w);
      for (int i = 0; i < kWins; ++i) {
        EXPECT_EQ(*static_cast<double*>(bases[i]), 1.0);
        EXPECT_TRUE(L.ghost_rank(L.bound_ghost_of(wins[i], me)));
      }
      // Free out of allocation order: each ghost matches its kWinFree to
      // the right handle record by sequence number.
      env.win_free(wins[1]);
      env.win_free(wins[2]);
      env.win_free(wins[0]);
    }
  };
  mpi::Runtime rt(rc, body, core::layer(csp(2)));
  rt.run();
  ASSERT_EQ(tables_after_round.size(), static_cast<std::size_t>(kRounds));
  EXPECT_EQ(tables_after_round[0], static_cast<std::uint64_t>(kWins));
  EXPECT_NE(tables_after_round[0], static_cast<std::uint64_t>(kWins * 24));
  EXPECT_EQ(tables_after_round[2], static_cast<std::uint64_t>(kWins * kRounds));
  EXPECT_EQ(rt.stats().get("casper_window_tables"),
            rt.stats().get("casper_managed_windows"));
}

TEST(CasperRma, SelfOpsExecuteLocally) {
  mpi::exec(cfg(1, 2), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.win_lock(LockType::Exclusive, env.rank(w), 0, win);
    double v = 4.25;
    env.put(&v, 1, env.rank(w), 0, win);
    EXPECT_EQ(*static_cast<double*>(base), 4.25);
    env.win_unlock(env.rank(w), win);
    EXPECT_GT(env.runtime().stats().get("casper_self_ops"), 0u);
    env.win_free(win);
  }, core::layer(csp(1)));
}

TEST(CasperRma, FetchAndOpThroughGhost) {
  mpi::exec(cfg(2, 2), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    env.win_lock_all(0, win);
    double add = 1.0, old = -1.0;
    env.fetch_and_op(&add, &old, Dt::Double, 0, 0, AccOp::Sum, win);
    env.win_flush(0, win);
    env.win_unlock_all(win);
    env.barrier(w);
    if (env.rank(w) == 0) {
      EXPECT_EQ(*static_cast<double*>(base), 2.0);  // both users added 1
    }
    env.win_free(win);
  }, core::layer(csp(1)));
}

TEST(CasperRma, MultipleWindowsCoexist) {
  mpi::exec(cfg(2, 2), [](mpi::Env& env) {
    Comm w = env.world();
    void *b1 = nullptr, *b2 = nullptr;
    Win w1 = env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &b1);
    Win w2 = env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &b2);
    env.barrier(w);
    env.win_lock_all(0, w1);
    env.win_lock_all(0, w2);
    double x = 1.0, y = 10.0;
    env.accumulate(&x, 1, 0, 0, AccOp::Sum, w1);
    env.accumulate(&y, 1, 0, 0, AccOp::Sum, w2);
    env.win_unlock_all(w1);
    env.win_unlock_all(w2);
    env.barrier(w);
    if (env.rank(w) == 0) {
      EXPECT_EQ(*static_cast<double*>(b1), 2.0);
      EXPECT_EQ(*static_cast<double*>(b2), 20.0);
    }
    env.win_free(w2);
    env.win_free(w1);
  }, core::layer(csp(1)));
}

using CasperDeath = ::testing::Test;

TEST(CasperDeath, OriginTargetSizeMismatchAbortsUnderEveryBinding) {
  // MPI requires the origin and target layouts to move the same bytes. A
  // 32-double origin into a 64-double target must abort in original MPI and
  // under both static bindings; the segment split must not read past the
  // packed origin instead.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto short_put = [](mpi::Env& env) {
    Comm w = env.world();
    const int n = 64;
    void* base = nullptr;
    Win win = env.win_allocate(env.rank(w) == 0 ? n * sizeof(double) : 16,
                               sizeof(double), Info{}, w, &base);
    env.barrier(w);
    env.win_lock_all(0, win);
    if (env.rank(w) == 1) {
      std::vector<double> v(n / 2, 1.0);
      env.put(v.data(), n / 2, mpi::contig(Dt::Double), 0, 0, n,
              mpi::contig(Dt::Double), win);
    }
    env.win_unlock_all(win);
    env.win_free(win);
  };
  const char* msg = "origin/target data size mismatch";
  EXPECT_DEATH(mpi::exec(cfg(1, 4), short_put), msg);
  EXPECT_DEATH(mpi::exec(cfg(1, 4), short_put, core::layer(csp(2))), msg);
  EXPECT_DEATH(mpi::exec(cfg(1, 4), short_put,
                         core::layer(csp(2, core::Binding::Segment))),
               msg);
}

TEST(CasperRma, StridedAccumulateThroughGhost) {
  mpi::exec(cfg(2, 2), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win = env.win_allocate(8 * sizeof(double), sizeof(double), Info{}, w,
                               &base);
    env.barrier(w);
    env.win_lock_all(0, win);
    if (env.rank(w) == 1) {
      std::vector<double> v = {1, 2, 3, 4};
      auto vec = mpi::vector_of(Dt::Double, 1, 2);
      env.accumulate(v.data(), 4, mpi::contig(Dt::Double), 0, 0, 4, vec,
                     AccOp::Sum, win);
    }
    env.win_unlock_all(win);
    env.barrier(w);
    if (env.rank(w) == 0) {
      auto* d = static_cast<double*>(base);
      EXPECT_EQ(d[0], 1);
      EXPECT_EQ(d[2], 2);
      EXPECT_EQ(d[4], 3);
      EXPECT_EQ(d[6], 4);
      EXPECT_EQ(d[1], 0);
    }
    env.win_free(win);
  }, core::layer(csp(1)));
}

}  // namespace
