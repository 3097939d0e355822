// Casper epoch-translation corners: assert fast paths, the
// static-binding-free interval, lockall<->lock conversion correctness, and
// hint misuse diagnostics.
//
// Under ASan (scripts/check.sh): lock and lock_all become per-ghost locks
// that live as runs of targets until an op creates the entry, splitting its
// run.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
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

RunConfig cfg(int nodes, int cpn) {
  RunConfig c;
  c.machine.profile = net::cray_xc30_regular();
  c.machine.topo.nodes = nodes;
  c.machine.topo.cores_per_node = cpn;
  return c;
}

core::Config csp(int ghosts,
                 core::DynamicLb d = core::DynamicLb::None) {
  core::Config c;
  c.ghosts_per_node = ghosts;
  c.dynamic = d;
  return c;
}

TEST(CasperEpochs, FenceAssertsSkipSynchronization) {
  // A fully-asserted fence must be much cheaper than a plain fence.
  sim::Time plain = 0, asserted = 0;
  mpi::exec(cfg(2, 2), [&](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    sim::Time t0 = env.now();
    for (int i = 0; i < 10; ++i) env.win_fence(0, win);
    if (env.rank(w) == 0) plain = env.now() - t0;
    env.barrier(w);
    t0 = env.now();
    for (int i = 0; i < 10; ++i) {
      env.win_fence(mpi::kModeNoStore | mpi::kModeNoPut |
                        mpi::kModeNoPrecede,
                    win);
    }
    if (env.rank(w) == 0) asserted = env.now() - t0;
    env.barrier(w);
    env.win_free(win);
  }, core::layer(csp(1)));
  EXPECT_LT(asserted * 3, plain);
}

TEST(CasperEpochs, PscwNoCheckSkipsHandshake) {
  sim::Time with_check = 0, no_check = 0;
  mpi::exec(cfg(2, 2), [&](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    auto round = [&](unsigned a) {
      env.barrier(w);  // provides the ordering NOCHECK requires
      const sim::Time t0 = env.now();
      if (env.rank(w) == 0) {
        env.win_start(mpi::Group({1}), a, win);
        double v = 1.0;
        env.accumulate(&v, 1, 1, 0, AccOp::Sum, win);
        env.win_complete(win);
      } else if (env.rank(w) == 1) {
        env.win_post(mpi::Group({0}), a, win);
        env.win_wait(win);
      }
      env.barrier(w);
      return env.now() - t0;
    };
    const sim::Time a = round(0);
    const sim::Time b = round(mpi::kModeNoCheck);
    if (env.rank(w) == 0) {
      with_check = a;
      no_check = b;
    }
    env.win_free(win);
  }, core::layer(csp(1)));
  EXPECT_LT(no_check, with_check);
}

TEST(CasperEpochs, BindingFreeIntervalStartsAfterFlush) {
  // Dynamic binding under an exclusive lock requires a completed flush;
  // before the flush PUTs stay on the bound ghost, afterwards they spread.
  mpi::exec(cfg(1, 5), [](mpi::Env& env) {
    Comm w = env.world();  // 2 users + 3 ghosts
    void* base = nullptr;
    Win win = env.win_allocate(8 * sizeof(double), sizeof(double), Info{}, w,
                               &base);
    env.barrier(w);
    if (env.rank(w) == 1) {
      auto& rt = env.runtime();
      env.win_lock(LockType::Exclusive, 0, 0, win);
      double v = 1.0;
      env.put(&v, 1, 0, 0, win);
      const auto before = rt.stats().get("casper_dynamic_ops");
      env.win_flush(0, win);  // starts the static-binding-free interval
      for (int i = 0; i < 6; ++i) {
        env.put(&v, 1, 0, static_cast<std::size_t>(i), win);
      }
      const auto after = rt.stats().get("casper_dynamic_ops");
      env.win_unlock(0, win);
      EXPECT_EQ(before, 0u);   // pre-flush put was statically bound
      EXPECT_EQ(after, 6u);    // post-flush puts were dynamically balanced
    }
    env.barrier(w);
    if (env.rank(w) == 0) {
      auto* d = static_cast<double*>(base);
      for (int i = 0; i < 6; ++i) EXPECT_EQ(d[i], 1.0);
    }
    env.win_free(win);
  }, core::layer(csp(3, core::DynamicLb::Random)));
}

TEST(CasperEpochs, AccumulatesNeverDynamicallyBalanced) {
  mpi::exec(cfg(1, 5), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    env.win_lock_all(0, win);
    double v = 1.0;
    for (int i = 0; i < 10; ++i) {
      env.accumulate(&v, 1, 0, 0, AccOp::Sum, win);
    }
    env.win_flush_all(win);
    env.win_unlock_all(win);
    env.barrier(w);
    // dynamic ops counter only counts PUT/GET routed dynamically
    EXPECT_EQ(env.runtime().stats().get("casper_dynamic_ops"), 0u);
    if (env.rank(w) == 0) {
      EXPECT_EQ(*static_cast<double*>(base), 20.0);  // 2 users x 10
    }
    env.win_free(win);
  }, core::layer(csp(3, core::DynamicLb::Random)));
}

TEST(CasperEpochs, ExclusiveLockVsLockallIsSerialized) {
  // Paper III.C.3: one origin holds an exclusive lock while another uses
  // lockall on the same window. The lockall->per-ghost-lock conversion lets
  // MPI's lock manager see the conflict; the accumulated result must be
  // exact and no atomicity violation may occur.
  mpi::exec(cfg(2, 4), [](mpi::Env& env) {
    Comm w = env.world();
    ASSERT_EQ(w->size(), 4);  // 2 nodes x (4 cores - 2 ghosts)
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    const int me = env.rank(w);
    double one = 1.0;
    if (me == 1) {
      env.win_lock(LockType::Exclusive, 0, 0, win);
      for (int i = 0; i < 20; ++i) {
        env.accumulate(&one, 1, 0, 0, AccOp::Sum, win);
      }
      env.win_unlock(0, win);
    } else if (me == 2 || me == 3) {
      env.win_lock_all(0, win);
      for (int i = 0; i < 20; ++i) {
        env.accumulate(&one, 1, 0, 0, AccOp::Sum, win);
      }
      env.win_unlock_all(win);
    }
    env.barrier(w);
    if (me == 0) {
      EXPECT_EQ(*static_cast<double*>(base), 60.0);
    }
    EXPECT_EQ(env.runtime().stats().get("atomicity_violations"), 0u);
    env.win_free(win);
  }, core::layer(csp(2)));
}

TEST(CasperEpochs, LockAllTranslationCreatesEntriesOnlyForReachedGhosts) {
  // lock_all becomes a shared lock on every ghost of every overlapping
  // window (paper III.C.3). No op uses most of them, so they create no
  // origin entry: a user's entries, summed over the internal windows, are
  // exactly the (window, ghost) pairs its ops reached.
  struct Reached final : mpi::RmaObserver {
    std::vector<mpi::WinImpl*> wins;
    /// (window, origin world rank, target comm rank) of every commit.
    std::set<std::tuple<const mpi::WinImpl*, int, int>> pairs;

    void on_win_register(mpi::WinImpl& w) override { wins.push_back(&w); }
    void on_win_free(mpi::WinImpl&) override {}
    void on_sync(mpi::WinImpl&, int, mpi::SyncKind, int, sim::Time) override {
    }
    void on_op_commit(const mpi::AmOp& op, sim::Time, int) override {
      pairs.emplace(op.win, op.origin_world, op.target_comm_rank);
    }
  };
  constexpr int kNodes = 2, kUsers = 6, kGhosts = 2, kLen = 64;
  Reached reached;
  std::vector<std::size_t> entries(kNodes * (kUsers + kGhosts));
  mpi::Runtime rt(cfg(kNodes, kUsers + kGhosts), [&](mpi::Env& env) {
    Comm w = env.world();
    const int me = env.rank(w);
    const int n = w->size();
    void* base = nullptr;
    Win win = env.win_allocate(kLen * sizeof(double), sizeof(double), Info{},
                               w, &base);
    env.win_lock_all(0, win);
    const std::vector<double> ones(kLen, 1.0);
    env.accumulate(ones.data(), 1, (me + 1) % n, 0, AccOp::Sum, win);
    env.accumulate(ones.data(), kLen, (me + 5) % n, 0, AccOp::Sum, win);
    env.win_flush_all(win);
    std::size_t sum = 0;
    for (const mpi::WinImpl* iw : reached.wins) {
      const int cr = iw->comm()->rank_of_world(env.world_rank());
      if (cr >= 0) sum += iw->origin_entries(cr);
    }
    entries[static_cast<std::size_t>(env.world_rank())] = sum;
    env.win_unlock_all(win);
    env.barrier(w);
    env.win_free(win);
  }, core::layer(csp(kGhosts)));
  rt.add_observer(&reached);
  rt.run();

  std::map<int, std::size_t> per_origin;
  for (const auto& p : reached.pairs) ++per_origin[std::get<1>(p)];
  ASSERT_EQ(per_origin.size(), static_cast<std::size_t>(kNodes * kUsers));
  for (const auto& [origin, npairs] : per_origin) {
    // Each user locked kUsers windows x kNodes * kGhosts ghosts.
    EXPECT_LT(npairs, static_cast<std::size_t>(kUsers * kNodes * kGhosts));
    EXPECT_EQ(entries[static_cast<std::size_t>(origin)], npairs)
        << "user at world rank " << origin;
  }
}

TEST(CasperEpochs, UnmanagedWindowPassthrough) {
  // Windows over a sub-communicator are not Casper-managed but must still
  // work (plain MPI semantics) and be counted. Every RMA kind passes
  // through, the fetching ones with their results.
  mpi::exec(cfg(2, 3), [](mpi::Env& env) {
    Comm w = env.world();
    Comm half = env.comm_split(w, env.rank(w) % 2, env.rank(w));
    void* base = nullptr;
    Win win = env.win_allocate(2 * sizeof(double), sizeof(double), Info{},
                               half, &base);
    env.win_lock_all(0, win);
    double v = 2.0;
    env.accumulate(&v, 1, 0, 0, AccOp::Sum, win);
    env.win_flush_all(win);
    env.win_unlock_all(win);
    env.barrier(w);
    EXPECT_GT(env.runtime().stats().get("casper_unmanaged_windows"), 0u);
    if (env.rank(half) == 0) {
      // one accumulate from each member of my half
      EXPECT_EQ(*static_cast<double*>(base), 2.0 * half->size());
    }
    env.barrier(w);

    // Member 1 (on the other node) drives the fetching kinds at member 0's
    // cells, which hold [4, 0].
    if (env.rank(half) == 1) {
      env.win_lock(LockType::Exclusive, 0, 0, win);
      double got = -1.0;
      env.get(&got, 1, 0, 0, win);
      env.win_flush(0, win);
      EXPECT_EQ(got, 4.0);
      double one = 1.0, old = -1.0;
      env.get_accumulate(&one, 1, mpi::contig(Dt::Double), &old, 1,
                         mpi::contig(Dt::Double), 0, 0, 1,
                         mpi::contig(Dt::Double), AccOp::Sum, win);
      env.win_flush(0, win);
      EXPECT_EQ(old, 4.0);
      env.fetch_and_op(&one, &old, Dt::Double, 0, 0, AccOp::Sum, win);
      env.win_flush(0, win);
      EXPECT_EQ(old, 5.0);
      const double expected = 0.0, desired = 9.0;
      env.compare_and_swap(&expected, &desired, &old, Dt::Double, 0, 1, win);
      env.win_flush(0, win);
      EXPECT_EQ(old, 0.0);
      env.win_unlock(0, win);
    }
    env.barrier(w);
    if (env.rank(half) == 0) {
      const auto* d = static_cast<const double*>(base);
      EXPECT_EQ(d[0], 6.0);  // 4 + get_accumulate 1 + fetch_and_op 1
      EXPECT_EQ(d[1], 9.0);  // compare_and_swap matched 0
    }
    env.win_free(win);
  }, core::layer(csp(1)));
}

TEST(CasperEpochs, GhostsServeMultipleWindowsConcurrently) {
  // One ghost must make progress on several windows with different epoch
  // types at once (the paper's "never block indefinitely" requirement).
  mpi::exec(cfg(2, 3), [](mpi::Env& env) {
    Comm w = env.world();
    void *b1 = nullptr, *b2 = nullptr;
    Info lockall_hint;
    lockall_hint.set(core::kEpochsUsedKey, "lockall");
    Win w1 = env.win_allocate(sizeof(double), sizeof(double), lockall_hint,
                              w, &b1);
    Info fence_hint;
    fence_hint.set(core::kEpochsUsedKey, "fence");
    Win w2 =
        env.win_allocate(sizeof(double), sizeof(double), fence_hint, w, &b2);
    env.barrier(w);
    double v = 1.0;
    // interleave a lockall epoch on w1 with fence epochs on w2
    env.win_lock_all(0, w1);
    env.win_fence(mpi::kModeNoPrecede, w2);
    env.accumulate(&v, 1, 0, 0, AccOp::Sum, w1);
    env.accumulate(&v, 1, 1, 0, AccOp::Sum, w2);
    env.win_fence(mpi::kModeNoSucceed, w2);
    env.win_flush_all(w1);
    env.win_unlock_all(w1);
    env.barrier(w);
    const int p = w->size();
    if (env.rank(w) == 0) {
      EXPECT_EQ(*static_cast<double*>(b1), p * 1.0);
    }
    if (env.rank(w) == 1) {
      EXPECT_EQ(*static_cast<double*>(b2), p * 1.0);
    }
    env.win_free(w2);
    env.win_free(w1);
  }, core::layer(csp(1)));
}

TEST(CasperEpochs, FenceAssertComboRoundTripKeepsData) {
  // A realistic assert sequence across three fence epochs: NOPRECEDE opens,
  // a plain fence separates two communicating rounds, and the final close
  // combines NOSUCCEED with the store asserts. Data must survive exactly.
  mpi::exec(cfg(2, 2), [](mpi::Env& env) {
    Comm w = env.world();
    const int me = env.rank(w);
    const int p = env.size(w);
    void* base = nullptr;
    Win win = env.win_allocate(static_cast<std::size_t>(p) * sizeof(double),
                               sizeof(double), Info{}, w, &base);
    env.win_fence(mpi::kModeNoPrecede, win);
    double v = 10.0 + me;
    env.put(&v, 1, (me + 1) % p, static_cast<std::size_t>(me), win);
    env.win_fence(0, win);  // closes round 1, opens round 2
    v = 100.0 + me;
    env.accumulate(&v, 1, (me + 1) % p, static_cast<std::size_t>(me),
                   AccOp::Sum, win);
    env.win_fence(0, win);
    // Empty epoch: nothing preceded, nothing stored, nothing follows — the
    // cheapest legal fence closes it.
    env.win_fence(mpi::kModeNoPrecede | mpi::kModeNoStore | mpi::kModeNoPut |
                      mpi::kModeNoSucceed,
                  win);
    const int left = (me - 1 + p) % p;
    EXPECT_EQ(static_cast<double*>(base)[left], 110.0 + 2 * left);
    env.barrier(w);
    env.win_free(win);
  }, core::layer(csp(1)));
}

TEST(CasperEpochs, FenceStoreAssertsSkipBarrierAndSync) {
  // NOPRECEDE alone still needs the barrier + win_sync half of the fence
  // translation; adding NOSTORE|NOPUT lets Casper skip those too.
  sim::Time noprecede = 0, full_assert = 0;
  mpi::exec(cfg(2, 2), [&](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    sim::Time t0 = env.now();
    for (int i = 0; i < 10; ++i) env.win_fence(mpi::kModeNoPrecede, win);
    if (env.rank(w) == 0) noprecede = env.now() - t0;
    env.barrier(w);
    t0 = env.now();
    for (int i = 0; i < 10; ++i) {
      env.win_fence(mpi::kModeNoPrecede | mpi::kModeNoStore | mpi::kModeNoPut,
                    win);
    }
    if (env.rank(w) == 0) full_assert = env.now() - t0;
    env.barrier(w);
    env.win_free(win);
  }, core::layer(csp(1)));
  EXPECT_LT(full_assert * 2, noprecede);
}

TEST(CasperEpochs, EpochsUsedCombosShapeInternalWindows) {
  // Fig. 3(a): the epochs_used hint decides which internal windows exist.
  // 2 users on the node -> "lock" needs 2 overlapping ug windows; fence /
  // pscw / lockall share the one global window; combos add up.
  struct Combo {
    const char* hint;
    int expect;
  };
  const Combo combos[] = {
      {"lock", 2},           {"fence", 1},         {"pscw", 1},
      {"lockall", 1},        {"fence,pscw", 1},    {"lock,lockall", 3},
      {"fence,lock,pscw,lockall", 3},
  };
  for (const Combo& cb : combos) {
    mpi::exec(cfg(1, 3), [&cb](mpi::Env& env) {
      Comm w = env.world();
      void* base = nullptr;
      Info info;
      info.set(core::kEpochsUsedKey, cb.hint);
      Win win =
          env.win_allocate(sizeof(double), sizeof(double), info, w, &base);
      env.barrier(w);
      auto& L = dynamic_cast<core::CasperLayer&>(env.runtime().layer());
      EXPECT_EQ(L.internal_window_count(win), cb.expect)
          << "epochs_used=" << cb.hint;
      env.win_free(win);
    }, core::layer(csp(1)));
  }
}

TEST(CasperEpochs, EpochsUsedHintIsHonoredPerStyle) {
  // A window hinted for one epoch style must still work for that style
  // (allocate -> epoch -> communicate -> free) for every single-style hint.
  const char* hints[] = {"fence", "pscw", "lock", "lockall"};
  for (const char* hint : hints) {
    mpi::exec(cfg(2, 2), [hint](mpi::Env& env) {
      Comm w = env.world();
      const int me = env.rank(w);
      const int p = env.size(w);
      void* base = nullptr;
      Info info;
      info.set(core::kEpochsUsedKey, hint);
      Win win =
          env.win_allocate(sizeof(double), sizeof(double), info, w, &base);
      env.barrier(w);
      double one = 1.0;
      const std::string h = hint;
      if (h == "fence") {
        env.win_fence(mpi::kModeNoPrecede, win);
        env.accumulate(&one, 1, (me + 1) % p, 0, AccOp::Sum, win);
        env.win_fence(mpi::kModeNoSucceed, win);
      } else if (h == "pscw") {
        std::vector<int> everyone(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) everyone[static_cast<std::size_t>(i)] = i;
        mpi::Group g(everyone);
        env.win_post(g, 0, win);
        env.win_start(g, 0, win);
        env.accumulate(&one, 1, (me + 1) % p, 0, AccOp::Sum, win);
        env.win_complete(win);
        env.win_wait(win);
      } else if (h == "lock") {
        const int t = (me + 1) % p;
        env.win_lock(LockType::Shared, t, 0, win);
        env.accumulate(&one, 1, t, 0, AccOp::Sum, win);
        env.win_unlock(t, win);
      } else {
        env.win_lock_all(0, win);
        env.accumulate(&one, 1, (me + 1) % p, 0, AccOp::Sum, win);
        env.win_unlock_all(win);
      }
      env.barrier(w);
      EXPECT_EQ(*static_cast<double*>(base), 1.0) << "epochs_used=" << hint;
      env.win_free(win);
    }, core::layer(csp(1)));
  }
}

using CasperEpochsDeath = ::testing::Test;

TEST(CasperEpochsDeath, FenceExcludedByHintAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      mpi::exec(cfg(2, 2),
                [](mpi::Env& env) {
                  Comm w = env.world();
                  void* base = nullptr;
                  Info info;
                  info.set(core::kEpochsUsedKey, "lock");
                  Win win = env.win_allocate(sizeof(double), sizeof(double),
                                             info, w, &base);
                  env.win_fence(0, win);  // fence excluded by the hint
                },
                core::layer(csp(1))),
      "excluded by epochs_used hint");
}

TEST(CasperEpochsDeath, UnknownEpochsTokenAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      mpi::exec(cfg(2, 2),
                [](mpi::Env& env) {
                  Comm w = env.world();
                  void* base = nullptr;
                  Info info;
                  info.set(core::kEpochsUsedKey, "fence,bogus");
                  Win win = env.win_allocate(sizeof(double), sizeof(double),
                                             info, w, &base);
                  (void)win;
                },
                core::layer(csp(1))),
      "unknown epochs_used token");
}

}  // namespace

namespace {

TEST(CasperNuma, TopologyAwareBindingAvoidsCrossDomainOps) {
  // 2 NUMA domains, 2 ghosts: topology-aware placement puts one ghost per
  // domain and binds users within their domain, so no redirected op crosses
  // the domain interconnect.
  auto run_with = [](bool aware) {
    std::uint64_t crossed = 1;
    mpi::RunConfig rc;
    rc.machine.profile = net::cray_xc30_regular();
    rc.machine.topo.nodes = 1;
    rc.machine.topo.cores_per_node = 6;  // 4 users + 2 ghosts
    rc.machine.topo.numa_per_node = 2;
    core::Config cc;
    cc.ghosts_per_node = 2;
    cc.topology_aware = aware;
    mpi::exec(rc, [&crossed](mpi::Env& env) {
      mpi::Comm w = env.world();
      void* base = nullptr;
      mpi::Win win = env.win_allocate(sizeof(double), sizeof(double),
                                      mpi::Info{}, w, &base);
      env.win_lock_all(0, win);
      double v = 1.0;
      for (int t = 0; t < env.size(w); ++t) {
        env.accumulate(&v, 1, t, 0, mpi::AccOp::Sum, win);
      }
      env.win_flush_all(win);
      env.win_unlock_all(win);
      env.barrier(w);
      if (env.rank(w) == 0) {
        crossed = env.runtime().stats().get("cross_numa_ops");
      }
      env.win_free(win);
    }, core::layer(cc));
    return crossed;
  };
  EXPECT_EQ(run_with(true), 0u);
  EXPECT_GT(run_with(false), 0u);
}

}  // namespace

namespace {

TEST(CasperStats, GhostLoadReportsBalancedRedirection) {
  mpi::exec(cfg(1, 6), [](mpi::Env& env) {  // 4 users + 2 ghosts
    Comm w = env.world();
    void* base = nullptr;
    Win win = env.win_allocate(8 * sizeof(double), sizeof(double), Info{}, w,
                               &base);
    env.barrier(w);
    env.win_lock_all(0, win);
    double v = 1.0;
    for (int t = 0; t < env.size(w); ++t) {
      for (int k = 0; k < 4; ++k) {
        env.put(&v, 1, t, 0, win);
      }
    }
    env.win_flush_all(win);
    env.win_unlock_all(win);
    env.barrier(w);
    if (env.rank(w) == 0) {
      auto& L = dynamic_cast<core::CasperLayer&>(env.runtime().layer());
      auto load = L.ghost_load(win);
      ASSERT_EQ(load.size(), 2u);
      std::uint64_t total_ops = 0, total_bytes = 0;
      for (const auto& gl : load) {
        total_ops += gl.ops;
        total_bytes += gl.bytes;
        EXPECT_GT(gl.ops, 0u);  // random policy touched both ghosts
      }
      // 4 users x 6 targets... each user issued 4 puts to each of 4 users
      // = 4*4*4 = 64 redirected puts (self puts are local, not redirected).
      EXPECT_EQ(total_ops, 4u * 3u * 4u);
      EXPECT_EQ(total_bytes, total_ops * sizeof(double));
    }
    env.win_free(win);
  }, core::layer(csp(2, core::DynamicLb::Random)));
}

}  // namespace
