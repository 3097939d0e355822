// Tests for the baseline asynchronous-progress agents (thread / interrupt)
// and their cost models.
//
// Under ASan (scripts/check.sh): the thread and interrupt agents' commits
// stage through the same pooled read/write-phase scratch as the poller's.
#include <gtest/gtest.h>

#include "mpi/runtime.hpp"
#include "net/profile.hpp"

namespace {

using namespace casper;
using mpi::AccOp;
using mpi::Comm;
using mpi::Dt;
using mpi::Info;
using mpi::RunConfig;
using mpi::Win;

RunConfig cfg(int nodes, int cpn, progress::Kind kind,
              bool oversub = false,
              net::Profile prof = net::cray_xc30_regular()) {
  RunConfig c;
  c.machine.profile = std::move(prof);
  c.machine.topo.nodes = nodes;
  c.machine.topo.cores_per_node = cpn;
  c.progress.kind = kind;
  c.progress.oversubscribed = oversub;
  return c;
}

void overlap_body(mpi::Env& env, sim::Time max_origin_time) {
  Comm w = env.world();
  void* base = nullptr;
  Win win =
      env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
  env.barrier(w);
  if (env.rank(w) == 0) {
    double v = 1.0;
    env.win_lock_all(0, win);
    env.accumulate(&v, 1, 1, 0, AccOp::Sum, win);
    env.win_unlock_all(win);
    EXPECT_LT(env.now(), max_origin_time);
  } else {
    env.compute(sim::ms(1));
  }
  env.barrier(w);
  if (env.rank(w) == 1) {
    EXPECT_EQ(*static_cast<double*>(base), 1.0);
  }
  env.win_free(win);
}

TEST(ThreadAgent, ProvidesAsynchronousProgress) {
  mpi::exec(cfg(2, 1, progress::Kind::Thread, true),
            [](mpi::Env& env) { overlap_body(env, sim::us(300)); });
}

TEST(InterruptAgent, ProvidesAsynchronousProgress) {
  mpi::exec(cfg(2, 1, progress::Kind::Interrupt),
            [](mpi::Env& env) { overlap_body(env, sim::us(300)); });
}

TEST(InterruptAgent, CountsOneInterruptPerSoftwareOp) {
  mpi::exec(cfg(2, 1, progress::Kind::Interrupt), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    if (env.rank(w) == 0) {
      env.win_lock_all(0, win);
      double v = 1.0;
      for (int i = 0; i < 25; ++i) {
        env.accumulate(&v, 1, 1, 0, AccOp::Sum, win);
      }
      env.win_unlock_all(win);
    }
    env.barrier(w);
    if (env.rank(w) == 0) {
      // 25 accumulates; lock traffic is hardware on no profile here, so a
      // couple of lock messages may add interrupts.
      const auto n = env.runtime().stats().get("interrupts");
      EXPECT_GE(n, 25u);
      EXPECT_LE(n, 30u);
    }
    env.win_free(win);
  });
}

TEST(InterruptAgent, StealsTimeFromComputingTarget) {
  // The target's 500us compute is extended by the interrupt handlers.
  sim::Time target_end = 0;
  mpi::exec(cfg(2, 1, progress::Kind::Interrupt), [&](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    const sim::Time t0 = env.now();
    if (env.rank(w) == 0) {
      env.win_lock_all(0, win);
      double v = 1.0;
      for (int i = 0; i < 50; ++i) {
        env.accumulate(&v, 1, 1, 0, AccOp::Sum, win);
      }
      env.win_unlock_all(win);
    } else {
      env.compute(sim::us(500));
      target_end = env.now() - t0;
    }
    env.barrier(w);
    env.win_free(win);
  });
  // 50 interrupts x (4us + handling) stolen from the computation.
  EXPECT_GT(target_end, sim::us(650));
}

TEST(ThreadAgent, OversubscriptionDoublesComputeTime) {
  sim::Time end = 0;
  mpi::exec(cfg(1, 1, progress::Kind::Thread, true), [&](mpi::Env& env) {
    const sim::Time t0 = env.now();
    env.compute(sim::us(100));
    end = env.now() - t0;
  });
  EXPECT_EQ(end, sim::us(200));
}

TEST(ThreadAgent, DedicatedCoreKeepsComputeSpeed) {
  sim::Time end = 0;
  mpi::exec(cfg(1, 1, progress::Kind::Thread, false), [&](mpi::Env& env) {
    const sim::Time t0 = env.now();
    env.compute(sim::us(100));
    end = env.now() - t0;
  });
  EXPECT_EQ(end, sim::us(100));
}

TEST(ThreadAgent, CallOverheadChargedPerMpiCall) {
  sim::Time with_thread = 0, without = 0;
  auto body = [](mpi::Env& env) -> sim::Time {
    Comm w = env.world();
    const sim::Time t0 = env.now();
    for (int i = 0; i < 10; ++i) env.barrier(w);
    return env.now() - t0;
  };
  mpi::exec(cfg(1, 2, progress::Kind::Thread),
            [&](mpi::Env& env) { with_thread = body(env); });
  mpi::exec(cfg(1, 2, progress::Kind::None),
            [&](mpi::Env& env) { without = body(env); });
  EXPECT_GT(with_thread, without);
}

TEST(Agents, SelfAccumulateSerializedThroughAgent) {
  // With an agent processing remote accumulates, self accumulates must not
  // bypass it: the total must stay exact.
  mpi::exec(cfg(1, 4, progress::Kind::Thread), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    env.win_lock_all(0, win);
    double one = 1.0;
    for (int i = 0; i < 20; ++i) {
      env.accumulate(&one, 1, 0, 0, AccOp::Sum, win);  // incl. rank 0 itself
    }
    env.win_flush_all(win);
    env.win_unlock_all(win);
    env.barrier(w);
    if (env.rank(w) == 0) {
      EXPECT_EQ(*static_cast<double*>(base), 80.0);
    }
    EXPECT_EQ(env.runtime().stats().get("atomicity_violations"), 0u);
    env.win_free(win);
  });
}

}  // namespace
