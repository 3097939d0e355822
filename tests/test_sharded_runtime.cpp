// Cross-shard determinism of the FULL runtime stack (not just the raw
// engine, which tests/test_sim_engine_sharded.cpp covers): a fig5-style
// workload — all-to-all RMA, compute, RMA burst, barrier — must produce
// IDENTICAL virtual-time results and stats counters for every shard count.
// The conservative-lookahead engine guarantees cross-shard events execute in
// (t, ...) order exactly as the single-shard scheduler would, so simulated
// results are a deterministic fact of the workload, independent of how the
// rank space is partitioned over host worker threads.
#include <gtest/gtest.h>

#include <map>
#include <string>
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
using mpi::RunConfig;
using mpi::Win;

/// Everything a run leaves behind that must be shard-count invariant.
struct Outcome {
  sim::Time rank0_end = 0;           // virtual completion time on rank 0
  std::vector<double> window;        // final window contents on rank 0
  std::map<std::string, std::uint64_t> counters;
};

/// fig5-style iteration on `nodes` single-process nodes: one accumulate to
/// every peer, flush, 100us compute, ten more accumulates per peer, flush,
/// barrier. Plus a p2p ring exchange so the send path is exercised too.
void fig5_body(mpi::Env& env, Outcome* out) {
  Comm w = env.world();
  const int p = env.size(w);
  const int me = env.rank(w);
  void* base = nullptr;
  Win win = env.win_allocate(static_cast<std::size_t>(p) * sizeof(double),
                             sizeof(double), Info{}, w, &base);
  env.win_lock_all(0, win);
  env.barrier(w);
  double v = 1.0;
  double ring = 0.0;
  for (int it = 0; it < 2; ++it) {
    for (int t = 0; t < p; ++t) {
      if (t == me) continue;
      env.accumulate(&v, 1, t, static_cast<std::size_t>(me), AccOp::Sum, win);
    }
    env.win_flush_all(win);
    env.compute(sim::us(100));
    for (int t = 0; t < p; ++t) {
      if (t == me) continue;
      for (int k = 0; k < 10; ++k) {
        env.accumulate(&v, 1, t, static_cast<std::size_t>(me), AccOp::Sum,
                       win);
      }
    }
    env.win_flush_all(win);
    mpi::Request reqs[2];
    reqs[0] = env.irecv(&ring, 1, Dt::Double, (me + p - 1) % p, 3, w);
    reqs[1] = env.isend(&v, 1, Dt::Double, (me + 1) % p, 3, w);
    env.waitall(reqs, 2);
    env.barrier(w);
  }
  env.win_unlock_all(win);
  if (me == 0) {
    out->rank0_end = env.now();
    const double* d = static_cast<const double*>(base);
    out->window.assign(d, d + p);
  }
  env.win_free(win);
}

Outcome run_fig5(int nodes, int shards, progress::Kind kind,
                 bool oversub = false, bool casper_mode = false) {
  RunConfig c;
  c.machine.profile = net::cray_xc30_regular();
  c.machine.topo.nodes = nodes;
  c.machine.topo.cores_per_node = casper_mode ? 2 : 1;
  c.progress.kind = kind;
  c.progress.oversubscribed = oversub;
  c.shards = shards;
  Outcome out;
  auto body = [&out](mpi::Env& env) { fig5_body(env, &out); };
  mpi::LayerFactory layer = nullptr;
  if (casper_mode) {
    core::Config cc;
    cc.ghosts_per_node = 1;
    layer = core::layer(cc);
  }
  // Runtime directly (not mpi::exec): the merged sharded stats registry is
  // only valid after run() returns, so grab it before the runtime dies.
  mpi::Runtime rt(c, body, layer);
  rt.run();
  out.counters = rt.stats().all();
  return out;
}

class ShardedRuntime : public ::testing::Test {};

void expect_invariant(progress::Kind kind, bool oversub, bool casper_mode,
                      const char* what) {
  const Outcome ref = run_fig5(8, 1, kind, oversub, casper_mode);
  ASSERT_GT(ref.rank0_end, 0) << what;
  for (int shards : {2, 4, 8}) {
    const Outcome got = run_fig5(8, shards, kind, oversub, casper_mode);
    EXPECT_EQ(ref.rank0_end, got.rank0_end)
        << what << ": virtual completion time changed at shards=" << shards;
    EXPECT_EQ(ref.window, got.window)
        << what << ": window bytes changed at shards=" << shards;
    EXPECT_EQ(ref.counters, got.counters)
        << what << ": stats counters changed at shards=" << shards;
  }
}

TEST_F(ShardedRuntime, Fig5OriginalModeShardInvariant) {
  expect_invariant(progress::Kind::None, false, false, "original");
}

TEST_F(ShardedRuntime, Fig5ThreadModeShardInvariant) {
  expect_invariant(progress::Kind::Thread, true, false, "thread");
}

TEST_F(ShardedRuntime, Fig5InterruptModeShardInvariant) {
  expect_invariant(progress::Kind::Interrupt, false, false, "dmapp");
}

TEST_F(ShardedRuntime, Fig5CasperModeShardInvariant) {
  expect_invariant(progress::Kind::None, false, true, "casper");
}

/// Per-window Casper state every user rank reads back after a multi-window
/// adaptive run; must not depend on which shard registered each window.
struct WindowState {
  std::vector<int> bound_ghost;            // [win][user] flattened
  std::vector<int> internal_windows;       // [win]
  std::vector<std::uint64_t> adapt_digest;  // [win]
  std::vector<double> window;              // rank 0's window bytes, all wins
  std::map<std::string, std::uint64_t> counters;
};

/// 4 nodes x (4 users + 2 ghosts), segment binding with the adaptive
/// controller on: every user allocates three windows back to back (so their
/// registrations race across shards), then hammers user i of the next node
/// on window i for four barrier-separated rounds, so each window remaps
/// differently.
WindowState run_multiwin(int shards) {
  constexpr int kWins = 3;
  constexpr int kUsers = 16;
  RunConfig c;
  c.machine.profile = net::cray_xc30_regular();
  c.machine.topo.nodes = 4;
  c.machine.topo.cores_per_node = 6;
  c.shards = shards;
  core::Config cc;
  cc.ghosts_per_node = 2;
  cc.binding = core::Binding::Segment;
  cc.adaptive.enabled = true;
  WindowState out;
  out.bound_ghost.assign(kWins * kUsers, -1);
  out.internal_windows.assign(kWins, -1);
  out.adapt_digest.assign(kWins, 0);
  auto body = [&out](mpi::Env& env) {
    Comm w = env.world();
    const int me = env.rank(w);
    const int p = env.size(w);
    const int next_node = 4 * ((me / 4 + 1) % (p / 4));  // its first user
    const char* hints[kWins] = {nullptr, "lockall", "lock,lockall"};
    Win wins[kWins];
    void* bases[kWins] = {};
    for (int i = 0; i < kWins; ++i) {
      Info info;
      if (hints[i] != nullptr) info.set(core::kEpochsUsedKey, hints[i]);
      wins[i] = env.win_allocate(static_cast<std::size_t>(32 * (i + 1)) *
                                     sizeof(double),
                                 sizeof(double), info, w, &bases[i]);
      env.win_lock_all(0, wins[i]);
    }
    env.barrier(w);
    std::vector<double> v(8, 1.0);
    for (int r = 0; r < 4; ++r) {
      for (int i = 0; i < kWins; ++i) {
        for (int k = 0; k < 4 * (i + 1); ++k) {
          env.put(v.data(), 8, next_node + i, static_cast<std::size_t>(k) * 8,
                  wins[i]);
        }
        env.win_flush_all(wins[i]);
      }
      env.barrier(w);  // adaptive epoch boundary on every window
    }
    auto& L = dynamic_cast<core::CasperLayer&>(env.runtime().layer());
    for (int i = 0; i < kWins; ++i) {
      const auto at = static_cast<std::size_t>(i * kUsers + me);
      out.bound_ghost[at] = L.bound_ghost_of(wins[i], me);
      if (me == 0) {
        out.internal_windows[static_cast<std::size_t>(i)] =
            L.internal_window_count(wins[i]);
        out.adapt_digest[static_cast<std::size_t>(i)] =
            L.adapt_digest(wins[i]);
        const double* d = static_cast<const double*>(bases[i]);
        out.window.insert(out.window.end(), d, d + 32 * (i + 1));
      }
    }
    env.barrier(w);
    for (int i = 0; i < kWins; ++i) {
      env.win_unlock_all(wins[i]);
      env.win_free(wins[i]);
    }
  };
  mpi::Runtime rt(c, body, core::layer(cc));
  rt.run();
  out.counters = rt.stats().all();
  return out;
}

TEST_F(ShardedRuntime, CasperMultiWindowStateShardInvariant) {
  const WindowState ref = run_multiwin(1);
  ASSERT_EQ(ref.counters.at("casper_window_tables"), 3u);
  ASSERT_EQ(ref.internal_windows, (std::vector<int>{4 + 1, 1, 4 + 1}));
  for (int shards : {2, 4}) {
    const WindowState got = run_multiwin(shards);
    EXPECT_EQ(ref.bound_ghost, got.bound_ghost) << "shards=" << shards;
    EXPECT_EQ(ref.internal_windows, got.internal_windows)
        << "shards=" << shards;
    EXPECT_EQ(ref.adapt_digest, got.adapt_digest) << "shards=" << shards;
    EXPECT_EQ(ref.window, got.window) << "shards=" << shards;
    EXPECT_EQ(ref.counters, got.counters) << "shards=" << shards;
  }
}

}  // namespace
