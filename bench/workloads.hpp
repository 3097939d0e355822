// The Fig. 5-8 workloads, shared by the `figures` registry and
// `ablation_adaptive` (which reuses the Fig. 7 workload).
#pragma once

#include <vector>

#include "ccsd/ccsd.hpp"
#include "common.hpp"

namespace casper::bench {

/// Fig. 5: all-to-all communication - computation - communication. Each
/// iteration, every process issues one RMA operation (one double) to every
/// other process, computes 100 us, then issues ten to every other process.
inline double fig5_avg_iter_us(const RunSpec& spec, bool use_put) {
  return run_metric(spec, [use_put](mpi::Env& env, double* out) {
    mpi::Comm w = env.world();
    const int p = env.size(w);
    const int me = env.rank(w);
    void* base = nullptr;
    mpi::Win win = env.win_allocate(
        static_cast<std::size_t>(p) * sizeof(double), sizeof(double),
        mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    const int iters = 4;
    double total = 0;
    env.barrier(w);
    for (int it = 0; it < iters; ++it) {
      env.barrier(w);
      const sim::Time t0 = env.now();
      double v = 1.0;
      for (int t = 0; t < p; ++t) {
        if (t == me) continue;
        if (use_put) {
          env.put(&v, 1, t, static_cast<std::size_t>(me), win);
        } else {
          env.accumulate(&v, 1, t, static_cast<std::size_t>(me),
                         mpi::AccOp::Sum, win);
        }
      }
      env.win_flush_all(win);
      env.compute(sim::us(100));
      for (int t = 0; t < p; ++t) {
        if (t == me) continue;
        for (int k = 0; k < 10; ++k) {
          if (use_put) {
            env.put(&v, 1, t, static_cast<std::size_t>(me), win);
          } else {
            env.accumulate(&v, 1, t, static_cast<std::size_t>(me),
                           mpi::AccOp::Sum, win);
          }
        }
      }
      env.win_flush_all(win);
      total += sim::to_us(env.now() - t0);
    }
    env.win_unlock_all(win);
    if (me == 0) *out = total / iters;
    env.win_free(win);
  });
}

/// Fig. 6(a)/(b) workload: every process sends `ops` accumulate messages
/// (one double each) to every other process under lockall; returns the
/// average total exchange time in us (max over ranks).
inline double fig6_alltoall_acc_us(const RunSpec& spec, int ops) {
  return run_metric(spec, [ops](mpi::Env& env, double* out) {
    mpi::Comm w = env.world();
    const int p = env.size(w);
    const int me = env.rank(w);
    void* base = nullptr;
    mpi::Win win = env.win_allocate(
        static_cast<std::size_t>(p) * sizeof(double), sizeof(double),
        mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    env.barrier(w);
    const sim::Time t0 = env.now();
    double v = 1.0;
    for (int k = 0; k < ops; ++k) {
      for (int t = 0; t < p; ++t) {
        if (t == me) continue;
        env.accumulate(&v, 1, t, static_cast<std::size_t>(me),
                       mpi::AccOp::Sum, win);
      }
    }
    env.win_flush_all(win);
    env.barrier(w);
    const double us = sim::to_us(env.now() - t0);
    double us_max = 0;
    env.allreduce(&us, &us_max, 1, mpi::Dt::Double, mpi::AccOp::Max, w);
    env.win_unlock_all(win);
    if (me == 0) *out = us_max;
    env.win_free(win);
  });
}

/// Fig. 6(c) workload: the first process of every node exposes a large
/// window (`big_elems` doubles), everyone else 2 doubles; every process
/// issues `ops` accumulates to each node-master and one to everyone else.
/// Segment binding splits the hot windows between the ghosts.
inline double fig6c_uneven_acc_us(const RunSpec& spec, int ops,
                                  int big_elems) {
  return run_metric(spec, [ops, big_elems](mpi::Env& env, double* out) {
    mpi::Comm w = env.world();
    const int p = env.size(w);
    const int me = env.rank(w);
    // node-masters are the user ranks whose index is a multiple of the
    // per-node user count; derive it from the underlying topology.
    const auto& topo = env.runtime().topo();
    const int users_per_node = p / topo.nodes;
    const bool is_master = (me % users_per_node) == 0;

    const std::size_t my_elems =
        is_master ? static_cast<std::size_t>(big_elems) : 2;
    void* base = nullptr;
    mpi::Win win = env.win_allocate(my_elems * sizeof(double),
                                    sizeof(double), mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    env.barrier(w);
    const sim::Time t0 = env.now();
    std::vector<double> v(static_cast<std::size_t>(big_elems), 1.0);
    for (int t = 0; t < p; ++t) {
      if (t == me) continue;
      if ((t % users_per_node) == 0) {
        for (int k = 0; k < ops; ++k) {
          env.accumulate(v.data(), big_elems, t, 0, mpi::AccOp::Sum, win);
        }
      } else {
        env.accumulate(v.data(), 1, t, 0, mpi::AccOp::Sum, win);
      }
    }
    env.win_flush_all(win);
    env.barrier(w);
    const double us = sim::to_us(env.now() - t0);
    double us_max = 0;
    env.allreduce(&us, &us_max, 1, mpi::Dt::Double, mpi::AccOp::Max, w);
    env.win_unlock_all(win);
    if (me == 0) *out = us_max;
    env.win_free(win);
  });
}

/// Fig. 7: lockall - (ops) - unlockall over all other processes. Node
/// masters (local rank 0 in the paper) receive `hot_ops` operations of
/// `hot_elems` doubles; every other target one single double. `with_acc`
/// issues an ACCUMULATE+PUT pair (accumulates always follow static binding;
/// puts may be dynamically balanced), otherwise PUT only.
inline double fig7_uneven_us(const RunSpec& spec, int hot_ops, int hot_elems,
                             bool with_acc, bool round_barriers = false) {
  return run_metric(spec, [hot_ops, hot_elems, with_acc,
                           round_barriers](mpi::Env& env, double* out) {
    mpi::Comm w = env.world();
    const int p = env.size(w);
    const int me = env.rank(w);
    const auto& topo = env.runtime().topo();
    const int users_per_node = p / topo.nodes;

    void* base = nullptr;
    mpi::Win win = env.win_allocate(
        static_cast<std::size_t>(hot_elems) * sizeof(double), sizeof(double),
        mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    env.barrier(w);
    const sim::Time t0 = env.now();
    std::vector<double> v(static_cast<std::size_t>(hot_elems), 1.0);
    // `hot_ops` rounds over all targets: node masters get a hot-sized
    // operation every round, everyone else a single double in round 0 only.
    // Interleaving hot and cold operations is what distinguishes the
    // counting policies (a count-balanced ghost can be byte-overloaded).
    for (int k = 0; k < hot_ops; ++k) {
      for (int t = 0; t < p; ++t) {
        if (t == me) continue;
        const bool hot = (t % users_per_node) == 0;
        if (!hot && k > 0) continue;
        const int elems = hot ? hot_elems : 1;
        if (with_acc) {
          env.accumulate(v.data(), elems, t, 0, mpi::AccOp::Sum, win);
        }
        env.put(v.data(), elems, t, 0, win);
      }
      if (round_barriers && k + 1 < hot_ops) {
        // Adaptive series: complete the round and give the online
        // controller an epoch boundary to adapt at. The extra sync cost is
        // charged to the adaptive series (it is part of adapting).
        env.win_flush_all(win);
        env.barrier(w);
      }
    }
    env.win_flush_all(win);
    env.barrier(w);
    const double us = sim::to_us(env.now() - t0);
    double us_max = 0;
    env.allreduce(&us, &us_max, 1, mpi::Dt::Double, mpi::AccOp::Max, w);
    env.win_unlock_all(win);
    if (me == 0) *out = us_max;
    env.win_free(win);
  });
}

/// Spec for one dynamic-binding series on the Fig. 7 cluster.
inline RunSpec fig7_spec(core::DynamicLb lb, int nodes, int users_per_node,
                         int ghosts) {
  RunSpec s;
  s.mode = Mode::Casper;
  s.profile = net::cray_xc30_regular();
  s.nodes = nodes;
  s.user_cpn = users_per_node;
  s.ghosts = ghosts;
  s.binding = core::Binding::Rank;
  s.dynamic = lb;
  return s;
}

/// The `--adaptive` series (see DESIGN.md §15): same cluster, starting from
/// the random policy so the online controller may switch to the counting
/// policy the workload actually rewards, at per-round epoch boundaries.
inline RunSpec fig7_adaptive_spec(int nodes, int users_per_node, int ghosts) {
  RunSpec s = fig7_spec(core::DynamicLb::Random, nodes, users_per_node,
                        ghosts);
  s.adaptive.enabled = true;
  return s;
}

/// Fig. 8: the mini-NWChem CCSD phases under the paper's four Table-I core
/// deployments: original MPI (all cores compute), casper (cores - G compute,
/// G ghosts per node), thread (O) (all cores compute, progress threads
/// oversubscribed) and thread (D) (half the cores compute).
struct Fig8Row {
  double original_ms = 0;
  double casper_ms = 0;
  double thread_o_ms = 0;
  double thread_d_ms = 0;
};

inline double ccsd_wall_ms(const RunSpec& spec, const ccsd::Params& p) {
  return run_metric(spec, [&p](mpi::Env& env, double* out) {
    auto r = ccsd::run_phase(env, env.world(), p);
    if (env.rank(env.world()) == 0) *out = sim::to_ms(r.wall);
  });
}

/// Run one problem at one machine size under all four deployments.
/// `cpn` is the full per-node core count; Casper dedicates `ghosts` of them.
inline Fig8Row fig8_row(int nodes, int cpn, int ghosts,
                        const ccsd::Params& p) {
  Fig8Row row;
  {
    RunSpec s;
    s.mode = Mode::Original;
    s.profile = net::cray_xc30_regular();
    s.nodes = nodes;
    s.user_cpn = cpn;
    row.original_ms = ccsd_wall_ms(s, p);
  }
  {
    RunSpec s;
    s.mode = Mode::Casper;
    s.profile = net::cray_xc30_regular();
    s.nodes = nodes;
    s.user_cpn = cpn - ghosts;  // same total cores as the other modes
    s.ghosts = ghosts;
    row.casper_ms = ccsd_wall_ms(s, p);
  }
  {
    RunSpec s;
    s.mode = Mode::Thread;  // oversubscribed
    s.profile = net::cray_xc30_regular();
    s.nodes = nodes;
    s.user_cpn = cpn;
    row.thread_o_ms = ccsd_wall_ms(s, p);
  }
  {
    RunSpec s;
    s.mode = Mode::ThreadD;  // dedicated: half the cores run the app
    s.profile = net::cray_xc30_regular();
    s.nodes = nodes;
    s.user_cpn = cpn / 2;
    row.thread_d_ms = ccsd_wall_ms(s, p);
  }
  return row;
}

}  // namespace casper::bench
