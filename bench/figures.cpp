// figures: the paper's evaluation (Figs. 3-8, Table I), the 10k-rank fig5xl
// scale run, four design ablations and the linearizability-checked KV and
// MWCAS workloads as one registry and one main().
//
// An entry holds an id, banner and columns, a series runner that fills the
// table (a reduced scale keeping the curve shapes by default, the paper's
// ranges under --full), the expectation from the paper's text, and claims:
// predicates over the printed numbers that turn the expectation into a
// verdict, printed after it as
//
//   claim <id>.<name>: holds|DIVERGES (<measured>)
//
// A claim pinned as a known divergence (open on ROADMAP.md) is expected to
// print DIVERGES. figures exits 1 when any verdict differs from its pin, in
// either direction, and 2 on a usage error.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/linear.hpp"
#include "check/mwlinear.hpp"
#include "kv/kv.hpp"
#include "kv/traffic.hpp"
#include "mwcas/mwcas.hpp"
#include "obs/record.hpp"
#include "report/json.hpp"
#include "workloads.hpp"

using namespace casper;
using bench::Mode;
using bench::RunSpec;

namespace {

const char* const kUsage =
    "usage: figures <id>... [--csv] [--full] [--shards N] [--trace PATH]\n"
    "  [--json] [--adaptive] [--out PATH] [--iters N]; N is an integer >= 1.\n"
    "  --full: paper scale, also kv, mwcas; --shards: fig5a/b/c;\n"
    "  --trace: fig4a; --json: fig4a, fig6a, kv, mwcas, adaptive;\n"
    "  --adaptive: fig7a/b/c; --out, --iters: fig5xl. ids:";

struct Opts {
  bool csv = false;
  bool full = false;
  bool json = false;
  bool adaptive = false;
  int shards = 1;
  int iters = 2;
  const char* trace = nullptr;
  const char* out = nullptr;
};

std::string cnt(int n) {
  return report::fmt_count(static_cast<std::uint64_t>(n));
}

/// A run of `nodes` x `upn` application processes (Cray XC30 by default).
RunSpec spec(Mode m, int nodes, int upn,
             const net::Profile& profile = net::cray_xc30_regular()) {
  RunSpec s;
  s.mode = m;
  s.profile = profile;
  s.nodes = nodes;
  s.user_cpn = upn;
  return s;
}

// -- Series runners and their workloads ------------------------------------

/// Fig. 3(a): MPI_WIN_ALLOCATE time on one node. Casper creates one
/// overlapping internal window per local user when "lock" is among the
/// epochs used, a single extra window otherwise.
double alloc_time_us(const RunSpec& spec, const char* epochs_hint) {
  return bench::run_metric(spec, [epochs_hint](mpi::Env& env, double* out) {
    mpi::Comm w = env.world();
    mpi::Info info;
    if (epochs_hint != nullptr) {
      info.set(core::kEpochsUsedKey, epochs_hint);
    }
    env.barrier(w);
    const sim::Time t0 = env.now();
    void* base = nullptr;
    mpi::Win win =
        env.win_allocate(4096, sizeof(double), info, w, &base);
    const double us = sim::to_us(env.now() - t0);
    if (env.rank(w) == 0) *out = us;
    env.win_free(win);
  });
}

void fig3a(const Opts&, report::Table& t) {
  const char* const hints[] = {nullptr, "lock", "lockall", "fence"};
  for (int n = 2; n <= 22; n += 2) {
    std::vector<std::string> row = {
        cnt(n), report::fmt(alloc_time_us(spec(Mode::Original, 1, n), nullptr),
                            1)};
    for (const char* hint : hints) {
      row.push_back(
          report::fmt(alloc_time_us(spec(Mode::Casper, 1, n), hint), 1));
    }
    t.row(row);
  }
}

/// Figs. 3(b) and 4(b): rank 0 runs fence(NOPRECEDE) - n x accumulate -
/// fence(NOSUCCEED) `iters` times while rank 1 runs the matching fences
/// around `delay` of computation; returns rank 0's mean epoch time.
double fence_us(const RunSpec& spec, int nops, int iters, sim::Time delay) {
  return bench::run_metric(spec, [=](mpi::Env& env, double* out) {
    mpi::Comm w = env.world();
    void* base = nullptr;
    mpi::Win win = env.win_allocate(sizeof(double), sizeof(double),
                                    mpi::Info{}, w, &base);
    double total = 0;
    env.barrier(w);
    for (int it = 0; it < iters; ++it) {
      const sim::Time t0 = env.now();
      env.win_fence(mpi::kModeNoPrecede, win);
      if (env.rank(w) == 0) {
        double v = 1.0;
        for (int i = 0; i < nops; ++i) {
          env.accumulate(&v, 1, 1, 0, mpi::AccOp::Sum, win);
        }
      } else if (delay > 0) {
        env.compute(delay);
      }
      env.win_fence(mpi::kModeNoSucceed, win);
      if (env.rank(w) == 0) total += sim::to_us(env.now() - t0);
    }
    if (env.rank(w) == 0) *out = total / iters;
    env.win_free(win);
  });
}

/// Fig. 3(b) and the hint ablation: rank 0 runs start - n x accumulate -
/// complete `iters` times, rank 1 post - wait, under `mode_assert`; returns
/// rank 0's mean epoch time.
double pscw_us(const RunSpec& spec, int nops, int iters,
               unsigned mode_assert) {
  return bench::run_metric(spec, [=](mpi::Env& env, double* out) {
    mpi::Comm w = env.world();
    void* base = nullptr;
    mpi::Win win = env.win_allocate(sizeof(double), sizeof(double),
                                    mpi::Info{}, w, &base);
    env.barrier(w);
    const sim::Time t0 = env.now();
    for (int it = 0; it < iters; ++it) {
      // With NOCHECK the user must order post before start; our barrier
      // provides that ordering.
      if (mode_assert & mpi::kModeNoCheck) env.barrier(w);
      if (env.rank(w) == 0) {
        env.win_start(mpi::Group({1}), mode_assert, win);
        double v = 1.0;
        for (int i = 0; i < nops; ++i) {
          env.accumulate(&v, 1, 1, 0, mpi::AccOp::Sum, win);
        }
        env.win_complete(win);
      } else {
        env.win_post(mpi::Group({0}), mode_assert, win);
        env.win_wait(win);
      }
    }
    if (env.rank(w) == 0) *out = sim::to_us(env.now() - t0) / iters;
    env.win_free(win);
  });
}

void fig3b(const Opts&, report::Table& t) {
  const RunSpec orig = spec(Mode::Original, 2, 1);
  const RunSpec csp = spec(Mode::Casper, 2, 1);
  for (int n = 2; n <= 8192; n *= 2) {
    const double of = fence_us(orig, n, 1, 0);
    const double cf = fence_us(csp, n, 1, 0);
    const double op = pscw_us(orig, n, 1, 0);
    const double cp = pscw_us(csp, n, 1, 0);
    t.row({cnt(n), report::fmt(of, 1), report::fmt(cf, 1),
           report::fmt(100.0 * (cf - of) / of, 1), report::fmt(op, 1),
           report::fmt(cp, 1), report::fmt(100.0 * (cp - op) / op, 1)});
  }
}

/// Figs. 4(a) and 4(c): rank 0 runs lockall - n x accumulate - unlockall
/// `iters` times while rank 1 computes for `wait`; returns rank 0's mean
/// time and, when `interrupts` is set, the system interrupts raised.
double passive_us(const RunSpec& spec, int nops, int iters, sim::Time wait,
                  double* interrupts = nullptr) {
  return bench::run_metric(spec, [=](mpi::Env& env, double* out) {
    mpi::Comm w = env.world();
    void* base = nullptr;
    mpi::Win win = env.win_allocate(sizeof(double), sizeof(double),
                                    mpi::Info{}, w, &base);
    double total = 0;
    for (int it = 0; it < iters; ++it) {
      env.barrier(w);
      if (env.rank(w) == 0) {
        const sim::Time t0 = env.now();
        env.win_lock_all(0, win);
        double v = 1.0;
        for (int i = 0; i < nops; ++i) {
          env.accumulate(&v, 1, 1, 0, mpi::AccOp::Sum, win);
        }
        env.win_unlock_all(win);
        total += sim::to_us(env.now() - t0);
      } else {
        env.compute(wait);
      }
    }
    if (env.rank(w) == 0) *out = total / iters;
    if (interrupts != nullptr) {
      env.barrier(w);
      if (env.rank(w) == 0) {
        *interrupts =
            static_cast<double>(env.runtime().stats().get("interrupts"));
      }
    }
    env.win_free(win);
  });
}

constexpr std::initializer_list<Mode> kFourModes = {
    Mode::Original, Mode::Thread, Mode::Dmapp, Mode::Casper};

void fig4a(const Opts&, report::Table& t) {
  for (sim::Time wait = sim::us(1); wait <= sim::us(128); wait *= 2) {
    std::vector<std::string> row = {report::fmt(sim::to_us(wait), 0)};
    for (Mode m : kFourModes) {
      row.push_back(report::fmt(passive_us(spec(m, 2, 1), 1, 16, wait), 2));
    }
    t.row(row);
  }
}

/// Write BENCH_<id>.json: the table, the metrics of an instrumented run and
/// the best-of-N host time of the uninstrumented casper sweep.
int write_bench(const char* id, const report::Table& t,
                const obs::Recorder& rec, double sweep_ms, int runs) {
  const std::string path = std::string("BENCH_") + id + ".json";
  if (!report::write_bench_json_file(path, id, t, &rec.metrics(),
                                     bench::host_block_json(sweep_ms, runs))) {
    std::cerr << id << ": cannot write " << path << "\n";
    return 1;
  }
  return 0;
}

/// --trace / --json: re-run the canonical casper configuration (wait = 4 us)
/// instrumented, outside the sweep, so the table is never instrumented.
int fig4a_hook(const Opts& o, const report::Table& t) {
  if (o.trace == nullptr && !o.json) return 0;
  obs::Recorder rec;
  RunSpec s = spec(Mode::Casper, 2, 1);
  s.recorder = &rec;
  passive_us(s, 1, 16, sim::us(4));
  if (o.trace != nullptr) {
    std::ofstream f(o.trace);
    if (!f) {
      std::cerr << "fig4a: cannot open " << o.trace << "\n";
      return 1;
    }
    rec.trace().export_chrome(f);
    std::cout << "trace: " << rec.trace().recorded() << " events ("
              << rec.trace().dropped() << " dropped) -> " << o.trace << "\n";
  }
  if (!o.json) return 0;
  const double sweep_ms = bench::host_best_of_ms(5, [] {
    for (sim::Time wait = sim::us(1); wait <= sim::us(128); wait *= 2) {
      passive_us(spec(Mode::Casper, 2, 1), 1, 16, wait);
    }
  });
  return write_bench("fig4a", t, rec, sweep_ms, 5);
}

void fig4b(const Opts&, report::Table& t) {
  for (int n = 1; n <= 1024; n *= 2) {
    std::vector<double> us;
    for (Mode m : kFourModes) {
      us.push_back(fence_us(spec(m, 2, 1), n, 8, sim::us(100)));
    }
    t.row({cnt(n), report::fmt(us[0], 1), report::fmt(us[1], 1),
           report::fmt(us[2], 1), report::fmt(us[3], 1),
           report::fmt(100.0 * (us[0] - us[3]) / us[0], 1)});
  }
}

void fig4c(const Opts&, report::Table& t) {
  for (int n = 16; n <= 1024; n *= 4) {
    double interrupts = 0;
    const sim::Time dgemm = sim::ms(2);
    const double orig = passive_us(spec(Mode::Original, 2, 1), n, 1, dgemm);
    const double dma =
        passive_us(spec(Mode::Dmapp, 2, 1), n, 1, dgemm, &interrupts);
    const double csp = passive_us(spec(Mode::Casper, 2, 1), n, 1, dgemm);
    t.row({cnt(n), report::fmt(orig, 1), report::fmt(dma, 1),
           report::fmt(csp, 1),
           report::fmt_count(static_cast<std::uint64_t>(interrupts))});
  }
}

/// Fig. 5(a)-(c): one process per node, one column per mode. Fig. 5(b) runs
/// Casper on the DMAPP-capable network: redirected hardware PUTs still run
/// in hardware.
void fig5(const Opts& o, report::Table& t, const net::Profile& profile,
          std::initializer_list<Mode> modes, bool use_put, int reduced_max) {
  for (int p = 2; p <= (o.full ? 256 : reduced_max); p *= 2) {
    std::vector<std::string> row = {cnt(p)};
    for (Mode m : modes) {
      RunSpec s = spec(m, p, 1, profile);
      s.shards = o.shards;
      if (use_put && m == Mode::Casper) s.profile = net::cray_xc30_dmapp();
      row.push_back(
          report::fmt(bench::fig5_avg_iter_us(s, use_put) / 1000.0, 3));
    }
    t.row(row);
  }
}

/// One Fig. 6 row: original, Casper with 2/4/8 extra ghost cores per node,
/// and the 8-ghost speedup.
template <class Measure>
void fig6_row(report::Table& t, int x, int nodes, int upn,
              core::Binding binding, Measure measure) {
  RunSpec s = spec(Mode::Original, nodes, upn);
  s.binding = binding;
  const double orig = measure(s);
  s.mode = Mode::Casper;
  double g[3];
  for (int i = 0; i < 3; ++i) {
    s.ghosts = 2 << i;
    g[i] = measure(s);
  }
  t.row({cnt(x), report::fmt(orig / 1000.0, 2), report::fmt(g[0] / 1000.0, 2),
         report::fmt(g[1] / 1000.0, 2), report::fmt(g[2] / 1000.0, 2),
         report::fmt(orig / g[2], 2)});
}

void fig6a(const Opts& o, report::Table& t) {
  for (int p = 64; p <= (o.full ? 1024 : 256); p *= 2) {
    fig6_row(t, p, p / 16, 16, core::Binding::Rank, [](const RunSpec& s) {
      return bench::fig6_alltoall_acc_us(s, 1);
    });
  }
}

/// --json: host block = the p=64 casper_8g run, best-of-5; metrics from a
/// separate instrumented p=64 run.
int fig6a_hook(const Opts& o, const report::Table& t) {
  if (!o.json) return 0;
  RunSpec s = spec(Mode::Casper, 64 / 16, 16);
  s.ghosts = 8;
  const double sweep_ms = bench::host_best_of_ms(
      5, [&s] { bench::fig6_alltoall_acc_us(s, 1); });
  obs::Recorder rec;
  s.recorder = &rec;
  bench::fig6_alltoall_acc_us(s, 1);
  return write_bench("fig6a", t, rec, sweep_ms, 5);
}

void fig6b(const Opts& o, report::Table& t) {
  for (int ops = 1; ops <= (o.full ? 512 : 128); ops *= 2) {
    fig6_row(t, ops, 2, 16, core::Binding::Rank, [ops](const RunSpec& s) {
      return bench::fig6_alltoall_acc_us(s, ops);
    });
  }
}

void fig6c(const Opts& o, report::Table& t) {
  const int n = o.full ? 16 : 8;  // nodes, and users per node
  for (int ops = 1; ops <= (o.full ? 64 : 32); ops *= 2) {
    fig6_row(t, ops, n, n, core::Binding::Segment, [ops](const RunSpec& s) {
      return bench::fig6c_uneven_acc_us(s, ops, 512);  // 4 KB hot windows
    });
  }
}

/// Fig. 7 on 8 nodes x 8 users (16 x 20 under --full) with 4 ghosts:
/// original, one column per policy in `lbs`, then the speedup of the last
/// policy over the one before it. (a)/(b) sweep the hot operation count,
/// (c) the hot operation size at 4 pairs.
void fig7(const Opts& o, report::Table& t,
          std::initializer_list<core::DynamicLb> lbs, bool with_acc,
          bool size_sweep) {
  const int nodes = o.full ? 16 : 8;
  const int upn = o.full ? 20 : 8;
  const int max_x =
      size_sweep ? (o.full ? 65536 : 4096) : (o.full ? 2048 : 256);
  for (int x = size_sweep ? 1 : 2; x <= max_x; x *= size_sweep ? 8 : 4) {
    const int hot_ops = size_sweep ? 4 : x;
    const int elems = size_sweep ? x : 1;
    std::vector<double> us = {bench::fig7_uneven_us(
        spec(Mode::Original, nodes, upn), hot_ops, elems, with_acc)};
    for (core::DynamicLb lb : lbs) {
      us.push_back(bench::fig7_uneven_us(bench::fig7_spec(lb, nodes, upn, 4),
                                         hot_ops, elems, with_acc));
    }
    std::vector<std::string> row = {cnt(x)};
    for (double v : us) row.push_back(report::fmt(v / 1000.0, 2));
    row.push_back(report::fmt(us[us.size() - 2] / us.back(), 2));
    if (o.adaptive) {
      const double ad = bench::fig7_uneven_us(
          bench::fig7_adaptive_spec(nodes, upn, 4), hot_ops, elems, with_acc,
          true);
      row.push_back(report::fmt(ad / 1000.0, 2));
    }
    t.row(row);
  }
}

/// Fig. 8: mini-CCSD on 8-core nodes with 1 ghost (24-core nodes with 4
/// ghosts under --full) under the four Table-I deployments.
void fig8(const Opts& o, report::Table& t, const std::vector<int>& nodes,
          const ccsd::Params& p, bool speedup) {
  const int cpn = o.full ? 24 : 8;
  for (int n : nodes) {
    const bench::Fig8Row r = bench::fig8_row(n, cpn, o.full ? 4 : 1, p);
    std::vector<std::string> row = {
        cnt(n * cpn), report::fmt(r.original_ms), report::fmt(r.casper_ms),
        report::fmt(r.thread_o_ms), report::fmt(r.thread_d_ms)};
    if (speedup) row.push_back(report::fmt(r.original_ms / r.casper_ms, 2));
    t.row(row);
  }
}

/// Table I: computing and async-progress cores per node, checked against
/// the application-visible ranks of a 1-node run.
void table1(const Opts& o, report::Table& t) {
  const int cpn = o.full ? 24 : 8;
  const int g = o.full ? 4 : 1;
  const struct {
    const char* name;
    Mode mode;
    int compute, async;
  } rows[] = {{"Original MPI", Mode::Original, cpn, 0},
              {"Casper", Mode::Casper, cpn - g, g},
              {"Thread (O)", Mode::Thread, cpn, cpn},
              {"Thread (D)", Mode::ThreadD, cpn / 2, cpn / 2}};
  for (const auto& r : rows) {
    RunSpec s = spec(r.mode, 1, r.compute);
    s.ghosts = g;
    int ranks = 0;
    bench::run(s, [&ranks](mpi::Env& env) {
      if (env.rank(env.world()) == 0) ranks = env.size(env.world());
    });
    t.row({r.name, cnt(r.compute), cnt(r.async), cnt(ranks)});
  }
}

/// Binding and topology ablations: `rounds` of an accumulate of
/// `acc_elems` doubles to every other rank (plus, with `hot_puts`, a PUT of
/// the whole `elems`-double window to every node master) under lockall;
/// returns the slowest rank's time.
double ablation_us(mpi::Env& env, int elems, int acc_elems, int rounds,
                   bool hot_puts) {
  mpi::Comm w = env.world();
  const int p = env.size(w);
  const int me = env.rank(w);
  const int upn = p / env.runtime().topo().nodes;
  void* base = nullptr;
  mpi::Win win = env.win_allocate(
      static_cast<std::size_t>(elems) * sizeof(double), sizeof(double),
      mpi::Info{}, w, &base);
  env.win_lock_all(0, win);
  env.barrier(w);
  const sim::Time t0 = env.now();
  std::vector<double> v(static_cast<std::size_t>(elems), 1.0);
  for (int round = 0; round < rounds; ++round) {
    for (int t = 0; t < p; ++t) {
      if (t == me) continue;
      env.accumulate(v.data(), acc_elems, t, 0, mpi::AccOp::Sum, win);
      if (hot_puts && t % upn == 0) env.put(v.data(), elems, t, 0, win);
    }
  }
  env.win_flush_all(win);
  env.barrier(w);
  const double us = sim::to_us(env.now() - t0);
  double us_max = 0;
  env.allreduce(&us, &us_max, 1, mpi::Dt::Double, mpi::AccOp::Max, w);
  env.win_unlock_all(win);
  env.win_free(win);
  return us_max;
}

/// Uniform 4-double accumulates plus a hot node-master PUT stream.
double mixed_us(const RunSpec& spec) {
  return bench::run_metric(spec, [](mpi::Env& env, double* out) {
    const double us = ablation_us(env, 64, 4, 8, true);
    if (env.rank(env.world()) == 0) *out = us;
  });
}

void ablation_binding(const Opts&, report::Table& t) {
  RunSpec s = spec(Mode::Casper, 8, 8);
  s.ghosts = 4;
  const char* const names[] = {"none", "random", "op-count", "byte-count"};
  for (auto binding : {core::Binding::Rank, core::Binding::Segment}) {
    for (auto dyn :
         {core::DynamicLb::None, core::DynamicLb::Random,
          core::DynamicLb::OpCounting, core::DynamicLb::ByteCounting}) {
      s.binding = binding;
      s.dynamic = dyn;
      t.row({binding == core::Binding::Rank ? "rank" : "segment",
             names[static_cast<int>(dyn)],
             report::fmt(mixed_us(s) / 1000.0, 2)});
    }
  }
  t.row({"(original MPI)", "-",
         report::fmt(mixed_us(spec(Mode::Original, 8, 8)) / 1000.0, 2)});
}

/// Hint ablation, fence: 64 epochs with `first_assert` on the opening fence
/// and `mid_assert` on the rest, under an optional epochs_used hint.
double hints_fence_us(unsigned first_assert, unsigned mid_assert,
                      const char* hint) {
  const auto body = [=](mpi::Env& env, double* out) {
    mpi::Comm w = env.world();
    mpi::Info info;
    if (hint != nullptr) info.set(core::kEpochsUsedKey, hint);
    void* base = nullptr;
    mpi::Win win =
        env.win_allocate(sizeof(double), sizeof(double), info, w, &base);
    env.barrier(w);
    const sim::Time t0 = env.now();
    const int iters = 64;
    env.win_fence(first_assert, win);
    for (int i = 0; i < iters; ++i) {
      if (env.rank(w) == 0) {
        double v = 1.0;
        env.accumulate(&v, 1, 1, 0, mpi::AccOp::Sum, win);
      }
      env.win_fence(mid_assert, win);
    }
    if (env.rank(w) == 0) *out = sim::to_us(env.now() - t0) / iters;
    env.win_free(win);
  };
  return bench::run_metric(spec(Mode::Casper, 2, 1), body);
}

void ablation_hints(const Opts&, report::Table& t) {
  const unsigned np = mpi::kModeNoPrecede;
  const RunSpec csp = spec(Mode::Casper, 2, 1);
  const auto row = [&t](const char* name, double us) {
    t.row({name, report::fmt(us, 2)});
  };
  row("fence, no asserts", hints_fence_us(0, 0, nullptr));
  row("fence, NOPRECEDE on first", hints_fence_us(np, 0, nullptr));
  row("fence, NOSTORE|NOPUT|NOPRECEDE every epoch",
      hints_fence_us(np, mpi::kModeNoStore | mpi::kModeNoPut | np, nullptr));
  row("fence, epochs_used=fence hint", hints_fence_us(0, 0, "fence"));
  row("pscw, no asserts", pscw_us(csp, 1, 64, 0));
  row("pscw, NOCHECK", pscw_us(csp, 1, 64, mpi::kModeNoCheck));
}

/// Topology ablation (paper II.A): 2 KB accumulates on 2 NUMA domains per
/// node. NUMA-aware placement binds each user to a ghost in its own domain;
/// naive placement puts the ghosts at the end of the node, so most
/// redirected operations pay the cross-domain memory penalty.
double heavy_acc_us(bool topo_aware) {
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = 2;
  rc.machine.topo.cores_per_node = 10;  // 8 users + 2 ghosts
  rc.machine.topo.numa_per_node = 2;
  core::Config cc;
  cc.ghosts_per_node = 2;
  cc.topology_aware = topo_aware;
  double out = 0;
  mpi::exec(rc, [&out](mpi::Env& env) {
    // 2 KB accumulates: the per-byte term matters.
    const double us = ablation_us(env, 256, 256, 16, false);
    if (env.rank(env.world()) == 0) out = us;
  }, core::layer(cc));
  return out;
}

void ablation_topology(const Opts&, report::Table& t) {
  const double aware = heavy_acc_us(true);
  const double naive = heavy_acc_us(false);
  t.row({"topology-aware (1 ghost per domain)",
         report::fmt(aware / 1000.0, 2)});
  t.row({"naive (ghosts at end of node)", report::fmt(naive / 1000.0, 2)});
  t.row({"benefit", report::fmt(naive / aware, 2) + "x"});
}

// fig5xl: the Fig. 5 shape (RMA - compute - RMA burst) at 10k simulated ranks
// (plus 100k under --full), swept over engine shards {1,2,4,8}. All-to-all
// RMA and a world-sized window are O(p^2) in the simulated MPI, so per-rank
// work stays fixed: ranks are tiled into 64-rank communicators, each rank
// drives a degree-8 neighbor exchange in its tile (1 accumulate + a 4-put
// burst per neighbor per iteration, 100 us compute between), plus a
// tile-stride p2p ring over the world that crosses node and shard
// boundaries. Original-MPI mode: Casper's per-window origin state is itself
// O(p^2) at world scale. Host time and ops/sec are informational; the
// virtual iteration time must not depend on the shard count.
constexpr int kTile = 64;    // ranks per RMA tile communicator
constexpr int kDegree = 8;   // neighbors each rank targets inside its tile
constexpr int kBurst = 4;    // puts per neighbor in the second phase

double xl_virt_iter_us(int nranks, int shards, int iters) {
  RunSpec s = spec(Mode::Original, nranks / 8, 8);
  s.shards = shards;
  double virt_us = 0;
  bench::run(s, [iters, &virt_us](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int p = env.size(w);
    const int me = env.rank(w);
    mpi::Comm tile = env.comm_split(w, me / kTile, me);
    const int tn = env.size(tile);
    const int tr = env.rank(tile);
    void* base = nullptr;
    mpi::Win win = env.win_allocate(
        static_cast<std::size_t>(tn) * sizeof(double), sizeof(double),
        mpi::Info{}, tile, &base);
    env.win_lock_all(0, win);
    env.barrier(w);
    const sim::Time start = env.now();
    double v = 1.0;
    double ring = 0.0;
    for (int it = 0; it < iters; ++it) {
      for (int k = 1; k <= kDegree; ++k) {
        env.accumulate(&v, 1, (tr + k) % tn, static_cast<std::size_t>(tr),
                       mpi::AccOp::Sum, win);
      }
      env.win_flush_all(win);
      env.compute(sim::us(100));
      for (int k = 1; k <= kDegree; ++k) {
        for (int b = 0; b < kBurst; ++b) {
          env.put(&v, 1, (tr + k) % tn, static_cast<std::size_t>(tr), win);
        }
      }
      env.win_flush_all(win);
      mpi::Request reqs[2];
      reqs[0] = env.irecv(&ring, 1, mpi::Dt::Double, (me + p - kTile) % p,
                          7, w);
      reqs[1] = env.isend(&v, 1, mpi::Dt::Double, (me + kTile) % p, 7, w);
      env.waitall(reqs, 2);
      env.barrier(w);
    }
    const sim::Time end = env.now();
    env.win_unlock_all(win);
    env.win_free(win);
    if (me == 0) virt_us = sim::to_us(end - start) / iters;
  });
  return virt_us;
}

/// Streams one line per configuration as it finishes (each takes seconds);
/// the table keeps full precision for the claim and the JSON.
void fig5xl(const Opts& o, report::Table& t) {
  std::printf("fig5_xl: tiled neighbor exchange, tile=%d degree=%d iters=%d\n",
              kTile, kDegree, o.iters);
  double virt1 = 0;  // virtual iteration time at shards=1
  for (int nranks : {10240, 102400}) {
    if (nranks > 10240 && !o.full) break;  // ~2 GB of fiber stacks
    for (int shards : {1, 2, 4, 8}) {
      const auto t0 = std::chrono::steady_clock::now();
      const double virt = xl_virt_iter_us(nranks, shards, o.iters);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      const double ops = static_cast<double>(nranks) * kDegree *
                         (1 + kBurst) * o.iters / (ms / 1000.0);
      std::printf(
          "nranks=%6d shards=%d  virt_iter=%.3f us  host=%.0f ms  "
          "rma_ops/sec=%.3e\n",
          nranks, shards, virt, ms, ops);
      if (shards == 1) virt1 = virt;
      std::vector<std::string> row = {cnt(nranks), cnt(shards)};
      for (double v : {virt, ms, ops, virt / virt1}) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        row.push_back(buf);
      }
      t.row(row);
    }
  }
}

/// Always writes the sweep to --out (default BENCH_fig5xl.json).
int fig5xl_hook(const Opts& o, const report::Table& t) {
  const std::string out = o.out != nullptr ? o.out : "BENCH_fig5xl.json";
  char line[256];
  std::snprintf(line, sizeof line,
                "{\n  \"bench\": \"fig5xl\",\n  \"tile\": %d, \"degree\": %d, "
                "\"burst\": %d, \"iters\": %d,\n  \"host_cpus\": %u,\n"
                "  \"rows\": [\n",
                kTile, kDegree, kBurst, o.iters,
                std::thread::hardware_concurrency());
  std::string json = line;
  for (std::size_t i = 0; i < t.rows().size(); ++i) {
    const auto& r = t.rows()[i];
    std::snprintf(line, sizeof line,
                  "    {\"nranks\": %s, \"shards\": %s, \"virt_iter_us\": "
                  "%.3f, \"host_ms\": %.1f, \"rma_ops_per_sec\": %.1f}%s\n",
                  r[0].c_str(), r[1].c_str(), std::stod(r[2]),
                  std::stod(r[3]), std::stod(r[4]),
                  i + 1 < t.rows().size() ? "," : "");
    json += line;
  }
  std::ofstream f(out);
  if (!(f << json << "  ]\n}\n")) {
    std::fprintf(stderr, "fig5xl: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

// -- Checked data structures ------------------------------------------------
//
// The KV, MWCAS and adaptive entries run a linearizability checker on every
// row. A history that does not linearize is a hard failure, not a claim: it
// prints the checker's diagnosis, is counted here, and makes its figure fail
// whatever the claims say.
int g_unlinearized = 0;  // histories that did not linearize, per figure

template <class Checker>
bool linearizes(Checker& checker) {
  if (checker.clean()) return true;
  std::cerr << "figures: LINEARIZABILITY VIOLATION: "
            << checker.check().front().diag << "\n";
  ++g_unlinearized;
  return false;
}

// KV and MWCAS compare the progress modes at EQUAL CORES per node (Table I):
//   original    C clients                 (no async progress)
//   thread      C clients + oversubscribed progress threads
//   casper(g1)  C-1 clients + 1 ghost
//   casper(g2)  C-2 clients + 2 ghosts
constexpr int kCores = 4;  // cores per node available to each mode
constexpr int kNodes = 2;

RunSpec spec_for(Mode m, int ghosts) {
  RunSpec s;
  s.profile = net::cray_xc30_regular();
  s.nodes = kNodes;
  s.mode = m;
  if (m == Mode::Casper) {
    s.user_cpn = kCores - ghosts;
    s.ghosts = ghosts;
  } else {
    s.user_cpn = kCores;
    s.ghosts = 0;
  }
  return s;
}

struct ModeRow {
  const char* label;
  Mode mode;
  int ghosts;
};
const ModeRow kEqualCoreModes[] = {
    {"original", Mode::Original, 0},
    {"thread", Mode::Thread, 0},
    {"casper(g1)", Mode::Casper, 1},
    {"casper(g2)", Mode::Casper, 2},
};

// kv: the RMA-backed sharded KV store (src/kv/) under skewed open-loop
// traffic. Every rank is a client and a server; Zipfian keys (s in {0.50,
// 0.99}), 75% GET / 25% PUT, open-loop think time between requests. Under
// original MPI a client's lock CAS on a remote bucket waits for the *target*
// client to re-enter the MPI stack (it is off computing its think time), so
// per-op latency inflates with the think time; ghosts decouple it. At s=0.99
// the hot bucket serializes everything behind that latency, which is where
// Casper's fewer-but-faster clients overtake original's C clients.
constexpr int kKvOpsPerClient[] = {80, 400};  // reduced, --full
constexpr sim::Time kKvThink = sim::us(4);

struct KvResult {
  std::uint64_t ops = 0;
  double makespan_ms = 0;
  double kops_s = 0;
  std::uint64_t lock_retries = 0;
  bool clean = false;
};

/// One simulated execution of the full workload under `spec`; the checker
/// verdict and throughput are harvested on user rank 0.
KvResult kv_row(const RunSpec& spec, double zipf_s, int opc,
                sim::Time think) {
  KvResult out;
  check::LinearChecker checker;
  bench::run(spec, [&](mpi::Env& env) {
    kv::TrafficConfig tc;
    tc.nkeys = 64;
    tc.zipf_s = zipf_s;
    tc.read_pct = 75;  // 75/25 read/write, no RMW: the headline mix
    tc.rmw_pct = 0;
    tc.ops_per_client = opc;
    tc.think_mean = think;
    tc.seed = 2024;
    const int nclients = env.size(env.world());
    const std::vector<kv::KvOp> ops = kv::make_ops(tc, nclients);

    kv::KvConfig kc;
    kc.nbuckets = 32;
    kc.assoc = 4;
    kv::KvStore store(env, kc, env.world());
    store.set_sink(&checker);
    store.open();
    env.barrier(env.world());
    const sim::Time t0 = env.now();
    kv::run_ops(env, store, ops, ops.size(), tc);
    env.barrier(env.world());
    const sim::Time t1 = env.now();
    store.close();
    if (env.rank(env.world()) == 0) {
      out.ops = store.global_stats().ops();
      out.lock_retries = store.global_stats().lock_retries;
      out.makespan_ms = sim::to_ms(t1 - t0);
      out.kops_s = out.makespan_ms > 0
                       ? static_cast<double>(out.ops) / out.makespan_ms
                       : 0;
    }
  });
  out.clean = linearizes(checker);
  return out;
}

void fig_kv(const Opts& o, report::Table& t) {
  for (double s : {0.50, 0.99}) {
    for (const ModeRow& m : kEqualCoreModes) {
      const RunSpec spec = spec_for(m.mode, m.ghosts);
      const KvResult r = kv_row(spec, s, kKvOpsPerClient[o.full], kKvThink);
      t.row({report::fmt(s, 2), m.label,
             std::to_string(spec.user_cpn * kNodes),
             std::to_string(r.ops), report::fmt(r.makespan_ms, 3),
             report::fmt(r.kops_s, 1), std::to_string(r.lock_retries),
             r.clean ? "clean" : "VIOLATION"});
    }
  }
}

/// --json: metrics from an instrumented casper(g1) run at s=0.99; host
/// block = the casper(g1) sweep, best-of-5.
int kv_hook(const Opts& o, const report::Table& t) {
  if (!o.json) return 0;
  const int opc = kKvOpsPerClient[o.full];
  obs::Recorder rec;
  RunSpec s = spec_for(Mode::Casper, 1);
  s.recorder = &rec;
  kv_row(s, 0.99, opc, kKvThink);
  const double sweep_ms = bench::host_best_of_ms(5, [opc] {
    for (double zs : {0.50, 0.99}) {
      kv_row(spec_for(Mode::Casper, 1), zs, opc, kKvThink);
    }
  });
  return write_bench("kv", t, rec, sweep_ms, 5);
}

// mwcas: descriptor-based multi-word CAS (src/mwcas/ over minimpi RMA) in
// two contention regimes:
//   hot     every client targets the SAME 4 words on rank 0 — descriptors
//           collide constantly, the helping protocol runs hot, and every
//           word install is a remote atomic on one victim rank
//   spread  each op picks one word on each of 4 different ranks — wide
//           footprints, low collision rate
// Every MWCAS is preceded by a logged gather of its expected values and an
// open-loop think window, so under original MPI each remote atomic waits for
// the *target* client to re-enter the MPI stack. Ghosts decouple that wait;
// the hot row is where fewer-but-faster Casper clients must overtake
// original's full client count. The MWCAS checker (src/check/mwlinear.hpp)
// requires the full multi-word history to linearize: no torn installs, no
// lost updates.
constexpr int kWidth = 4;          // words per MWCAS
constexpr int kWordsPerRank = 4;   // heap data words each rank owns
constexpr int kMwcasRounds[] = {60, 300};  // reduced, --full
constexpr sim::Time kMwcasThink = sim::us(10);

struct MwcasResult {
  std::uint64_t ops = 0;      // MWCAS attempts, cluster-wide
  std::uint64_t success = 0;  // committed MWCASes
  std::uint64_t helps = 0;    // foreign descriptors completed
  double makespan_ms = 0;
  double kops_s = 0;
  bool clean = false;
};

/// One simulated execution: every client runs `rounds` open-loop MWCAS
/// rounds (logged gather -> think -> 4-word CAS attempt). `hot` pins every
/// op to rank 0's words 0..3; spread walks one word on each of 4 ranks.
MwcasResult mwcas_row(const RunSpec& spec, bool hot, int rounds,
                      sim::Time think) {
  MwcasResult out;
  check::MwChecker checker;
  bench::run(spec, [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    const int nranks = env.size(w);
    mwcas::MwConfig mc;
    mwcas::MwHeap heap(env, w, kWordsPerRank, mc);
    heap.open();
    mwcas::Mwcas& mw = heap.mw();
    const auto rank_of = [](int gw) { return gw / kWordsPerRank; };
    const auto off_of = [](int gw) {
      return static_cast<std::size_t>(gw % kWordsPerRank) * 8;
    };
    // Staggered starts keep the workload tie-free under every schedule.
    env.compute(sim::ns(211) * static_cast<sim::Time>(me + 1));
    std::uint64_t cseq = 0;
    const auto read_logged = [&](int gw) {
      check::MwEvent g;
      g.kind = check::MwEvent::Kind::Read;
      g.client = me;
      g.cseq = cseq++;
      g.width = 1;
      g.word[0] = static_cast<std::uint64_t>(gw);
      g.inv = env.now();
      g.value = mw.read(rank_of(gw), off_of(gw));
      g.resp = env.now();
      checker.record(g);
      return g.value;
    };
    const sim::Time t0 = env.now();
    for (int r = 0; r < rounds; ++r) {
      int word[kWidth];
      for (int i = 0; i < kWidth; ++i) {
        // hot: rank 0's words 0..3 for everyone. spread: one word on each
        // of 4 consecutive ranks, rotated per client and round so footprints
        // overlap only occasionally.
        word[i] = hot ? i
                      : ((me + i) % nranks) * kWordsPerRank +
                            (r + i) % kWordsPerRank;
      }
      check::MwEvent e;
      e.kind = check::MwEvent::Kind::Mwcas;
      e.client = me;
      mwcas::MwTarget ts[kWidth];
      for (int i = 0; i < kWidth; ++i) {
        ts[i].rank = rank_of(word[i]);
        ts[i].off = off_of(word[i]);
        ts[i].expected = read_logged(word[i]);
        // Globally unique desired values: lost updates are attributable.
        ts[i].desired = static_cast<std::int64_t>(me + 1) * 1000000 +
                        static_cast<std::int64_t>(cseq) * 16 + i;
        e.word[i] = static_cast<std::uint64_t>(word[i]);
        e.expected[i] = ts[i].expected;
        e.desired[i] = ts[i].desired;
      }
      env.compute(think);  // open-loop think: expectations go stale here
      e.cseq = cseq++;
      e.width = kWidth;
      e.inv = env.now();
      const mwcas::MwResult res = mw.mwcas(ts, kWidth);
      e.ok = res.ok;
      e.observed = res.observed;
      // The library reports the mismatch in canonical (rank, off) order;
      // hot targets are already canonical, spread targets are
      // rank-ascending from word construction, so indices agree only for
      // hot. The checker accepts -1 (unattributed) for failures.
      e.mismatch_index = hot ? res.mismatch_index : -1;
      e.resp = env.now();
      checker.record(e);
    }
    env.barrier(w);
    // Final sweep: rank 0 reads back every word so torn values would land
    // in the checked history.
    if (me == 0) {
      for (int gw = 0; gw < nranks * kWordsPerRank; ++gw) read_logged(gw);
    }
    env.barrier(w);
    const sim::Time t1 = env.now();
    const mwcas::MwStats local = mw.stats();
    heap.close();
    constexpr int kFields = sizeof(mwcas::MwStats) / sizeof(std::uint64_t);
    const std::uint64_t* f = &local.ops;
    double in[kFields], sum[kFields];
    for (int i = 0; i < kFields; ++i) in[i] = static_cast<double>(f[i]);
    env.allreduce(in, sum, kFields, mpi::Dt::Double, mpi::AccOp::Sum, w);
    if (me == 0) {
      mwcas::MwStats g;
      std::uint64_t* gf = &g.ops;
      for (int i = 0; i < kFields; ++i) {
        gf[i] = static_cast<std::uint64_t>(sum[i]);
      }
      out.ops = g.ops;
      out.success = g.success;
      out.helps = g.helps;
      out.makespan_ms = sim::to_ms(t1 - t0);
      out.kops_s = out.makespan_ms > 0
                       ? static_cast<double>(out.ops) / out.makespan_ms
                       : 0;
    }
  });
  out.clean = linearizes(checker);
  return out;
}

void fig_mwcas(const Opts& o, report::Table& t) {
  for (bool hot : {true, false}) {
    for (const ModeRow& m : kEqualCoreModes) {
      const RunSpec spec = spec_for(m.mode, m.ghosts);
      const MwcasResult r =
          mwcas_row(spec, hot, kMwcasRounds[o.full], kMwcasThink);
      t.row({hot ? "hot" : "spread", m.label,
             std::to_string(spec.user_cpn * kNodes), std::to_string(r.ops),
             std::to_string(r.success), std::to_string(r.helps),
             report::fmt(r.makespan_ms, 3), report::fmt(r.kops_s, 1),
             r.clean ? "clean" : "VIOLATION"});
    }
  }
}

/// --json: metrics from an instrumented casper(g1) hot run; host block =
/// the casper(g1) sweep, best-of-5.
int mwcas_hook(const Opts& o, const report::Table& t) {
  if (!o.json) return 0;
  const int rounds = kMwcasRounds[o.full];
  obs::Recorder rec;
  RunSpec s = spec_for(Mode::Casper, 1);
  s.recorder = &rec;
  mwcas_row(s, /*hot=*/true, rounds, kMwcasThink);
  const double sweep_ms = bench::host_best_of_ms(5, [rounds] {
    for (bool hot : {true, false}) {
      mwcas_row(spec_for(Mode::Casper, 1), hot, rounds, kMwcasThink);
    }
  });
  return write_bench("mwcas", t, rec, sweep_ms, 5);
}

// adaptive: static vs. adaptive progress control (DESIGN.md §15) over the
// workload regimes the online controller was built for. Every row runs the
// IDENTICAL workload twice — same geometry, same op stream, same per-round
// flush_all+barrier epoch boundaries — differing only in
// Config::adaptive.enabled, so the adaptive series is never credited for
// sync the static series did not pay.
//
//   seg_balanced  Segment binding, uniform PUTs over every remote segment.
//                 No skew, so the controller must not remap: the no-regression
//                 row (ratio ~= 1.0 exactly — identical routing).
//   seg_skew      Same geometry, every origin hammers the first user of the
//                 other node. That rank's whole segment is chunk 0 of its
//                 node, i.e. one ghost serves everything; the controller
//                 spreads its subchunks over all ghosts (up to ~ghost-count).
//   rank_phase    Rank binding, phase-shifting hot pairs: {0,1} then {2,3}.
//                 Each phase funnels both hot users through one ghost under
//                 the static map; the controller re-partitions per phase.
//   policy_mix    Fig. 7(c) uneven PUT/ACC sizes, static random policy vs.
//                 the controller switching random -> byte-counting online.
//   kv_zipf99     The kv entry's store under Zipfian s=0.99 traffic, driven
//                 in batches with a barrier (= adaptation point) between
//                 batches; linearizability checked on both series.
//
// ratio = static(ms) / adaptive(ms).
constexpr int kSegElems = 512;  // 4 KiB of doubles per rank's segment
constexpr int kPutElems = 32;   // 256 B per PUT; 16 PUTs sweep a segment
constexpr int kRounds = 8;      // epochs per series (controller decisions)

RunSpec seg_spec(bool adaptive, int ghosts) {
  RunSpec s;
  s.mode = Mode::Casper;
  s.profile = net::cray_xc30_regular();
  s.nodes = 2;
  s.user_cpn = 4;
  s.ghosts = ghosts;
  s.binding = core::Binding::Segment;
  s.dynamic = core::DynamicLb::None;
  s.adaptive.enabled = adaptive;
  return s;
}

RunSpec rank_spec(bool adaptive) {
  RunSpec s = seg_spec(adaptive, 2);
  s.binding = core::Binding::Rank;
  return s;
}

/// Segment-binding sweep: every round each origin PUTs 256 B x 16 covering a
/// full 4 KiB segment; balanced touches every user of the other node, skewed
/// only its first user (whose segment is exactly node chunk 0). When `rec`
/// is set, user rank 0 advances the windowed-rate view at every round
/// barrier (an explicit virtual-time advance).
double seg_sweep_us(const RunSpec& spec, bool skewed,
                    obs::Recorder* rec = nullptr,
                    obs::WindowedRates* wr = nullptr) {
  return bench::run_metric(spec, [skewed, rec, wr](mpi::Env& env,
                                                   double* out) {
    mpi::Comm w = env.world();
    const int p = env.size(w);
    const int me = env.rank(w);
    const int upn = p / env.runtime().topo().nodes;
    const int other = (me / upn == 0) ? upn : 0;  // other node's first user
    void* base = nullptr;
    mpi::Win win =
        env.win_allocate(kSegElems * sizeof(double), sizeof(double),
                         mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    env.barrier(w);
    const sim::Time t0 = env.now();
    std::vector<double> v(kPutElems, 1.0);
    const int sweeps = kSegElems / kPutElems;
    for (int r = 0; r < kRounds; ++r) {
      for (int c = 0; c < sweeps; ++c) {
        if (skewed) {
          env.put(v.data(), kPutElems, other, c * kPutElems, win);
        } else {
          for (int u = 0; u < upn; ++u) {
            env.put(v.data(), kPutElems, other + u, c * kPutElems, win);
          }
        }
      }
      env.win_flush_all(win);
      env.barrier(w);  // epoch boundary: the controller adapts here
      if (rec != nullptr && wr != nullptr && me == 0) {
        wr->advance(rec->metrics(), env.now());
      }
    }
    const double us = sim::to_us(env.now() - t0);
    double us_max = 0;
    env.allreduce(&us, &us_max, 1, mpi::Dt::Double, mpi::AccOp::Max, w);
    env.win_unlock_all(win);
    if (me == 0) *out = us_max;
    env.win_free(win);
  });
}

/// Rank-binding phase shift: hot local users {0,1} for the first half of the
/// rounds, {2,3} for the second. Both pairs share one bound ghost under the
/// initial map, so each phase funnels until the controller re-partitions.
double rank_phase_us(const RunSpec& spec) {
  return bench::run_metric(spec, [](mpi::Env& env, double* out) {
    mpi::Comm w = env.world();
    const int p = env.size(w);
    const int me = env.rank(w);
    const int upn = p / env.runtime().topo().nodes;
    const int other = (me / upn == 0) ? upn : 0;
    constexpr int kElems = 256;  // 2 KiB PUTs: ghost service dominates
    constexpr int kOpsPerTarget = 24;
    void* base = nullptr;
    mpi::Win win = env.win_allocate(kElems * sizeof(double), sizeof(double),
                                    mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    env.barrier(w);
    const sim::Time t0 = env.now();
    std::vector<double> v(kElems, 1.0);
    // NUMA-aware static binding pairs local users {0,1} on one ghost and
    // {2,3} on the other (one ghost per memory domain), so each phase's hot
    // pair shares a single bound ghost until the controller re-partitions.
    for (int r = 0; r < kRounds; ++r) {
      const int h0 = (r < kRounds / 2) ? 0 : 2;  // hot pair {h0, h0+1}
      for (int hot : {h0, h0 + 1}) {
        for (int k = 0; k < kOpsPerTarget; ++k) {
          env.put(v.data(), kElems, other + hot, 0, win);
        }
      }
      env.win_flush_all(win);
      env.barrier(w);
    }
    const double us = sim::to_us(env.now() - t0);
    double us_max = 0;
    env.allreduce(&us, &us_max, 1, mpi::Dt::Double, mpi::AccOp::Max, w);
    env.win_unlock_all(win);
    if (me == 0) *out = us_max;
    env.win_free(win);
  });
}

struct KvRow {
  double ms = 0;
  std::uint64_t ops = 0;
  bool clean = false;
};

/// The kv entry's Zipfian s=0.99 traffic under Segment binding, driven in
/// batches with a barrier between batches so the controller gets epoch
/// boundaries mid-workload. Zero think time keeps the run service-bound
/// (ghost load, not client pacing, sets the makespan).
///
/// The key population is adversarially PLACED: every Zipf rank is remapped
/// through key_for() onto server 0, striped across its buckets so that
/// consecutive popularity ranks land in different quarters of its segment.
/// That turns per-key popularity skew into per-ghost load skew (one node
/// chunk holds the whole working set) without serializing the traffic on a
/// single bucket lock — the regime segment re-partitioning can actually fix.
KvRow kv_zipf_row(const RunSpec& spec, int batches, int per_batch) {
  KvRow out;
  check::LinearChecker checker;
  bench::run(spec, [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    const int nclients = env.size(w);
    kv::TrafficConfig tc;
    tc.nkeys = 32;
    tc.zipf_s = 0.99;
    tc.read_pct = 75;
    tc.rmw_pct = 0;
    tc.ops_per_client = batches * per_batch;
    tc.think_mean = 0;
    tc.seed = 2024;
    std::vector<kv::KvOp> ops = kv::make_ops(tc, nclients);

    kv::KvConfig kc;
    kc.nbuckets = 16;
    kc.assoc = 4;
    kv::KvStore store(env, kc, w);
    for (kv::KvOp& op : ops) {
      const std::uint64_t z = op.key - 1;  // 0-based Zipf popularity rank
      const int bucket = static_cast<int>((z % 4) * 4 + (z / 4) % 4);
      const int chain = static_cast<int>(z / 16);
      op.key = store.key_for(0, bucket, chain);
    }
    store.set_sink(&checker);
    store.open();
    env.barrier(w);
    const sim::Time t0 = env.now();
    env.compute(static_cast<sim::Time>(me + 1) * sim::ns(1637));
    const std::size_t batch_global =
        static_cast<std::size_t>(nclients) * static_cast<std::size_t>(per_batch);
    std::size_t done = 0;
    for (const kv::KvOp& op : ops) {
      if (op.client == me) {
        env.compute(op.think);
        if (op.kind == 0) {
          store.get(op.key);
        } else {
          store.put(op.key, op.val);
        }
      }
      ++done;
      if (done % batch_global == 0 && done != ops.size()) {
        env.barrier(w);  // batch boundary = adaptation point
      }
    }
    env.barrier(w);
    const sim::Time t1 = env.now();
    store.close();
    if (me == 0) {
      out.ops = store.global_stats().ops();
      out.ms = sim::to_ms(t1 - t0);
    }
  });
  out.clean = linearizes(checker);
  return out;
}

std::uint64_t ctr(const obs::Recorder& rec, const char* name) {
  return rec.metrics().counter_value(name);
}

void ablation_adaptive(const Opts&, report::Table& t) {
  const auto add_row = [&t](const char* row, const char* kind, double st_ms,
                            double ad_ms, const obs::Recorder& rec) {
    const double ratio = ad_ms > 0 ? st_ms / ad_ms : 0;
    t.row({row, kind, report::fmt(st_ms, 3), report::fmt(ad_ms, 3),
           report::fmt(ratio, 2), std::to_string(ctr(rec, "adapt.rebinds")),
           std::to_string(ctr(rec, "adapt.policy_switches"))});
  };

  // -- seg_balanced: uniform load, the controller must hold still ----------
  obs::Recorder rec_bal;
  {
    const double st = seg_sweep_us(seg_spec(false, 4), false) / 1000.0;
    RunSpec ad = seg_spec(true, 4);
    ad.recorder = &rec_bal;
    const double adt = seg_sweep_us(ad, false) / 1000.0;
    add_row("seg_balanced", "balanced", st, adt, rec_bal);
  }

  // -- seg_skew: one hot rank = one hot chunk ------------------------------
  obs::Recorder rec_skew;
  {
    const double st = seg_sweep_us(seg_spec(false, 4), true) / 1000.0;
    RunSpec ad = seg_spec(true, 4);
    ad.recorder = &rec_skew;
    const double adt = seg_sweep_us(ad, true) / 1000.0;
    add_row("seg_skew", "skewed", st, adt, rec_skew);
  }

  // -- rank_phase: phase-shifting hot pairs under Rank binding -------------
  obs::Recorder rec_phase;
  {
    const double st = rank_phase_us(rank_spec(false)) / 1000.0;
    RunSpec ad = rank_spec(true);
    ad.recorder = &rec_phase;
    const double adt = rank_phase_us(ad) / 1000.0;
    add_row("rank_phase", "skewed", st, adt, rec_phase);
  }

  // -- policy_mix: fig7(c) uneven sizes, random vs. random->byte-counting --
  obs::Recorder rec_pol;
  {
    const int nodes = 4, upn = 8, ghosts = 4, hot_pairs = 4, elems = 2048;
    RunSpec st_spec =
        bench::fig7_spec(core::DynamicLb::Random, nodes, upn, ghosts);
    const double st =
        bench::fig7_uneven_us(st_spec, hot_pairs, elems, true, true) / 1000.0;
    RunSpec ad = bench::fig7_adaptive_spec(nodes, upn, ghosts);
    ad.recorder = &rec_pol;
    const double adt =
        bench::fig7_uneven_us(ad, hot_pairs, elems, true, true) / 1000.0;
    add_row("policy_mix", "balanced", st, adt, rec_pol);
  }

  // -- kv_zipf99: the KV store under its skewed headline traffic -----------
  obs::Recorder rec_kv;
  {
    RunSpec st_spec = seg_spec(false, 4);
    const KvRow st = kv_zipf_row(st_spec, 12, 16);
    RunSpec ad = seg_spec(true, 4);
    ad.recorder = &rec_kv;
    const KvRow adr = kv_zipf_row(ad, 12, 16);
    add_row("kv_zipf99", "skewed", st.ms, adr.ms, rec_kv);
  }
}

/// --json: metrics from a rerun of the instrumented seg_skew adaptive
/// series, with its windowed rates folded in as adapt.rate.*; host block =
/// the static + adaptive seg_skew pair, best-of-3.
int adaptive_hook(const Opts& o, const report::Table& t) {
  if (!o.json) return 0;
  obs::Recorder rec;
  obs::WindowedRates rates;
  RunSpec ad = seg_spec(true, 4);
  ad.recorder = &rec;
  seg_sweep_us(ad, true, &rec, &rates);
  rates.fold_into(rec.metrics(), "adapt.rate.");
  const double sweep_ms = bench::host_best_of_ms(3, [] {
    seg_sweep_us(seg_spec(false, 4), true);
    seg_sweep_us(seg_spec(true, 4), true);
  });
  return write_bench("adaptive", t, rec, sweep_ms, 3);
}

// -- Claims ----------------------------------------------------------------
//
// A claim is a list of terms separated by ";", all of which must hold:
//
//   [first|last] E < E [< E ...]  strictly increasing on every row, or on
//                                 the first or last row only
//   [first|last] E in LO..HI      within the band (HI may be "inf")
//   E rises | E falls             monotone over the rows, last != first
//   E peaks at X                  largest on the row whose first cell is X,
//                                 and falling on every row after it
//
// E is a column or a ratio of two ("a/b"); a whole column name is matched
// first, so "kops/s" is one column. "col@R" reads row R whatever the row
// being checked; a claim reading past the last row aborts. Columns are read back from the printed cells ("1.15x"
// reads as 1.15), so a claim judges exactly what the output shows.
// Thresholds come from the paper's text and EXPERIMENTS.md, never from the
// measured output.

constexpr bool kDiverges = false;

struct Claim {
  const char* name;
  const char* terms;
  bool pinned_holds = true;  // false: a known divergence, open on ROADMAP.md
};

std::string num(double v) { return report::fmt(v, 2); }

/// Value of expression `e` on row `r`. The longest column name `e` starts
/// with is read first, so a "/" inside a name ("kops/s") does not split it.
double value(const report::Table& t, const std::string& e, std::size_t r) {
  const auto& h = t.headers();
  std::size_t c = h.size(), len = 0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const std::size_t n = h[i].size();
    if (n > len && e.compare(0, n, h[i]) == 0 &&
        (n == e.size() || e[n] == '@' || e[n] == '/')) {
      c = i;
      len = n;
    }
  }
  if (c == h.size()) {
    std::cerr << "figures: claim reads unknown column " << e << "\n";
    std::abort();
  }
  std::size_t row = r;
  if (len < e.size() && e[len] == '@') {
    std::size_t digits = 0;
    row = std::stoul(e.substr(len + 1), &digits);
    len += 1 + digits;
    if (row >= t.rows().size()) {
      std::cerr << "figures: claim " << e << " reads row " << row
                << " of a table with " << t.rows().size() << " rows\n";
      std::abort();
    }
  }
  const double v = std::strtod(t.rows()[row][c].c_str(), nullptr);
  return len < e.size() ? v / value(t, e.substr(len + 1), r) : v;
}

/// Whether one term holds; appends the term and what it measured to `m`.
bool term_holds(const report::Table& t, const std::string& term,
                std::string& m) {
  std::istringstream in(term);
  std::vector<std::string> w{std::istream_iterator<std::string>(in), {}};
  const std::size_t n = t.rows().size();
  std::size_t from = 0, to = n;  // the rows checked: [from, to)
  if (w[0] == "first" || w[0] == "last") {
    from = w[0] == "first" ? 0 : n - 1;
    to = from + 1;
    w.erase(w.begin());
  }
  const auto v = [&](std::size_t k, std::size_t r) {
    return value(t, w[k], r);
  };
  const auto row = [&](std::size_t r) {
    return t.headers()[0] + "=" + t.rows()[r][0];
  };
  m += term + ":";
  if (w[1] == "rises" || w[1] == "falls") {
    const double dir = w[1] == "rises" ? 1 : -1;
    bool ok = dir * (v(0, n - 1) - v(0, 0)) > 0;
    for (std::size_t r = 1; r < n; ++r) {
      ok = ok && dir * (v(0, r) - v(0, r - 1)) >= 0;
    }
    m += " " + num(v(0, 0)) + " -> " + num(v(0, n - 1));
    return ok;
  }
  if (w[1] == "peaks") {
    std::size_t peak = 0;
    for (std::size_t r = 1; r < n; ++r) {
      if (v(0, r) > v(0, peak)) peak = r;
    }
    bool ok = t.rows()[peak][0] == w[3];
    for (std::size_t r = peak + 1; r < n; ++r) {
      ok = ok && v(0, r) < v(0, r - 1);
    }
    m += " " + num(v(0, peak)) + " at " + row(peak) + ", " +
         num(v(0, n - 1)) + " at " + row(n - 1);
    return ok;
  }
  if (w[1] == "in") {
    const auto dots = w[2].find("..");
    const double lo = std::stod(w[2].substr(0, dots));
    const double hi = std::stod(w[2].substr(dots + 2));
    double min = v(0, from), max = min;
    for (std::size_t r = from; r < to; ++r) {
      min = std::min(min, v(0, r));
      max = std::max(max, v(0, r));
    }
    m += " " + num(min) + (max != min ? ".." + num(max) : "");
    if (to - from == 1 && n > 1) m += " at " + row(from);
    return min >= lo && max <= hi;
  }
  for (std::size_t r = from; r < to; ++r) {
    for (std::size_t k = 2; k < w.size(); k += 2) {
      if (v(k - 2, r) < v(k, r)) continue;
      m += " fails at " + row(r) + " (" + num(v(k - 2, r)) + " vs " +
           num(v(k, r)) + ")";
      return false;
    }
  }
  m += to - from == 1 ? " at " + row(from) : " on every row";
  return true;
}

struct Figure {
  const char* id;
  const char* label;  // banner id; null: the series prints its own output
  const char* what;
  std::vector<std::string> columns;
  void (*series)(const Opts&, report::Table&);
  const char* expectation;  // null: no expectation line
  std::vector<Claim> claims;
  const char* note = nullptr;  // printed unless --full (or note_always)
  bool note_always = false;
  bool adaptive = false;  // --adaptive adds an adaptive(ms) column
  int (*hook)(const Opts&, const report::Table&) = nullptr;
};

const char* const kFig5Note =
    "(reduced scale 2..128; pass --full for 2..256 procs)";
const char* const kFig7Note = "(reduced scale; pass --full for 16x20 + 4g)";
const char* const kFig8Note = "(reduced scale; pass --full for 24-core nodes)";
const std::vector<int> kC20Nodes[] = {{6, 10, 14}, {60, 100, 116}};

const std::vector<Figure>& registry() {
  static const std::vector<Figure> figs = {
      {"fig3a", "Fig 3(a)",
       "window allocation overhead vs. local processes (1 node, Cray XC30 "
       "model)",
       {"local_procs", "original(us)", "casper_default(us)", "casper_lock(us)",
        "casper_lockall(us)", "casper_fence(us)"},
       fig3a,
       "default/lock grow with local process count (one internal window per "
       "local user); lockall/fence stay near a small constant multiple of "
       "original MPI.",
       // A "small constant multiple": at most 4x (the paper shows ~2x).
       {{"lock_grows", "casper_default(us) rises; casper_lock(us) rises"},
        {"hints_small_multiple",
         "casper_lockall(us)/original(us) in 1..4; "
         "casper_fence(us)/original(us) in 1..4"}}},
      {"fig3b", "Fig 3(b)",
       "fence and PSCW translation overhead vs. ops (2 processes, Cray XC30 "
       "model)",
       {"ops", "orig_fence(us)", "casper_fence(us)", "fence_ovh(%)",
        "orig_pscw(us)", "casper_pscw(us)", "pscw_ovh(%)"},
       fig3b,
       "overhead is large (tens to ~200%) for few ops and decays toward zero "
       "as the operation count amortizes the extra synchronization.",
       {{"large_at_few_ops",
         "first fence_ovh(%) in 10..200; first pscw_ovh(%) in 10..200"},
        {"decays_to_zero",
         "last fence_ovh(%) in -5..5; last pscw_ovh(%) in -5..5", kDiverges}}},
      {"fig4a", "Fig 4(a)",
       "passive-target RMA overlap: origin time vs. target wait (2 "
       "processes, Cray XC30 model)",
       {"wait(us)", "original(us)", "thread(us)", "dmapp(us)", "casper(us)"},
       fig4a,
       "original grows linearly with the wait; all async-progress modes stay "
       "flat, with thread > dmapp > casper overhead.",
       {{"original_tracks_wait",
         "original(us) rises; last original(us)/wait(us) in 0.9..1.1"},
        {"async_flat",
         "thread(us)/thread(us)@0 in 0.95..1.05; "
         "dmapp(us)/dmapp(us)@0 in 0.95..1.05; "
         "casper(us)/casper(us)@0 in 0.95..1.05"},
        {"casper_lt_dmapp_lt_thread", "casper(us) < dmapp(us) < thread(us)"}},
       nullptr, false, false, fig4a_hook},
      {"fig4b", "Fig 4(b)",
       "fence RMA overlap: rank-0 time vs. ops with a 100 us target delay (2 "
       "processes, Cray XC30 model)",
       {"ops", "original(us)", "thread(us)", "dmapp(us)", "casper(us)",
        "casper_improvement(%)"},
       fig4b,
       "casper improvement is highest for small/medium op counts and "
       "decreases once communication exceeds the 100 us overlap window (n > "
       "~128).",
       {{"peak_at_128", "casper_improvement(%) peaks at 128"}}},
      {"fig4c", "Fig 4(c)",
       "DMAPP interrupt overhead vs. accumulate count (2 processes, DGEMM on "
       "the target)",
       {"ops", "original(us)", "dmapp(us)", "casper(us)", "system_interrupts"},
       fig4c,
       "interrupts grow linearly with ops; dmapp origin time grows with the "
       "interrupt serialization while casper stays cheap; original waits for "
       "the full DGEMM.",
       {{"interrupts_eq_ops", "system_interrupts/ops in 1..1"},
        {"casper_cheapest",
         "casper(us) < dmapp(us); casper(us) < original(us)"},
        {"dmapp_overtakes_original", "last original(us) < dmapp(us)"}}},
      {"fig5a", "Fig 5(a)", "accumulate scalability on Cray XC30 (ppn=1)",
       {"procs", "original(ms)", "thread(ms)", "dmapp(ms)", "casper(ms)"},
       [](const Opts& o, report::Table& t) {
         fig5(o, t, net::cray_xc30_regular(), kFourModes, false, 128);
       },
       "casper lowest and flattest; dmapp above casper (interrupt per "
       "accumulate); thread worst at scale; original in between (stalls on "
       "busy targets).",
       {{"casper_lowest_at_scale",
         "last casper(ms) < dmapp(ms) < thread(ms); "
         "last casper(ms) < original(ms)"},
        {"dmapp_above_casper", "casper(ms) < dmapp(ms)"},
        {"thread_worst_at_scale",
         "last original(ms) < thread(ms); last dmapp(ms) < thread(ms)",
         kDiverges}},
       kFig5Note},
      {"fig5b", "Fig 5(b)", "put scalability on Cray XC30 (ppn=1)",
       {"procs", "original(ms)", "thread(ms)", "dmapp(ms)", "casper_dmapp(ms)"},
       [](const Opts& o, report::Table& t) {
         fig5(o, t, net::cray_xc30_regular(), kFourModes, true, 128);
       },
       "dmapp and casper coincide (hardware PUT, no target involvement); "
       "original (software PUT in regular mode) stalls; thread adds per-call "
       "overhead.",
       {{"casper_dmapp_within_15pct",
         "casper_dmapp(ms)/dmapp(ms) in 0.85..1.15", kDiverges},
        {"original_stalls", "dmapp(ms) < original(ms)"},
        {"thread_overhead", "dmapp(ms) < thread(ms)"}},
       kFig5Note},
      {"fig5c", "Fig 5(c)",
       "accumulate scalability on Fusion/MVAPICH (ppn=1)",
       {"procs", "original(ms)", "thread(ms)", "casper(ms)"},
       [](const Opts& o, report::Table& t) {
         fig5(o, t, net::fusion_mvapich(),
              {Mode::Original, Mode::Thread, Mode::Casper}, false, 64);
       },
       "casper improves accumulate progress (software active messages in "
       "MVAPICH); thread progress shows significant overhead.",
       {{"casper_lowest_at_scale",
         "last casper(ms) < thread(ms) < original(ms)"},
        {"thread_crosses_original",
         "first original(ms) < thread(ms); last thread(ms) < original(ms)"}},
       "(reduced scale; pass --full for 2..256 procs)"},
      {"fig6a", "Fig 6(a)",
       "static rank binding, increasing processes (16 users/node, 1 acc to "
       "every peer)",
       {"procs", "original(ms)", "casper_2g(ms)", "casper_4g(ms)",
        "casper_8g(ms)", "speedup_8g"},
       fig6a,
       "with few processes 2 ghosts suffice; at larger scale more ghosts keep "
       "up with the higher incoming accumulate rate and win.",
       {{"g2_about_original", "casper_2g(ms)/original(ms) in 0.9..1.1"},
        {"more_ghosts_win", "casper_8g(ms) < casper_4g(ms) < casper_2g(ms)"},
        {"speedup_grows", "speedup_8g rises"}},
       "(reduced scale; pass --full for up to 1024)", false, false,
       fig6a_hook},
      {"fig6b", "Fig 6(b)",
       "static rank binding, increasing ops (32 users on 2 nodes, n accs to "
       "every peer)",
       {"ops", "original(ms)", "casper_2g(ms)", "casper_4g(ms)",
        "casper_8g(ms)", "speedup_8g"},
       fig6b,
       "more ghost processes benefit once the per-pair operation count grows "
       "past ~8.",
       {{"speedup_4_to_5x", "last speedup_8g in 4..5"},
        {"more_ghosts_win",
         "casper_8g(ms) < casper_4g(ms) < casper_2g(ms) < original(ms)"}},
       "(reduced scale; pass --full for up to 512 ops)"},
      {"fig6c", "Fig 6(c)",
       "static segment binding, uneven window sizes (hot 4KB window on each "
       "node master)",
       {"ops", "original(ms)", "seg_2g(ms)", "seg_4g(ms)", "seg_8g(ms)",
        "speedup_8g"},
       fig6c,
       "performance improves with more ghosts because the hot window is "
       "divided into more segments served by different ghosts.",
       {{"more_ghosts_win",
         "seg_8g(ms) < seg_4g(ms) < seg_2g(ms) < original(ms)"},
        {"speedup_grows", "speedup_8g rises"}},
       "(reduced scale; pass --full for 16x16)"},
      {"fig7a", "Fig 7(a)",
       "dynamic random binding: uneven PUT counts to node masters",
       {"hot_puts", "original(ms)", "static(ms)", "random(ms)",
        "random_speedup"},
       [](const Opts& o, report::Table& t) {
         fig7(o, t, {core::DynamicLb::None, core::DynamicLb::Random}, false,
              false);
       },
       "random spreads the hot PUTs equally over the ghosts, beating static "
       "binding by up to ~the ghost count as the hot PUT count grows.",
       // "Up to ~the ghost count": 2..4x at the top.
       {{"random_gain_grows",
         "random_speedup rises; last random_speedup in 2..4"},
        {"both_beat_original",
         "static(ms) < original(ms); random(ms) < original(ms)"}},
       kFig7Note, false, true},
      {"fig7b", "Fig 7(b)",
       "operation-counting dynamic binding: uneven PUT/ACC pairs to node "
       "masters",
       {"hot_pairs", "original(ms)", "static(ms)", "random(ms)",
        "op_counting(ms)", "opcount_speedup"},
       [](const Opts& o, report::Table& t) {
         fig7(o, t,
              {core::DynamicLb::None, core::DynamicLb::Random,
               core::DynamicLb::OpCounting},
              true, false);
       },
       "op-counting beats random (it accounts for the accumulates pinned to "
       "the bound ghost), which beats static.",
       // The paper's top op-counting gain is ~1.2-1.4x.
       {{"opcount_beats_random", "op_counting(ms) < random(ms)", kDiverges},
        {"random_beats_static", "random(ms) < static(ms)", kDiverges},
        {"opcount_gain_at_top", "last opcount_speedup in 1.2..1.4"}},
       kFig7Note, false, true},
      {"fig7c", "Fig 7(c)",
       "byte-counting dynamic binding: uneven PUT/ACC sizes to node masters",
       {"hot_elems", "original(ms)", "static(ms)", "random(ms)",
        "op_counting(ms)", "byte_counting(ms)", "byte_speedup"},
       [](const Opts& o, report::Table& t) {
         fig7(o, t,
              {core::DynamicLb::None, core::DynamicLb::Random,
               core::DynamicLb::OpCounting, core::DynamicLb::ByteCounting},
              true, true);
       },
       "neither random nor op-counting handles uneven sizes; byte-counting "
       "outperforms both as the hot transfer size grows.",
       {{"byte_wins_at_top",
         "last byte_counting(ms) < op_counting(ms); "
         "last byte_counting(ms) < random(ms)"}},
       kFig7Note, false, true},
      {"fig8a", "Fig 8(a)",
       "CCSD iteration, W16 profile (communication-intensive)",
       {"cores", "original(ms)", "casper(ms)", "thread_O(ms)", "thread_D(ms)"},
       [](const Opts& o, report::Table& t) {
         fig8(o, t, o.full ? std::vector<int>{32, 64, 80}
                           : std::vector<int>{4, 8, 12},
              ccsd::ccsd_profile(o.full ? 512 : 128), false);
       },
       "casper fastest at small scale (computation dominates, async progress "
       "matters); gap narrows at larger scale; thread modes lose compute "
       "throughput.",
       {{"casper_fastest",
         "casper(ms) < thread_O(ms) < original(ms); "
         "casper(ms) < thread_D(ms) < original(ms)"},
        {"gap_narrows", "original(ms)/casper(ms) falls", kDiverges}},
       kFig8Note},
      {"fig8b", "Fig 8(b)", "CCSD iteration, C20 profile",
       {"cores", "original(ms)", "casper(ms)", "thread_O(ms)", "thread_D(ms)"},
       [](const Opts& o, report::Table& t) {
         auto p = ccsd::ccsd_profile(o.full ? 768 : 192);
         p.compute_per_task = sim::us(300);  // C20: heavier contractions
         p.tile = 40;
         fig8(o, t, kC20Nodes[o.full], p, false);
       },
       "same ordering as 8(a); casper's advantage persists at the larger "
       "per-task compute of C20.",
       // ~1.8-2.0x over original at every scale, with 10% slack.
       {{"casper_fastest",
         "casper(ms) < thread_O(ms) < original(ms); "
         "casper(ms) < thread_D(ms) < original(ms)"},
        {"casper_about_2x", "original(ms)/casper(ms) in 1.62..2.2"}},
       kFig8Note},
      {"fig8c", "Fig 8(c)",
       "(T) portion of CCSD(T), C20 profile (compute-intensive)",
       {"cores", "original(ms)", "casper(ms)", "thread_O(ms)", "thread_D(ms)",
        "casper_speedup"},
       [](const Opts& o, report::Table& t) {
         fig8(o, t, kC20Nodes[o.full],
              ccsd::t_portion_profile(o.full ? 512 : 128), true);
       },
       "casper substantially faster than original at every scale (GETs "
       "against DGEMM-busy targets); thread modes degrade computation and "
       "trail casper.",
       // "Almost twice as fast" at every scale.
       {{"casper_about_2x", "casper_speedup in 1.5..2.5"},
        {"threads_trail_casper",
         "casper(ms) < thread_O(ms); casper(ms) < thread_D(ms)"}},
       kFig8Note},
      {"table1", "Table I",
       "core deployment in the NWChem evaluation (per node)",
       {"strategy", "computing_cores", "async_cores", "measured_app_ranks"},
       table1, nullptr,
       {{"ranks_match", "measured_app_ranks/computing_cores in 1..1"}},
       "(paper values on 24-core Edison nodes: 24/0, 20/4, 24/24, 12/12 — "
       "pass --full for the 24-core accounting)",
       true},
      {"fig5xl", nullptr, nullptr,
       {"nranks", "shards", "virt_iter_us", "host_ms", "rma_ops_per_sec",
        "virt_vs_shards1"},
       fig5xl, nullptr,
       {{"shard_invariant", "virt_vs_shards1 in 1..1"}},
       "(10k ranks; pass --full to add the 100k point)", false, false,
       fig5xl_hook},
      {"ablation_binding", "Ablation",
       "binding policy matrix on a mixed acc + hot-put workload (8 nodes x 8 "
       "users + 4 ghosts)",
       {"static_binding", "dynamic", "time(ms)"}, ablation_binding, nullptr,
       // Rows 0-3: rank binding, 4-7: segment, each led by its static row;
       // row 8: original MPI. Dynamic policies recover ~25% (at least 10%)
       // and all Casper rows are ~3-4x faster than original MPI.
       {{"dynamic_beats_static",
         "time(ms)@1/time(ms)@0 in 0..0.9; time(ms)@2/time(ms)@0 in 0..0.9; "
         "time(ms)@3/time(ms)@0 in 0..0.9; time(ms)@5/time(ms)@4 in 0..0.9; "
         "time(ms)@6/time(ms)@4 in 0..0.9; time(ms)@7/time(ms)@4 in 0..0.9"},
        {"casper_3x_over_original",
         "time(ms)@8/time(ms)@0 in 3..inf; time(ms)@8/time(ms)@4 in 3..inf"}}},
      {"ablation_hints", "Ablation",
       "what the MPI asserts and info hints buy under Casper",
       {"configuration", "per_epoch(us)"}, ablation_hints,
       "the all-assert fence skips barrier+sync and is much cheaper; NOCHECK "
       "drops the post/start handshake.",
       // The fully asserted fence is ~15x cheaper (at least 10x).
       {{"asserted_fence_10x", "per_epoch(us)@0/per_epoch(us)@2 in 10..inf"},
        {"nocheck_cheaper", "per_epoch(us)@5/per_epoch(us)@4 in 0..0.99"}}},
      {"ablation_topology", "Ablation",
       "topology-aware ghost placement (2 NUMA domains, 8 users + 2 ghosts "
       "per node, 2KB accumulates)",
       {"placement", "time(ms)"}, ablation_topology,
       "NUMA-aware placement binds each user to a ghost in its own domain, "
       "avoiding the cross-domain memory penalty on every redirected "
       "operation.",
       // Naive placement costs ~1.15x (at least 1.1x).
       {{"aware_faster", "time(ms)@1/time(ms)@0 in 1.1..inf"}}},
      {"kv", "fig_kv",
       "sharded KV store throughput vs. progress mode at equal cores (2 "
       "nodes x 4 cores, Zipfian keys, 75/25 read/write)",
       {"zipf_s", "mode", "clients", "ops", "makespan(ms)", "kops/s",
        "lock_retries", "lin"},
       fig_kv,
       "at s=0.99 the hot bucket serializes on original-MPI lock latency; "
       "casper(g1) with one fewer client per node still clears more ops/s. "
       "The checker linearizes every row's full history.",
       // Rows 0-3: s=0.50, 4-7: s=0.99, each original, thread, casper(g1),
       // casper(g2).
       {{"casper_beats_original", "kops/s@6/kops/s@4 in 1..inf"}},
       nullptr, false, false, kv_hook},
      {"mwcas", "fig_mwcas",
       "4-word MWCAS throughput vs. progress mode at equal cores (2 nodes x "
       "4 cores, hot vs. spread word footprints)",
       {"contention", "mode", "clients", "ops", "committed", "helps",
        "makespan(ms)", "kops/s", "lin"},
       fig_mwcas,
       "on the hot row every word install is a remote atomic on rank 0 that "
       "original MPI serializes behind the target's think time; casper(g1) "
       "with one fewer client per node still clears more MWCAS/s. The "
       "checker linearizes every row's full multi-word history.",
       // Rows 0-3: hot, 4-7: spread, in kv's mode order.
       {{"casper_beats_original_hot", "kops/s@2/kops/s@0 in 1..inf"}},
       nullptr, false, false, mwcas_hook},
      {"adaptive", "ablation_adaptive",
       "static vs. adaptive progress control: segment rebinding, rank phase "
       "shift, policy switching, Zipfian KV",
       {"row", "kind", "static(ms)", "adaptive(ms)", "ratio", "rebinds",
        "policy_switches"},
       ablation_adaptive,
       "adaptive matches static on balanced load and wins >= 1.2x wherever "
       "one ghost is left holding the skew.",
       // Rows 1, 2, 4 are skewed, rows 0 and 3 balanced; a balanced row may
       // cost the controller at most 5%.
       {{"skewed_1_2x",
         "ratio@1 in 1.2..inf; ratio@2 in 1.2..inf; ratio@4 in 1.2..inf"},
        {"balanced_within_5pct", "ratio@0 in 0.95..inf; ratio@3 in 0.95..inf"}},
       nullptr, false, false, adaptive_hook},
  };
  return figs;
}

/// Print one claim line per claim; 1 when a verdict differs from its pin.
int check_claims(const Figure& f, const report::Table& t) {
  int rc = 0;
  for (const Claim& c : f.claims) {
    std::istringstream in(c.terms);
    std::string m;
    bool holds = true;
    for (std::string term; std::getline(in, term, ';');) {
      if (!m.empty()) m += ";";
      holds = term_holds(t, term, m) && holds;
    }
    std::cout << "claim " << f.id << "." << c.name << ": "
              << (holds ? "holds" : "DIVERGES") << " (" << m << ")\n";
    if (holds != c.pinned_holds) {
      std::cerr << "figures: claim " << f.id << "." << c.name
                << " is pinned as "
                << (c.pinned_holds ? "holding" : "diverging") << "\n";
      rc = 1;
    }
  }
  return rc;
}

int run_figure(const Figure& f, const Opts& o) {
  std::vector<std::string> cols = f.columns;
  if (f.adaptive && o.adaptive) cols.push_back("adaptive(ms)");
  report::Table t(cols);
  g_unlinearized = 0;
  if (f.label != nullptr) report::banner(std::cout, f.label, f.what);
  f.series(o, t);
  if (f.label != nullptr) t.print(std::cout, o.csv);
  if (f.expectation != nullptr) {
    std::cout << "expectation: " << f.expectation << "\n";
  }
  int rc = check_claims(f, t);
  if (f.hook != nullptr) rc |= f.hook(o, t);
  if (g_unlinearized > 0) {
    std::cerr << "figures: " << f.id << ": " << g_unlinearized
              << " histories did not linearize\n";
    rc = 1;
  }
  if (f.note != nullptr && (f.note_always || !o.full)) {
    std::cout << f.note << "\n";
  }
  return rc;
}

/// A count flag's value: an integer >= 1 and nothing else.
bool parse_count(const char* s, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || v < 1 || v > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

int usage() {
  std::cerr << kUsage;
  for (const Figure& f : registry()) std::cerr << " " << f.id;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Opts o;
  std::vector<const Figure*> figs;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    const auto f = std::find_if(registry().begin(), registry().end(),
                                [&](const Figure& e) { return a == e.id; });
    if (f != registry().end()) {
      figs.push_back(&*f);
    } else if (a == "--csv") {
      o.csv = true;
    } else if (a == "--full") {
      o.full = true;
    } else if (a == "--json") {
      o.json = true;
    } else if (a == "--adaptive") {
      o.adaptive = true;
    } else if (a == "--trace" && has_value) {
      o.trace = argv[++i];
    } else if (a == "--out" && has_value) {
      o.out = argv[++i];
    } else if (a == "--shards" && has_value) {
      if (!parse_count(argv[++i], &o.shards)) return usage();
    } else if (a == "--iters" && has_value) {
      if (!parse_count(argv[++i], &o.iters)) return usage();
    } else {
      return usage();
    }
  }
  if (figs.empty()) return usage();
  int rc = 0;
  for (const Figure* f : figs) rc |= run_figure(*f, o);
  return rc;
}
