// Shared helpers for the figure-reproduction benches: the execution modes of
// the paper's evaluation (original MPI, thread-based progress,
// DMAPP/interrupt-based progress, Casper) and timing helpers.
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>

#include "core/casper.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "progress/progress.hpp"
#include "report/table.hpp"

namespace casper::bench {

/// The progress strategies compared throughout the paper's evaluation.
enum class Mode {
  Original,  ///< no asynchronous progress
  Thread,    ///< background thread per process (oversubscribed core)
  ThreadD,   ///< background thread per process (dedicated core)
  Dmapp,     ///< hardware PUT/GET + interrupt-driven software ops
  Casper,    ///< ghost-process progress (this paper)
};

/// One simulated execution. `user_cpn` is the number of application
/// processes per node; Casper nodes get `ghosts` extra cores for ghosts, the
/// thread modes keep the paper's Table-I core accounting (oversubscribed =
/// same cores at half compute speed; dedicated = progress threads on their
/// own cores, which the caller accounts for by halving user_cpn).
struct RunSpec {
  Mode mode = Mode::Original;
  net::Profile profile;       // base platform (Cray regular by default)
  int nodes = 2;
  int user_cpn = 1;           // application processes per node
  int ghosts = 1;             // Casper ghosts per node (Casper mode only)
  core::Binding binding = core::Binding::Rank;
  core::DynamicLb dynamic = core::DynamicLb::None;
  /// Online adaptive progress control (Casper mode only; see DESIGN.md §15).
  /// Defaults to disabled, which is byte-identical to builds without it.
  progress::AdaptiveConfig adaptive;
  std::uint64_t seed = 12345;
  /// Engine shards (worker threads). 1 = the classic single-threaded engine;
  /// >1 partitions ranks by node across shards under conservative lookahead.
  /// Virtual-time results are shard-count invariant, so any value reproduces
  /// the same figure; host wall-clock scales with available cores.
  int shards = 1;
  /// Observability recorder to attach to the run (see src/obs/); null runs
  /// uninstrumented. Used for `--trace` dumps and BENCH_*.json metric blocks.
  obs::Recorder* recorder = nullptr;
};

/// Execute `app` under the spec; the app runs on the application-visible
/// world. Returns nothing; the app communicates results via captures.
inline void run(const RunSpec& spec, std::function<void(mpi::Env&)> app) {
  mpi::RunConfig rc;
  rc.machine.profile = spec.profile;
  rc.machine.topo.nodes = spec.nodes;
  rc.seed = spec.seed;
  rc.recorder = spec.recorder;
  rc.shards = spec.shards;
  switch (spec.mode) {
    case Mode::Original:
      rc.machine.topo.cores_per_node = spec.user_cpn;
      mpi::exec(rc, std::move(app));
      break;
    case Mode::Thread:
      rc.machine.topo.cores_per_node = spec.user_cpn;
      rc.progress.kind = progress::Kind::Thread;
      rc.progress.oversubscribed = true;
      mpi::exec(rc, std::move(app));
      break;
    case Mode::ThreadD:
      rc.machine.topo.cores_per_node = spec.user_cpn;
      rc.progress.kind = progress::Kind::Thread;
      rc.progress.oversubscribed = false;
      mpi::exec(rc, std::move(app));
      break;
    case Mode::Dmapp:
      rc.machine.profile = net::cray_xc30_dmapp();
      rc.machine.topo.cores_per_node = spec.user_cpn;
      rc.progress.kind = progress::Kind::Interrupt;
      mpi::exec(rc, std::move(app));
      break;
    case Mode::Casper: {
      rc.machine.topo.cores_per_node = spec.user_cpn + spec.ghosts;
      core::Config cc;
      cc.ghosts_per_node = spec.ghosts;
      cc.binding = spec.binding;
      cc.dynamic = spec.dynamic;
      cc.adaptive = spec.adaptive;
      mpi::exec(rc, std::move(app), core::layer(cc));
      break;
    }
  }
}

/// Run and return a double metric computed by the app (the app must assign
/// through the pointer on user rank 0).
inline double run_metric(const RunSpec& spec,
                         std::function<void(mpi::Env&, double*)> app) {
  double metric = 0;
  run(spec, [&metric, &app](mpi::Env& env) { app(env, &metric); });
  return metric;
}

/// Host wall-clock of `body`, best (minimum) of `runs` executions, in
/// milliseconds. Best-of-N is the standard defense against one-off scheduler
/// noise when the measured quantity is a deterministic amount of work; the
/// BENCH_*.json "host" blocks produced from this feed the perf-regression
/// gate in scripts/bench.sh.
inline double host_best_of_ms(int runs, const std::function<void()>& body) {
  using Clock = std::chrono::steady_clock;
  double best = 0;
  for (int r = 0; r < runs; ++r) {
    const auto t0 = Clock::now();
    body();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

/// Render the standard "host" block for BENCH_*.json: the best-of-N
/// wall-clock of the bench's casper-mode sweep.
inline std::string host_block_json(double sweep_ms, int runs) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{\"casper_sweep_ms\": %.3f, \"best_of\": %d}", sweep_ms,
                runs);
  return buf;
}

}  // namespace casper::bench
