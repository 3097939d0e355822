// Host-side throughput of the simulator scheduler itself: rank switches/sec
// and event dispatches/sec at 16 / 256 / 1024 simulated ranks, plus a
// shard-count sweep of the sharded scheduler at 1024 ranks. With --out it
// writes them as JSON (scripts/bench.sh gates that against the committed
// BENCH_engine.json); these are host costs, not virtual time.
//
// Every number is the best of --reps identical runs: the quantity being
// tracked is the code's cost, and min-time (max-rate) is the standard
// estimator least polluted by scheduler preemption on a shared host.
//
// Usage: engine_throughput [--out PATH] [--switches N] [--events N] [--reps N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/record.hpp"
#include "sim/engine.hpp"

using namespace casper;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double best_of(int reps, F&& run_once) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) best = std::max(best, run_once());
  return best;
}

/// All ranks repeatedly advance by 1 ns in lockstep, so every advance leaves
/// and re-enters the scheduler: 2 fiber switches per advance, nranks at a
/// time. Returns host-side switches/sec.
double measure_switch_rate(int nranks, int switches_per_rank) {
  sim::Engine::Options o;
  o.nranks = nranks;
  o.stack_bytes = 64 * 1024;
  sim::Engine e(o, [switches_per_rank](sim::Context& ctx) {
    for (int i = 0; i < switches_per_rank; ++i) ctx.advance(sim::ns(1));
  });
  const auto t0 = Clock::now();
  e.run();
  const double dt = seconds_since(t0);
  // Each slow-path advance is one switch out + one switch back in.
  const double switches =
      2.0 * static_cast<double>(nranks) * switches_per_rank;
  return switches / dt;
}

/// One designated rank posts batches of timestamp-ordered events; all other
/// ranks just finish. Returns host-side events/sec through the event
/// calendar + slot pool.
double measure_event_rate(int nranks, int total_events) {
  sim::Engine::Options o;
  o.nranks = nranks;
  o.stack_bytes = 64 * 1024;
  const int batches = 64;
  const int per_batch = total_events / batches;
  sim::Engine e(o, [per_batch](sim::Context& ctx) {
    if (ctx.rank() != 0) return;
    for (int b = 0; b < batches; ++b) {
      for (int i = 0; i < per_batch; ++i) {
        ctx.engine().post_event(ctx.now() + sim::ns(1 + i % 7), [] {});
      }
      ctx.advance(sim::ns(16));  // drain the batch
    }
  });
  const auto t0 = Clock::now();
  e.run();
  const double dt = seconds_since(t0);
  return static_cast<double>(batches) * per_batch / dt;
}

/// Shard-sweep workload: kGroups posters spread over the rank space (one per
/// contiguous 128-rank block at nranks=1024, so exactly one per shard at
/// shards=8) each post timestamp-ordered batches of events homed to
/// themselves. The workload is byte-identical for every shard count — only
/// the partitioning changes — so the shards=1 row (one shard on the calling
/// thread, no worker threads) is the honest denominator of the sharded
/// speedup gate. A generous lookahead keeps the whole run inside one
/// conservative window: this measures queue + dispatch cost, not barriers.
double measure_sharded_event_rate(int nranks, int shards, int total_events) {
  sim::Engine::Options o;
  o.nranks = nranks;
  o.stack_bytes = 64 * 1024;
  o.shards = shards;
  o.lookahead = sim::us(1000);
  const int groups = 8;
  const int batches = 64;
  const int per_batch = total_events / batches;
  const int stride = nranks / groups;
  sim::Engine e(o, [per_batch, stride](sim::Context& ctx) {
    if (ctx.rank() % stride != 0) return;
    const int self = ctx.rank();
    for (int b = 0; b < batches; ++b) {
      for (int i = 0; i < per_batch; ++i) {
        ctx.engine().post_event(ctx.now() + sim::ns(1 + i % 7), self, [] {});
      }
      ctx.advance(sim::ns(16));  // drain the batch
    }
  });
  const auto t0 = Clock::now();
  e.run();
  const double dt = seconds_since(t0);
  return static_cast<double>(groups) * batches * per_batch / dt;
}

/// Small instrumented run (Recorder attached as the scheduler observer) so
/// the emitted JSON carries an obs metrics block like the other benches.
/// Separate from the timed loops above — those always run uninstrumented.
void collect_obs_metrics(obs::Metrics* out) {
  obs::Recorder rec;
  sim::Engine::Options o;
  o.nranks = 16;
  o.stack_bytes = 64 * 1024;
  sim::Engine e(o, [](sim::Context& ctx) {
    for (int i = 0; i < 64; ++i) ctx.advance(sim::ns(1));
  });
  e.set_sched_observer(&rec);
  e.run();
  rec.metrics().counter("sched.observed_switches") = rec.trace().recorded();
  rec.metrics().counter("sched.trace_dropped") = rec.trace().dropped();
  *out = rec.metrics();
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = nullptr;
  int switches_per_rank = 2000;
  int total_events = 200000;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--switches") == 0 && i + 1 < argc) {
      switches_per_rank = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      total_events = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    }
  }

  const std::vector<int> rank_counts = {16, 256, 1024};
  std::string json = "{\n  \"bench\": \"engine_throughput\",\n"
                     "  \"scheduler\": \"fiber\",\n";
  {
    char line[64];
    std::snprintf(line, sizeof line, "  \"host_cpus\": %u,\n",
                  std::thread::hardware_concurrency());
    json += line;
  }
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < rank_counts.size(); ++i) {
    const int n = rank_counts[i];
    const double sw = best_of(
        reps, [&] { return measure_switch_rate(n, switches_per_rank); });
    const double ev =
        best_of(reps, [&] { return measure_event_rate(n, total_events); });
    std::printf("nranks=%4d  switches/sec=%.3e  events/sec=%.3e\n", n, sw, ev);
    char line[256];
    std::snprintf(line, sizeof line,
                  "    {\"nranks\": %d, \"switches_per_sec\": %.1f, "
                  "\"events_per_sec\": %.1f}%s\n",
                  n, sw, ev, i + 1 < rank_counts.size() ? "," : "");
    json += line;
  }
  json += "  ],\n";

  // Shard-count sweep at the largest rank count. shards=1 runs without
  // worker threads; the gate is events_per_sec(shards>=4) >= 2.5x that row.
  const std::vector<int> shard_counts = {1, 2, 4, 8};
  json += "  \"shard_sweep\": [\n";
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    const int s = shard_counts[i];
    const double ev = best_of(reps, [&] {
      return measure_sharded_event_rate(1024, s, total_events);
    });
    std::printf("nranks=1024  shards=%d  events/sec=%.3e\n", s, ev);
    char line[256];
    std::snprintf(line, sizeof line,
                  "    {\"nranks\": 1024, \"shards\": %d, "
                  "\"events_per_sec\": %.1f}%s\n",
                  s, ev, i + 1 < shard_counts.size() ? "," : "");
    json += line;
  }
  json += "  ],\n";
  // PR 2 numbers (pre-observability scheduler), kept verbatim so the
  // trajectory across PRs stays in the file after regeneration.
  json +=
      "  \"baseline_pr2\": [\n"
      "    {\"nranks\": 16, \"switches_per_sec\": 4548074.5, "
      "\"events_per_sec\": 13784128.6},\n"
      "    {\"nranks\": 256, \"switches_per_sec\": 3703914.0, "
      "\"events_per_sec\": 8853851.2},\n"
      "    {\"nranks\": 1024, \"switches_per_sec\": 3091760.6, "
      "\"events_per_sec\": 8423524.0}\n"
      "  ],\n";
  obs::Metrics metrics;
  collect_obs_metrics(&metrics);
  std::ostringstream ms;
  ms << "  \"metrics\": ";
  metrics.write_json(ms, 2);
  json += ms.str();
  json += "\n}\n";

  if (out == nullptr) return 0;
  std::FILE* f = std::fopen(out, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "engine_throughput: cannot write %s\n", out);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out);
  return 0;
}
