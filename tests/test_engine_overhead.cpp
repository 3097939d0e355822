// Tracing-disabled overhead guard.
//
// The observability hooks in the scheduler hot loop must cost nothing
// measurable when no recorder is attached: this test re-runs the
// BENCH_engine.json event-throughput measurement (16 ranks, the bench's
// default event count) with tracing disabled and asserts the best-of-7 rate
// stays within 50% of the baseline recorded in the committed
// BENCH_engine.json — which is regenerated (same machine, same flags)
// whenever the bench is re-run, so the comparison is bench-run vs test-run,
// not cross-machine.
//
// The band is 50%, not a tight few percent, because absolute event rates on
// shared hosts drift by up to ~2x between clock epochs (frequency scaling /
// noisy neighbors) even with best-of-7 filtering; the committed baseline is
// deliberately taken from a slow run. The guard still catches the failure it
// exists for — a sched-observer hook going hot costs well over 2x on a
// ~40ns dispatch (an accidentally-attached recorder historically cost
// 5-10x). Same-epoch fine-grained regressions are caught by the bench.sh
// ratchet, which compares bench-run vs bench-run.
//
// Registered RUN_SERIAL so parallel ctest jobs don't steal cycles from the
// timed region; best-of-7 filters scheduler noise in the other direction.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/engine.hpp"

#ifndef CASPER_BENCH_ENGINE_JSON
#error "CASPER_BENCH_ENGINE_JSON must point at the committed BENCH_engine.json"
#endif

using namespace casper;
using Clock = std::chrono::steady_clock;

namespace {

// Mirrors measure_event_rate in bench/engine_throughput.cpp: one rank posts
// timestamp-ordered event batches through the shard's event calendar.
double event_rate(int nranks, int total_events) {
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
      ctx.advance(sim::ns(16));
    }
  });
  const auto t0 = Clock::now();
  e.run();
  const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(batches) * per_batch / dt;
}

// events_per_sec of the nranks==16 row in the "results" array. The file
// also carries a "baseline_pr2" array; "results" comes first, so the first
// nranks==16 occurrence is the current-machine baseline.
double baseline_events_per_sec(const std::string& path) {
  std::ifstream f(path);
  if (!f) return -1.0;
  std::ostringstream os;
  os << f.rdbuf();
  const std::string s = os.str();
  const std::size_t results = s.find("\"results\"");
  if (results == std::string::npos) return -1.0;
  const std::size_t row = s.find("\"nranks\": 16", results);
  if (row == std::string::npos) return -1.0;
  const std::size_t key = s.find("\"events_per_sec\":", row);
  if (key == std::string::npos) return -1.0;
  return std::strtod(s.c_str() + key + 17, nullptr);
}

}  // namespace

TEST(EngineOverhead, DisabledTracingWithinBandOfBench) {
  const double baseline = baseline_events_per_sec(CASPER_BENCH_ENGINE_JSON);
  ASSERT_GT(baseline, 0.0)
      << "could not parse events_per_sec (nranks=16) from "
      << CASPER_BENCH_ENGINE_JSON;

  double best = 0.0;
  for (int i = 0; i < 7; ++i) {
    best = std::max(best, event_rate(16, 200000));
  }
  EXPECT_GE(best, 0.50 * baseline)
      << "tracing-disabled event dispatch slowed down: best-of-7 " << best
      << " events/sec vs baseline " << baseline
      << " — check the sched-observer hooks in sim::Engine::run";
}
