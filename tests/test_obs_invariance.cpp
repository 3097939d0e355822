// Perturbed-schedule invariance of the obs metrics.
//
// The same program run under different legal fiber schedules
// (RunConfig::perturb_seed) must produce identical counter totals — op
// routing, per-ghost work, and sync counts are properties of the program,
// not of the interleaving. Traces, by contrast, SHOULD differ (they record
// the interleaving itself), which is also asserted so a broken perturb_seed
// can't make this test pass vacuously.
//
// Histograms of virtual-time latencies (sync_ns.*, ghost_service_ns) are
// deliberately excluded: epoch timing depends on the schedule.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "check/race.hpp"
#include "core/casper.hpp"
#include "mpi/runtime.hpp"
#include "mwcas/mwcas.hpp"
#include "net/profile.hpp"
#include "obs/record.hpp"

using namespace casper;

namespace {

// 4 user ranks (2 nodes x 2 users + 1 ghost each): every user puts to its
// own slot on every peer and accumulates into a shared cell, under lockall.
void workload(mpi::Env& env) {
  mpi::Comm w = env.world();
  const int n = env.size(w);
  const int me = env.rank(w);
  void* base = nullptr;
  const std::size_t slots = static_cast<std::size_t>(n) + 1;
  mpi::Win win = env.win_allocate(slots * sizeof(double), sizeof(double),
                                  mpi::Info{}, w, &base);
  for (int round = 0; round < 2; ++round) {
    env.barrier(w);
    env.win_lock_all(0, win);
    for (int peer = 0; peer < n; ++peer) {
      if (peer == me) continue;
      double v = me * 100.0 + round;
      env.put(&v, 1, peer, static_cast<std::size_t>(me), win);
      env.accumulate(&v, 1, peer, static_cast<std::size_t>(n),
                     mpi::AccOp::Sum, win);
    }
    env.win_unlock_all(win);
  }
  env.win_free(win);

  // Uncontended MWCAS leg: rank r owns a 2-word heap slice and CASes the
  // NEXT rank's slice (genuinely remote, but each word is targeted by
  // exactly one client), so the mwcas.* protocol counters are schedule-
  // independent facts — no helps, no retries — and join the exact-match
  // invariance set below.
  mwcas::MwHeap heap(env, w, /*words_per_rank=*/2, mwcas::MwConfig{});
  heap.open();
  mwcas::Mwcas& mw = heap.mw();
  const int peer = (me + 1) % n;
  const mwcas::MwTarget t[2] = {
      {peer, heap.word_off(0), 0, me * 10 + 1},
      {peer, heap.word_off(1), 0, me * 10 + 2},
  };
  const mwcas::MwResult r = mw.mwcas(t, 2);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(mw.read(peer, heap.word_off(0)), me * 10 + 1);
  heap.close();
}

struct Observed {
  obs::Metrics::Registry<std::uint64_t> counters;
  std::string trace_text;
};

Observed run_once(std::uint64_t perturb) {
  obs::Recorder rec;
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = 2;
  rc.machine.topo.cores_per_node = 3;  // 2 users + 1 ghost per node
  rc.seed = 12345;
  rc.perturb_seed = perturb;
  rc.recorder = &rec;
  core::Config cc;
  cc.ghosts_per_node = 1;
  // The race analyzer rides along so its race.* counters (accesses, epochs)
  // join the exact-match invariance set below.
  check::RaceAnalyzer race;
  race.set_recorder(&rec);
  mpi::Runtime rt(rc, workload, core::layer(cc));
  rt.add_observer(&race);
  rt.run();
  Observed out;
  out.counters = rec.metrics().counters();
  // "pool.*" counters report host-side buffer reuse, which legitimately
  // depends on the interleaving (which staging buffer is free when) — they
  // are outside the invariance contract, like the latency histograms.
  for (auto it = out.counters.begin(); it != out.counters.end();) {
    it = it->first.rfind("pool.", 0) == 0 ? out.counters.erase(it)
                                          : std::next(it);
  }
  std::ostringstream os;
  rec.trace().export_text(os);
  out.trace_text = os.str();
  return out;
}

}  // namespace

TEST(ObsInvariance, CountersIdenticalAcrossEightSchedules) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with CASPER_TRACE=0";
  const Observed ref = run_once(0);

  // The workload must actually exercise the Casper paths being counted.
  EXPECT_GT(ref.counters.at("casper.redirected_ops"), 0u);
  EXPECT_GT(ref.counters.at("ops.issued"), 0u);
  bool saw_ghost_key = false;
  for (const auto& [name, v] : ref.counters) {
    if (name.rfind("ghost.", 0) == 0) {
      saw_ghost_key = true;
      EXPECT_GT(v, 0u) << name;
    }
  }
  EXPECT_TRUE(saw_ghost_key);
  // The MWCAS leg ran and published its protocol counters: 4 clients x
  // (1 op, 2 installs, 1 post-CAS read) with zero contention artifacts.
  EXPECT_EQ(ref.counters.at("mwcas.ops"), 4u);
  EXPECT_EQ(ref.counters.at("mwcas.success"), 4u);
  EXPECT_EQ(ref.counters.at("mwcas.installs"), 8u);
  EXPECT_EQ(ref.counters.at("mwcas.reads"), 4u);
  EXPECT_EQ(ref.counters.count("mwcas.fail"), 1u);
  EXPECT_EQ(ref.counters.at("mwcas.fail"), 0u);
  EXPECT_EQ(ref.counters.at("mwcas.helps"), 0u);
  EXPECT_EQ(ref.counters.at("mwcas.retries"), 0u);
  // The analyzer recorded accesses and epochs — and they join the
  // exact-match comparison like every other counter.
  EXPECT_GT(ref.counters.at("race.accesses"), 0u);
  EXPECT_GT(ref.counters.at("race.epochs"), 0u);
  EXPECT_EQ(ref.counters.count("race.conflict_pairs"), 0u)
      << "clean workload must not raise conflicts";

  std::set<std::string> distinct_traces;
  distinct_traces.insert(ref.trace_text);
  for (std::uint64_t s = 1; s < 8; ++s) {
    const Observed r = run_once(0x9e3779b97f4a7c15ull * s);
    EXPECT_EQ(r.counters, ref.counters) << "perturb schedule " << s;
    distinct_traces.insert(r.trace_text);
  }
  // Schedules really were perturbed: the interleaving-sensitive trace
  // changed at least once across the eight runs.
  EXPECT_GE(distinct_traces.size(), 2u);
}

TEST(ObsInvariance, SameScheduleIsByteIdentical) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with CASPER_TRACE=0";
  const Observed a = run_once(7);
  const Observed b = run_once(7);
  EXPECT_EQ(a.trace_text, b.trace_text);
  EXPECT_EQ(a.counters, b.counters);
}
