// Descriptor-based MWCAS (src/mwcas/): install/complete/rollback units,
// helping when the origin never re-runs, failure-atomic recovery sweeps,
// Michael–Scott queue linearizability, schedule / shard / mode determinism,
// chaos (lossy network + ghost kill mid-descriptor), and the multi-observer
// fan-out regression. Every workload run carries the MWCAS linearizability
// adapter; determinism suites compare bit-exact outcome tuples.
//
// Under ASan (scripts/check.sh): descriptors recycle through gen-guarded
// slots and helping reads foreign descriptor memory mid-retire by design, so
// a snapshot/gen-check slip that touches freed state is reported.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/mwfuzz.hpp"
#include "check/mwlinear.hpp"
#include "check/oracle.hpp"
#include "check/race.hpp"
#include "core/casper.hpp"
#include "mpi/runtime.hpp"
#include "mwcas/msqueue.hpp"
#include "mwcas/mwcas.hpp"
#include "net/profile.hpp"

namespace {

using namespace casper;

mpi::RunConfig base_config(int nodes, int cores_per_node,
                           std::uint64_t seed) {
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = nodes;
  rc.machine.topo.cores_per_node = cores_per_node;
  rc.seed = seed;
  return rc;
}

/// A hand-built fuzz case: fixed topology, fixed per-client program of
/// contended reads and 2-/3-word MWCASes over an 8-word pool. Reused across
/// the determinism and chaos suites so mode/shard/schedule comparisons all
/// see the identical workload.
check::MwCase fixed_case(check::Mode mode, int ghosts,
                         core::Binding binding, core::DynamicLb dynamic) {
  check::MwCase fc;
  fc.seed = 77;
  fc.mode = mode;
  fc.nodes = 1;
  fc.users_per_node = 4;
  fc.ghosts = ghosts;
  fc.binding = binding;
  fc.dynamic = dynamic;
  fc.words_per_rank = 2;  // 4 clients x 2 = 8-word pool
  const int total = fc.total_words();
  std::vector<sim::Rng> crng;
  for (int c = 0; c < fc.nusers(); ++c) {
    crng.emplace_back(fc.seed, 0x500 + static_cast<std::uint64_t>(c));
  }
  for (int k = 0; k < 10; ++k) {
    for (int c = 0; c < fc.nusers(); ++c) {
      sim::Rng& r = crng[static_cast<std::size_t>(c)];
      check::MwProgOp op;
      op.client = c;
      op.think = sim::us(1) + r.next_below(sim::us(3));
      if (k % 3 == 2) {
        op.width = 0;
        op.word[0] = static_cast<int>(r.next_below(total));
      } else {
        op.width = 2 + (k % 2);
        op.stale = r.next_below(4) == 0;
        for (int i = 0; i < op.width; ++i) {
          for (;;) {
            const int w = static_cast<int>(r.next_below(total));
            bool dup = false;
            for (int j = 0; j < i; ++j) dup = dup || op.word[j] == w;
            if (!dup) {
              op.word[i] = w;
              break;
            }
          }
        }
      }
      fc.ops.push_back(op);
    }
  }
  return fc;
}

// --- encoding ---------------------------------------------------------------

TEST(MwcasEncoding, PointerClassification) {
  EXPECT_FALSE(mwcas::Mwcas::is_ptr_value(0));
  EXPECT_FALSE(mwcas::Mwcas::is_ptr_value(1));
  EXPECT_FALSE(mwcas::Mwcas::is_ptr_value(-1));
  EXPECT_FALSE(mwcas::Mwcas::is_ptr_value((std::int64_t{1} << 51) - 1));
  EXPECT_FALSE(mwcas::Mwcas::is_ptr_value(-((std::int64_t{1} << 51) - 1)));
  EXPECT_TRUE(mwcas::Mwcas::is_ptr_value(std::int64_t{1} << 52));
  EXPECT_TRUE(mwcas::Mwcas::is_ptr_value((std::int64_t{1} << 52) + 12345));
}

// --- units: install / complete / rollback, exact accounting ----------------

TEST(MwcasUnit, Cas1ReadWriteRoundTrip) {
  mpi::RunConfig rc = base_config(1, 2, 11);
  auto body = [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    mwcas::MwHeap heap(env, w, 2, mwcas::MwConfig{});
    heap.open();
    mwcas::Mwcas& mw = heap.mw();
    mw.write(me, 0, 42 + me);
    env.barrier(w);
    EXPECT_EQ(mw.read(0, 0), 42);
    EXPECT_EQ(mw.read(1, 0), 43);
    if (me == 0) {
      EXPECT_TRUE(mw.cas1(1, 0, 43, 44));
      EXPECT_FALSE(mw.cas1(1, 0, 43, 45));  // stale expected
      EXPECT_EQ(mw.read(1, 0), 44);
    }
    env.barrier(w);
    heap.close();
  };
  mpi::Runtime rt(rc, body, mpi::LayerFactory{});
  rt.run();
}

TEST(MwcasUnit, WidthSweepInstallCompleteRollbackAccounting) {
  mpi::RunConfig rc = base_config(1, 2, 12);
  auto body = [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    mwcas::MwHeap heap(env, w, 4, mwcas::MwConfig{});
    heap.open();
    mwcas::Mwcas& mw = heap.mw();
    env.barrier(w);
    if (me == 0) {
      // width 2 across both ranks: 0 -> 5 / 0 -> 7.
      const mwcas::MwResult r2 = mw.mwcas(std::vector<mwcas::MwTarget>{
          {0, heap.word_off(0), 0, 5}, {1, heap.word_off(0), 0, 7}});
      EXPECT_TRUE(r2.ok);
      EXPECT_EQ(mw.read(0, heap.word_off(0)), 5);
      EXPECT_EQ(mw.read(1, heap.word_off(0)), 7);

      // width 8: every word in the heap, current -> current + 10.
      std::vector<mwcas::MwTarget> t8;
      for (int r = 0; r < 2; ++r) {
        for (int i = 0; i < 4; ++i) {
          const std::int64_t cur = mw.read(r, heap.word_off(i));
          t8.push_back({r, heap.word_off(i), cur, cur + 10});
        }
      }
      EXPECT_TRUE(mw.mwcas(t8).ok);
      EXPECT_EQ(mw.read(0, heap.word_off(0)), 15);
      EXPECT_EQ(mw.read(1, heap.word_off(0)), 17);
      EXPECT_EQ(mw.read(1, heap.word_off(3)), 10);

      // width 3 with a stale expected on the LAST canonical word: the first
      // two words install and must be rolled back untouched.
      const mwcas::MwResult r3 = mw.mwcas(std::vector<mwcas::MwTarget>{
          {0, heap.word_off(1), 10, 99},
          {0, heap.word_off(2), 10, 99},
          {1, heap.word_off(3), 999, 99}});
      EXPECT_FALSE(r3.ok);
      EXPECT_FALSE(r3.interrupted);
      EXPECT_EQ(r3.mismatch_index, 2);
      EXPECT_EQ(r3.observed, 10);
      EXPECT_EQ(mw.read(0, heap.word_off(1)), 10);
      EXPECT_EQ(mw.read(0, heap.word_off(2)), 10);
      EXPECT_EQ(mw.read(1, heap.word_off(3)), 10);

      // Uncontended accounting is exact: 3 ops, 2 + 8 installs for the
      // successes, 2 for the rolled-back op, one rollback, zero helping.
      const mwcas::MwStats& s = mw.stats();
      EXPECT_EQ(s.ops, 3u);
      EXPECT_EQ(s.success, 2u);
      EXPECT_EQ(s.fail, 1u);
      EXPECT_EQ(s.interrupted, 0u);
      EXPECT_EQ(s.installs, 12u);
      EXPECT_EQ(s.rollbacks, 1u);
      EXPECT_EQ(s.helps, 0u);
      EXPECT_EQ(s.retries, 0u);
      EXPECT_EQ(s.recoveries, 0u);
    }
    env.barrier(w);
    heap.close();
  };
  mpi::Runtime rt(rc, body, mpi::LayerFactory{});
  rt.run();
}

// --- helping: a bystander completes an op whose origin never re-runs -------

TEST(MwcasHelp, BystanderReadCompletesInterruptedOp) {
  mpi::RunConfig rc = base_config(1, 3, 13);
  auto body = [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    mwcas::MwHeap heap(env, w, 2, mwcas::MwConfig{});
    heap.open();
    mwcas::Mwcas& mw = heap.mw();
    env.barrier(w);
    if (me == 0) {
      // Die after installing the first of two words: the descriptor table
      // now holds the only copy of the op's intent.
      const mwcas::MwResult r = mw.mwcas_dying(
          {{1, heap.word_off(0), 0, 100}, {2, heap.word_off(0), 0, 200}}, 1);
      EXPECT_TRUE(r.interrupted);
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(mw.stats().interrupted, 1u);
    }
    env.barrier(w);
    if (me == 1) {
      // This read lands on the installed descriptor pointer and must help
      // the op to completion — installing the second word and deciding
      // Succeeded — even though rank 0 never runs the protocol again.
      EXPECT_EQ(mw.read(1, heap.word_off(0)), 100);
      EXPECT_EQ(mw.read(2, heap.word_off(0)), 200);
      EXPECT_GE(mw.stats().helps, 1u);
      EXPECT_GE(mw.stats().help_completes, 1u);
    }
    env.barrier(w);
    if (me == 0) {
      // The origin's replay retires the parked descriptor (the helper
      // already decided it) and the slot is reusable.
      EXPECT_EQ(mw.recover(), 1);
      EXPECT_EQ(mw.stats().recoveries, 1u);
      const mwcas::MwResult r = mw.mwcas(std::vector<mwcas::MwTarget>{
          {1, heap.word_off(0), 100, 111}, {2, heap.word_off(0), 200, 222}});
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(mw.read(1, heap.word_off(0)), 111);
    }
    env.barrier(w);
    heap.close();
  };
  mpi::Runtime rt(rc, body, mpi::LayerFactory{});
  rt.run();
}

// --- failure-atomic recovery: die at every point, then replay --------------

TEST(MwcasRecover, DieAtEveryInstallPointThenReplayRollsForward) {
  mpi::RunConfig rc = base_config(1, 2, 14);
  auto body = [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    mwcas::MwHeap heap(env, w, 4, mwcas::MwConfig{});
    heap.open();
    mwcas::Mwcas& mw = heap.mw();
    mwcas::RecoverCas rec(mw);
    env.barrier(w);
    if (me == 0) {
      // k = 0: nothing installed; k = 1: mid-install; k = 2: fully
      // installed but undecided. Replay must roll each op forward.
      for (int k = 0; k < 3; ++k) {
        const std::size_t off = heap.word_off(k);
        const mwcas::MwResult r = rec.run(
            {{0, off, 0, 100 + k}, {1, off, 0, 200 + k}}, k);
        EXPECT_TRUE(r.interrupted) << "k=" << k;
        EXPECT_EQ(rec.replay(), 1) << "k=" << k;
        EXPECT_EQ(mw.read(0, off), 100 + k) << "k=" << k;
        EXPECT_EQ(mw.read(1, off), 200 + k) << "k=" << k;
      }
      EXPECT_EQ(mw.stats().recoveries, 3u);
      EXPECT_EQ(mw.stats().success, 3u);
    }
    env.barrier(w);
    heap.close();
  };
  mpi::Runtime rt(rc, body, mpi::LayerFactory{});
  rt.run();
}

TEST(MwcasRecover, ConflictDuringDeathRollsBackAtomically) {
  mpi::RunConfig rc = base_config(1, 2, 15);
  auto body = [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    mwcas::MwHeap heap(env, w, 2, mwcas::MwConfig{});
    heap.open();
    mwcas::Mwcas& mw = heap.mw();
    mwcas::RecoverCas rec(mw);
    env.barrier(w);
    if (me == 0) {
      // Install word (0,0), die before touching word (1,0).
      const mwcas::MwResult r = rec.run(
          {{0, heap.word_off(0), 0, 100}, {1, heap.word_off(0), 0, 200}}, 1);
      EXPECT_TRUE(r.interrupted);
    }
    env.barrier(w);
    if (me == 1) {
      // Overwrite the not-yet-installed word: the parked op is now doomed.
      EXPECT_TRUE(mw.cas1(1, heap.word_off(0), 0, 999));
    }
    env.barrier(w);
    if (me == 0) {
      // Replay must FAIL the op and restore the first word — no partial
      // multi-word state survives (failure atomicity).
      EXPECT_EQ(rec.replay(), 1);
      EXPECT_EQ(mw.stats().fail, 1u);
      EXPECT_GE(mw.stats().rollbacks, 1u);
      EXPECT_EQ(mw.read(0, heap.word_off(0)), 0);
      EXPECT_EQ(mw.read(1, heap.word_off(0)), 999);
    }
    env.barrier(w);
    heap.close();
  };
  mpi::Runtime rt(rc, body, mpi::LayerFactory{});
  rt.run();
}

// --- Michael–Scott queue: concurrent FIFO over 2-word MWCAS ----------------

TEST(MsQueueTest, ConcurrentEnqueueDequeueLinearizable) {
  constexpr int kRanks = 4;
  constexpr int kPool = 6;
  mpi::RunConfig rc = base_config(1, kRanks, 16);
  check::MwChecker checker;
  auto body = [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    mwcas::MwHeap heap(env, w, mwcas::MsQueue::words_per_rank(kPool),
                       mwcas::MwConfig{});
    heap.open();
    mwcas::MsQueue q(heap.mw(), kRanks, kPool);
    if (me == 0) q.init();
    env.barrier(w);
    env.compute(sim::ns(157) * static_cast<sim::Time>(me + 1));
    std::uint64_t cseq = 0;
    sim::Rng rng(16, 0x700 + static_cast<std::uint64_t>(me));
    const auto record_enq = [&](std::int64_t v) {
      check::MwEvent e;
      e.kind = check::MwEvent::Kind::Enq;
      e.client = me;
      e.cseq = cseq++;
      e.inv = env.now();
      q.enqueue(v);
      e.resp = env.now();
      e.value = v;
      e.ok = true;
      checker.record(e);
    };
    const auto record_deq = [&]() {
      check::MwEvent e;
      e.kind = check::MwEvent::Kind::Deq;
      e.client = me;
      e.cseq = cseq++;
      e.inv = env.now();
      std::int64_t v = 0;
      e.ok = q.dequeue(&v);
      e.resp = env.now();
      e.value = v;
      checker.record(e);
      return e.ok;
    };
    // Phase A: 3 uncontested-ish enqueues each.
    for (int i = 0; i < 3; ++i) {
      record_enq((me + 1) * 1000 + i);
      env.compute(sim::us(1) + rng.next_below(sim::us(2)));
    }
    // Phase B: enqueues interleaved with dequeues, all ranks concurrent.
    // Rank 0's node 0 is the permanent dummy, so every rank stops at
    // kPool - 1 enqueues.
    for (int i = 3; i < kPool - 1; ++i) {
      record_enq((me + 1) * 1000 + i);
      env.compute(sim::us(1) + rng.next_below(sim::us(2)));
      record_deq();
      env.compute(sim::us(1) + rng.next_below(sim::us(2)));
    }
    env.barrier(w);
    // Phase C: rank 0 drains what's left.
    if (me == 0) {
      while (record_deq()) {
      }
    }
    env.barrier(w);
    heap.close();
  };
  mpi::Runtime rt(rc, body, mpi::LayerFactory{});
  rt.run();
  EXPECT_GT(checker.ops_recorded(), 0u);
  const auto& viols = checker.check();
  EXPECT_TRUE(viols.empty()) << (viols.empty() ? "" : viols[0].diag);
}

// --- determinism: 2-/4-/8-word MWCAS under 64 perturbed schedules ----------
//
// Contended direct-heap workload (every width, shared 8-word pool), original
// MPI mode: AM service is event-driven and the client programs are tie-free
// (staggered starts, per-rank think streams), so all 64 perturbed schedules
// must reproduce schedule 0 bit-for-bit: same timed history, same final
// heap, same end time, same protocol counters.

struct HeapRunResult {
  std::uint64_t history_hash = 0;
  std::uint64_t fingerprint = 0;
  sim::Time end_time = 0;
  mwcas::MwStats stats;
  std::size_t violations = 0;
};

HeapRunResult run_width_workload(std::uint64_t perturb) {
  mpi::RunConfig rc = base_config(1, 4, 17);
  rc.perturb_seed = perturb;
  check::MwChecker checker;
  HeapRunResult out;
  auto body = [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    mwcas::MwHeap heap(env, w, 2, mwcas::MwConfig{});
    heap.open();
    mwcas::Mwcas& mw = heap.mw();
    env.barrier(w);
    env.compute(sim::ns(193) * static_cast<sim::Time>(me + 1));
    sim::Rng rng(17, 0x600 + static_cast<std::uint64_t>(me));
    std::uint64_t cseq = 0;
    const auto word_rank = [](int gw) { return gw / 2; };
    const auto word_off = [](int gw) {
      return static_cast<std::size_t>(gw % 2) * 8;
    };
    const auto read_logged = [&](int gw) {
      check::MwEvent g;
      g.kind = check::MwEvent::Kind::Read;
      g.client = me;
      g.cseq = cseq++;
      g.width = 1;
      g.word[0] = static_cast<std::uint64_t>(gw);
      g.inv = env.now();
      g.value = mw.read(word_rank(gw), word_off(gw));
      g.resp = env.now();
      checker.record(g);
      return g.value;
    };
    for (int round = 0; round < 3; ++round) {
      for (const int width : {2, 4, 8}) {
        env.compute(sim::us(1) + rng.next_below(sim::us(3)));
        check::MwEvent e;
        e.kind = check::MwEvent::Kind::Mwcas;
        e.client = me;
        e.width = width;
        mwcas::MwTarget t[8];
        for (int i = 0; i < width; ++i) {
          const int gw = (me * 2 + round + i) % 8;
          t[i].rank = word_rank(gw);
          t[i].off = word_off(gw);
          t[i].expected = read_logged(gw);
          t[i].desired = static_cast<std::int64_t>(me + 1) * 1000000 +
                         static_cast<std::int64_t>(cseq) * 16 + i;
          e.word[i] = static_cast<std::uint64_t>(gw);
          e.expected[i] = t[i].expected;
          e.desired[i] = t[i].desired;
        }
        e.cseq = cseq++;
        e.inv = env.now();
        const mwcas::MwResult r = mw.mwcas(t, width);
        e.resp = env.now();
        e.ok = r.ok;
        e.mismatch_index = -1;  // canonical-order index; timing-stable as-is
        e.observed = 0;
        checker.record(e);
      }
    }
    env.barrier(w);
    if (me == 0) out.end_time = env.now();
    const mwcas::MwStats local = mw.stats();
    heap.close();
    constexpr int kFields = sizeof(mwcas::MwStats) / sizeof(std::uint64_t);
    double in[kFields], sum[kFields];
    const std::uint64_t* f = &local.ops;
    for (int i = 0; i < kFields; ++i) in[i] = static_cast<double>(f[i]);
    env.allreduce(in, sum, kFields, mpi::Dt::Double, mpi::AccOp::Sum, w);
    if (me == 0) {
      std::uint64_t* g = &out.stats.ops;
      for (int i = 0; i < kFields; ++i) {
        g[i] = static_cast<std::uint64_t>(sum[i]);
      }
      out.fingerprint = heap.fingerprint();
    }
  };
  mpi::Runtime rt(rc, body, mpi::LayerFactory{});
  rt.run();
  out.history_hash = checker.history_hash();
  out.violations = checker.check().size();
  return out;
}

TEST(MwcasDeterminism, WidthSweepUnder64PerturbedSchedules) {
  const HeapRunResult ref = run_width_workload(check::perturb_for(17, 0));
  ASSERT_EQ(ref.violations, 0u);
  ASSERT_GT(ref.stats.ops, 0u);
  for (int s = 1; s < 64; ++s) {
    const HeapRunResult out = run_width_workload(check::perturb_for(17, s));
    ASSERT_EQ(out.history_hash, ref.history_hash) << "schedule " << s;
    ASSERT_EQ(out.fingerprint, ref.fingerprint) << "schedule " << s;
    ASSERT_EQ(out.end_time, ref.end_time) << "schedule " << s;
    ASSERT_TRUE(out.stats == ref.stats) << "schedule " << s;
    ASSERT_EQ(out.violations, 0u) << "schedule " << s;
  }
}

// --- determinism: shard counts x progress modes ----------------------------
//
// Sharding the event engine must be invisible: for EVERY progress mode, the
// sharded runs reproduce the unsharded perturb-0 reference exactly (the
// sharded engine uses the same deterministic tie-break as perturb 0).

TEST(MwcasDeterminism, ShardCountsMatchAcrossAllProgressModes) {
  const struct {
    check::Mode mode;
    int ghosts;
  } modes[] = {{check::Mode::Original, 1},
               {check::Mode::Thread, 1},
               {check::Mode::Casper, 1},
               {check::Mode::Casper, 2}};
  for (const auto& m : modes) {
    const check::MwCase fc = fixed_case(m.mode, m.ghosts, core::Binding::Rank,
                                        core::DynamicLb::None);
    const check::MwOutcome ref = check::run_mw_case(fc, /*perturb=*/0);
    ASSERT_EQ(ref.violations, 0u)
        << check::to_string(m.mode)
        << (ref.diags.empty() ? "" : ": " + ref.diags[0]);
    ASSERT_EQ(ref.race_conflicts, 0u) << check::to_string(m.mode);
    ASSERT_EQ(ref.divergences, 0u) << check::to_string(m.mode);
    ASSERT_EQ(ref.atomicity_violations, 0u) << check::to_string(m.mode);
    ASSERT_GT(ref.checker_ops, 0u);
    for (int shards : {2, 4, 8}) {
      const check::MwOutcome out = check::run_mw_case(fc, 0, shards);
      ASSERT_EQ(out.history_hash, ref.history_hash)
          << check::to_string(m.mode) << " g" << m.ghosts << " x" << shards;
      ASSERT_EQ(out.semantic_hash, ref.semantic_hash)
          << check::to_string(m.mode) << " x" << shards;
      ASSERT_EQ(out.fingerprint, ref.fingerprint)
          << check::to_string(m.mode) << " x" << shards;
      ASSERT_EQ(out.end_time, ref.end_time)
          << check::to_string(m.mode) << " x" << shards;
      ASSERT_TRUE(out.stats == ref.stats)
          << check::to_string(m.mode) << " x" << shards;
      ASSERT_EQ(out.violations, 0u)
          << check::to_string(m.mode) << " x" << shards;
    }
  }
}

// Single ghost: ONE serialization point, so static Casper is fully
// event-driven and all schedules must match bit-for-bit. (With two ghosts
// the independent service loops can retire AMs at the same virtual instant
// — a legal tie that can flip contended races; mw_outcomes_differ exempts
// that config, and ShardCountsMatchAcrossAllProgressModes still pins its
// perturb-0 behaviour exactly.)
TEST(MwcasDeterminism, CasperSchedulesMatchReferenceExactly) {
  const check::MwCase fc = fixed_case(check::Mode::Casper, 1,
                                      core::Binding::Segment,
                                      core::DynamicLb::None);
  const check::MwOutcome ref = check::run_mw_case(fc, /*perturb=*/0);
  ASSERT_EQ(ref.violations, 0u) << (ref.diags.empty() ? "" : ref.diags[0]);
  for (int s = 1; s <= 8; ++s) {
    const check::MwOutcome out =
        check::run_mw_case(fc, check::perturb_for(fc.seed, s));
    EXPECT_EQ(out.violations, 0u) << "schedule " << s;
    EXPECT_FALSE(check::mw_outcomes_differ(fc, ref, out)) << "schedule " << s;
    EXPECT_EQ(out.history_hash, ref.history_hash) << "schedule " << s;
    EXPECT_EQ(out.end_time, ref.end_time) << "schedule " << s;
  }
}

// --- chaos: lossy network and ghost kill mid-descriptor --------------------

TEST(MwcasChaos, LossyNetworkKeepsHistoryLinearizable) {
  check::MwCase fc = fixed_case(check::Mode::Casper, 2,
                                core::Binding::Segment,
                                core::DynamicLb::None);
  check::add_lossy_net(fc.fault_plan, fc.seed, check::MwWorkload::kLossyNet);
  ASSERT_TRUE(fc.fault_plan.active());
  const check::MwOutcome out = check::run_mw_case(fc, /*perturb=*/0);
  EXPECT_EQ(out.violations, 0u) << (out.diags.empty() ? "" : out.diags[0]);
  EXPECT_EQ(out.divergences, 0u);
  EXPECT_EQ(out.atomicity_violations, 0u);
  EXPECT_EQ(out.race_conflicts, 0u);
  // This seed's network duplicates AMs; the copies must be suppressed.
  EXPECT_GT(out.counters.get("fault.dedup_hits"), 0u);
}

TEST(MwcasChaos, GhostKillMidDescriptorLosesNoUpdates) {
  check::MwCase fc = fixed_case(check::Mode::Casper, 2,
                                core::Binding::Segment,
                                core::DynamicLb::None);
  const std::vector<int> ghosts = fc.ghost_ranks();
  ASSERT_GE(ghosts.size(), 2u);
  fault::GhostKill kill;
  kill.world_rank = ghosts[0];
  kill.at = sim::us(20);  // mid-workload: descriptors are in flight
  fc.fault_plan.kills.push_back(kill);
  fc.fault_plan.heartbeat_period = sim::us(2);
  const check::MwOutcome out = check::run_mw_case(fc, /*perturb=*/0);
  // Linearizable history == zero lost, duplicated, or torn updates: every
  // successful mwcas is visible exactly once, every failed one not at all.
  EXPECT_EQ(out.violations, 0u) << (out.diags.empty() ? "" : out.diags[0]);
  EXPECT_EQ(out.divergences, 0u);
  EXPECT_EQ(out.atomicity_violations, 0u);
  EXPECT_GT(out.counters.get("recovery.ghost_dead"), 0u);
}

TEST(MwcasChaos, GhostKillPlusLossyNetworkStaysClean) {
  check::MwCase fc = fixed_case(check::Mode::Casper, 2,
                                core::Binding::Segment,
                                core::DynamicLb::None);
  check::add_lossy_net(fc.fault_plan, fc.seed, check::MwWorkload::kLossyNet);
  const std::vector<int> ghosts = fc.ghost_ranks();
  ASSERT_GE(ghosts.size(), 2u);
  fault::GhostKill kill;
  kill.world_rank = ghosts[1];
  kill.at = sim::us(30);
  fc.fault_plan.kills.push_back(kill);
  fc.fault_plan.heartbeat_period = sim::us(2);
  const check::MwOutcome out = check::run_mw_case(fc, /*perturb=*/0);
  EXPECT_EQ(out.violations, 0u) << (out.diags.empty() ? "" : out.diags[0]);
  EXPECT_EQ(out.divergences, 0u);
  EXPECT_EQ(out.atomicity_violations, 0u);
}

// --- planted bugs are caught by the adapter (single-case spot checks) ------

TEST(MwcasBugs, EachPlantedBugProducesViolations) {
  for (const check::MwBug bug :
       {check::MwBug::SkipHelp, check::MwBug::TornInstall,
        check::MwBug::StaleStatus}) {
    bool caught = false;
    for (std::uint64_t seed = 1; seed <= 40 && !caught; ++seed) {
      check::MwCase fc = check::make_mw_case(seed, /*reduced=*/true);
      if (fc.nusers() < 2 || fc.total_words() > 6) continue;
      fc.bug = bug;
      for (int s = 0; s < 2 && !caught; ++s) {
        caught = check::run_mw_case(fc, check::perturb_for(seed, s))
                     .violations > 0;
      }
    }
    EXPECT_TRUE(caught) << "bug " << check::to_string(bug)
                        << " was never detected";
  }
}

// --- multi-observer fan-out: nothing drops when everything rides -----------
//
// Regression for the single-slot RmaObserver assumption: the shadow oracle,
// the race analyzer, and TWO MWCAS checkers attach to one run. Every
// observer must see every commit (equal counts, nonzero), the analyzer must
// stay conflict-free, and the oracle must not diverge.

TEST(MwcasObservers, SimultaneousObserversSeeEveryCallback) {
  mpi::RunConfig rc = base_config(1, 3, 18);
  check::MwChecker c1, c2;
  check::ShadowOracle oracle;
  check::RaceAnalyzer race;
  auto body = [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    mwcas::MwHeap heap(env, w, 2, mwcas::MwConfig{});
    heap.open();
    mwcas::Mwcas& mw = heap.mw();
    env.barrier(w);
    env.compute(sim::ns(149) * static_cast<sim::Time>(me + 1));
    for (int i = 0; i < 6; ++i) {
      const int peer = (me + 1) % 3;
      const std::int64_t cur = mw.read(peer, 0);
      mw.mwcas(std::vector<mwcas::MwTarget>{
          {peer, 0, cur, cur + 1}, {me, 8, mw.read(me, 8), me * 100 + i}});
      env.compute(sim::us(1) + sim::ns(37) * static_cast<sim::Time>(me + 1));
    }
    env.barrier(w);
    heap.close();
  };
  mpi::Runtime rt(rc, body, mpi::LayerFactory{});
  rt.add_observer(&oracle);
  rt.add_observer(&race);
  rt.add_observer(&c1);
  rt.add_observer(&c2);
  rt.run();
  EXPECT_GT(c1.commits(), 0u);
  EXPECT_EQ(c1.commits(), c2.commits());
  EXPECT_EQ(c1.syncs(), c2.syncs());
  EXPECT_TRUE(oracle.divergences().empty());
  EXPECT_TRUE(race.clean());
  EXPECT_GT(race.accesses_recorded(), 0u);
  EXPECT_GT(race.epochs_opened(), 0u);
}

}  // namespace
