// RMA-backed KV store (src/kv/): lock protocol correctness under contention,
// collision-chain behavior, mode x ghost round-trips, schedule / shard
// determinism, and chaos (lossy network + ghost kill) coverage. Every run
// carries the linearizability checker as the store's history sink.
//
// Under ASan (scripts/check.sh): the lock/probe scratch buffers must outlive
// each in-flight op (see the KvStore member-buffer comment).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/kvfuzz.hpp"
#include "check/linear.hpp"
#include "core/casper.hpp"
#include "kv/kv.hpp"
#include "kv/traffic.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"

namespace {

using namespace casper;

/// Everything rank 0 harvests from one direct-store run.
struct DirectResult {
  kv::KvStats stats;
  std::uint64_t fingerprint = 0;
  std::uint64_t acc[8] = {};
  std::int64_t probe_value = 0;
};

mpi::RunConfig base_config(int nodes, int cores_per_node,
                           std::uint64_t seed) {
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = nodes;
  rc.machine.topo.cores_per_node = cores_per_node;
  rc.seed = seed;
  return rc;
}

// --- lock contention: concurrent CAS-increment of one hot key --------------
//
// Every rank spins get + cas_update(+1) until it lands `kIncrPerRank`
// successful increments on the same key (one bucket, one lock word). The
// final value must equal the seed PUT plus every success, the client books
// must balance, and the server-side ACC counters must agree with them.

constexpr int kIncrPerRank = 10;

void contention_body(mpi::Env& env, const kv::KvConfig& cfg,
                     check::LinearChecker* sink, DirectResult* out) {
  mpi::Comm w = env.world();
  const int me = env.rank(w);
  kv::KvStore store(env, cfg, w);
  store.set_sink(sink);
  store.open();
  const std::uint64_t hot = store.key_for(0, 0, 0);
  if (me == 0) {
    const kv::KvResult r = store.put(hot, 1);
    EXPECT_TRUE(r.ok);
  }
  env.barrier(w);
  env.compute(sim::ns(173) * static_cast<sim::Time>(me + 1));
  int done = 0;
  while (done < kIncrPerRank) {
    const kv::KvResult cur = store.get(hot);
    EXPECT_TRUE(cur.ok);
    const kv::KvResult c = store.cas_update(hot, cur.value, cur.value + 1);
    if (c.ok) ++done;
    env.compute(sim::ns(61));
  }
  env.barrier(w);
  const kv::KvResult fin = store.get(hot);
  store.close();
  if (me == 0) {
    out->probe_value = fin.value;
    out->stats = store.global_stats();
    out->fingerprint = store.fingerprint();
    for (int i = 0; i < 8; ++i) out->acc[i] = store.acc_total(i);
  }
}

class KvLockKind
    : public ::testing::TestWithParam<kv::KvConfig::LockKind> {};

TEST_P(KvLockKind, HotKeyCasIncrementIsExact) {
  kv::KvConfig cfg;
  cfg.nbuckets = 4;
  cfg.assoc = 2;
  cfg.lock = GetParam();

  const int nodes = 1, users = 3, ghosts = 1;
  mpi::RunConfig rc = base_config(nodes, users + ghosts, /*seed=*/7);
  core::Config cc;
  cc.ghosts_per_node = ghosts;

  check::LinearChecker checker;
  DirectResult res;
  mpi::Runtime rt(
      rc,
      [&](mpi::Env& env) { contention_body(env, cfg, &checker, &res); },
      core::layer(cc));
  rt.add_observer(&checker);
  rt.run();

  const int nclients = nodes * users;
  EXPECT_EQ(res.probe_value, 1 + nclients * kIncrPerRank);
  EXPECT_EQ(res.stats.cas_ok,
            static_cast<std::uint64_t>(nclients * kIncrPerRank));
  EXPECT_EQ(res.stats.cas, res.stats.cas_ok + res.stats.cas_fail);
  EXPECT_EQ(res.stats.unlock_mismatch, 0u);
  if (GetParam() == kv::KvConfig::LockKind::LockFree) {
    // No bucket lock exists in this mode; the entries themselves are the
    // synchronization (MWCAS inserts, CAS-loop updates).
    EXPECT_EQ(res.stats.lock_acquires, 0u);
    EXPECT_EQ(res.stats.lock_retries, 0u);
  } else {
    EXPECT_GT(res.stats.lock_acquires, 0u);
  }
  // Server-side ACC books must match the client-side counters exactly.
  EXPECT_EQ(res.acc[0], res.stats.ops());
  EXPECT_EQ(res.acc[5], res.stats.cas_ok);
  EXPECT_EQ(res.acc[6], res.stats.cas_fail);
  // The checker rode the run and the contended history linearizes.
  EXPECT_EQ(checker.ops_recorded(), res.stats.ops());
  EXPECT_GT(checker.commits(), 0u);
  EXPECT_TRUE(checker.clean()) << checker.check().front().diag;
  EXPECT_EQ(rt.stats().get("atomicity_violations"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Locks, KvLockKind,
    ::testing::Values(kv::KvConfig::LockKind::CasSpin,
                      kv::KvConfig::LockKind::FaoTicket,
                      kv::KvConfig::LockKind::LockFree),
    [](const auto& info) {
      switch (info.param) {
        case kv::KvConfig::LockKind::CasSpin: return "CasSpin";
        case kv::KvConfig::LockKind::FaoTicket: return "FaoTicket";
        case kv::KvConfig::LockKind::LockFree: return "LockFree";
      }
      return "?";
    });

// --- lock-free vs spinlock parity on identical traffic ---------------------
//
// The same seeded fuzz case (same topology, same pre-materialized Zipfian
// program) run under the CasSpin store and the MWCAS lock-free store must
// produce the same VERDICT: both linearizable, both oracle/atomicity-clean,
// with identical client op counts (the op mix is traffic-determined) and
// balanced books. Hit/miss and CAS win/lose splits may legitimately differ
// — the interleavings are different — but the checker must accept both
// histories, and in lock-free mode the whole run must complete without ever
// touching a lock word.

TEST(KvLockFree, VerdictParityWithSpinlockOnIdenticalTraffic) {
  for (const std::uint64_t seed : {101ull, 102ull, 103ull}) {
    check::KvCase fc = check::make_kv_case(seed, /*reduced=*/true);
    fc.store.lock = kv::KvConfig::LockKind::CasSpin;
    const check::KvOutcome locked = check::run_kv_case(fc, /*perturb=*/0);
    fc.store.lock = kv::KvConfig::LockKind::LockFree;
    const check::KvOutcome lockfree = check::run_kv_case(fc, /*perturb=*/0);

    ASSERT_EQ(locked.violations, 0u)
        << "seed " << seed
        << (locked.diags.empty() ? "" : ": " + locked.diags[0]);
    ASSERT_EQ(lockfree.violations, 0u)
        << "seed " << seed
        << (lockfree.diags.empty() ? "" : ": " + lockfree.diags[0]);
    EXPECT_EQ(locked.divergences, 0u) << "seed " << seed;
    EXPECT_EQ(lockfree.divergences, 0u) << "seed " << seed;
    EXPECT_EQ(locked.atomicity_violations, 0u) << "seed " << seed;
    EXPECT_EQ(lockfree.atomicity_violations, 0u) << "seed " << seed;

    // The op mix is the case's program, not the lock protocol's.
    EXPECT_EQ(lockfree.stats.gets, locked.stats.gets) << "seed " << seed;
    EXPECT_EQ(lockfree.stats.puts, locked.stats.puts) << "seed " << seed;
    EXPECT_EQ(lockfree.stats.cas, locked.stats.cas) << "seed " << seed;
    EXPECT_EQ(lockfree.checker_ops, locked.checker_ops) << "seed " << seed;
    EXPECT_EQ(lockfree.acc_ops, lockfree.stats.ops()) << "seed " << seed;

    // Lock-free means lock-free: zero lock traffic, balanced books.
    EXPECT_EQ(lockfree.stats.lock_acquires, 0u) << "seed " << seed;
    EXPECT_EQ(lockfree.stats.lock_retries, 0u) << "seed " << seed;
    EXPECT_EQ(lockfree.stats.unlock_mismatch, 0u) << "seed " << seed;
    EXPECT_EQ(lockfree.stats.cas,
              lockfree.stats.cas_ok + lockfree.stats.cas_fail)
        << "seed " << seed;
    EXPECT_GT(locked.stats.lock_acquires, 0u) << "seed " << seed;
  }
}

// --- collision chains: assoc slots fill, then overflow --------------------

TEST(KvCollision, ChainFillsThenOverflows) {
  kv::KvConfig cfg;
  cfg.nbuckets = 2;
  cfg.assoc = 2;

  mpi::RunConfig rc = base_config(1, 2, /*seed=*/11);
  check::LinearChecker checker;
  bool body_ran = false;
  mpi::Runtime rt(rc, [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    kv::KvStore store(env, cfg, w);
    store.set_sink(&checker);
    store.open();
    if (env.rank(w) == 0) {
      const int srv = 1, bkt = 1;  // somebody else's segment: remote path
      const std::uint64_t k0 = store.key_for(srv, bkt, 0);
      const std::uint64_t k1 = store.key_for(srv, bkt, 1);
      const std::uint64_t k2 = store.key_for(srv, bkt, 2);
      ASSERT_NE(k0, k1);
      ASSERT_NE(k1, k2);
      EXPECT_EQ(store.server_of(k2), srv);
      EXPECT_EQ(store.bucket_of(k2), bkt);

      EXPECT_TRUE(store.put(k0, 100).ok);   // insert, slot 0
      EXPECT_TRUE(store.put(k1, 200).ok);   // insert, slot 1 (chain)
      EXPECT_FALSE(store.put(k2, 300).ok);  // bucket full: overflow

      EXPECT_EQ(store.get(k0).value, 100);
      EXPECT_EQ(store.get(k1).value, 200);
      const kv::KvResult miss = store.get(k2);
      EXPECT_FALSE(miss.ok);
      EXPECT_EQ(miss.value, 0);

      EXPECT_TRUE(store.put(k0, 101).ok);  // update in place, no new slot
      EXPECT_EQ(store.get(k0).value, 101);

      const kv::KvResult bad = store.cas_update(k1, 999, 201);
      EXPECT_FALSE(bad.ok);
      EXPECT_EQ(bad.value, 200);  // CAS reports the old value either way
      const kv::KvResult good = store.cas_update(k1, 200, 201);
      EXPECT_TRUE(good.ok);
      EXPECT_EQ(store.get(k1).value, 201);

      const kv::KvStats& s = store.local_stats();
      EXPECT_EQ(s.inserts, 2u);
      EXPECT_EQ(s.updates, 1u);  // put(k0,101); CAS counts under cas_ok
      EXPECT_EQ(s.overflows, 1u);
      EXPECT_EQ(s.cas_ok, 1u);
      EXPECT_EQ(s.cas_fail, 1u);
      body_ran = true;
    }
    store.close();
  });
  rt.add_observer(&checker);
  rt.run();
  EXPECT_TRUE(body_ran);
  EXPECT_TRUE(checker.clean()) << checker.check().front().diag;
}

// --- round-trip: every progress mode x ghost count runs the same workload --

check::KvCase fixed_case(check::Mode mode, int ghosts) {
  check::KvCase fc;
  fc.seed = 42;
  fc.mode = mode;
  fc.nodes = 2;
  fc.users_per_node = 2;
  fc.ghosts = ghosts;
  fc.store.nbuckets = 8;
  fc.store.assoc = 2;
  fc.traffic.nkeys = 8;
  fc.traffic.zipf_s = 0.99;
  fc.traffic.read_pct = 60;
  fc.traffic.rmw_pct = 20;
  fc.traffic.ops_per_client = 25;
  fc.traffic.think_mean = sim::us(2);
  fc.traffic.seed = fc.seed;
  fc.ops = kv::make_ops(fc.traffic, fc.nusers());
  return fc;
}

struct ModeGhost {
  check::Mode mode;
  int ghosts;
};

class KvRoundTrip : public ::testing::TestWithParam<ModeGhost> {};

TEST_P(KvRoundTrip, WorkloadIsCleanUnderEveryProgressModel) {
  const ModeGhost p = GetParam();
  const check::KvCase fc = fixed_case(p.mode, p.ghosts);
  const check::KvOutcome out = check::run_kv_case(fc, /*perturb=*/0);
  EXPECT_EQ(out.violations, 0u) << (out.diags.empty() ? "" : out.diags[0]);
  EXPECT_EQ(out.divergences, 0u);
  EXPECT_EQ(out.atomicity_violations, 0u);
  // Every materialized op completed and was recorded (RMW records two
  // events: the read and the CAS), and the server-side ACC books agree.
  EXPECT_EQ(out.checker_ops, out.stats.ops());
  EXPECT_EQ(out.acc_ops, out.stats.ops());
  EXPECT_GE(out.stats.ops(),
            static_cast<std::uint64_t>(fc.ops.size()));
  EXPECT_EQ(out.stats.unlock_mismatch, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndGhosts, KvRoundTrip,
    ::testing::Values(ModeGhost{check::Mode::Original, 1},
                      ModeGhost{check::Mode::Thread, 1},
                      ModeGhost{check::Mode::Casper, 1},
                      ModeGhost{check::Mode::Casper, 2},
                      ModeGhost{check::Mode::Casper, 4}),
    [](const auto& info) {
      std::string n = check::to_string(info.param.mode);
      n += "_g";
      n += std::to_string(info.param.ghosts);
      return n;
    });

// --- determinism: schedules and shard counts must not change anything -----
//
// The workload is tie-free by construction (staggered starts, per-client
// think-time streams), so perturbing the engine's tie-break order — or
// splitting the event engine across shards — must reproduce the reference
// run exactly: same end time, same final-table fingerprint, same client
// books, and the identical canonical KV history (hash over every recorded
// event including its virtual-time interval).

TEST(KvDeterminism, PerturbedSchedulesMatchReferenceExactly) {
  const check::KvCase fc = fixed_case(check::Mode::Casper, 2);
  const check::KvOutcome ref = check::run_kv_case(fc, /*perturb=*/0);
  ASSERT_EQ(ref.violations, 0u);
  ASSERT_GT(ref.checker_ops, 0u);
  for (int s = 1; s <= 8; ++s) {
    const std::uint64_t p = check::perturb_for(fc.seed, s);
    const check::KvOutcome out = check::run_kv_case(fc, p);
    EXPECT_EQ(out.violations, 0u) << "schedule " << s;
    EXPECT_EQ(out.end_time, ref.end_time) << "schedule " << s;
    EXPECT_EQ(out.fingerprint, ref.fingerprint) << "schedule " << s;
    EXPECT_EQ(out.history_hash, ref.history_hash) << "schedule " << s;
    EXPECT_TRUE(out.stats == ref.stats) << "schedule " << s;
    EXPECT_EQ(out.counters, ref.counters) << "schedule " << s;
  }
}

TEST(KvDeterminism, ShardCountsMatchReferenceExactly) {
  const check::KvCase fc = fixed_case(check::Mode::Casper, 2);
  const check::KvOutcome ref = check::run_kv_case(fc, /*perturb=*/0);
  ASSERT_EQ(ref.violations, 0u);
  for (int shards : {2, 4, 8}) {
    const check::KvOutcome out = check::run_kv_case(fc, 0, shards);
    EXPECT_EQ(out.violations, 0u) << shards << " shards";
    EXPECT_EQ(out.end_time, ref.end_time) << shards << " shards";
    EXPECT_EQ(out.fingerprint, ref.fingerprint) << shards << " shards";
    EXPECT_EQ(out.history_hash, ref.history_hash) << shards << " shards";
    EXPECT_TRUE(out.stats == ref.stats) << shards << " shards";
  }
}

// --- chaos: lossy network + ghost kill, checker stays clean ---------------

TEST(KvChaos, LossyNetworkKeepsHistoryLinearizable) {
  check::KvCase fc = fixed_case(check::Mode::Casper, 2);
  check::add_lossy_net(fc.fault_plan, fc.seed, check::KvWorkload::kLossyNet);
  ASSERT_TRUE(fc.fault_plan.active());
  const check::KvOutcome out = check::run_kv_case(fc, /*perturb=*/0);
  EXPECT_EQ(out.violations, 0u) << (out.diags.empty() ? "" : out.diags[0]);
  EXPECT_EQ(out.divergences, 0u);
  EXPECT_EQ(out.atomicity_violations, 0u);
  EXPECT_EQ(out.checker_ops, out.stats.ops());
  // This seed's network drops AMs; retransmission must recover them.
  EXPECT_GT(out.counters.get("fault.retries"), 0u);
}

TEST(KvChaos, GhostKillRecoveryKeepsHistoryLinearizable) {
  check::KvCase fc = fixed_case(check::Mode::Casper, 2);
  const std::vector<int> ghosts = fc.ghost_ranks();
  ASSERT_GE(ghosts.size(), 2u);
  fault::GhostKill kill;
  kill.world_rank = ghosts[0];
  kill.at = sim::us(20);
  fc.fault_plan.kills.push_back(kill);
  fc.fault_plan.heartbeat_period = sim::us(2);
  const check::KvOutcome out = check::run_kv_case(fc, /*perturb=*/0);
  EXPECT_EQ(out.violations, 0u) << (out.diags.empty() ? "" : out.diags[0]);
  EXPECT_EQ(out.divergences, 0u);
  EXPECT_EQ(out.atomicity_violations, 0u);
  // Every op still completed through the rebinding.
  EXPECT_EQ(out.checker_ops, out.stats.ops());
  EXPECT_GT(out.counters.get("recovery.ghost_dead"), 0u);
}

}  // namespace
