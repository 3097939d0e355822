// Adaptive progress control (DESIGN.md §15).
//
// The controller's contract, enforced here:
//   * decisions are pure functions of sealed virtual-time counter boards, so
//     the decision digest, item→slot map, effective policy, and every
//     adapt.* counter are EXACTLY identical across perturbed fiber schedules
//     and across engine shard counts;
//   * a hot-chunk skew makes the controller change the item→slot map;
//   * adaptive runs stay shadow-oracle / race-analyzer clean, and produce
//     byte-identical window contents to the same program with the
//     controller off (routing must never change results);
//   * the KV store linearizes under adaptive control with the same final
//     table fingerprint as the static run;
//   * a ghost kill composes: replicated decision state never reads death
//     state (slot→ghost falls back at issue time), so a kill mid-rebind
//     leaves one agreed map and an oracle-clean history.
//
// Under ASan (scripts/check.sh): the seal/decide/remap path (double-buffered
// boards, plan regeneration). Under TSan: the per-window segment table is
// filled once at registration and then read by origins on every shard.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/linear.hpp"
#include "core/casper.hpp"
#include "core/layer_impl.hpp"
#include "kv/kv.hpp"
#include "kv/traffic.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "obs/record.hpp"

using namespace casper;

namespace {

core::CasperLayer& layer_of(mpi::Env& env) {
  return dynamic_cast<core::CasperLayer&>(env.runtime().layer());
}

/// Everything a decision-invariance run exposes: the replicated controller
/// state of origin 0 plus the adapt.* counter totals.
struct Observed {
  std::uint64_t digest = 0;
  std::vector<int> map;
  int policy = -1;
  std::map<std::string, std::uint64_t> counters;  ///< adapt.* only
};

mpi::RunConfig base_rc(int nodes, int cpn, std::uint64_t perturb, int shards,
                       obs::Recorder* rec) {
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = nodes;
  rc.machine.topo.cores_per_node = cpn;
  rc.seed = 12345;
  rc.perturb_seed = perturb;
  rc.shards = shards;
  rc.recorder = rec;
  return rc;
}

void harvest(obs::Recorder& rec, Observed& out) {
  rec.merge_shards();
  for (const auto& [name, v] : rec.metrics().counters()) {
    if (name.rfind("adapt.", 0) == 0) out.counters[name] = v;
  }
}

/// Segment-rebind workload: 8 nodes x (2 users + 2 ghosts), every origin
/// hammers user 0 of the next node — that rank's segment is exactly one node
/// chunk, so the skew forces a remap of its subchunks across both ghosts.
Observed run_seg(std::uint64_t perturb, int shards) {
  obs::Recorder rec;
  rec.set_shards(shards);
  core::Config cc;
  cc.ghosts_per_node = 2;
  cc.binding = core::Binding::Segment;
  cc.adaptive.enabled = true;
  Observed out;
  mpi::exec(
      base_rc(8, 4, perturb, shards, &rec),
      [&out](mpi::Env& env) {
        mpi::Comm w = env.world();
        const int me = env.rank(w);
        const int p = env.size(w);
        const int hot = 2 * ((me / 2 + 1) % (p / 2));  // next node's user 0
        void* base = nullptr;
        mpi::Win win = env.win_allocate(128 * sizeof(double), sizeof(double),
                                        mpi::Info{}, w, &base);
        env.win_lock_all(0, win);
        env.barrier(w);
        // 16 PUTs/origin/round: with 2 origins aiming at each hot node the
        // per-node sample clears the controller's cold gate every round.
        std::vector<double> v(8, 1.0);
        for (int r = 0; r < 5; ++r) {
          for (int i = 0; i < 16; ++i) {
            env.put(v.data(), 8, hot, static_cast<std::size_t>(i) * 8, win);
          }
          env.win_flush_all(win);
          env.barrier(w);  // epoch boundary: seal + replicated decide
        }
        if (me == 0) {
          auto& L = layer_of(env);
          out.digest = L.adapt_digest(win);
          out.map = L.adapt_map(win);
          out.policy = L.adapt_policy(win);
        }
        env.win_unlock_all(win);
        env.win_free(win);
      },
      core::layer(cc));
  harvest(rec, out);
  return out;
}

/// Policy-switch workload: Rank binding + dynamic Random, one 2 KiB PUT per
/// round against a spray of single-double PUTs — the byte mix the controller
/// must answer with a switch to byte-counting.
Observed run_dyn(std::uint64_t perturb, int shards) {
  obs::Recorder rec;
  rec.set_shards(shards);
  core::Config cc;
  cc.ghosts_per_node = 2;
  cc.binding = core::Binding::Rank;
  cc.dynamic = core::DynamicLb::Random;
  cc.adaptive.enabled = true;
  Observed out;
  mpi::exec(
      base_rc(2, 4, perturb, shards, &rec),
      [&out](mpi::Env& env) {
        mpi::Comm w = env.world();
        const int me = env.rank(w);
        const int other = me < 2 ? 2 : 0;  // other node's first user
        void* base = nullptr;
        mpi::Win win = env.win_allocate(256 * sizeof(double), sizeof(double),
                                        mpi::Info{}, w, &base);
        env.win_lock_all(0, win);
        env.barrier(w);
        std::vector<double> big(256, 1.0);
        double one = 1.0;
        for (int r = 0; r < 6; ++r) {
          env.put(big.data(), 256, other, 0, win);
          for (int i = 0; i < 8; ++i) {
            env.put(&one, 1, other + 1, static_cast<std::size_t>(i), win);
          }
          env.accumulate(&one, 1, other, 255, mpi::AccOp::Sum, win);
          env.win_flush_all(win);
          env.barrier(w);
        }
        if (me == 0) {
          auto& L = layer_of(env);
          out.digest = L.adapt_digest(win);
          out.map = L.adapt_map(win);
          out.policy = L.adapt_policy(win);
        }
        env.win_unlock_all(win);
        env.win_free(win);
      },
      core::layer(cc));
  harvest(rec, out);
  return out;
}

void expect_same(const Observed& ref, const Observed& got,
                 const std::string& what) {
  EXPECT_EQ(ref.digest, got.digest) << what;
  EXPECT_EQ(ref.map, got.map) << what;
  EXPECT_EQ(ref.policy, got.policy) << what;
  EXPECT_EQ(ref.counters, got.counters) << what;
}

}  // namespace

TEST(AdaptiveDecisions, SegmentRebindInvariantAcrossSchedulesAndShards) {
  const Observed ref = run_seg(0, 1);
  ASSERT_FALSE(ref.map.empty());
  EXPECT_GE(ref.counters.at("adapt.rounds"), 5u);
  EXPECT_GE(ref.counters.at("adapt.rebinds"), 1u)
      << "the hot-chunk skew never triggered a remap";
  for (std::uint64_t s = 1; s < 8; ++s) {
    expect_same(ref, run_seg(s, 1), "schedule " + std::to_string(s));
  }
  for (int sh : {2, 4, 8}) {
    // Sharded engines reject perturb_seed; schedule freedom there comes from
    // the worker-thread interleaving itself.
    expect_same(ref, run_seg(0, sh), "shards " + std::to_string(sh));
  }
}

TEST(AdaptiveDecisions, PolicySwitchInvariantAcrossSchedulesAndShards) {
  const Observed ref = run_dyn(0, 1);
  EXPECT_EQ(ref.policy, static_cast<int>(core::DynamicLb::ByteCounting))
      << "2 KiB hot PUTs against single-double spray must switch the "
         "policy to byte-counting";
  EXPECT_GE(ref.counters.at("adapt.policy_switches"), 1u);
  for (std::uint64_t s = 1; s < 8; ++s) {
    expect_same(ref, run_dyn(s, 1), "schedule " + std::to_string(s));
  }
  expect_same(ref, run_dyn(0, 2), "shards 2");
}

TEST(AdaptiveRebind, HotChunkSkewChangesMap) {
  core::Config cc;
  cc.ghosts_per_node = 2;
  cc.binding = core::Binding::Segment;
  cc.adaptive.enabled = true;
  std::vector<int> map_before, map_after;
  mpi::exec(
      base_rc(2, 4, 0, 1, nullptr),
      [&](mpi::Env& env) {
        mpi::Comm w = env.world();
        const int me = env.rank(w);
        const int hot = me < 2 ? 2 : 0;
        void* base = nullptr;
        mpi::Win win = env.win_allocate(128 * sizeof(double), sizeof(double),
                                        mpi::Info{}, w, &base);
        env.win_lock_all(0, win);
        env.barrier(w);  // round with an all-cold board: no remap yet
        if (me == 0) {
          auto& L = layer_of(env);
          map_before = L.adapt_map(win);
        }
        std::vector<double> v(8, 1.0);
        for (int r = 0; r < 3; ++r) {
          for (int i = 0; i < 16; ++i) {
            env.put(v.data(), 8, hot, static_cast<std::size_t>(i) * 8, win);
          }
          env.win_flush_all(win);
          env.barrier(w);
        }
        if (me == 0) {
          auto& L = layer_of(env);
          map_after = L.adapt_map(win);
        }
        env.win_unlock_all(win);
        env.win_free(win);
      },
      core::layer(cc));
  EXPECT_NE(map_before, map_after);
}

TEST(AdaptiveConformance, OracleRaceCleanAndContentsMatchStatic) {
  int content_compared = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    check::FuzzCase on = check::make_case(seed, /*reduced=*/true);
    on.adaptive = true;
    check::FuzzCase off = on;
    off.adaptive = false;
    for (int s = 0; s < 3; ++s) {
      const std::uint64_t p = check::perturb_for(seed, s);
      const check::RunOutcome got = check::run_case(on, p);
      EXPECT_TRUE(got.oracle_clean())
          << "seed " << seed << " schedule " << s << ": "
          << got.divergences.size() << " divergence(s), "
          << got.atomicity_violations << " atomicity violation(s)";
      EXPECT_TRUE(got.races_clean()) << "seed " << seed << " schedule " << s;
      if (!on.order_sensitive) {
        // Adaptive routing must never change what the program computes.
        const check::RunOutcome ref = check::run_case(off, p);
        EXPECT_EQ(got.content_hash, ref.content_hash)
            << "seed " << seed << " schedule " << s;
        ++content_compared;
      }
    }
  }
  EXPECT_GT(content_compared, 0);
}

namespace {

/// One adaptive-vs-static comparable KV run: Zipfian s=0.99 traffic steered
/// onto server 0 (the bench's adversarial placement, miniaturized) with
/// batched barriers so the controller gets epoch boundaries to decide at.
struct KvOut {
  std::uint64_t fingerprint = 0;
  std::uint64_t ops = 0;
  std::uint64_t recorded = 0;
  bool clean = false;
};

KvOut run_kv(bool adaptive) {
  kv::TrafficConfig tc;
  tc.nkeys = 24;
  tc.zipf_s = 0.99;
  tc.read_pct = 50;
  tc.ops_per_client = 40;
  tc.think_mean = 0;
  tc.seed = 909;
  kv::KvConfig kc;
  kc.nbuckets = 8;
  kc.assoc = 4;
  core::Config cc;
  cc.ghosts_per_node = 2;
  cc.binding = core::Binding::Segment;
  cc.adaptive.enabled = adaptive;
  mpi::RunConfig rc = base_rc(2, 4, 0, 1, nullptr);
  check::LinearChecker checker;
  KvOut out;
  mpi::Runtime rt(
      rc,
      [&](mpi::Env& env) {
        mpi::Comm w = env.world();
        const int me = env.rank(w);
        const int nclients = env.size(w);
        std::vector<kv::KvOp> ops = kv::make_ops(tc, nclients);
        kv::KvStore store(env, kc, w);
        store.set_sink(&checker);
        for (kv::KvOp& op : ops) {
          const std::uint64_t z = op.key - 1;
          op.key = store.key_for(0, static_cast<int>(z % 8),
                                 static_cast<int>(z / 8));
        }
        store.open();
        env.barrier(w);
        env.compute(sim::ns(1637) * static_cast<sim::Time>(me + 1));
        const std::size_t batch = static_cast<std::size_t>(nclients) * 10;
        std::size_t done = 0;
        for (const kv::KvOp& op : ops) {
          if (op.client == me) {
            if (op.kind == 1) {
              store.put(op.key, op.val);
            } else {
              store.get(op.key);
            }
          }
          ++done;
          if (done % batch == 0 && done != ops.size()) env.barrier(w);
        }
        store.close();
        if (me == 0) {
          out.fingerprint = store.fingerprint();
          out.ops = store.global_stats().ops();
        }
      },
      core::layer(cc));
  rt.add_observer(&checker);
  rt.run();
  out.clean = checker.clean();
  out.recorded = checker.ops_recorded();
  return out;
}

}  // namespace

TEST(AdaptiveKv, ZipfTrafficLinearizesAndReplaysDeterministically) {
  const KvOut st = run_kv(false);
  const KvOut ad = run_kv(true);
  EXPECT_TRUE(st.clean);
  EXPECT_TRUE(ad.clean) << "adaptive run must stay linearizable";
  EXPECT_GT(ad.recorded, 0u);
  // Op counts are workload-determined, so routing must not change them.
  EXPECT_EQ(ad.ops, st.ops);
  // Same seed + same config replays bit-identically, controller included.
  // (Adaptive vs. static fingerprints may legitimately differ: concurrent
  // PUTs to one key commit in timing-dependent order.)
  const KvOut again = run_kv(true);
  EXPECT_EQ(again.fingerprint, ad.fingerprint);
  EXPECT_EQ(again.recorded, ad.recorded);
  EXPECT_EQ(again.ops, ad.ops);
}

namespace {

/// Chaos case: fence epochs (a replicated decide inside every fence), every
/// origin PUTs into its own exclusive slot on hot target 0 (rebind
/// pressure on node 0's chunk) plus commutative accumulates — then a ghost
/// on the hot node dies mid-run.
check::FuzzCase chaos_case(std::uint64_t seed) {
  check::FuzzCase fc;
  fc.seed = seed;
  fc.nodes = 2;
  fc.users_per_node = 2;
  fc.ghosts = 2;
  fc.binding = core::Binding::Segment;
  fc.epoch = check::EpochStyle::Fence;
  fc.rounds = 3;
  fc.hint_exact = true;
  fc.adaptive = true;
  fc.acc_dt = mpi::Dt::Double;
  fc.acc_op = mpi::AccOp::Sum;
  fc.slot_bytes = 64;
  const int nu = fc.nusers();
  const std::size_t acc_base =
      static_cast<std::size_t>(nu) * fc.slot_bytes;
  for (int r = 0; r < fc.rounds; ++r) {
    for (int o = 0; o < nu; ++o) {
      for (int i = 0; i < 6; ++i) {
        check::OpRec op;
        op.kind = mpi::OpKind::Put;
        op.origin = o;
        op.target = 0;
        op.round = r;
        op.disp = static_cast<std::size_t>(o) * fc.slot_bytes +
                  static_cast<std::size_t>(i) * 8;
        op.count = 1;
        op.tdt = mpi::contig(mpi::Dt::Double);
        op.val = 100 * (r + 1) + 10 * o + i;
        fc.ops.push_back(op);
      }
      check::OpRec acc;
      acc.kind = mpi::OpKind::Acc;
      acc.aop = mpi::AccOp::Sum;
      acc.origin = o;
      acc.target = (o + r) % nu;
      acc.round = r;
      acc.disp = acc_base + static_cast<std::size_t>(o) * 8;
      acc.count = 1;
      acc.tdt = mpi::contig(mpi::Dt::Double);
      acc.val = 1 + o;
      fc.ops.push_back(acc);
    }
  }
  return fc;
}

}  // namespace

TEST(AdaptiveChaos, GhostKillDuringRebindsStaysClean) {
  // World ranks of node 0's ghosts for the 2x(2+2) shape: the first two of
  // the four (block placement).
  std::vector<int> ghosts = chaos_case(1).ghost_ranks();
  ASSERT_EQ(ghosts.size(), 4u);
  ghosts.resize(2);

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    check::FuzzCase fc = chaos_case(seed);
    const int victim = ghosts[seed % 2];
    const sim::Time at = sim::us(15 + 10 * (seed % 4));
    fc.fault_plan.kills.push_back({victim, at});
    const check::RunOutcome out =
        check::run_case(fc, check::perturb_for(seed, static_cast<int>(seed) % 3));
    EXPECT_TRUE(out.oracle_clean())
        << "seed " << seed << ": " << out.divergences.size()
        << " divergence(s) after killing ghost " << victim;
    EXPECT_TRUE(out.races_clean()) << "seed " << seed;
    EXPECT_EQ(out.counters.get("fault.kills"), 1u) << "seed " << seed;
    EXPECT_EQ(out.counters.get("recovery.ghost_dead"), 1u) << "seed " << seed;
    EXPECT_EQ(out.counters.get("recovery.degraded"), 0u)
        << "a surviving ghost must keep the node redirected (seed " << seed
        << ")";
  }
}
