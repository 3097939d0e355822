// Property-style parameterized sweeps: data integrity of Casper's
// redirection must hold across every combination of binding policy, dynamic
// load-balancing policy, ghost count, epoch type, and operation mix — and
// the atomicity checker must stay silent throughout. SegmentRouting pins
// which ghost serves each op under static segment binding, per ghost and
// across epoch transitions, and under the adaptive controller's remaps and
// ghost kills. RouteCharacterization pins each of Casper's issue routes end
// to end: trace, counters, observer callbacks and data.
//
// Under ASan (scripts/check.sh): the segment split path iterates the
// origin's reused route vector across its p_rma and win_flush calls, so a
// reference into it that dangles is a use-after-free.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "check/fuzz.hpp"
#include "check/oracle.hpp"
#include "check/race.hpp"
#include "core/casper.hpp"
#include "core/layer_impl.hpp"
#include "fault/plan.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "obs/record.hpp"
#include "sim/hash.hpp"

namespace {

using namespace casper;
using mpi::AccOp;
using mpi::Comm;
using mpi::Dt;
using mpi::Info;
using mpi::LockType;
using mpi::RunConfig;
using mpi::Win;

enum class EpochStyle { Fence, Pscw, Lock, LockAll };

using Param = std::tuple<core::Binding, core::DynamicLb, int /*ghosts*/,
                         EpochStyle>;

class CasperIntegrity : public ::testing::TestWithParam<Param> {};

// Every rank accumulates a known pattern into every other rank and writes a
// put pattern to its own slot on every rank; verify the final array.
void integrity_body(mpi::Env& env, EpochStyle style) {
  Comm w = env.world();
  const int p = env.size(w);
  const int me = env.rank(w);
  const int elems = 8;
  // p slots for per-origin put signatures + one slot for accumulates
  // (disjoint, so put/acc never overlap — overlapping them in one epoch
  // would be an MPI usage error).
  void* base = nullptr;
  Win win = env.win_allocate(
      static_cast<std::size_t>((p + 1) * elems) * sizeof(double),
      sizeof(double), Info{}, w, &base);

  std::vector<double> acc_v(static_cast<std::size_t>(elems), 1.0);
  std::vector<double> put_v(static_cast<std::size_t>(elems), me + 100.0);

  auto issue_all = [&]() {
    for (int t = 0; t < p; ++t) {
      // everyone accumulates ones into the shared accumulate slot
      env.accumulate(acc_v.data(), elems, t,
                     static_cast<std::size_t>(p * elems), AccOp::Sum, win);
      // everyone puts its signature into its own slot on every rank
      env.put(put_v.data(), elems, t,
              static_cast<std::size_t>(me * elems), win);
    }
  };

  switch (style) {
    case EpochStyle::Fence:
      env.win_fence(mpi::kModeNoPrecede, win);
      issue_all();
      env.win_fence(mpi::kModeNoSucceed, win);
      break;
    case EpochStyle::Pscw: {
      std::vector<int> everyone;
      for (int t = 0; t < p; ++t) everyone.push_back(t);
      mpi::Group g(everyone);
      env.win_post(g, 0, win);
      env.win_start(g, 0, win);
      issue_all();
      env.win_complete(win);
      env.win_wait(win);
      break;
    }
    case EpochStyle::Lock:
      for (int t = 0; t < p; ++t) {
        env.win_lock(LockType::Shared, t, 0, win);
      }
      issue_all();
      for (int t = 0; t < p; ++t) {
        env.win_unlock(t, win);
      }
      break;
    case EpochStyle::LockAll:
      env.win_lock_all(0, win);
      issue_all();
      env.win_flush_all(win);
      env.win_unlock_all(win);
      break;
  }
  env.barrier(w);

  auto* d = static_cast<double*>(base);
  for (int s = 0; s < p; ++s) {
    for (int e = 0; e < elems; ++e) {
      EXPECT_EQ(d[s * elems + e], s + 100.0)
          << "slot " << s << " elem " << e;
    }
  }
  for (int e = 0; e < elems; ++e) {
    EXPECT_EQ(d[p * elems + e], static_cast<double>(p))
        << "acc elem " << e;
  }
  EXPECT_EQ(env.runtime().stats().get("atomicity_violations"), 0u);
  env.win_free(win);

  // Pure accumulate window for the exact-sum check.
  void* base2 = nullptr;
  Win win2 =
      env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base2);
  env.win_lock_all(0, win2);
  double one = 1.0;
  for (int t = 0; t < p; ++t) {
    env.accumulate(&one, 1, t, 0, AccOp::Sum, win2);
  }
  env.win_flush_all(win2);
  env.win_unlock_all(win2);
  env.barrier(w);
  EXPECT_EQ(*static_cast<double*>(base2), static_cast<double>(p));
  env.win_free(win2);
}

TEST_P(CasperIntegrity, AllBindingsAllEpochs) {
  auto [binding, dynamic, ghosts, style] = GetParam();
  RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = 2;
  rc.machine.topo.cores_per_node = 3 + ghosts;
  core::Config cc;
  cc.ghosts_per_node = ghosts;
  cc.binding = binding;
  cc.dynamic = dynamic;
  mpi::exec(rc, [style](mpi::Env& env) { integrity_body(env, style); },
            core::layer(cc));
}

std::string sweep_name(const ::testing::TestParamInfo<Param>& info) {
  const auto b = std::get<0>(info.param);
  const auto d = std::get<1>(info.param);
  const auto g = std::get<2>(info.param);
  const auto e = std::get<3>(info.param);
  std::string s;
  s += b == core::Binding::Rank ? "Rank" : "Segment";
  s += d == core::DynamicLb::None         ? "None"
       : d == core::DynamicLb::Random     ? "Random"
       : d == core::DynamicLb::OpCounting ? "OpCount"
                                          : "ByteCount";
  s += std::to_string(g) + "g";
  s += e == EpochStyle::Fence  ? "Fence"
       : e == EpochStyle::Pscw ? "Pscw"
       : e == EpochStyle::Lock ? "Lock"
                               : "LockAll";
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CasperIntegrity,
    ::testing::Combine(
        ::testing::Values(core::Binding::Rank, core::Binding::Segment),
        ::testing::Values(core::DynamicLb::None, core::DynamicLb::Random,
                          core::DynamicLb::OpCounting,
                          core::DynamicLb::ByteCounting),
        ::testing::Values(1, 2, 3),
        ::testing::Values(EpochStyle::Fence, EpochStyle::Pscw,
                          EpochStyle::Lock, EpochStyle::LockAll)),
    sweep_name);

// Strided (noncontiguous) accumulates through segment binding with several
// ghost counts: element-exact results, no torn elements.
class CasperStrided : public ::testing::TestWithParam<int> {};

TEST_P(CasperStrided, SegmentSplitKeepsElementsIntact) {
  const int ghosts = GetParam();
  RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = 1;
  rc.machine.topo.cores_per_node = 2 + ghosts;
  core::Config cc;
  cc.ghosts_per_node = ghosts;
  cc.binding = core::Binding::Segment;
  mpi::exec(rc, [](mpi::Env& env) {
    Comm w = env.world();
    const std::size_t n = 48;
    void* base = nullptr;
    Win win = env.win_allocate(2 * n * sizeof(double), sizeof(double),
                               Info{}, w, &base);
    env.barrier(w);
    env.win_lock_all(0, win);
    if (env.rank(w) == 1) {
      // accumulate into every other element of rank 0's window
      std::vector<double> v(n, 2.5);
      auto vec = mpi::vector_of(Dt::Double, 1, 2);
      for (int round = 0; round < 3; ++round) {
        env.accumulate(v.data(), static_cast<int>(n),
                       mpi::contig(Dt::Double), 0, 0, static_cast<int>(n),
                       vec, AccOp::Sum, win);
      }
    }
    env.win_unlock_all(win);
    env.barrier(w);
    if (env.rank(w) == 0) {
      auto* d = static_cast<double*>(base);
      for (std::size_t i = 0; i < 2 * n; ++i) {
        EXPECT_EQ(d[i], (i % 2 == 0) ? 7.5 : 0.0) << "elem " << i;
      }
    }
    EXPECT_EQ(env.runtime().stats().get("atomicity_violations"), 0u);
    env.win_free(win);
  }, core::layer(cc));
}

INSTANTIATE_TEST_SUITE_P(GhostCounts, CasperStrided,
                         ::testing::Values(1, 2, 4));

// Dynamic binding is a pure routing decision: whichever ghost executes an
// op, the bytes land in the same window locations. Running the SAME seeded
// op stream (the conformance fuzzer's generated programs) under every
// load-balancing policy must therefore produce bit-identical final window
// contents — and a clean shadow oracle under each.
TEST(CasperBindings, DynamicPoliciesProduceIdenticalContents) {
  const core::DynamicLb policies[] = {
      core::DynamicLb::None, core::DynamicLb::Random,
      core::DynamicLb::OpCounting, core::DynamicLb::ByteCounting};
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    check::FuzzCase fc = check::make_case(seed, true);
    if (fc.order_sensitive) continue;  // content is schedule/route-defined
    std::vector<std::uint64_t> baseline;
    for (core::DynamicLb lb : policies) {
      fc.dynamic = lb;
      const check::RunOutcome out = check::run_case(fc, 0);
      ASSERT_TRUE(out.oracle_clean())
          << "seed " << seed << " policy " << static_cast<int>(lb);
      if (baseline.empty()) {
        baseline = out.content_hash;
      } else {
        EXPECT_EQ(out.content_hash, baseline)
            << "seed " << seed << " policy " << static_cast<int>(lb);
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0);
}

// Routing characterization for static segment binding with 2 ghosts per
// node: the ghost that serves an op is a pure function of (target,
// displacement, layout), across flushes, lock transitions and windows.
// 2 nodes x (1 user + 2 ghosts); each user runs the same op stream against
// the user on the other node, so both origin parities route (the injected
// flip mirrors odd origins only). A 16-double window makes each node's
// memory two 64-byte segments: element 0 belongs to the node's first ghost
// (world 1 / 4), element 8 to its second (world 2 / 5).
using Load = std::map<std::string, std::uint64_t>;  // ghost.<g>.ops/bytes
using Stream = std::function<void(mpi::Env&, int peer, std::vector<Win>&)>;

/// Runs `stream` over `nwins` fresh windows, then checks the per-ghost load
/// and that element e of every window on both users holds elems[e] (else 0).
void expect_routing(int nwins, bool flip, const Stream& stream,
                    const Load& load,
                    const std::map<std::size_t, double>& elems) {
  constexpr std::size_t kElems = 16;
  RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = 2;
  rc.machine.topo.cores_per_node = 3;
  rc.seed = 12345;
  obs::Recorder rec;
  rc.recorder = &rec;
  core::Config cc;
  cc.ghosts_per_node = 2;
  cc.binding = core::Binding::Segment;
  cc.fault.flip_segment_binding = flip;
  mpi::exec(rc, [&](mpi::Env& env) {
    Comm w = env.world();
    std::vector<Win> wins(static_cast<std::size_t>(nwins));
    std::vector<void*> bases(wins.size(), nullptr);
    for (std::size_t i = 0; i < wins.size(); ++i) {
      wins[i] = env.win_allocate(kElems * sizeof(double), sizeof(double),
                                 Info{}, w, &bases[i]);
    }
    stream(env, 1 - env.rank(w), wins);
    env.barrier(w);
    for (void* b : bases) {
      for (std::size_t e = 0; e < kElems; ++e) {
        const auto it = elems.find(e);
        EXPECT_EQ(static_cast<const double*>(b)[e],
                  it == elems.end() ? 0.0 : it->second)
            << "user " << env.rank(w) << " elem " << e;
      }
    }
    for (std::size_t i = wins.size(); i-- > 0;) env.win_free(wins[i]);
  }, core::layer(cc));
  Load got;
  for (const auto& [key, v] : rec.metrics().counters()) {
    if (key.rfind("ghost.", 0) == 0 &&
        key.find(".service_") == std::string::npos) {
      got[key] = v;
    }
  }
  EXPECT_EQ(got, load);
}

TEST(SegmentRouting, LockallFlushAndRelock) {
  // Per origin: 11 puts + 1 accumulate on element 0, 4 accumulates on 8.
  expect_routing(
      1, false,
      [](mpi::Env& env, int peer, std::vector<Win>& wins) {
        Win& win = wins[0];
        double v = 1.0;
        env.win_lock_all(0, win);
        for (int i = 0; i < 8; ++i) env.put(&v, 1, peer, 0, win);
        env.accumulate(&v, 1, peer, 0, AccOp::Sum, win);
        for (int i = 0; i < 4; ++i) {
          env.accumulate(&v, 1, peer, 8, AccOp::Sum, win);
        }
        env.win_flush_all(win);
        env.put(&v, 1, peer, 0, win);
        env.win_unlock_all(win);
        env.win_lock_all(0, win);
        env.put(&v, 1, peer, 0, win);
        env.put(&v, 1, peer, 0, win);
        env.win_unlock_all(win);
      },
      {{"ghost.1.ops", 12}, {"ghost.1.bytes", 96},
       {"ghost.2.ops", 4}, {"ghost.2.bytes", 32},
       {"ghost.4.ops", 12}, {"ghost.4.bytes", 96},
       {"ghost.5.ops", 4}, {"ghost.5.bytes", 32}},
      {{0, 1.0}, {8, 4.0}});
}

TEST(SegmentRouting, PerTargetLockRebindingFlushAndRelock) {
  // Dynamic binding is off, so all 7 puts stay on element 0's owner.
  expect_routing(
      1, false,
      [](mpi::Env& env, int peer, std::vector<Win>& wins) {
        Win& win = wins[0];
        double v = 1.0;
        env.win_lock(LockType::Shared, peer, 0, win);
        for (int i = 0; i < 3; ++i) env.put(&v, 1, peer, 0, win);
        env.win_flush(peer, win);  // opens the static-binding-free interval
        for (int i = 0; i < 2; ++i) env.put(&v, 1, peer, 0, win);
        env.win_flush(peer, win);
        env.put(&v, 1, peer, 0, win);
        env.win_unlock(peer, win);
        env.win_lock(LockType::Shared, peer, 0, win);
        env.put(&v, 1, peer, 0, win);
        env.win_unlock(peer, win);
      },
      {{"ghost.1.ops", 7}, {"ghost.1.bytes", 56},
       {"ghost.4.ops", 7}, {"ghost.4.bytes", 56}},
      {{0, 1.0}});
}

TEST(SegmentRouting, FlipFaultOnTwoWindows) {
  // The flip applies to both windows: origin 0 routes element 0 of user 1
  // to its owner (world 4); odd origin 1 sees the mirrored map and sends
  // element 0 of user 0 to the second ghost (world 2), never to world 1.
  expect_routing(
      2, true,
      [](mpi::Env& env, int peer, std::vector<Win>& wins) {
        double v = 1.0;
        env.win_lock_all(0, wins[0]);
        env.win_lock_all(0, wins[1]);
        for (Win& win : wins) {
          for (int i = 0; i < 8; ++i) env.put(&v, 1, peer, 0, win);
        }
        env.win_unlock_all(wins[1]);
        env.win_unlock_all(wins[0]);
      },
      {{"ghost.2.ops", 16}, {"ghost.2.bytes", 128},
       {"ghost.4.ops", 16}, {"ghost.4.bytes", 128}},
      {{0, 1.0}});
}

// Routing characterization with the adaptive controller on: 2 nodes x
// (2 users + 2 ghosts). Each node's first user exposes 6 doubles and its
// second 14, so a node's 160-byte buffer makes two 80-byte chunks (the
// boundary is element 4 of the second user), each split into 32-byte
// subchunks. Subchunk 2 (node bytes 64..95) straddles the chunk boundary and
// starts on the first ghost; subchunk 3 (96..127) is the first on the
// second. Every origin runs the same stream against the two users of the
// other node: boundary-crossing and strided accumulates, then hot PUTs on
// the second user's upper half that force a remap, the accumulates again
// under the new map, a ghost kill on node 1 in a quiet gap, and the
// accumulates once more through the survivor.
struct AdaptRouting {
  Load load;
  std::vector<int> map;                    // origin 0's item -> slot map
  std::vector<std::vector<double>> elems;  // per user rank, whole window
  std::uint64_t ghosts_dead = 0;
};

AdaptRouting run_adaptive_routing(core::Binding binding) {
  RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = 2;
  rc.machine.topo.cores_per_node = 4;
  rc.seed = 12345;
  obs::Recorder rec;
  rc.recorder = &rec;
  core::Config cc;
  cc.ghosts_per_node = 2;
  cc.binding = binding;
  cc.adaptive.enabled = true;
  const std::vector<int> ghosts = core::ghost_ranks(rc.machine.topo, cc);
  fault::FaultPlan plan;
  plan.kills.push_back({ghosts[2], sim::us(260)});  // node 1, slot 0
  rc.fault = &plan;
  AdaptRouting out;
  out.elems.resize(4);
  mpi::exec(rc, [&](mpi::Env& env) {
    Comm w = env.world();
    const int me = env.rank(w);
    const std::size_t elems = me % 2 == 0 ? 6 : 14;
    const int peer0 = me < 2 ? 2 : 0;  // the other node's users
    const int peer1 = peer0 + 1;
    void* base = nullptr;
    Win win = env.win_allocate(elems * sizeof(double), sizeof(double),
                               Info{}, w, &base);
    std::vector<double> v(16, 1.0);
    env.win_lock_all(0, win);
    env.barrier(w);
    auto shaped = [&] {
      // Node bytes 16..47: subchunks 0 and 1, one ghost, one piece.
      env.accumulate(v.data(), 4, peer0, 2, AccOp::Sum, win);
      // Node bytes 64..111: across the chunk boundary (80) and subchunks
      // 2/3 (96).
      env.accumulate(v.data(), 6, peer1, 2, AccOp::Sum, win);
      // Pairs of doubles every third element of the second user: node
      // bytes 48..63, 72..87, 96..111 and 120..135 (subchunks 1 to 4).
      env.accumulate(v.data(), 8, mpi::contig(Dt::Double), peer1, 0, 4,
                     mpi::vector_of(Dt::Double, 2, 3), AccOp::Sum, win);
      env.win_flush_all(win);
      env.barrier(w);  // epoch boundary: seal + replicated decide
    };
    shaped();
    for (int r = 0; r < 3; ++r) {
      for (int i = 0; i < 16; ++i) {
        env.put(&v[0], 1, peer1, static_cast<std::size_t>(6 + i % 8), win);
      }
      env.win_flush_all(win);
      env.barrier(w);
    }
    shaped();
    env.compute(sim::us(200));  // the kill and its detection land here
    env.barrier(w);
    shaped();
    if (me == 0) {
      out.map = dynamic_cast<core::CasperLayer&>(env.runtime().layer())
                    .adapt_map(win);
      out.ghosts_dead = env.runtime().stats().get("recovery.ghost_dead");
    }
    env.win_unlock_all(win);
    env.barrier(w);
    const auto* d = static_cast<const double*>(base);
    out.elems[static_cast<std::size_t>(me)].assign(d, d + elems);
    env.win_free(win);
  }, core::layer(cc));
  for (const auto& [key, v] : rec.metrics().counters()) {
    if (key.rfind("ghost.", 0) == 0 &&
        key.find(".service_") == std::string::npos) {
      out.load[key] = v;
    }
  }
  return out;
}

/// Checks one adaptive run against its pinned per-ghost load and map; the
/// window contents are the same under every routing.
void expect_adaptive_routing(core::Binding binding, const Load& load,
                             const std::vector<int>& map) {
  const AdaptRouting got = run_adaptive_routing(binding);
  EXPECT_EQ(got.ghosts_dead, 1u);
  EXPECT_EQ(got.map, map);
  const std::vector<double> first_user = {0, 0, 6, 6, 6, 6};
  const std::vector<double> second_user = {6, 6, 6, 12, 12, 6, 9,
                                           9, 1, 5, 5,  1,  1, 1};
  for (std::size_t u = 0; u < got.elems.size(); ++u) {
    EXPECT_EQ(got.elems[u], u % 2 == 0 ? first_user : second_user)
        << "user " << u;
  }
  EXPECT_EQ(got.load, load);
}

TEST(SegmentRouting, AdaptiveRemapStridedAndGhostKill) {
  // Ghosts are world 1, 3 (node 0) and 5, 7 (node 1); the kill moves
  // world 5's remaining pieces to world 7.
  expect_adaptive_routing(
      core::Binding::Segment,
      {{"ghost.1.ops", 60}, {"ghost.1.bytes", 688},
       {"ghost.3.ops", 88}, {"ghost.3.bytes", 944},
       {"ghost.5.ops", 50}, {"ghost.5.bytes", 544},
       {"ghost.7.ops", 92}, {"ghost.7.bytes", 1088}},
      {1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1});
}

TEST(SegmentRouting, AdaptiveRankBindingGhostKill) {
  // The hot second user swaps slots with the first on both nodes.
  expect_adaptive_routing(
      core::Binding::Rank,
      {{"ghost.1.ops", 74}, {"ghost.1.bytes", 1024},
       {"ghost.3.ops", 40}, {"ghost.3.bytes", 608},
       {"ghost.5.ops", 70}, {"ghost.5.bytes", 800},
       {"ghost.7.ops", 44}, {"ghost.7.bytes", 832}},
      {1, 0, 1, 0});
}

// Route characterization: each of Casper's issue routes (dynamic binding
// under lock_all and in a binding-free interval, the static rank binding,
// a segment split, the self shortcut, degraded direct issue) pinned end to
// end on 2 nodes x (1 user + 2 ghosts), world ranks 0 and 3 the users. Per
// route: the ordered redirect/lb/split trace records, the whole trace
// (count and hash), Casper's recorder counters and stats, every observer
// callback the shadow oracle and race analyzer see (count and hash), their
// verdicts, every window byte and every fetched value.
class CallbackLog final : public mpi::RmaObserver {
 public:
  std::uint64_t calls = 0;
  std::uint64_t hash = sim::kFnvBasis;

  void on_win_register(mpi::WinImpl& win) override { add({0, win.id()}); }
  void on_win_free(mpi::WinImpl& win) override { add({1, win.id()}); }
  void on_op_commit(const mpi::AmOp& op, sim::Time t, int entity) override {
    add_op(2, op, t);
    add({entity, static_cast<long long>(op.payload.size())});
    hash = sim::fnv1a(op.payload.data(), op.payload.size(), hash);
  }
  void on_sync(mpi::WinImpl& win, int world_rank, mpi::SyncKind kind,
               int target, sim::Time t) override {
    add({3, win.id(), world_rank, static_cast<long long>(kind), target,
         static_cast<long long>(t)});
  }
  void on_op_issue(const mpi::AmOp& op, sim::Time t) override {
    add_op(4, op, t);
  }
  void on_epoch_begin(mpi::WinImpl& win, int world_rank, mpi::EpochEv kind,
                      int target, sim::Time t) override {
    add({5, win.id(), world_rank, static_cast<long long>(kind), target,
         static_cast<long long>(t)});
  }
  void on_local_access(mpi::WinImpl& win, int comm_rank, std::size_t offset,
                       std::size_t len, bool is_store, sim::Time t) override {
    add({6, win.id(), comm_rank, static_cast<long long>(offset),
         static_cast<long long>(len), is_store, static_cast<long long>(t)});
  }

 private:
  void add(std::initializer_list<long long> fields) {
    ++calls;
    for (long long f : fields) hash = sim::fnv1a(&f, sizeof(f), hash);
  }
  void add_op(int what, const mpi::AmOp& op, sim::Time t) {
    add({what, static_cast<long long>(op.kind), static_cast<long long>(op.op),
         op.origin_world, op.target_world, op.win->id(), op.origin_comm_rank,
         op.target_comm_rank, op.target_disp, op.target_count,
         static_cast<long long>(op.target_dt.base), op.target_dt.blocklen,
         op.target_dt.stride, static_cast<long long>(t)});
  }
};

struct RouteRun {
  std::vector<std::string> routed;  ///< "event entity a b c", in order
  std::uint64_t records = 0;
  std::uint64_t trace_hash = 0;
  Load counters;  ///< casper.*, ghost.<g>.ops/bytes, casper_*, recovery.*
  std::uint64_t callbacks = 0;
  std::uint64_t callback_hash = 0;
  /// Both users' window bytes, then the values each user fetched.
  std::uint64_t data_hash = 0;
  bool oracle_clean = false;
  std::uint64_t oracle_commits = 0;
  bool race_clean = false;
  std::uint64_t race_accesses = 0;
};

/// One user's side of a route run: `peer` is the other user; fetched values
/// go to `fetched` once their epoch completed them.
using RouteBody = std::function<void(mpi::Env&, int peer, Win&,
                                     std::vector<double>& fetched)>;

/// Runs `body` on one 16-double window per user.
RouteRun run_route(const core::Config& cc, const fault::FaultPlan* plan,
                   const RouteBody& body) {
  constexpr std::size_t kElems = 16;
  RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = 2;
  rc.machine.topo.cores_per_node = 3;  // ghost 2 / 5 in the user's far domain
  rc.seed = 777;
  obs::Recorder rec;
  rc.recorder = &rec;
  rc.fault = plan;
  std::vector<std::vector<double>> data(2);
  check::ShadowOracle oracle;
  check::RaceAnalyzer race;
  CallbackLog log;
  mpi::Runtime rt(
      rc,
      [&](mpi::Env& env) {
        Comm w = env.world();
        const int me = env.rank(w);
        void* base = nullptr;
        Win win = env.win_allocate(kElems * sizeof(double), sizeof(double),
                                   Info{}, w, &base);
        std::vector<double> fetched;
        body(env, 1 - me, win, fetched);
        env.barrier(w);
        const auto* d = static_cast<const double*>(base);
        auto& mine = data[static_cast<std::size_t>(me)];
        mine.assign(d, d + kElems);
        mine.insert(mine.end(), fetched.begin(), fetched.end());
        env.barrier(w);
        env.win_free(win);
      },
      core::layer(cc));
  rt.add_observer(&oracle);
  rt.add_observer(&race);
  rt.add_observer(&log);
  rt.run();

  RouteRun out;
  out.trace_hash = sim::kFnvBasis;
  for (const obs::TraceEvent& e : rec.trace().ordered()) {
    ++out.records;
    const std::uint64_t f[] = {e.t, static_cast<std::uint64_t>(e.entity),
                               static_cast<std::uint64_t>(e.ev), e.a, e.b,
                               e.c};
    out.trace_hash = sim::fnv1a(f, sizeof(f), out.trace_hash);
    if (e.ev == obs::Ev::OpRedirected || e.ev == obs::Ev::LbDecision ||
        e.ev == obs::Ev::OpSegmentSplit) {
      out.routed.push_back(std::string(obs::to_string(e.ev)) + ' ' +
                           std::to_string(e.entity) + ' ' +
                           std::to_string(e.a) + ' ' + std::to_string(e.b) +
                           ' ' + std::to_string(e.c));
    }
  }
  for (const auto& [key, v] : rec.metrics().counters()) {
    if (key.rfind("casper.", 0) == 0 ||
        (key.rfind("ghost.", 0) == 0 &&
         key.find(".service_") == std::string::npos)) {
      out.counters[key] = v;
    }
  }
  for (const auto& [key, v] : rt.stats().all()) {
    if (key.rfind("casper_", 0) == 0 || key.rfind("recovery.", 0) == 0) {
      out.counters[key] = v;
    }
  }
  out.callbacks = log.calls;
  out.callback_hash = log.hash;
  out.data_hash = sim::kFnvBasis;
  for (const auto& d : data) {
    out.data_hash =
        sim::fnv1a(d.data(), d.size() * sizeof(double), out.data_hash);
  }
  out.oracle_clean = oracle.clean();
  out.oracle_commits = oracle.commits_seen();
  out.race_clean = race.clean();
  out.race_accesses = race.accesses_recorded();
  return out;
}

void expect_route(const RouteRun& got, const RouteRun& want) {
  EXPECT_EQ(got.routed, want.routed);
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.trace_hash, want.trace_hash);
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_EQ(got.callbacks, want.callbacks);
  EXPECT_EQ(got.callback_hash, want.callback_hash);
  EXPECT_EQ(got.data_hash, want.data_hash);
  EXPECT_EQ(got.oracle_clean, want.oracle_clean);
  EXPECT_EQ(got.oracle_commits, want.oracle_commits);
  EXPECT_EQ(got.race_clean, want.race_clean);
  EXPECT_EQ(got.race_accesses, want.race_accesses);
}

core::Config route_config(core::Binding b, core::DynamicLb lb) {
  core::Config cc;
  cc.ghosts_per_node = 2;
  cc.binding = b;
  cc.dynamic = lb;
  return cc;
}

void keep(std::vector<double>& fetched, const double* g, std::size_t n) {
  fetched.insert(fetched.end(), g, g + n);
}

TEST(RouteCharacterization, DynamicUnderLockAll) {
  const RouteRun got = run_route(
      route_config(core::Binding::Rank, core::DynamicLb::OpCounting),
      nullptr,
      [](mpi::Env& env, int peer, Win& win, std::vector<double>& fetched) {
        const double v[4] = {1.0, 2.0, 3.0, 4.0};
        double g[6] = {};
        env.win_lock_all(0, win);
        for (int i = 0; i < 4; ++i) {
          env.put(&v[i], 1, peer, static_cast<std::size_t>(i), win);
        }
        env.put(v, 3, peer, 4, win);
        env.get(g, 2, peer, 12, win);
        env.accumulate(v, 2, peer, 10, AccOp::Sum, win);  // never dynamic
        env.win_flush_all(win);
        env.get(&g[2], 4, peer, 0, win);
        env.win_unlock_all(win);
        keep(fetched, g, 6);
      });
  RouteRun want;
  want.routed = {
      "lb.decision 0 4 2 8", "op.redirected 0 4 0 8", "lb.decision 3 1 2 8",
      "op.redirected 3 1 0 8", "lb.decision 0 5 2 8", "op.redirected 0 5 0 8",
      "lb.decision 3 2 2 8", "op.redirected 3 2 0 8", "lb.decision 0 4 2 8",
      "op.redirected 0 4 0 8", "lb.decision 3 1 2 8", "op.redirected 3 1 0 8",
      "lb.decision 0 5 2 8", "op.redirected 0 5 0 8", "lb.decision 3 2 2 8",
      "op.redirected 3 2 0 8", "lb.decision 0 4 2 24",
      "op.redirected 0 4 0 24", "lb.decision 3 1 2 24",
      "op.redirected 3 1 0 24", "lb.decision 0 5 2 16",
      "op.redirected 0 5 1 16", "lb.decision 3 2 2 16",
      "op.redirected 3 2 1 16", "op.redirected 0 4 2 16",
      "op.redirected 3 1 2 16", "lb.decision 0 5 2 32",
      "op.redirected 0 5 1 32", "lb.decision 3 2 2 32",
      "op.redirected 3 2 1 32",
  };
  want.records = 443;
  want.trace_hash = 10766351173948992691ULL;
  want.counters = {
      {"casper.binding_fastpath", 2}, {"casper.dynamic_ops", 14},
      {"casper.lb.op_counting", 14}, {"casper.redirected_ops", 16},
      {"casper_dynamic_ops", 14}, {"casper_managed_windows", 1},
      {"casper_self_ops", 0}, {"casper_split_subops", 0},
      {"casper_window_tables", 1}, {"ghost.1.bytes", 56}, {"ghost.1.ops", 4},
      {"ghost.2.bytes", 64}, {"ghost.2.ops", 4}, {"ghost.4.bytes", 56},
      {"ghost.4.ops", 4}, {"ghost.5.bytes", 64}, {"ghost.5.ops", 4},
  };
  want.callbacks = 108;
  want.callback_hash = 905116919094990589ULL;
  want.data_hash = 1245508354498713157ULL;
  want.oracle_clean = true;
  want.oracle_commits = 16;
  want.race_clean = true;
  want.race_accesses = 16;
  expect_route(got, want);
}

TEST(RouteCharacterization, DynamicInBindingFreeInterval) {
  const RouteRun got = run_route(
      route_config(core::Binding::Rank, core::DynamicLb::Random), nullptr,
      [](mpi::Env& env, int peer, Win& win, std::vector<double>& fetched) {
        const double v[4] = {5.0, 6.0, 7.0, 8.0};
        double g[2] = {};
        env.win_lock(LockType::Shared, peer, 0, win);
        env.put(v, 1, peer, 0, win);  // before the flush: static
        env.win_flush(peer, win);     // opens the binding-free interval
        for (int i = 1; i < 4; ++i) {
          env.put(&v[i], 1, peer, static_cast<std::size_t>(i), win);
        }
        env.get(g, 1, peer, 0, win);  // completed by the first flush
        env.win_flush(peer, win);
        env.put(v, 4, peer, 4, win);
        env.win_unlock(peer, win);
        keep(fetched, g, 2);
      });
  RouteRun want;
  want.routed = {
      "op.redirected 0 4 0 8", "op.redirected 3 1 0 8", "lb.decision 0 5 1 8",
      "op.redirected 0 5 0 8", "lb.decision 3 1 1 8", "op.redirected 3 1 0 8",
      "lb.decision 0 5 1 8", "op.redirected 0 5 0 8", "lb.decision 3 1 1 8",
      "op.redirected 3 1 0 8", "lb.decision 0 4 1 8", "op.redirected 0 4 0 8",
      "lb.decision 3 1 1 8", "op.redirected 3 1 0 8", "lb.decision 0 5 1 8",
      "op.redirected 0 5 1 8", "lb.decision 3 2 1 8", "op.redirected 3 2 1 8",
      "lb.decision 3 2 1 32", "op.redirected 3 2 0 32", "lb.decision 0 4 1 32",
      "op.redirected 0 4 0 32",
  };
  want.records = 386;
  want.trace_hash = 14287344089417612759ULL;
  want.counters = {
      {"casper.binding_fastpath", 2}, {"casper.dynamic_ops", 10},
      {"casper.lb.random", 10}, {"casper.redirected_ops", 12},
      {"casper_dynamic_ops", 10}, {"casper_managed_windows", 1},
      {"casper_self_ops", 0}, {"casper_split_subops", 0},
      {"casper_window_tables", 1}, {"ghost.1.bytes", 32}, {"ghost.1.ops", 4},
      {"ghost.2.bytes", 40}, {"ghost.2.ops", 2}, {"ghost.4.bytes", 48},
      {"ghost.4.ops", 3}, {"ghost.5.bytes", 24}, {"ghost.5.ops", 3},
  };
  want.callbacks = 86;
  want.callback_hash = 2697939558646596129ULL;
  want.data_hash = 3158129568833160869ULL;
  want.oracle_clean = true;
  want.oracle_commits = 12;
  want.race_clean = true;
  want.race_accesses = 12;
  expect_route(got, want);
}

TEST(RouteCharacterization, StaticRankBinding) {
  // Whole-op pieces keep the user's datatypes: a strided origin PUT and a
  // strided result GET.
  const RouteRun got = run_route(
      route_config(core::Binding::Rank, core::DynamicLb::None), nullptr,
      [](mpi::Env& env, int peer, Win& win, std::vector<double>& fetched) {
        const double v[4] = {1.5, 2.5, 3.5, 4.5};
        double g[8] = {};
        double old[2] = {};
        env.win_fence(0, win);
        env.put(v, 2, mpi::vector_of(Dt::Double, 1, 2), peer, 0, 2,
                mpi::contig(Dt::Double), win);
        env.win_fence(mpi::kModeNoSucceed, win);
        env.win_lock_all(0, win);
        env.accumulate(v, 2, peer, 2, AccOp::Sum, win);
        env.get_accumulate(v, 2, mpi::contig(Dt::Double), g, 2,
                           mpi::contig(Dt::Double), peer, 4, 2,
                           mpi::contig(Dt::Double), AccOp::Sum, win);
        env.fetch_and_op(&v[3], &old[0], Dt::Double, peer, 6, AccOp::Sum,
                         win);
        env.compare_and_swap(&v[0], &v[1], &old[1], Dt::Double, peer, 7, win);
        env.win_flush(peer, win);
        env.get(&g[2], 3, mpi::vector_of(Dt::Double, 1, 2), peer, 0, 3,
                mpi::contig(Dt::Double), win);
        env.win_unlock_all(win);
        keep(fetched, g, 8);
        keep(fetched, old, 2);
      });
  RouteRun want;
  want.routed = {
      "op.redirected 0 4 0 16", "op.redirected 3 1 0 16",
      "op.redirected 0 4 2 16", "op.redirected 3 1 2 16",
      "op.redirected 0 4 3 16", "op.redirected 3 1 3 16",
      "op.redirected 0 4 4 8", "op.redirected 3 1 4 8",
      "op.redirected 0 4 5 8", "op.redirected 3 1 5 8",
      "op.redirected 0 4 1 24", "op.redirected 3 1 1 24",
  };
  want.records = 407;
  want.trace_hash = 3363952499812860568ULL;
  want.counters = {
      {"casper.binding_fastpath", 12}, {"casper.redirected_ops", 12},
      {"casper_dynamic_ops", 0}, {"casper_managed_windows", 1},
      {"casper_self_ops", 0}, {"casper_split_subops", 0},
      {"casper_window_tables", 1}, {"ghost.1.bytes", 88}, {"ghost.1.ops", 6},
      {"ghost.4.bytes", 88}, {"ghost.4.ops", 6},
  };
  want.callbacks = 96;
  want.callback_hash = 7714282410620451157ULL;
  want.data_hash = 17416274072672780929ULL;
  want.oracle_clean = true;
  want.oracle_commits = 12;
  want.race_clean = true;
  want.race_accesses = 12;
  expect_route(got, want);
}

TEST(RouteCharacterization, SegmentSplitStridedGetAcc) {
  // Element 8 is where each node's memory passes to its second ghost.
  const RouteRun got = run_route(
      route_config(core::Binding::Segment, core::DynamicLb::ByteCounting),
      nullptr,
      [](mpi::Env& env, int peer, Win& win, std::vector<double>& fetched) {
        std::vector<double> v(12);
        for (std::size_t i = 0; i < v.size(); ++i) v[i] = 1.0 + i;
        std::vector<double> g(24, 0.0);
        // Under a lock and before its first flush PUT binds statically.
        env.win_lock(LockType::Shared, peer, 0, win);
        env.put(v.data(), 10, peer, 6, win);  // 6,7 and 8..15: two pieces
        env.win_flush(peer, win);
        // Pairs every third element from 0: 0,1 3,4 6,7 on the first
        // ghost, 9,10 12,13 on the second.
        env.get_accumulate(v.data(), 10, mpi::contig(Dt::Double), g.data(),
                           10, mpi::contig(Dt::Double), peer, 0, 5,
                           mpi::vector_of(Dt::Double, 2, 3), AccOp::Sum, win);
        env.win_flush(peer, win);
        // Binding-free: byte counting picks the ghost sent fewer piece
        // bytes (the first: 64 against 96).
        env.put(&v[11], 1, peer, 15, win);
        env.accumulate(v.data(), 2, peer, 0, AccOp::Sum, win);  // one piece
        env.win_unlock(peer, win);
        env.win_fence(0, win);
        env.get(&g[10], 10, peer, 4, win);  // elements 4..13: split GET
        env.win_fence(mpi::kModeNoSucceed, win);
        env.barrier(env.world());
        env.local_store(g.data(), 0, 2 * sizeof(double), win);
        keep(fetched, g.data(), g.size());
      });
  RouteRun want;
  want.routed = {
      "op.split 0 2 0 80", "op.redirected 0 4 0 16", "op.split 3 2 0 80",
      "op.redirected 3 1 0 16", "op.redirected 0 5 0 64",
      "op.redirected 3 2 0 64", "op.split 0 5 3 80", "op.redirected 0 4 3 16",
      "op.split 3 5 3 80", "op.redirected 3 1 3 16", "op.redirected 0 4 3 16",
      "op.redirected 3 1 3 16", "op.redirected 0 4 3 16",
      "op.redirected 3 1 3 16", "op.redirected 0 5 3 16",
      "op.redirected 3 2 3 16", "op.redirected 0 5 3 16",
      "op.redirected 3 2 3 16", "lb.decision 0 4 3 8", "op.redirected 0 4 0 8",
      "lb.decision 3 1 3 8", "op.redirected 3 1 0 8", "op.redirected 0 4 2 16",
      "op.redirected 3 1 2 16", "op.split 0 2 1 80", "op.redirected 0 4 1 32",
      "op.split 3 2 1 80", "op.redirected 3 1 1 32", "op.redirected 0 5 1 48",
      "op.redirected 3 2 1 48",
  };
  want.records = 537;
  want.trace_hash = 1460663194363915453ULL;
  want.counters = {
      {"casper.binding_fastpath", 2}, {"casper.binding_split", 6},
      {"casper.dynamic_ops", 2}, {"casper.lb.byte_counting", 2},
      {"casper.redirected_ops", 22}, {"casper.split_subops", 18},
      {"casper_dynamic_ops", 2}, {"casper_managed_windows", 1},
      {"casper_self_ops", 0}, {"casper_split_subops", 18},
      {"casper_window_tables", 1}, {"ghost.1.bytes", 120}, {"ghost.1.ops", 7},
      {"ghost.2.bytes", 144}, {"ghost.2.ops", 4}, {"ghost.4.bytes", 120},
      {"ghost.4.ops", 7}, {"ghost.5.bytes", 144}, {"ghost.5.ops", 4},
  };
  want.callbacks = 128;
  want.callback_hash = 13784544263940106088ULL;
  want.data_hash = 7058526010950983993ULL;
  want.oracle_clean = true;
  want.oracle_commits = 22;
  want.race_clean = true;
  want.race_accesses = 12;
  expect_route(got, want);
}

TEST(RouteCharacterization, SelfPutAndGet) {
  const RouteRun got = run_route(
      route_config(core::Binding::Rank, core::DynamicLb::OpCounting),
      nullptr,
      [](mpi::Env& env, int peer, Win& win, std::vector<double>& fetched) {
        const int me = 1 - peer;
        const double v[2] = {9.0, 10.0};
        double g[4] = {};
        env.win_lock(LockType::Exclusive, me, 0, win);
        env.put(v, 2, me, 0, win);
        env.accumulate(v, 2, me, 2, AccOp::Sum, win);  // through a ghost
        env.win_unlock(me, win);
        env.win_lock_all(0, win);
        env.get(g, 2, me, 0, win);
        env.put(v, 2, me, 4, win);
        env.put(v, 2, peer, 6, win);
        env.win_flush(me, win);
        env.get(&g[2], 2, me, 2, win);
        env.win_unlock_all(win);
        keep(fetched, g, 4);
      });
  RouteRun want;
  want.routed = {
      "op.redirected 0 1 2 16", "op.redirected 3 4 2 16",
      "lb.decision 0 4 2 16", "op.redirected 0 4 0 16", "lb.decision 3 1 2 16",
      "op.redirected 3 1 0 16",
  };
  want.records = 357;
  want.trace_hash = 15248171717925389395ULL;
  want.counters = {
      {"casper.binding_fastpath", 2}, {"casper.dynamic_ops", 2},
      {"casper.lb.op_counting", 2}, {"casper.redirected_ops", 4},
      {"casper.self_ops", 8}, {"casper_dynamic_ops", 2},
      {"casper_managed_windows", 1}, {"casper_self_ops", 8},
      {"casper_split_subops", 0}, {"casper_window_tables", 1},
      {"ghost.1.bytes", 32}, {"ghost.1.ops", 2}, {"ghost.4.bytes", 32},
      {"ghost.4.ops", 2},
  };
  want.callbacks = 104;
  want.callback_hash = 595703488884206128ULL;
  want.data_hash = 15290084545672271397ULL;
  want.oracle_clean = true;
  want.oracle_commits = 12;
  want.race_clean = true;
  want.race_accesses = 12;
  expect_route(got, want);
}

TEST(RouteCharacterization, DegradedAfterGhostKill) {
  // Both of node 1's ghosts (world 4 and 5) die before the epoch, so user
  // 0's ops to user 1 go straight to the user window; user 1's still
  // redirect through node 0's ghosts.
  fault::FaultPlan plan;
  plan.kills.push_back({4, sim::us(100)});
  plan.kills.push_back({5, sim::us(110)});
  const RouteRun got = run_route(
      route_config(core::Binding::Segment, core::DynamicLb::None), &plan,
      [](mpi::Env& env, int peer, Win& win, std::vector<double>& fetched) {
        const double v[4] = {2.0, 4.0, 6.0, 8.0};
        double g[4] = {};
        env.barrier(env.world());
        env.compute(sim::us(300));  // the kills and their detection
        env.barrier(env.world());
        env.win_lock_all(0, win);
        env.put(v, 4, peer, 6, win);
        env.accumulate(v, 2, peer, 0, AccOp::Sum, win);
        env.win_flush(peer, win);
        env.get(g, 4, peer, 6, win);
        env.win_unlock_all(win);
        keep(fetched, g, 4);
      });
  RouteRun want;
  want.routed = {
      "op.split 3 2 0 32", "op.redirected 3 1 0 16", "op.redirected 3 2 0 16",
      "op.redirected 3 1 2 16", "op.split 3 2 1 32", "op.redirected 3 1 1 16",
      "op.redirected 3 2 1 16",
  };
  want.records = 353;
  want.trace_hash = 3921918623023965336ULL;
  want.counters = {
      {"casper.binding_fastpath", 1}, {"casper.binding_split", 2},
      {"casper.redirected_ops", 5}, {"casper.split_subops", 4},
      {"casper_dynamic_ops", 0}, {"casper_managed_windows", 1},
      {"casper_self_ops", 0}, {"casper_split_subops", 4},
      {"casper_window_tables", 1}, {"ghost.1.bytes", 48}, {"ghost.1.ops", 3},
      {"ghost.2.bytes", 32}, {"ghost.2.ops", 2}, {"recovery.degraded", 1},
      {"recovery.direct_ops", 3}, {"recovery.ghost_dead", 2},
      {"recovery.rebound_ops", 0}, {"recovery.rebound_targets", 1},
  };
  want.callbacks = 79;
  want.callback_hash = 14147476671185049658ULL;
  want.data_hash = 16756424610084180005ULL;
  want.oracle_clean = true;
  want.oracle_commits = 8;
  want.race_clean = true;
  want.race_accesses = 6;
  expect_route(got, want);
}

}  // namespace
