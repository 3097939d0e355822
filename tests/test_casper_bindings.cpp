// Property-style parameterized sweeps: data integrity of Casper's
// redirection must hold across every combination of binding policy, dynamic
// load-balancing policy, ghost count, epoch type, and operation mix — and
// the atomicity checker must stay silent throughout. SegmentRouting pins
// which ghost serves each op under static segment binding, per ghost and
// across epoch transitions, and under the adaptive controller's remaps and
// ghost kills.
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
#include "core/casper.hpp"
#include "core/layer_impl.hpp"
#include "fault/plan.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "obs/record.hpp"

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

}  // namespace
