// Ghost failure & recovery: kill ghost processes at randomized virtual times
// across many seeds and require
//   * the epoch drain to complete (the run terminates; a stuck drain would
//     trip the simulator's deadlock detector),
//   * surviving-ghost rebinding to preserve oracle-validated window contents
//     (every byte checked at every sync), and
//   * last-ghost death to degrade the node to original-MPI (no-redirect)
//     mode with `recovery.degraded` counted exactly once per node.
//
// Workload safety under failure differs per scenario (DESIGN.md §11):
// with a surviving ghost, forwarding keeps read-modify-writes serialized
// through one live entity, so the full op mix is legal; with NO survivor,
// in-flight deliveries commit instantly at the NIC, so the last-ghost suite
// restricts itself to per-origin-disjoint PUT/GET plus self-targeted
// accumulates (each touching only the origin's own segment) — shapes whose
// correctness does not depend on a single serialization point.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "mpi/datatype.hpp"
#include "net/topology.hpp"

using namespace casper;

namespace {

check::EpochStyle epoch_for(std::uint64_t seed) {
  switch (seed % 3) {
    case 0: return check::EpochStyle::Lock;
    case 1: return check::EpochStyle::LockAll;
    default: return check::EpochStyle::Fence;
  }
}

/// Mixed-op workload for the surviving-ghost scenario: puts to exclusive
/// slots, commutative accumulates into the shared region, FAO, and reads of
/// the never-written slot.
check::FuzzCase survivor_case(std::uint64_t seed) {
  check::FuzzCase fc;
  fc.seed = seed;
  fc.nodes = 2;
  fc.users_per_node = 2;
  fc.ghosts = 2;
  fc.binding = (seed % 2) ? core::Binding::Segment : core::Binding::Rank;
  fc.epoch = epoch_for(seed);
  fc.rounds = 2;
  fc.hint_exact = true;
  fc.acc_dt = mpi::Dt::Double;
  fc.acc_op = mpi::AccOp::Sum;
  fc.slot_bytes = 64;

  const int nu = fc.nusers();
  const std::size_t acc_base = static_cast<std::size_t>(nu) * fc.slot_bytes;
  const std::size_t ro_base = acc_base + fc.slot_bytes;
  for (int r = 0; r < fc.rounds; ++r) {
    for (int o = 0; o < nu; ++o) {
      for (int i = 0; i < 6; ++i) {
        check::OpRec op;
        op.origin = o;
        op.target = (o + 1 + i) % nu;
        op.round = r;
        op.count = 1;
        op.tdt = mpi::contig(mpi::Dt::Double);
        switch ((o + i + static_cast<int>(seed)) % 4) {
          case 0:
            op.kind = mpi::OpKind::Put;
            op.disp = static_cast<std::size_t>(o) * fc.slot_bytes +
                      static_cast<std::size_t>(i % 8) * 8;
            op.val = 16 * (o + 1) + i;
            break;
          case 1:
            op.kind = mpi::OpKind::Acc;
            op.aop = mpi::AccOp::Sum;
            op.disp = acc_base + static_cast<std::size_t>(i % 8) * 8;
            op.val = 1 + (i % 3);
            break;
          case 2:
            op.kind = mpi::OpKind::Fao;
            op.aop = mpi::AccOp::Sum;
            op.disp = acc_base + static_cast<std::size_t>(o % 8) * 8;
            op.val = 1 + (i % 3);
            break;
          default:
            op.kind = mpi::OpKind::Get;
            op.disp = ro_base + static_cast<std::size_t>(i % 8) * 8;
            break;
        }
        fc.ops.push_back(op);
      }
    }
  }
  return fc;
}

// Kill each ghost in turn at a seed-randomized virtual time; a surviving
// ghost on the node absorbs its load. 64 seeds x oracle-validated contents.
TEST(GhostFailure, KillEachGhostAcrossSeedsOracleClean) {
  const std::vector<int> ghosts = survivor_case(0).ghost_ranks();
  ASSERT_EQ(ghosts.size(), 4u);
  std::uint64_t total_rebound_targets = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    check::FuzzCase fc = survivor_case(seed);
    const int victim = ghosts[seed % ghosts.size()];
    sim::Rng rng(seed, 0xdead);
    // Runs last ~120-165us of virtual time; keep kill + heartbeat detection
    // well inside that window or the engine (which stops when the last fiber
    // exits) never delivers them.
    const sim::Time at = sim::us(2) + rng.next_below(sim::us(100));
    fc.fault_plan.kills.push_back({victim, at});
    fc.fault_plan.heartbeat_period = sim::us(2);

    const check::RunOutcome out = check::run_case(fc, 0);
    // Run completion IS the epoch-drain assertion: a drain that never
    // finishes dies in the simulator's deadlock detector.
    EXPECT_TRUE(out.divergences.empty())
        << out.divergences.size() << " divergence(s) after killing ghost "
        << victim << " at " << sim::to_us(at) << "us";
    EXPECT_EQ(out.atomicity_violations, 0u);
    EXPECT_EQ(out.counters.get("fault.kills"), 1u);
    EXPECT_EQ(out.counters.get("recovery.ghost_dead"), 1u);
    // The other ghost on the victim's node survived: never degraded.
    EXPECT_EQ(out.counters.get("recovery.degraded"), 0u);
    total_rebound_targets += out.counters.get("recovery.rebound_targets");
  }
  // Rank-bound targets must have actually rebound somewhere in the sweep.
  EXPECT_GT(total_rebound_targets, 0u);
}

/// Disjoint-only workload for the no-survivor scenario: puts to exclusive
/// slots, gets of the read-only slot, accumulates restricted to self.
check::FuzzCase degraded_case(std::uint64_t seed) {
  check::FuzzCase fc;
  fc.seed = seed;
  fc.nodes = 2;
  fc.users_per_node = 2;
  fc.ghosts = 1;
  fc.binding = core::Binding::Rank;
  fc.epoch = epoch_for(seed);
  fc.rounds = 3;  // late rounds run fully degraded
  fc.hint_exact = true;
  fc.acc_dt = mpi::Dt::Double;
  fc.acc_op = mpi::AccOp::Sum;
  fc.slot_bytes = 64;

  const int nu = fc.nusers();
  const std::size_t acc_base = static_cast<std::size_t>(nu) * fc.slot_bytes;
  const std::size_t ro_base = acc_base + fc.slot_bytes;
  for (int r = 0; r < fc.rounds; ++r) {
    for (int o = 0; o < nu; ++o) {
      for (int i = 0; i < 6; ++i) {
        check::OpRec op;
        op.origin = o;
        op.round = r;
        op.count = 1;
        op.tdt = mpi::contig(mpi::Dt::Double);
        switch ((o + i) % 3) {
          case 0:
            op.kind = mpi::OpKind::Put;
            op.target = (o + 1 + i) % nu;
            op.disp = static_cast<std::size_t>(o) * fc.slot_bytes +
                      static_cast<std::size_t>(i % 8) * 8;
            op.val = 16 * (o + 1) + i;
            break;
          case 1:
            // Self-targeted accumulate: touches only my own segment, so its
            // serialization point never spans the dead-ghost transition.
            op.kind = mpi::OpKind::Acc;
            op.aop = mpi::AccOp::Sum;
            op.target = o;
            op.disp = acc_base + static_cast<std::size_t>(i % 8) * 8;
            op.val = 1 + (i % 3);
            break;
          default:
            op.kind = mpi::OpKind::Get;
            op.target = (o + 1 + i) % nu;
            op.disp = ro_base + static_cast<std::size_t>(i % 8) * 8;
            break;
        }
        fc.ops.push_back(op);
      }
    }
  }
  return fc;
}

// Node 0's ONLY ghost dies: the node must degrade to original-MPI mode
// (ops direct to the user window), counted exactly once, contents still
// oracle-clean. Node 1 keeps redirecting throughout.
TEST(GhostFailure, LastGhostDeathDegradesToNoRedirect) {
  const std::vector<int> ghosts = degraded_case(0).ghost_ranks();
  ASSERT_EQ(ghosts.size(), 2u);
  std::uint64_t total_direct = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    check::FuzzCase fc = degraded_case(seed);
    sim::Rng rng(seed, 0xde6);
    // Early through late kills: early ones exercise mostly-degraded epochs,
    // late ones the transition mid-workload. Bounded so detection lands
    // before the run's virtual end time.
    const sim::Time at = sim::us(1) + rng.next_below(sim::us(100));
    fc.fault_plan.kills.push_back({ghosts[0], at});
    fc.fault_plan.heartbeat_period = sim::us(2);

    const check::RunOutcome out = check::run_case(fc, 0);
    EXPECT_TRUE(out.divergences.empty())
        << out.divergences.size() << " divergence(s) after last-ghost kill at "
        << sim::to_us(at) << "us";
    EXPECT_EQ(out.atomicity_violations, 0u);
    EXPECT_EQ(out.counters.get("fault.kills"), 1u);
    EXPECT_EQ(out.counters.get("recovery.ghost_dead"), 1u);
    EXPECT_EQ(out.counters.get("recovery.degraded"), 1u)
        << "last-ghost death must degrade the node exactly once";
    total_direct += out.counters.get("recovery.direct_ops");
  }
  // Across the sweep some epochs must have run in degraded direct mode.
  EXPECT_GT(total_direct, 0u);
}

// Killing BOTH of a two-ghost node (in sequence) first rebinds, then
// degrades — recovery.degraded still exactly once.
TEST(GhostFailure, SequentialKillsOfWholeNodeDegradeOnce) {
  check::FuzzCase fc = degraded_case(7);
  fc.ghosts = 2;
  // Ghosts of node 0 are the first two (block placement).
  const std::vector<int> ghosts = fc.ghost_ranks();
  fc.fault_plan.kills.push_back({ghosts[0], sim::us(30)});
  fc.fault_plan.kills.push_back({ghosts[1], sim::us(90)});
  fc.fault_plan.heartbeat_period = sim::us(2);

  const check::RunOutcome out = check::run_case(fc, 0);
  EXPECT_TRUE(out.divergences.empty());
  EXPECT_EQ(out.atomicity_violations, 0u);
  EXPECT_EQ(out.counters.get("fault.kills"), 2u);
  EXPECT_EQ(out.counters.get("recovery.ghost_dead"), 2u);
  EXPECT_EQ(out.counters.get("recovery.degraded"), 1u);
}

// Kills compose with a lossy network: retransmissions addressed to a dead
// ghost forward to the successor and the oracle stays clean.
TEST(GhostFailure, KillUnderLossyNetworkOracleClean) {
  const std::vector<int> ghosts = survivor_case(0).ghost_ranks();
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    check::FuzzCase fc = survivor_case(seed);
    fc.fault_plan.net.drop_p = 0.2;
    fc.fault_plan.net.dup_p = 0.1;
    sim::Rng rng(seed, 0x313);
    fc.fault_plan.kills.push_back(
        {ghosts[seed % ghosts.size()],
         sim::us(2) + rng.next_below(sim::us(100))});
    fc.fault_plan.heartbeat_period = sim::us(2);
    const check::RunOutcome out = check::run_case(fc, 0);
    EXPECT_TRUE(out.divergences.empty());
    EXPECT_EQ(out.atomicity_violations, 0u);
    EXPECT_EQ(out.counters.get("recovery.ghost_dead"), 1u);
  }
}

}  // namespace
