// Chaos matrix: every network fault class x every RMA op kind x every
// passive/active epoch style, with the shadow-memory oracle validating every
// window byte at each synchronization point.
//
// Grid: {drop, dup, reorder, delay} x {PUT, ACC, GET_ACC, FAO, CAS}
//       x {lock, lockall, fence}.
//
// Each cell builds a small deterministic program (4 user ranks over 2 nodes)
// issuing only that op kind under that epoch style, runs it under the given
// lossy network, and requires
//   * a clean oracle (no divergence at any sync, no atomicity violation),
//   * the targeted fault class to have actually fired (the cell is vacuous
//     otherwise), and
//   * the recovery machinery's bookkeeping to be consistent (retries occur
//     whenever transmissions were dropped; dedup hits whenever an ack loss
//     or duplicate forced redelivery).
// "Reorder" is realized as a wide delay-jitter window: later sends overtake
// earlier ones, which is exactly what the sequence/dedup machinery must
// absorb (see DESIGN.md §11).
//
// Under ASan (scripts/check.sh): recovery touches freed and rebound routing
// state, so the faulted paths must be memory-clean, not just correct.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/fuzz.hpp"
#include "mpi/datatype.hpp"

using namespace casper;

namespace {

enum class FaultMode { Drop, Dup, Reorder, Delay };

const char* mode_name(FaultMode m) {
  switch (m) {
    case FaultMode::Drop: return "drop";
    case FaultMode::Dup: return "dup";
    case FaultMode::Reorder: return "reorder";
    case FaultMode::Delay: return "delay";
  }
  return "?";
}

fault::NetFaults net_for(FaultMode m) {
  fault::NetFaults n;
  switch (m) {
    case FaultMode::Drop:
      n.drop_p = 0.3;
      n.ack_drop_p = 0.2;  // losses in both directions
      break;
    case FaultMode::Dup:
      n.dup_p = 0.35;
      n.delay_min = sim::us(1);
      n.delay_max = sim::us(30);  // second-copy jitter
      break;
    case FaultMode::Reorder:
      // Jitter wider than the inter-op issue gap: later sends overtake
      // earlier ones.
      n.delay_p = 0.6;
      n.delay_min = sim::us(1);
      n.delay_max = sim::us(80);
      break;
    case FaultMode::Delay:
      n.delay_p = 0.3;
      n.delay_min = sim::us(1);
      n.delay_max = sim::us(5);
      break;
  }
  return n;
}

/// One cell's program: every origin issues `per_origin` ops of exactly
/// `kind` under `epoch`. PUTs go to per-origin-exclusive disjoint bytes;
/// accumulate-class ops Sum into the shared region (commutative, so the
/// program is schedule-invariant); CAS is order-sensitive but still
/// oracle-checkable (the oracle replays the committed order).
check::FuzzCase matrix_case(mpi::OpKind kind, check::EpochStyle epoch,
                            FaultMode mode, std::uint64_t seed) {
  check::FuzzCase fc;
  fc.seed = seed;
  fc.nodes = 2;
  fc.users_per_node = 2;
  fc.ghosts = 1;
  fc.binding = core::Binding::Rank;
  fc.epoch = epoch;
  fc.rounds = 1;
  fc.hint_exact = true;
  fc.acc_dt = mpi::Dt::Double;
  fc.acc_op = mpi::AccOp::Sum;
  fc.order_sensitive = kind == mpi::OpKind::Cas;
  fc.slot_bytes = 64;
  fc.fault_plan.seed = seed * 2654435761u + 17;
  fc.fault_plan.net = net_for(mode);

  const int nu = fc.nusers();
  const std::size_t acc_base = static_cast<std::size_t>(nu) * fc.slot_bytes;
  const int per_origin = 8;
  for (int o = 0; o < nu; ++o) {
    for (int i = 0; i < per_origin; ++i) {
      check::OpRec op;
      op.kind = kind;
      op.origin = o;
      op.target = (o + 1 + i) % nu;
      op.round = 0;
      op.count = 1;
      op.tdt = mpi::contig(mpi::Dt::Double);
      switch (kind) {
        case mpi::OpKind::Put:
          // My exclusive slot on the target, a fresh 8-byte lane per op.
          op.disp = static_cast<std::size_t>(o) * fc.slot_bytes +
                    static_cast<std::size_t>(i % 8) * 8;
          op.val = 16 * (o + 1) + i;
          break;
        case mpi::OpKind::Acc:
        case mpi::OpKind::GetAcc:
          op.aop = mpi::AccOp::Sum;
          op.disp = acc_base + static_cast<std::size_t>(i % 8) * 8;
          op.val = 1 + ((o + i) % 4);
          break;
        case mpi::OpKind::Fao:
          op.aop = mpi::AccOp::Sum;
          op.disp = acc_base + static_cast<std::size_t>(o % 8) * 8;
          op.val = 1 + (i % 4);
          break;
        case mpi::OpKind::Cas:
          op.aop = mpi::AccOp::Replace;
          op.disp = acc_base;
          op.val = 7 * o + i;
          break;
        default:
          break;
      }
      fc.ops.push_back(op);
    }
  }
  return fc;
}

void run_cell(FaultMode mode, mpi::OpKind kind, check::EpochStyle epoch) {
  SCOPED_TRACE(std::string(mode_name(mode)) + " x kind " +
               std::to_string(static_cast<int>(kind)) + " x " +
               check::to_string(epoch));
  const std::uint64_t seed = 1000 + 100 * static_cast<std::uint64_t>(mode) +
                             10 * static_cast<std::uint64_t>(kind) +
                             static_cast<std::uint64_t>(epoch);
  const check::FuzzCase fc = matrix_case(kind, epoch, mode, seed);
  const check::RunOutcome out = check::run_case(fc, /*perturb_seed=*/0);

  EXPECT_TRUE(out.divergences.empty())
      << out.divergences.size() << " oracle divergence(s), first at "
      << (out.divergences.empty() ? "" : out.divergences[0].where);
  EXPECT_EQ(out.atomicity_violations, 0u);
  EXPECT_GT(out.commits, 0u);

  // The cell must have exercised its fault class, and the recovery
  // bookkeeping must be consistent with it.
  switch (mode) {
    case FaultMode::Drop:
      EXPECT_GT(out.counters.get("fault.drops") +
                    out.counters.get("fault.ack_drops"),
                0u);
      EXPECT_GT(out.counters.get("fault.retries"), 0u);
      break;
    case FaultMode::Dup:
      EXPECT_GT(out.counters.get("fault.dups"), 0u);
      EXPECT_GT(out.counters.get("fault.dedup_hits"), 0u);
      break;
    case FaultMode::Reorder:
    case FaultMode::Delay:
      EXPECT_GT(out.counters.get("fault.delays"), 0u);
      break;
  }
}

class FaultMatrix : public ::testing::TestWithParam<FaultMode> {};

TEST_P(FaultMatrix, AllOpKindsAllEpochsOracleClean) {
  for (mpi::OpKind kind :
       {mpi::OpKind::Put, mpi::OpKind::Acc, mpi::OpKind::GetAcc,
        mpi::OpKind::Fao, mpi::OpKind::Cas}) {
    for (check::EpochStyle epoch :
         {check::EpochStyle::Lock, check::EpochStyle::LockAll,
          check::EpochStyle::Fence}) {
      run_cell(GetParam(), kind, epoch);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, FaultMatrix,
                         ::testing::Values(FaultMode::Drop, FaultMode::Dup,
                                           FaultMode::Reorder,
                                           FaultMode::Delay),
                         [](const auto& info) {
                           return std::string(mode_name(info.param));
                         });

// Determinism: the same faulted cell run twice is bit-identical — fault
// verdicts are a pure function of (plan seed, opid, attempt), never of host
// state.
TEST(FaultMatrixDeterminism, SameSeedSameOutcome) {
  const check::FuzzCase fc = matrix_case(
      mpi::OpKind::Acc, check::EpochStyle::LockAll, FaultMode::Drop, 42);
  const check::RunOutcome a = check::run_case(fc, 0);
  const check::RunOutcome b = check::run_case(fc, 0);
  EXPECT_EQ(a.content_hash, b.content_hash);
  EXPECT_EQ(a.counters, b.counters);
}

// Schedule invariance of the fault.* counters: verdicts key on the opid
// set, which a fiber-schedule perturbation does not change.
TEST(FaultMatrixDeterminism, FaultCountersScheduleInvariant) {
  const check::FuzzCase fc = matrix_case(
      mpi::OpKind::Put, check::EpochStyle::Fence, FaultMode::Dup, 43);
  const check::RunOutcome a = check::run_case(fc, 0);
  const check::RunOutcome b =
      check::run_case(fc, check::perturb_for(fc.seed, 1));
  for (const char* key : {"fault.drops", "fault.dups", "fault.delays",
                          "fault.ack_drops"}) {
    EXPECT_EQ(a.counters.get(key), b.counters.get(key)) << key;
  }
  EXPECT_EQ(a.content_hash, b.content_hash);
}

}  // namespace
