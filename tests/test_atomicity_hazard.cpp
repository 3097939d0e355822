// White-box demonstration of the hazard Casper's static binding prevents
// (paper Section III.B): if operations targeting the same memory are
// processed concurrently by *different* entities without a common lock
// domain, MPI's accumulate atomicity breaks — updates are lost — and the
// runtime's checker reports it.
//
// We construct the hazard directly in minimpi by exposing the SAME buffer
// through two windows with different target ranks (exactly what Casper's
// overlapping ghost windows do), then driving concurrent accumulates through
// both paths with no binding discipline.
//
// Determinism: instead of trusting one lucky default interleaving, the tests
// sweep the engine's schedule-perturbation seed (RunConfig::perturb_seed).
// The hazard must be DETECTED under every legal schedule (the checker is
// interval-based, not luck-based), each run must be bit-reproducible for its
// seed, and the bound control must stay exact under all of them.
#include <gtest/gtest.h>

#include <vector>

#include "mpi/runtime.hpp"
#include "net/profile.hpp"

namespace {

using namespace casper;
using mpi::AccOp;
using mpi::Comm;
using mpi::Dt;
using mpi::Info;
using mpi::LockType;
using mpi::RunConfig;
using mpi::Win;

struct HazardResult {
  double final_value = -1.0;
  std::uint64_t violations = 0;

  bool operator==(const HazardResult&) const = default;
};

/// Ranks 0,1 act as "ghosts" both exposing rank 0's buffer; ranks 2,3 are
/// origins. With `bind_same_entity` both origins accumulate through ghost 0
/// (the binding discipline); otherwise each uses a different ghost and the
/// unsynchronized RMW interleaving loses updates.
HazardResult run_hazard(bool bind_same_entity, std::uint64_t perturb_seed) {
  RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = 2;
  rc.machine.topo.cores_per_node = 2;
  rc.perturb_seed = perturb_seed;
  HazardResult res;
  mpi::exec(rc, [&](mpi::Env& env) {
    Comm w = env.world();
    static std::vector<double> shared_buf;  // rank 0's exposed memory
    if (env.rank(w) == 0) shared_buf.assign(1, 0.0);
    env.barrier(w);

    // Both "ghosts" (ranks 0 and 1, same node) expose the same buffer.
    const bool ghostish = env.rank(w) < 2;
    void* mybase = ghostish ? shared_buf.data() : nullptr;
    const std::size_t mysize = ghostish ? sizeof(double) : 0;
    Win win = env.win_create(mybase, mysize, sizeof(double), Info{}, w);

    env.barrier(w);
    if (env.rank(w) >= 2) {
      const int my_ghost = bind_same_entity ? 0 : env.rank(w) - 2;
      env.win_lock(LockType::Shared, my_ghost, 0, win);
      double one = 1.0;
      for (int i = 0; i < 50; ++i) {
        env.accumulate(&one, 1, my_ghost, 0, AccOp::Sum, win);
      }
      env.win_unlock(my_ghost, win);
    } else {
      // The ghosts make progress (they are in the MPI runtime).
      env.barrier(env.world());
    }
    if (env.rank(w) >= 2) env.barrier(env.world());
    env.barrier(w);
    if (env.rank(w) == 0) {
      res.final_value = shared_buf[0];
      res.violations = env.runtime().stats().get("atomicity_violations");
    }
    env.win_free(win);
  });
  return res;
}

constexpr std::uint64_t kPerturbSeeds[] = {0, 0x1d, 0xbeef, 0xf00dcafe,
                                           0x123456789abcdefULL};

TEST(AtomicityHazard, UnboundConcurrentAccumulatesDetectedUnderAllSchedules) {
  for (const std::uint64_t p : kPerturbSeeds) {
    const HazardResult r = run_hazard(/*bind_same_entity=*/false, p);
    // 100 increments were issued; the interval checker must flag the
    // overlapping unsynchronized RMWs whatever the tie-break order, and
    // lost updates can never push the result past the exact sum.
    EXPECT_GT(r.violations, 0u) << "perturb " << p;
    EXPECT_LE(r.final_value, 100.0) << "perturb " << p;
    // Same program + same schedule seed = bit-identical outcome.
    EXPECT_EQ(run_hazard(false, p), r) << "perturb " << p;
  }
}

TEST(AtomicityHazard, LostUpdatesManifestUnderSomeSchedule) {
  // The value loss itself IS schedule-dependent — that is the point of the
  // hazard. Sweeping seeds must surface at least one interleaving that
  // actually drops updates (deterministically reproducible by its seed).
  bool lost_somewhere = false;
  for (const std::uint64_t p : kPerturbSeeds) {
    if (run_hazard(false, p).final_value < 100.0) {
      lost_somewhere = true;
      break;
    }
  }
  EXPECT_TRUE(lost_somewhere);
}

TEST(AtomicityHazard, SameProcessingEntityStaysExactUnderAllSchedules) {
  // Control: with the binding discipline (everyone through ghost 0), the
  // result is exact and the checker silent under every schedule.
  for (const std::uint64_t p : kPerturbSeeds) {
    const HazardResult r = run_hazard(/*bind_same_entity=*/true, p);
    EXPECT_EQ(r.final_value, 100.0) << "perturb " << p;
    EXPECT_EQ(r.violations, 0u) << "perturb " << p;
  }
}

/// The same unbound hazard on node 0 of a 4-node x 4-core machine: ranks
/// 0 and 1 expose one buffer, ranks 4 and 5 (node 1) accumulate through
/// different "ghosts". Rank 5's accumulates span the whole buffer, so ghost
/// 1 serves longer ops than ghost 0 and their processing intervals stagger
/// (equal-length ops would start and commit in lockstep). With `noise`,
/// ranks 6..15 (nodes 1-3) meanwhile run heavy accumulate traffic on a
/// second window, which never touches node 0's memory: alternately to
/// themselves (zero-width commits landing at arbitrary times, the sharpest
/// probe of cross-node pruning) and to the next noise rank. Both windows
/// exist in every variant, so the hazard's timeline is the same with and
/// without the noise.
std::uint64_t node0_hazard_violations(bool noise, int shards) {
  constexpr int kBufElems = 64;
  constexpr int kFirstNoise = 6;
  constexpr int kNoiseOps = 400;
  RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = 4;
  rc.machine.topo.cores_per_node = 4;
  rc.shards = shards;
  std::vector<double> shared_buf(kBufElems, 0.0);  // node 0's exposed memory
  mpi::Runtime rt(rc, [&](mpi::Env& env) {
    Comm w = env.world();
    const int me = env.rank(w);
    const int p = env.size(w);
    const bool ghostish = me < 2;
    Win hazard = env.win_create(ghostish ? shared_buf.data() : nullptr,
                                ghostish ? kBufElems * sizeof(double) : 0,
                                sizeof(double), Info{}, w);
    void* base = nullptr;
    Win ring = env.win_allocate(16 * sizeof(double), sizeof(double), Info{},
                                w, &base);
    env.barrier(w);
    double one = 1.0;
    if (me == 4 || me == 5) {
      const int ghost = me - 4;
      const std::vector<double> ones(kBufElems, 1.0);
      env.win_lock(LockType::Shared, ghost, 0, hazard);
      for (int i = 0; i < 50; ++i) {
        env.accumulate(ones.data(), ghost == 0 ? 1 : kBufElems, ghost, 0,
                       AccOp::Sum, hazard);
      }
      env.win_unlock(ghost, hazard);
    } else if (noise && me >= kFirstNoise) {
      const int next = me + 1 < p ? me + 1 : kFirstNoise;
      env.win_lock_all(0, ring);
      for (int i = 0; i < kNoiseOps; ++i) {
        env.accumulate(&one, 1, (i & 1) == 0 ? me : next,
                       static_cast<std::size_t>(i % 16), AccOp::Sum, ring);
        if ((i & 15) == 15) env.win_flush(next, ring);
      }
      env.win_unlock_all(ring);
    }
    // Everyone else serves its inbox inside the barrier.
    env.barrier(w);
    env.win_free(ring);
    env.win_free(hazard);
  });
  rt.run();
  return rt.stats().get("atomicity_violations");
}

TEST(AtomicityHazard, CountIndependentOfShardCount) {
  // Only accesses to the same node's memory can conflict, so the detector's
  // verdict must not depend on how nodes are packed onto engine shards.
  const std::uint64_t one_shard = node0_hazard_violations(true, 1);
  EXPECT_GT(one_shard, 0u);
  for (const int shards : {2, 4}) {
    EXPECT_EQ(node0_hazard_violations(true, shards), one_shard)
        << "shards " << shards;
  }
}

TEST(AtomicityHazard, CountIndependentOfOtherNodesTraffic) {
  // Commits on nodes 1-3 must not prune node 0's in-flight accesses: the
  // hazard on node 0 reports the same count in a quiet and a busy machine.
  const std::uint64_t quiet = node0_hazard_violations(false, 1);
  EXPECT_GT(quiet, 0u);
  EXPECT_EQ(node0_hazard_violations(true, 1), quiet);
}

}  // namespace
