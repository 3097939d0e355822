// Tests for the online RMA race analyzer (check/race.hpp): the deterministic
// interval treap, the per-epoch legality matrix across all four epoch styles,
// diagnostics, and the two invariance contracts — verdict groups must not
// depend on the fiber schedule or on the engine shard count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/oracle.hpp"
#include "check/race.hpp"
#include "mpi/observe.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "obs/record.hpp"

using namespace casper;

namespace {

mpi::RunConfig small_rc(int nodes, int cores) {
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = nodes;
  rc.machine.topo.cores_per_node = cores;
  return rc;
}

check::Access mk(std::size_t lo, std::size_t hi, int origin, std::uint64_t seq,
                 check::AccessKind kind = check::AccessKind::Put,
                 int epoch = 0) {
  check::Access a;
  a.lo = lo;
  a.hi = hi;
  a.origin = origin;
  a.seq = seq;
  a.kind = kind;
  a.epoch = epoch;
  return a;
}

/// Canonical text form of the group view: sorted, fully determined by the
/// verdict SET. Two runs agree iff their canon strings are equal.
std::string canon(const std::vector<check::RaceAnalyzer::Group>& gs) {
  std::vector<std::string> lines;
  for (const auto& g : gs) {
    std::ostringstream os;
    os << "w" << g.win_id << " t" << g.target << " " << g.origin_a << "~"
       << g.origin_b << ":";
    for (const auto& [lo, hi] : g.ranges) os << " [" << lo << "," << hi << ")";
    lines.push_back(os.str());
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += "\n";
  }
  return out;
}

}  // namespace

// ---- interval tree ---------------------------------------------------------

TEST(IntervalTree, InsertAndQueryOverlap) {
  check::IntervalTree t;
  t.insert(mk(0, 8, 0, 0));
  t.insert(mk(8, 16, 1, 0));
  t.insert(mk(4, 12, 2, 0));
  EXPECT_EQ(t.size(), 3u);

  std::vector<int> hit;
  t.query(6, 7, [&](const check::Access& a) { hit.push_back(a.origin); });
  std::sort(hit.begin(), hit.end());
  ASSERT_EQ(hit.size(), 2u);  // [0,8) and [4,12); [8,16) does not touch [6,7)
  EXPECT_EQ(hit[0], 0);
  EXPECT_EQ(hit[1], 2);

  hit.clear();  // half-open: [8,16) must not match a query ending at 8
  t.query(0, 8, [&](const check::Access& a) { hit.push_back(a.origin); });
  std::sort(hit.begin(), hit.end());
  ASSERT_EQ(hit.size(), 2u);
  EXPECT_EQ(hit[1], 2);

  hit.clear();
  t.query(16, 32, [&](const check::Access& a) { hit.push_back(a.origin); });
  EXPECT_TRUE(hit.empty());
}

TEST(IntervalTree, CoalesceMergesOnlyIdenticalIdentity) {
  check::IntervalTree t;
  check::Access a = mk(0, 8, 0, 0);
  t.insert(a);

  // Adjacent, same identity (origin/epoch/kind/op/dt/flush gen): merges and
  // keeps the earliest seq.
  check::Access b = mk(8, 16, 0, 5);
  EXPECT_TRUE(t.coalesce(b));
  EXPECT_EQ(t.size(), 1u);
  std::size_t n = 0;
  t.query(0, 64, [&](const check::Access& e) {
    ++n;
    EXPECT_EQ(e.lo, 0u);
    EXPECT_EQ(e.hi, 16u);
    EXPECT_EQ(e.seq, 0u);
  });
  EXPECT_EQ(n, 1u);

  // Different origin: refuses even though the range is adjacent.
  EXPECT_FALSE(t.coalesce(mk(16, 24, 1, 1)));
  // Different epoch: refuses.
  EXPECT_FALSE(t.coalesce(mk(16, 24, 0, 2, check::AccessKind::Put, 1)));
  // Different kind: refuses.
  EXPECT_FALSE(t.coalesce(mk(16, 24, 0, 3, check::AccessKind::Get)));
  // Same identity but a gap in between: refuses.
  EXPECT_FALSE(t.coalesce(mk(20, 24, 0, 4)));
  EXPECT_EQ(t.size(), 1u);

  // Overlapping same-identity widens, recursively absorbing neighbours.
  t.insert(mk(24, 32, 0, 6));
  EXPECT_TRUE(t.coalesce(mk(12, 26, 0, 7)));
  n = 0;
  t.query(0, 64, [&](const check::Access& e) {
    ++n;
    EXPECT_EQ(e.lo, 0u);
    EXPECT_EQ(e.hi, 32u);
  });
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(t.size(), 1u);
}

// The treap's shape is a pure function of the entry set, so traversal order
// (and therefore every query callback sequence) is insertion-order
// independent — the property the invariance contracts lean on.
TEST(IntervalTree, TraversalIsInsertionOrderIndependent) {
  std::vector<check::Access> entries;
  for (int i = 0; i < 40; ++i) {
    const auto lo = static_cast<std::size_t>((i * 13) % 64);
    entries.push_back(mk(lo, lo + 1 + static_cast<std::size_t>(i % 9), i % 5,
                         static_cast<std::uint64_t>(i)));
  }
  auto run = [&](bool reversed) {
    check::IntervalTree t;
    if (reversed) {
      for (auto it = entries.rbegin(); it != entries.rend(); ++it)
        t.insert(*it);
    } else {
      for (const auto& e : entries) t.insert(e);
    }
    std::vector<std::tuple<std::size_t, std::size_t, int, std::uint64_t>> seen;
    t.query(0, 1 << 10, [&](const check::Access& a) {
      seen.emplace_back(a.lo, a.hi, a.origin, a.seq);
    });
    return seen;
  };
  const auto fwd = run(false);
  const auto rev = run(true);
  ASSERT_EQ(fwd.size(), entries.size());
  EXPECT_EQ(fwd, rev);  // identical ORDER, not just identical sets
}

// ---- conflict detection on native runs -------------------------------------

TEST(RaceAnalyzer, PutVsGetOverlapIsFlagged) {
  check::RaceAnalyzer race;
  int win_id = -1;
  mpi::Runtime rt(small_rc(1, 3), [&win_id](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    void* base = nullptr;
    mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
    win_id = win->id();
    env.win_lock_all(0, win);
    double v[2] = {1.0, 2.0};
    if (me == 0) {
      env.put(v, 1, 2, 0, win);    // bytes [0,8) of rank 2
      env.put(v, 1, 2, 16, win);   // bytes [16,24): disjoint from rank 1
    } else if (me == 1) {
      env.get(v, 1, 2, 0, win);    // races the PUT on [0,8)
      env.get(v, 1, 2, 32, win);   // bytes [32,40): disjoint from rank 0
    }
    env.win_unlock_all(win);
    env.barrier(w);
    env.win_free(win);
  });
  rt.add_observer(&race);
  rt.run();

  EXPECT_FALSE(race.clean());
  EXPECT_GE(race.accesses_recorded(), 4u);
  EXPECT_TRUE(race.flags(win_id, 2, 0, 1, 0, 8));
  EXPECT_TRUE(race.flags(win_id, 2, 1, 0, 0, 8));  // origin order irrelevant
  EXPECT_FALSE(race.flags(win_id, 2, 0, 1, 16, 40));  // disjoint ops stay clean
  const auto gs = race.groups();
  ASSERT_EQ(gs.size(), 1u);
  EXPECT_EQ(gs[0].target, 2);
  EXPECT_EQ(gs[0].origin_a, 0);
  EXPECT_EQ(gs[0].origin_b, 1);
  ASSERT_EQ(gs[0].ranges.size(), 1u);
  EXPECT_EQ(gs[0].ranges[0].first, 0u);
  EXPECT_EQ(gs[0].ranges[0].second, 8u);
  EXPECT_EQ(race.conflict_pairs(), 1u);
  EXPECT_EQ(race.conflict_bytes(), 8u);
}

// Overlapping accumulate-class ops on one basic datatype are element-wise
// atomic, hence legal by default; strict_same_op applies the letter of the
// MPI-3 same-op rule and flags mixed ops. Attaching the oracle plus two
// analyzers to ONE runtime is also the observer fan-out regression: every
// observer must see the same op stream.
TEST(RaceAnalyzer, AccVsAccLegalityAndObserverFanOut) {
  check::ShadowOracle oracle;
  check::RaceAnalyzer relaxed;
  check::RaceOptions so;
  so.strict_same_op = true;
  check::RaceAnalyzer strict(so);
  int win_id = -1;
  mpi::Runtime rt(small_rc(1, 3), [&win_id](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    void* base = nullptr;
    mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
    win_id = win->id();
    env.win_lock_all(0, win);
    const double v = 2.0;
    if (me == 0) {
      env.accumulate(&v, 1, 2, 0, mpi::AccOp::Sum, win);
    } else if (me == 1) {
      env.accumulate(&v, 1, 2, 0, mpi::AccOp::Replace, win);
    }
    env.win_unlock_all(win);
    env.barrier(w);
    env.win_free(win);
  });
  rt.add_observer(&oracle);
  rt.add_observer(&relaxed);
  rt.add_observer(&strict);
  rt.run();

  // Fan-out: all three observers rode the same run.
  EXPECT_TRUE(oracle.clean());
  EXPECT_GE(oracle.commits_seen(), 2u);
  EXPECT_EQ(relaxed.accesses_recorded(), strict.accesses_recorded());
  EXPECT_GE(relaxed.accesses_recorded(), 2u);

  // Same basic datatype: legal by default, illegal under strict same-op.
  EXPECT_TRUE(relaxed.clean());
  EXPECT_FALSE(strict.clean());
  EXPECT_TRUE(strict.flags(win_id, 2, 0, 1, 0, 8));
}

TEST(RaceAnalyzer, LocalStoreVsPutConflictsLocalLocalLegal) {
  check::RaceAnalyzer race;
  int win_id = -1;
  mpi::Runtime rt(small_rc(1, 2), [&win_id](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    void* base = nullptr;
    mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
    win_id = win->id();
    env.win_lock_all(0, win);
    const double v = 7.0;
    if (me == 0) {
      env.put(&v, 1, 1, 0, win);  // bytes [0,8) of rank 1
    } else {
      // Program-order store to the exposed segment while the PUT is in
      // flight: the load/store-vs-RMA conflict class.
      env.local_store(&v, 0, 8, win);
      // Two overlapping local accesses are same-origin program order: legal.
      env.local_store(&v, 32, 8, win);
      double r = 0;
      env.local_load(&r, 32, 8, win);
    }
    env.win_unlock_all(win);
    env.barrier(w);
    env.win_free(win);
  });
  rt.add_observer(&race);
  rt.run();

  EXPECT_FALSE(race.clean());
  EXPECT_TRUE(race.flags(win_id, 1, 0, 1, 0, 8));
  ASSERT_EQ(race.groups().size(), 1u);  // the local-local pair stayed clean
  EXPECT_EQ(race.conflict_bytes(), 8u);
}

// ---- per-epoch reset across the four epoch styles ---------------------------
// The same overlapping pair is LEGAL when the two accesses sit in different
// epochs and a CONFLICT when they share one.

namespace {

/// Run `body` on a fresh 3-rank runtime with an analyzer attached; return the
/// analyzer verdict via `race`.
void run3(check::RaceAnalyzer& race,
          const std::function<void(mpi::Env&)>& body) {
  mpi::Runtime rt(small_rc(1, 3), body);
  rt.add_observer(&race);
  rt.run();
}

}  // namespace

TEST(RaceAnalyzer, FenceEpochsResetConflicts) {
  // Different fence rounds: the collective generation numbers differ.
  {
    check::RaceAnalyzer race;
    run3(race, [](mpi::Env& env) {
      mpi::Comm w = env.world();
      const int me = env.rank(w);
      void* base = nullptr;
      mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
      const double v = 1.0;
      env.win_fence(0, win);
      if (me == 0) env.put(&v, 1, 2, 0, win);
      env.win_fence(0, win);
      if (me == 1) env.put(&v, 1, 2, 0, win);
      env.win_fence(0, win);
      env.win_free(win);
    });
    EXPECT_TRUE(race.clean()) << canon(race.groups());
    EXPECT_GE(race.epochs_opened(), 2u);
  }
  // Same fence round: same generation, conflict.
  {
    check::RaceAnalyzer race;
    run3(race, [](mpi::Env& env) {
      mpi::Comm w = env.world();
      const int me = env.rank(w);
      void* base = nullptr;
      mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
      const double v = 1.0;
      env.win_fence(0, win);
      if (me == 0 || me == 1) env.put(&v, 1, 2, 0, win);
      env.win_fence(0, win);
      env.win_free(win);
    });
    EXPECT_FALSE(race.clean());
    EXPECT_EQ(race.conflict_bytes(), 8u);
  }
}

TEST(RaceAnalyzer, PscwEpochsResetConflicts) {
  auto body = [](bool same_round, mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    void* base = nullptr;
    mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
    const double v = 1.0;
    const mpi::Group origins({0, 1});
    const mpi::Group targets({2});
    for (int round = 0; round < 2; ++round) {
      if (me == 2) {
        env.win_post(origins, 0, win);
        env.win_wait(win);
      } else {
        env.win_start(targets, 0, win);
        const bool write = same_round || (round == me);
        if (write) env.put(&v, 1, 2, 0, win);
        env.win_complete(win);
      }
      env.barrier(w);
    }
    env.win_free(win);
  };
  {
    check::RaceAnalyzer race;
    run3(race, [&](mpi::Env& env) { body(false, env); });
    EXPECT_TRUE(race.clean()) << canon(race.groups());
  }
  {
    check::RaceAnalyzer race;
    run3(race, [&](mpi::Env& env) { body(true, env); });
    EXPECT_FALSE(race.clean());
    EXPECT_TRUE(race.flags(/*win_id=*/race.groups()[0].win_id, 2, 0, 1, 0, 8));
  }
}

TEST(RaceAnalyzer, LockEpochsResetConflicts) {
  // Barrier-separated shared-lock epochs never overlap in virtual time.
  {
    check::RaceAnalyzer race;
    run3(race, [](mpi::Env& env) {
      mpi::Comm w = env.world();
      const int me = env.rank(w);
      void* base = nullptr;
      mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
      const double v = 1.0;
      if (me == 0) {
        env.win_lock(mpi::LockType::Shared, 2, 0, win);
        env.put(&v, 1, 2, 0, win);
        env.win_unlock(2, win);
      }
      env.barrier(w);
      env.compute(sim::us(1));
      if (me == 1) {
        env.win_lock(mpi::LockType::Shared, 2, 0, win);
        env.put(&v, 1, 2, 0, win);
        env.win_unlock(2, win);
      }
      env.barrier(w);
      env.win_free(win);
    });
    EXPECT_TRUE(race.clean()) << canon(race.groups());
  }
  // Concurrent shared locks genuinely overlap: conflict.
  {
    check::RaceAnalyzer race;
    run3(race, [](mpi::Env& env) {
      mpi::Comm w = env.world();
      const int me = env.rank(w);
      void* base = nullptr;
      mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
      const double v = 1.0;
      if (me == 0 || me == 1) {
        env.win_lock(mpi::LockType::Shared, 2, 0, win);
        env.put(&v, 1, 2, 0, win);
        env.win_unlock(2, win);
      }
      env.barrier(w);
      env.win_free(win);
    });
    EXPECT_FALSE(race.clean());
    EXPECT_EQ(race.conflict_bytes(), 8u);
  }
  // Concurrent EXCLUSIVE locks are serialized by the target's lock manager —
  // call-time overlap is not a race.
  {
    check::RaceAnalyzer race;
    run3(race, [](mpi::Env& env) {
      mpi::Comm w = env.world();
      const int me = env.rank(w);
      void* base = nullptr;
      mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
      const double v = 1.0;
      if (me == 0 || me == 1) {
        env.win_lock(mpi::LockType::Exclusive, 2, 0, win);
        env.put(&v, 1, 2, 0, win);
        env.win_unlock(2, win);
      }
      env.barrier(w);
      env.win_free(win);
    });
    EXPECT_TRUE(race.clean()) << canon(race.groups());
  }
}

TEST(RaceAnalyzer, LockAllEpochsResetConflicts) {
  // Barrier-separated lock_all epochs: legal.
  {
    check::RaceAnalyzer race;
    run3(race, [](mpi::Env& env) {
      mpi::Comm w = env.world();
      const int me = env.rank(w);
      void* base = nullptr;
      mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
      const double v = 1.0;
      for (int turn = 0; turn < 2; ++turn) {
        if (me == turn) {
          env.win_lock_all(0, win);
          env.put(&v, 1, 2, 0, win);
          env.win_unlock_all(win);
        }
        env.barrier(w);
        env.compute(sim::us(1));
      }
      env.win_free(win);
    });
    EXPECT_TRUE(race.clean()) << canon(race.groups());
  }
  // One shared lock_all epoch: conflict.
  {
    check::RaceAnalyzer race;
    run3(race, [](mpi::Env& env) {
      mpi::Comm w = env.world();
      const int me = env.rank(w);
      void* base = nullptr;
      mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
      const double v = 1.0;
      env.win_lock_all(0, win);
      if (me == 0 || me == 1) env.put(&v, 1, 2, 0, win);
      env.win_unlock_all(win);
      env.barrier(w);
      env.win_free(win);
    });
    EXPECT_FALSE(race.clean());
  }
}

// A flush splits one passive epoch into ordered same-origin generations, but
// does NOT legalize cross-origin overlap.
TEST(RaceAnalyzer, FlushOrdersSameOriginOnly) {
  check::RaceAnalyzer race;
  run3(race, [](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    void* base = nullptr;
    mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
    const double v = 1.0;
    env.win_lock_all(0, win);
    if (me == 0) {
      env.put(&v, 1, 2, 0, win);  // same-origin overlap, split by a flush:
      env.win_flush(2, win);      // ordered, so legal
      env.put(&v, 1, 2, 0, win);
    }
    env.win_unlock_all(win);
    env.barrier(w);
    env.win_free(win);
  });
  EXPECT_TRUE(race.clean()) << canon(race.groups());
  EXPECT_GE(race.accesses_recorded(), 2u);
}

// ---- diagnostics ------------------------------------------------------------

TEST(RaceAnalyzer, DiagnosticsCarryVirtualTimesAndTraceTail) {
  obs::Recorder rec;
  check::RaceAnalyzer race;
  race.set_recorder(&rec);
  mpi::RunConfig rc = small_rc(1, 3);
  rc.recorder = &rec;
  mpi::Runtime rt(rc, [](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    void* base = nullptr;
    mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
    const double v = 1.0;
    env.win_lock_all(0, win);
    if (me == 0) env.put(&v, 1, 2, 0, win);
    if (me == 1) env.get(const_cast<double*>(&v), 1, 2, 0, win);
    env.win_unlock_all(win);
    env.barrier(w);
    env.win_free(win);
  });
  rt.add_observer(&race);
  rt.run();

  ASSERT_FALSE(race.conflicts().empty());
  const check::RaceConflict& c = race.conflicts()[0];
  EXPECT_EQ(c.target, 2);
  EXPECT_EQ(c.lo, 0u);
  EXPECT_EQ(c.hi, 8u);
  // Both sides carry their issue virtual times; detection happens when the
  // later access arrives.
  EXPECT_GT(c.a.acc.t, 0);
  EXPECT_GT(c.b.acc.t, 0);
  EXPECT_EQ(c.t_detect, c.b.acc.t);
  EXPECT_GE(c.b.acc.t, c.a.acc.t);
  // The one-line diagnostic names both access kinds and the byte range.
  EXPECT_NE(c.diag.find("put"), std::string::npos);
  EXPECT_NE(c.diag.find("get"), std::string::npos);
  EXPECT_NE(c.diag.find("[0,8)"), std::string::npos);
  if (obs::kTraceCompiled) {
    EXPECT_FALSE(c.trace_tail.empty());
    EXPECT_LE(c.trace_tail.size(), 32u);
  }
}

// ---- invariance contracts ---------------------------------------------------

// The group view of a racy fuzz case is identical across eight perturbed
// fiber schedules, and every planted race is flagged in each of them.
TEST(RaceAnalyzer, VerdictsAreScheduleInvariant) {
  for (std::uint64_t seed : {11u, 23u, 37u}) {
    const check::FuzzCase fc = check::make_racy_case(seed, true, 2);
    ASSERT_EQ(fc.planted.size(), 2u);
    std::string ref;
    std::uint64_t ref_bytes = 0;
    for (int s = 0; s < 8; ++s) {
      const check::RunOutcome out =
          check::run_case(fc, check::perturb_for(seed, s));
      for (const auto& pr : fc.planted) {
        EXPECT_TRUE(check::planted_flagged(out, pr))
            << "seed " << seed << " schedule " << s;
      }
      const std::string got = canon(out.race_groups);
      if (s == 0) {
        ref = got;
        ref_bytes = out.race_conflict_bytes;
        EXPECT_FALSE(ref.empty());
      } else {
        EXPECT_EQ(got, ref) << "seed " << seed << " schedule " << s;
        EXPECT_EQ(out.race_conflict_bytes, ref_bytes);
      }
    }
  }
}

// The group view and the invariant counters are identical across engine shard
// counts (the analyzer is concurrent_safe and its verdicts are canonical).
TEST(RaceAnalyzer, VerdictsAreShardInvariant) {
  struct Verdict {
    std::string groups;
    std::uint64_t pairs = 0;
    std::uint64_t bytes = 0;
    std::uint64_t accesses = 0;
    std::uint64_t epochs = 0;
  };
  auto run = [](int shards) {
    mpi::RunConfig rc = small_rc(8, 1);
    rc.shards = shards;
    check::RaceAnalyzer race;
    mpi::Runtime rt(rc, [](mpi::Env& env) {
      mpi::Comm w = env.world();
      const int me = env.rank(w);
      const int p = env.size(w);
      void* base = nullptr;
      mpi::Win win = env.win_allocate(256, 1, mpi::Info{}, w, &base);
      env.win_lock_all(0, win);
      const double v = 1.0 * me;
      if (me != 0) {
        // Everyone writes rank 0's first slot: all origin pairs conflict.
        env.put(&v, 1, 0, 0, win);
        // ... and an exclusive 8-byte slot: no extra conflicts.
        env.put(&v, 1, 0, static_cast<std::size_t>(8 * me), win);
      }
      env.put(&v, 1, (me + 1) % p, static_cast<std::size_t>(128), win);
      env.win_unlock_all(win);
      env.barrier(w);
      env.win_free(win);
    });
    rt.add_observer(&race);
    rt.run();
    Verdict out;
    out.groups = canon(race.groups());
    out.pairs = race.conflict_pairs();
    out.bytes = race.conflict_bytes();
    out.accesses = race.accesses_recorded();
    out.epochs = race.epochs_opened();
    return out;
  };
  const Verdict ref = run(1);
  EXPECT_EQ(ref.pairs, 21u);  // C(7,2) pairs of writers into slot 0
  EXPECT_EQ(ref.bytes, 21u * 8u);
  EXPECT_EQ(ref.epochs, 8u);
  EXPECT_FALSE(ref.groups.empty());
  for (int shards : {2, 4, 8}) {
    const Verdict got = run(shards);
    EXPECT_EQ(got.groups, ref.groups) << "shards=" << shards;
    EXPECT_EQ(got.pairs, ref.pairs) << "shards=" << shards;
    EXPECT_EQ(got.bytes, ref.bytes) << "shards=" << shards;
    EXPECT_EQ(got.accesses, ref.accesses) << "shards=" << shards;
    EXPECT_EQ(got.epochs, ref.epochs) << "shards=" << shards;
  }
}

// reset() really drops everything: the same analyzer object reused across two
// runs reports only the second run's verdicts.
TEST(RaceAnalyzer, ResetClearsAllState) {
  check::RaceAnalyzer race;
  auto racy_run = [&race]() {
    run3(race, [](mpi::Env& env) {
      mpi::Comm w = env.world();
      const int me = env.rank(w);
      void* base = nullptr;
      mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
      const double v = 1.0;
      env.win_lock_all(0, win);
      if (me == 0 || me == 1) env.put(&v, 1, 2, 0, win);
      env.win_unlock_all(win);
      env.barrier(w);
      env.win_free(win);
    });
  };
  racy_run();
  ASSERT_FALSE(race.clean());
  race.reset();
  EXPECT_TRUE(race.clean());
  EXPECT_EQ(race.accesses_recorded(), 0u);
  EXPECT_TRUE(race.groups().empty());
  racy_run();
  EXPECT_FALSE(race.clean());
  EXPECT_EQ(race.conflict_pairs(), 1u);
}
