// Tests for minimpi RMA: windows, epochs, put/get/accumulate semantics,
// delayed lock acquisition, software vs hardware paths, progress behaviour.
//
// Under ASan (scripts/check.sh): every commit path stages through the same
// pooled read/write-phase scratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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

RunConfig cfg(int nodes, int cpn,
              net::Profile prof = net::cray_xc30_regular()) {
  RunConfig c;
  c.machine.profile = std::move(prof);
  c.machine.topo.nodes = nodes;
  c.machine.topo.cores_per_node = cpn;
  return c;
}

TEST(MpiWin, AllocateExposesZeroedMemory) {
  mpi::exec(cfg(1, 2), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win = env.win_allocate(64, 1, Info{}, w, &base);
    ASSERT_NE(base, nullptr);
    auto* d = static_cast<const std::byte*>(base);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(d[i], std::byte{0});
    env.win_free(win);
  });
}

TEST(MpiWin, AllocateSharedMapsNodeMemory) {
  mpi::exec(cfg(2, 2), [](mpi::Env& env) {
    Comm w = env.world();
    Comm node = env.comm_split_shared(w);
    void* base = nullptr;
    Win win = env.win_allocate_shared(32, 1, Info{}, node, &base);
    // Local peer's segment is directly addressable.
    auto seg0 = env.win_shared_query(win, 0);
    auto seg1 = env.win_shared_query(win, 1);
    ASSERT_NE(seg0.base, nullptr);
    ASSERT_NE(seg1.base, nullptr);
    if (env.rank(node) == 0) {
      *reinterpret_cast<double*>(seg1.base) = 7.5;  // write peer's memory
    }
    env.barrier(node);
    if (env.rank(node) == 1) {
      EXPECT_EQ(*reinterpret_cast<double*>(base), 7.5);
    }
    env.win_free(win);
  });
}

TEST(MpiRma, FencePutGet) {
  mpi::exec(cfg(2, 1), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win = env.win_allocate(8 * sizeof(double), sizeof(double), Info{}, w,
                               &base);
    env.win_fence(mpi::kModeNoPrecede, win);
    if (env.rank(w) == 0) {
      std::vector<double> v = {1, 2, 3, 4};
      env.put(v.data(), 4, 1, 0, win);
    }
    env.win_fence(0, win);
    if (env.rank(w) == 1) {
      auto* d = static_cast<double*>(base);
      EXPECT_EQ(d[0], 1);
      EXPECT_EQ(d[3], 4);
    }
    // read back through get
    if (env.rank(w) == 1) {
      std::vector<double> r(4, 0);
      env.get(r.data(), 4, 1, 0, win);
      env.win_fence(mpi::kModeNoSucceed, win);
      EXPECT_EQ(r[1], 2);
    } else {
      env.win_fence(mpi::kModeNoSucceed, win);
    }
    env.win_free(win);
  });
}

TEST(MpiRma, AccumulateSumsAtTarget) {
  mpi::exec(cfg(1, 4), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.win_fence(mpi::kModeNoPrecede, win);
    double one = 1.0;
    env.accumulate(&one, 1, 0, 0, AccOp::Sum, win);
    env.win_fence(mpi::kModeNoSucceed, win);
    if (env.rank(w) == 0) {
      EXPECT_EQ(*static_cast<double*>(base), 4.0);  // all four ranks added 1
    }
    env.win_free(win);
  });
}

TEST(MpiRma, LockPutUnlock) {
  mpi::exec(cfg(2, 1), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    if (env.rank(w) == 0) {
      double v = 11.0;
      env.win_lock(LockType::Exclusive, 1, 0, win);
      env.put(&v, 1, 1, 0, win);
      env.win_unlock(1, win);
      int done = 1;
      env.send(&done, 1, Dt::Int, 1, 0, w);
    } else {
      int done = 0;
      env.recv(&done, 1, Dt::Int, 0, 0, w);
      EXPECT_EQ(*static_cast<double*>(base), 11.0);
    }
    env.win_free(win);
  });
}

TEST(MpiRma, SoftwareOpWaitsForTargetProgress) {
  // Accumulate needs target software on the regular Cray profile. The target
  // computes for 200us before its next MPI call, so the origin's unlock
  // cannot complete earlier.
  mpi::exec(cfg(2, 1), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    if (env.rank(w) == 0) {
      double v = 1.0;
      env.win_lock(LockType::Exclusive, 1, 0, win);
      env.accumulate(&v, 1, 1, 0, AccOp::Sum, win);
      env.win_unlock(1, win);
      EXPECT_GE(env.now(), sim::us(200));
    } else {
      env.compute(sim::us(200));
    }
    env.barrier(w);
    env.win_free(win);
  });
}

TEST(MpiRma, HardwarePutDoesNotWaitForTarget) {
  // On the DMAPP profile contiguous PUT is pure hardware: the origin
  // completes while the target is busy computing.
  mpi::exec(cfg(2, 1, net::cray_xc30_dmapp()), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    if (env.rank(w) == 0) {
      double v = 1.0;
      env.win_lock(LockType::Exclusive, 1, 0, win);
      env.put(&v, 1, 1, 0, win);
      env.win_unlock(1, win);
      EXPECT_LT(env.now(), sim::us(100));  // far below target compute time
    } else {
      env.compute(sim::us(1000));
    }
    env.barrier(w);
    EXPECT_EQ(env.runtime().stats().get("interrupts"), 0u);
    env.win_free(win);
  });
}

TEST(MpiRma, GetAccumulateAndFetchAndOp) {
  mpi::exec(cfg(1, 2), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    if (env.rank(w) == 0) *static_cast<double*>(base) = 10.0;
    env.barrier(w);
    if (env.rank(w) == 1) {
      env.win_lock(LockType::Exclusive, 0, 0, win);
      double add = 5.0, old = -1.0;
      env.fetch_and_op(&add, &old, Dt::Double, 0, 0, AccOp::Sum, win);
      env.win_unlock(0, win);
      EXPECT_EQ(old, 10.0);
    }
    env.barrier(w);
    if (env.rank(w) == 0) {
      EXPECT_EQ(*static_cast<double*>(base), 15.0);
    }
    env.win_free(win);
  });
}

TEST(MpiRma, CompareAndSwap) {
  mpi::exec(cfg(1, 2), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win = env.win_allocate(sizeof(int), sizeof(int), Info{}, w, &base);
    env.barrier(w);
    if (env.rank(w) == 1) {
      env.win_lock(LockType::Exclusive, 0, 0, win);
      int expected = 0, desired = 77, result = -1;
      env.compare_and_swap(&expected, &desired, &result, Dt::Int, 0, 0, win);
      env.win_unlock(0, win);
      EXPECT_EQ(result, 0);  // old value
    }
    env.barrier(w);
    if (env.rank(w) == 0) {
      EXPECT_EQ(*static_cast<int*>(base), 77);
    }
    env.win_free(win);
  });
}

TEST(MpiRma, StridedDatatypeRoundTrip) {
  mpi::exec(cfg(2, 1), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win = env.win_allocate(16 * sizeof(double), sizeof(double), Info{}, w,
                               &base);
    env.win_fence(mpi::kModeNoPrecede, win);
    if (env.rank(w) == 0) {
      // Write 4 doubles to every other slot of target rank 1.
      std::vector<double> v = {1, 2, 3, 4};
      auto vec = mpi::vector_of(Dt::Double, 1, 2);
      env.put(v.data(), 4, mpi::contig(Dt::Double), 1, 0, 4, vec, win);
    }
    env.win_fence(mpi::kModeNoSucceed, win);
    if (env.rank(w) == 1) {
      auto* d = static_cast<double*>(base);
      EXPECT_EQ(d[0], 1);
      EXPECT_EQ(d[2], 2);
      EXPECT_EQ(d[4], 3);
      EXPECT_EQ(d[6], 4);
      EXPECT_EQ(d[1], 0);
    }
    env.win_free(win);
  });
}

TEST(MpiRma, PscwCompletesOps) {
  mpi::exec(cfg(2, 1), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    if (env.rank(w) == 0) {
      env.win_start(mpi::Group({1}), 0, win);
      double v = 3.0;
      env.accumulate(&v, 1, 1, 0, AccOp::Sum, win);
      env.win_complete(win);
    } else {
      env.win_post(mpi::Group({0}), 0, win);
      env.win_wait(win);
      EXPECT_EQ(*static_cast<double*>(base), 3.0);
    }
    env.win_free(win);
  });
}

TEST(MpiRma, LockAllFlushAll) {
  mpi::exec(cfg(2, 2), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(4 * sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    env.win_lock_all(0, win);
    const int me = env.rank(w);
    double v = me + 1.0;
    for (int t = 0; t < 4; ++t) {
      env.accumulate(&v, 1, t, static_cast<std::size_t>(me), AccOp::Sum, win);
    }
    env.win_flush_all(win);
    env.win_unlock_all(win);
    env.barrier(w);
    auto* d = static_cast<double*>(base);
    for (int slot = 0; slot < 4; ++slot) {
      EXPECT_EQ(d[slot], slot + 1.0);  // slot written by origin `slot`
    }
    env.win_free(win);
  });
}

TEST(MpiRma, ExclusiveLocksSerializeConflictingOrigins) {
  // Two origins increment the same location under exclusive locks; the lock
  // manager must serialize the read-modify-writes: result is exactly 2 and
  // no atomicity violation is recorded.
  mpi::exec(cfg(3, 1), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    if (env.rank(w) != 2) {
      double one = 1.0;
      env.win_lock(LockType::Exclusive, 2, 0, win);
      env.accumulate(&one, 1, 2, 0, AccOp::Sum, win);
      env.win_unlock(2, win);
    }
    // The target services the incoming ops while blocked in this barrier.
    env.barrier(w);
    if (env.rank(w) == 2) {
      EXPECT_EQ(*static_cast<double*>(base), 2.0);
    }
    EXPECT_EQ(env.runtime().stats().get("atomicity_violations"), 0u);
    env.win_free(win);
  });
}

TEST(MpiRma, SelfOpsExecuteImmediately) {
  mpi::exec(cfg(1, 2), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.win_lock(LockType::Exclusive, env.rank(w), 0, win);
    double v = 42.0;
    env.put(&v, 1, env.rank(w), 0, win);
    EXPECT_EQ(*static_cast<double*>(base), 42.0);  // visible before unlock
    env.win_unlock(env.rank(w), win);
    env.win_free(win);
  });
}

TEST(MpiRma, DelayedLockGrantOrderingNoCorruption) {
  // Many origins lock-acc-unlock the same target while the target is busy;
  // total must be exact once the target makes progress.
  mpi::exec(cfg(1, 8), [](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win =
        env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &base);
    env.barrier(w);
    if (env.rank(w) != 0) {
      double one = 1.0;
      env.win_lock(LockType::Exclusive, 0, 0, win);
      env.accumulate(&one, 1, 0, 0, AccOp::Sum, win);
      env.win_unlock(0, win);
    } else {
      env.compute(sim::us(300));
    }
    env.barrier(w);
    if (env.rank(w) == 0) {
      EXPECT_EQ(*static_cast<double*>(base), 7.0);
    }
    env.win_free(win);
  });
}

// One RMA op means the same thing whoever applies it at the target: the
// target's own poll, a thread or interrupt agent, the NIC, or the origin
// itself (self ops). Each case below owns one 8-double slot of the window;
// every path must leave the same window bytes and fetch the same values as
// the reference table.
enum class Kind { Put, Get, Acc, GetAcc, Fao, CasHit, CasMiss };
struct OpCase {
  Kind kind;
  AccOp op;
  bool strided;  // target is vector_of(Double, 1, 2), else contiguous
};
constexpr std::size_t kSlot = 8;
constexpr double kUnset = -7.0;

std::vector<OpCase> op_cases() {
  std::vector<OpCase> v;
  for (bool strided : {false, true}) {
    v.push_back({Kind::Put, AccOp::Replace, strided});
    v.push_back({Kind::Get, AccOp::Replace, strided});
    for (AccOp op : {AccOp::Sum, AccOp::Min, AccOp::Max, AccOp::Replace,
                     AccOp::NoOp})
      v.push_back({Kind::Acc, op, strided});
    for (AccOp op : {AccOp::Sum, AccOp::Replace, AccOp::NoOp})
      v.push_back({Kind::GetAcc, op, strided});
  }
  v.push_back({Kind::Fao, AccOp::Sum, false});
  v.push_back({Kind::Fao, AccOp::NoOp, false});
  v.push_back({Kind::CasHit, AccOp::Replace, false});
  v.push_back({Kind::CasMiss, AccOp::Replace, false});
  return v;
}

double initial_value(std::size_t i) { return 100.0 + static_cast<double>(i); }

// Origin data of slot s: Min/Max take some elements from each side.
std::array<double, 4> origin_data(std::size_t s) {
  const double d = static_cast<double>(s);
  return {1.5 + d, 500.0 + d, -3.0 + d, 1000.25 + d};
}

struct OpOutcome {
  std::vector<double> window;
  std::vector<double> fetched;  // 4 per case
};

OpOutcome reference_outcome(const std::vector<OpCase>& cases) {
  OpOutcome r;
  for (std::size_t i = 0; i < cases.size() * kSlot; ++i)
    r.window.push_back(initial_value(i));
  r.fetched.assign(cases.size() * 4, kUnset);
  for (std::size_t s = 0; s < cases.size(); ++s) {
    const OpCase& c = cases[s];
    const auto o = origin_data(s);
    const bool single = c.kind == Kind::Fao || c.kind == Kind::CasHit ||
                        c.kind == Kind::CasMiss;
    for (std::size_t i = 0; i < (single ? 1u : 4u); ++i) {
      double& x = r.window[s * kSlot + i * (c.strided ? 2 : 1)];
      double& f = r.fetched[s * 4 + i];
      if (c.kind != Kind::Put && c.kind != Kind::Acc) f = x;
      if (c.kind == Kind::Get || c.kind == Kind::CasMiss) continue;
      switch (c.op) {
        case AccOp::Sum: x += o[i]; break;
        case AccOp::Min: x = std::min(x, o[i]); break;
        case AccOp::Max: x = std::max(x, o[i]); break;
        case AccOp::Replace: x = o[i]; break;
        case AccOp::NoOp: break;
      }
    }
  }
  return r;
}

struct PathRun {
  OpOutcome out;
  std::uint64_t hw_ops = 0;
  std::uint64_t sw_ops = 0;
  std::uint64_t violations = 0;
};

// Rank `origin` issues every case against rank `target` in one lock_all
// epoch; the target waits in a barrier meanwhile.
PathRun run_op_cases(RunConfig c, int origin, int target) {
  const std::vector<OpCase> cases = op_cases();
  const std::size_t n = cases.size() * kSlot;
  PathRun run;
  run.out.fetched.assign(cases.size() * 4, kUnset);
  mpi::Runtime rt(std::move(c), [&](mpi::Env& env) {
    Comm w = env.world();
    void* base = nullptr;
    Win win = env.win_allocate(n * sizeof(double), sizeof(double), Info{}, w,
                               &base);
    auto* mem = static_cast<double*>(base);
    for (std::size_t i = 0; i < n; ++i) mem[i] = initial_value(i);
    env.barrier(w);
    if (env.rank(w) == origin) {
      const auto dd = mpi::contig(Dt::Double);
      env.win_lock_all(0, win);
      for (std::size_t s = 0; s < cases.size(); ++s) {
        const OpCase& k = cases[s];
        const auto tdt = k.strided ? mpi::vector_of(Dt::Double, 1, 2) : dd;
        const auto o = origin_data(s);
        const std::size_t disp = s * kSlot;
        double* f = run.out.fetched.data() + s * 4;
        switch (k.kind) {
          case Kind::Put:
            env.put(o.data(), 4, dd, target, disp, 4, tdt, win);
            break;
          case Kind::Get:
            env.get(f, 4, dd, target, disp, 4, tdt, win);
            break;
          case Kind::Acc:
            env.accumulate(o.data(), 4, dd, target, disp, 4, tdt, k.op, win);
            break;
          case Kind::GetAcc:
            env.get_accumulate(o.data(), 4, dd, f, 4, dd, target, disp, 4, tdt,
                               k.op, win);
            break;
          case Kind::Fao:
            env.fetch_and_op(o.data(), f, Dt::Double, target, disp, k.op,
                             win);
            break;
          case Kind::CasHit:
          case Kind::CasMiss: {
            const double expected =
                k.kind == Kind::CasHit ? initial_value(disp) : -1.0;
            env.compare_and_swap(&expected, o.data(), f, Dt::Double, target,
                                 disp, win);
            break;
          }
        }
      }
      env.win_unlock_all(win);
    }
    env.barrier(w);
    if (env.rank(w) == target) run.out.window.assign(mem, mem + n);
    env.win_free(win);
  });
  rt.run();
  run.hw_ops = rt.stats().get("hw_ops");
  run.sw_ops = rt.stats().get("sw_ops");
  run.violations = rt.stats().get("atomicity_violations");
  return run;
}

RunConfig path_cfg(progress::Kind kind,
                   net::Profile prof = net::cray_xc30_regular()) {
  RunConfig c = cfg(2, 1, std::move(prof));
  c.progress.kind = kind;
  return c;
}

TEST(MpiRma, OpSemanticsMatchOnEveryCommitPath) {
  const OpOutcome want = reference_outcome(op_cases());
  const std::uint64_t nops = op_cases().size();
  struct Path {
    const char* name;
    RunConfig c;
    int origin, target;
    std::uint64_t hw_ops, sw_ops;
  };
  const Path paths[] = {
      {"poller", path_cfg(progress::Kind::None), 0, 1, 0, nops},
      {"thread agent", path_cfg(progress::Kind::Thread), 0, 1, 0, nops},
      {"interrupt agent", path_cfg(progress::Kind::Interrupt), 0, 1, 0, nops},
      // Contiguous PUT and GET run on the NIC; the rest on the poller.
      {"nic", path_cfg(progress::Kind::None, net::cray_xc30_dmapp()), 0, 1,
       2, nops - 2},
      {"self", path_cfg(progress::Kind::None), 0, 0, 0, 0},
  };
  for (const Path& p : paths) {
    SCOPED_TRACE(p.name);
    const PathRun run = run_op_cases(p.c, p.origin, p.target);
    EXPECT_EQ(run.out.window, want.window);
    EXPECT_EQ(run.out.fetched, want.fetched);
    EXPECT_EQ(run.hw_ops, p.hw_ops);
    EXPECT_EQ(run.sw_ops, p.sw_ops);
    EXPECT_EQ(run.violations, 0u);
  }
}

}  // namespace
