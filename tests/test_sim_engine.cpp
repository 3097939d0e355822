// Unit tests for the discrete-event engine: determinism, ordering, virtual
// time, compute penalties, and events.
//
// Under ASan (scripts/check.sh): the one scheduler loop for every shard
// count and perturb seed -- calendar node free list, spill heap refills and
// SlotPool recycling.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace {

using namespace casper;
using sim::Engine;
using sim::Time;

Engine::Options opts(int n) {
  Engine::Options o;
  o.nranks = n;
  return o;
}

TEST(SimEngine, SingleRankAdvancesClock) {
  Time final_t = 0;
  Engine e(opts(1), [&](sim::Context& ctx) {
    EXPECT_EQ(ctx.now(), 0u);
    ctx.advance(sim::us(5));
    EXPECT_EQ(ctx.now(), sim::us(5));
    ctx.compute(sim::us(10));
    final_t = ctx.now();
  });
  e.run();
  EXPECT_EQ(final_t, sim::us(15));
  EXPECT_EQ(e.horizon(), sim::us(15));
}

TEST(SimEngine, RanksInterleaveByVirtualTime) {
  // Rank 0 takes small steps, rank 1 one large step; the recorded global
  // order must follow virtual time, not creation order.
  std::vector<std::pair<int, Time>> order;
  Engine e(opts(2), [&](sim::Context& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 3; ++i) {
        ctx.advance(sim::us(10));
        order.emplace_back(0, ctx.now());
      }
    } else {
      ctx.advance(sim::us(25));
      order.emplace_back(1, ctx.now());
    }
  });
  e.run();
  ASSERT_EQ(order.size(), 4u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(order[i].second, order[i - 1].second);
  }
  // rank 1 at t=25 lands between rank 0's t=20 and t=30 steps
  EXPECT_EQ(order[2].first, 1);
}

TEST(SimEngine, EventsRunAtTheirTimestamp) {
  std::vector<Time> fired;
  Engine* ep = nullptr;
  Engine e(opts(1), [&](sim::Context& ctx) {
    ep->post_event(sim::us(7), [&] { fired.push_back(sim::us(7)); });
    ep->post_event(sim::us(3), [&] { fired.push_back(sim::us(3)); });
    ctx.advance(sim::us(10));
  });
  ep = &e;
  e.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], sim::us(3));
  EXPECT_EQ(fired[1], sim::us(7));
}

TEST(SimEngine, BlockAndWake) {
  Engine* ep = nullptr;
  Time woke_at = 0;
  Engine e(opts(2), [&](sim::Context& ctx) {
    if (ctx.rank() == 0) {
      ep->block_self();
      woke_at = ctx.now();
    } else {
      ctx.advance(sim::us(42));
      ep->wake(0, ctx.now());
    }
  });
  ep = &e;
  e.run();
  EXPECT_EQ(woke_at, sim::us(42));
}

TEST(SimEngine, ComputePenaltyExtendsComputation) {
  // An "interrupt" at t=10us steals 5us from a 100us computation.
  Engine* ep = nullptr;
  Time end_t = 0;
  Engine e(opts(1), [&](sim::Context& ctx) {
    ep->post_event(sim::us(10), [&] {
      EXPECT_TRUE(ep->rank_computing(0));
      ep->add_compute_penalty(0, sim::us(5));
    });
    ctx.compute(sim::us(100));
    end_t = ctx.now();
  });
  ep = &e;
  e.run();
  EXPECT_EQ(end_t, sim::us(105));
}

TEST(SimEngine, ComputeScaleModelsOversubscription) {
  Engine* ep = nullptr;
  Time end_t = 0;
  Engine e(opts(1), [&](sim::Context& ctx) {
    ep->set_compute_scale(0, 2.0);
    ctx.compute(sim::us(50));
    end_t = ctx.now();
  });
  ep = &e;
  e.run();
  EXPECT_EQ(end_t, sim::us(100));
}

TEST(SimEngine, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    std::vector<std::uint64_t> trace;
    Engine::Options o;
    o.nranks = 4;
    o.seed = seed;
    Engine e(o, [&](sim::Context& ctx) {
      for (int i = 0; i < 10; ++i) {
        ctx.advance(sim::ns(ctx.rng().next_below(1000) + 1));
        trace.push_back((static_cast<std::uint64_t>(ctx.rank()) << 48) ^
                        ctx.now());
      }
    });
    e.run();
    return trace;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(SimEngine, ManyRanksSmallStacks) {
  Engine::Options o;
  o.nranks = 512;
  o.stack_bytes = 64 * 1024;
  int done = 0;
  Engine e(o, [&](sim::Context& ctx) {
    ctx.advance(sim::ns(static_cast<std::uint64_t>(ctx.rank()) + 1));
    ++done;
  });
  e.run();
  EXPECT_EQ(done, 512);
}

TEST(SimEngine, DestroyWithoutRunDoesNotHang) {
  // Regression: the pthread engine joined rank threads in ~Engine; an engine
  // whose ranks never ran (or never finished) could hang on a token that was
  // never handed over. Fiber stacks are reclaimed deterministically instead.
  for (int n : {1, 8, 64}) {
    Engine e(opts(n), [](sim::Context&) { FAIL() << "must never run"; });
    // destroyed here without run()
  }
  SUCCEED();
}

// A seeded multi-rank workload exercising every scheduler edge: random
// advances, compute with penalties, block/wake pairs, same-time events, and
// stats counters. Returns a full observable snapshot of the run.
struct RunSnapshot {
  Time horizon = 0;
  std::vector<Time> clocks;
  std::map<std::string, std::uint64_t> stats;
  std::vector<std::uint64_t> trace;
  bool operator==(const RunSnapshot&) const = default;
};

RunSnapshot run_mixed_workload(std::uint64_t seed, std::size_t stack_bytes) {
  RunSnapshot snap;
  Engine::Options o;
  o.nranks = 8;
  o.seed = seed;
  o.stack_bytes = stack_bytes;
  Engine e(o, [&](sim::Context& ctx) {
    Engine& eng = ctx.engine();
    const int me = ctx.rank();
    for (int i = 0; i < 50; ++i) {
      ctx.advance(sim::ns(ctx.rng().next_below(500) + 1));
      eng.stats().counter("advances") += 1;
      if (i % 7 == me % 7) {
        // Post an event at our own current time: it must run before we
        // resume (events precede ranks at equal timestamps).
        eng.post_event(ctx.now(), [&eng] { eng.stats().counter("events") += 1; });
        ctx.yield();
      }
      if (i % 11 == 3 && me + 1 < ctx.size()) {
        eng.wake(me + 1, ctx.now());
      }
      if (i % 13 == 5) {
        eng.post_event(ctx.now() + sim::ns(10),
                       [&eng, me] { eng.wake(me, 0); });
        eng.block_self();
      }
      ctx.compute(sim::ns(ctx.rng().next_below(200)));
      snap.trace.push_back((static_cast<std::uint64_t>(me) << 48) ^ ctx.now());
    }
  });
  e.run();
  snap.horizon = e.horizon();
  for (int r = 0; r < e.nranks(); ++r) snap.clocks.push_back(e.rank_now(r));
  snap.stats = e.stats().all();
  return snap;
}

TEST(SimEngine, DeterministicAcrossRunsAndStackSizes) {
  // The guard that the fiber rewrite preserved scheduling order: identical
  // horizon, per-rank clocks, stats counters, and full execution trace
  // across repeated runs and across different fiber stack sizes.
  const auto a = run_mixed_workload(42, 64 * 1024);
  const auto b = run_mixed_workload(42, 64 * 1024);
  const auto c = run_mixed_workload(42, 512 * 1024);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  const auto d = run_mixed_workload(43, 64 * 1024);
  EXPECT_NE(a.trace, d.trace);
}

// Perturbed schedules at engine level: ranks posting events at shared
// timestamps, events beyond the 4096 ns calendar span, self-wakes at those
// timestamps, and an overdue post from a rank woken below the event
// frontier. Returns an FNV-1a hash of the scheduling trace, the event firing
// order and the final rank clocks.
std::uint64_t perturbed_schedule_hash(std::uint64_t perturb_seed) {
  std::vector<Engine::SchedRecord> trace;
  std::vector<std::uint64_t> fired;
  bool woken = false;
  bool hit = false;
  Engine::Options o;
  o.nranks = 6;
  o.perturb_seed = perturb_seed;
  Engine e(o, [&](sim::Context& ctx) {
    Engine& eng = ctx.engine();
    const int me = ctx.rank();
    if (me == 5) {
      // The lagging rank: woken at ns(15) by an event at ns(5000), it posts
      // ten nanoseconds later, far below the event frontier.
      ctx.advance(sim::ns(10));
      while (!woken) eng.block_self();
      const Time at = ctx.now() + sim::ns(10);
      eng.post_event(at, [&, at] {
        fired.push_back(999);
        hit = true;
        eng.wake(5, at);
      });
      while (!hit) eng.block_self();
      return;
    }
    if (me == 4) {
      eng.post_event(sim::ns(5000), [&] {
        woken = true;
        eng.wake(5, sim::ns(15));
      });
    }
    for (int i = 0; i < 12; ++i) {
      const auto id = static_cast<std::uint64_t>(me * 100 + i);
      // The next 100 ns grid point: every rank posts onto the same stamps.
      const Time grid = (ctx.now() / 100 + 1) * 100;
      eng.post_event(grid, [&fired, id] { fired.push_back(id); });
      if (i % 3 == me % 3) {
        eng.post_event(ctx.now() + sim::us(6),
                       [&fired, id] { fired.push_back(10000 + id); });
      }
      if (i % 4 == 1) {
        eng.post_event(grid, [&eng, me, grid] { eng.wake(me, grid); });
        eng.block_self();
      }
      ctx.advance(sim::ns(40 + ctx.rng().next_below(60)));
    }
  });
  e.set_schedule_trace(&trace);
  e.run();
  EXPECT_TRUE(hit);
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& r : trace) {
    mix(r.t);
    mix(static_cast<std::uint64_t>(r.rank + 1));
  }
  for (std::uint64_t id : fired) mix(id);
  for (int r = 0; r < e.nranks(); ++r) mix(e.rank_now(r));
  return h;
}

TEST(SimEngine, PerturbedScheduleIsPinned) {
  // Pinned constants: every perturbed schedule is a bit-reproducible
  // function of perturb_seed, so a scheduler rewrite that moves any salt
  // draw, tie-break or spill/overdue decision changes these hashes.
  const std::uint64_t h1 = perturbed_schedule_hash(1);
  const std::uint64_t h2 = perturbed_schedule_hash(2);
  const std::uint64_t h3 = perturbed_schedule_hash(3);
  EXPECT_EQ(h1, 0x052cae0eaa35d190ull);
  EXPECT_EQ(h2, 0x22dadaf5be94e4c7ull);
  EXPECT_EQ(h3, 0x5f1688561b92529eull);
  EXPECT_EQ(h1, perturbed_schedule_hash(1));
  EXPECT_NE(h1, perturbed_schedule_hash(0));
  EXPECT_NE(h1, h2);
  EXPECT_NE(h2, h3);
}

TEST(SimEngine, RngStreamsAreDecorrelated) {
  sim::Rng a(1, 0), b(1, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

}  // namespace
