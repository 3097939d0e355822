// Sharded-engine tests: shard-count invariance of virtual-time results,
// run-to-run determinism under real worker threads, cross-shard event homing
// (wake_at / homed post_event), the calendar's far-event spill path, and
// per-shard stats merging. The shards=1 row of every sweep runs one shard on
// the calling thread as a single window, so equality across the sweep is
// exactly the cross-shard-count determinism contract from DESIGN.md §12.
//
// Under ASan (scripts/check.sh): the calendar node free list, spill heap
// refills and SlotPool recycling. Under TSan: shard workers, the cross-shard
// outbox hand-off and the window barrier; fiber switches are TSan-annotated
// (src/sim/fiber.cpp), so rank-fiber stacks are tracked correctly.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace {

using namespace casper;
using sim::Engine;
using sim::Time;

// A fig5-style neighbor-exchange at engine level: every rank repeatedly
// sends a "message" (a homed event that bumps the peer's inbox and wakes
// it) to a distant peer — distant so that block-partitioned shards see
// cross-shard traffic — then waits for its own expected deliveries. All
// delays are >= the configured lookahead, as the runtime's network-latency
// floor guarantees in the real stack.
struct ExchangeResult {
  std::vector<Time> final_now;
  // Per rank, commutative over deliveries: the *set* of (time, sender)
  // deliveries is a virtual-time fact and must be shard-count-invariant;
  // their order at equal timestamps is legitimately tie-dependent.
  std::vector<std::uint64_t> delivery_hash;
  std::uint64_t stats_messages = 0;
  Time horizon = 0;

  bool operator==(const ExchangeResult& o) const {
    return final_now == o.final_now && delivery_hash == o.delivery_hash &&
           stats_messages == o.stats_messages && horizon == o.horizon;
  }
};

ExchangeResult run_exchange(int nranks, int shards, int iters) {
  ExchangeResult res;
  res.final_now.assign(static_cast<std::size_t>(nranks), 0);
  res.delivery_hash.assign(static_cast<std::size_t>(nranks), 0);
  std::vector<int> inbox(static_cast<std::size_t>(nranks), 0);

  Engine::Options o;
  o.nranks = nranks;
  o.shards = shards;
  o.lookahead = sim::ns(1000);
  Engine e(o, [&, iters](sim::Context& ctx) {
    const int r = ctx.rank();
    const int n = ctx.size();
    Engine& eng = ctx.engine();
    for (int it = 0; it < iters; ++it) {
      const int peer = (r + n / 2 + it) % n;
      // Delivery strictly after the lookahead horizon, with a deterministic
      // per-(rank, iter) jitter so timestamps collide across shards too.
      const Time dt = sim::ns(1200 + 10 * ((r * 7 + it * 3) % 5));
      const Time at = ctx.now() + dt;
      eng.post_event(at, peer, [&, peer, at, r] {
        inbox[static_cast<std::size_t>(peer)]++;
        res.delivery_hash[static_cast<std::size_t>(peer)] +=
            static_cast<std::uint64_t>(at) * 1000003u +
            static_cast<std::uint64_t>(r) * 2654435761u;
        eng.wake_at(peer, at);
      });
      eng.stats_local().counter("test.messages")++;
      // Wait for this iteration's own delivery.
      while (inbox[static_cast<std::size_t>(r)] <= it) eng.block_self();
      ctx.advance(sim::ns(50 + (r % 3)));
    }
    res.final_now[static_cast<std::size_t>(r)] = ctx.now();
  });
  e.run();
  res.stats_messages = e.stats().get("test.messages");
  res.horizon = e.horizon();
  return res;
}

TEST(SimEngineSharded, ShardCountInvariantExchange) {
  const ExchangeResult base = run_exchange(32, 1, 12);
  EXPECT_EQ(base.stats_messages, 32u * 12u);
  for (int shards : {2, 4, 8}) {
    const ExchangeResult r = run_exchange(32, shards, 12);
    EXPECT_EQ(base, r) << "shards=" << shards
                       << " diverged from the single-shard result";
  }
}

TEST(SimEngineSharded, RunToRunDeterministicWithWorkerThreads) {
  const ExchangeResult a = run_exchange(24, 4, 10);
  const ExchangeResult b = run_exchange(24, 4, 10);
  EXPECT_EQ(a, b);
}

TEST(SimEngineSharded, ShardsClampedToRanks) {
  // More shards than ranks degrades to one rank per shard, not an abort.
  const ExchangeResult a = run_exchange(4, 1, 6);
  const ExchangeResult b = run_exchange(4, 8, 6);
  EXPECT_EQ(a, b);
}

TEST(SimEngineSharded, HomedPostAndWakeAtCrossShard) {
  // Rank 0 (shard 0) arms a delivery for the last rank (last shard); the
  // receiver must observe it at exactly the posted virtual time.
  Time delivered_at = 0;
  Time woke_at = 0;
  Engine::Options o;
  o.nranks = 16;
  o.shards = 4;
  o.lookahead = sim::ns(500);
  bool flag = false;
  Engine e(o, [&](sim::Context& ctx) {
    if (ctx.rank() == 0) {
      const Time at = sim::ns(2000);
      ctx.engine().post_event(at, 15, [&, at] {
        delivered_at = at;
        flag = true;
        ctx.engine().wake_at(15, at);
      });
    } else if (ctx.rank() == 15) {
      while (!flag) ctx.engine().block_self();
      woke_at = ctx.now();
    }
  });
  e.run();
  EXPECT_EQ(delivered_at, sim::ns(2000));
  EXPECT_EQ(woke_at, sim::ns(2000));
}

// (shards, perturb_seed) rows for the calendar edge-case tests.
constexpr std::pair<int, std::uint64_t> kRows[] = {{1, 0}, {2, 0}, {1, 7}};

TEST(SimEngineSharded, FarEventsBeyondCalendarSpanExecuteInOrder) {
  // Mix near (in the 4096 ns calendar span) and far (spill heap, several
  // rebase-jumps apart) events on one shard and verify execution order.
  for (const auto& [shards, perturb] : kRows) {
    std::vector<Time> seen;
    Engine::Options o;
    o.nranks = 2;
    o.shards = shards;
    o.perturb_seed = perturb;
    o.lookahead = sim::ns(100);
    Engine e(o, [&](sim::Context& ctx) {
      if (ctx.rank() != 0) return;
      Engine& eng = ctx.engine();
      for (Time t : {sim::ms(20), sim::ns(200), sim::ms(5), sim::ns(4000),
                     sim::us(500), sim::ns(150)}) {
        eng.post_event(t, 0, [&seen, t] { seen.push_back(t); });
      }
      ctx.advance(sim::ms(25));
    });
    e.run();
    const std::vector<Time> want = {sim::ns(150),  sim::ns(200),
                                    sim::ns(4000), sim::us(500),
                                    sim::ms(5),    sim::ms(20)};
    EXPECT_EQ(seen, want) << "shards=" << shards << " perturb=" << perturb;
    EXPECT_EQ(e.horizon(), sim::ms(25));
  }
}

TEST(SimEngineSharded, OverdueLocalPostAfterBaseAdvance) {
  // A rank whose virtual clock lags the shard's event frontier gets woken,
  // then posts a short-delay local event *below* the calendar base. Such
  // "overdue" events must still execute (they pop from the spill heap); a
  // base-relative calendar would strand them and deadlock. Exercised for
  // the single-shard calendar (also perturbed) and a sharded run.
  for (const auto& [shards, perturb] : kRows) {
    Time hit_at = 0;
    bool woken = false;
    bool hit = false;
    Engine::Options o;
    o.nranks = 4;  // shards=2: ranks {0,1} on shard 0
    o.shards = shards;
    o.perturb_seed = perturb;
    o.lookahead = sim::us(1);
    Engine e(o, [&](sim::Context& ctx) {
      Engine& eng = ctx.engine();
      if (ctx.rank() == 0) {
        // Arm the far-future waker, then move well past it so the event
        // frontier (and with it the calendar base) advances to ns(5000).
        eng.post_event(sim::ns(5000), 0, [&] {
          woken = true;
          eng.wake(1, sim::ns(15));  // below rank 1's own clock? no: above
        });
        ctx.advance(sim::ns(6000));
      } else if (ctx.rank() == 1) {
        ctx.advance(sim::ns(10));
        while (!woken) eng.block_self();
        // Resumed at our lagging clock (ns(15)), far below base ~ ns(5000).
        EXPECT_EQ(ctx.now(), sim::ns(15));
        const Time at = ctx.now() + sim::ns(10);
        eng.post_event(at, 1, [&, at] {
          hit = true;
          eng.wake_at(1, at);
        });
        while (!hit) eng.block_self();
        hit_at = ctx.now();
      }
    });
    e.run();
    EXPECT_TRUE(hit) << "shards=" << shards << " perturb=" << perturb;
    EXPECT_EQ(hit_at, sim::ns(25)) << "shards=" << shards
                                   << " perturb=" << perturb;
  }
}

TEST(SimEngineSharded, PerShardStatsMergeIntoEngineTotals) {
  for (int shards : {1, 4}) {
    Engine::Options o;
    o.nranks = 16;
    o.shards = shards;
    Engine e(o, [](sim::Context& ctx) {
      for (int i = 0; i <= ctx.rank(); ++i) {
        ctx.engine().stats_local().counter("test.work")++;
      }
    });
    e.run();
    // sum 1..16
    EXPECT_EQ(e.stats().get("test.work"), 136u) << "shards=" << shards;
  }
}

TEST(SimEngineSharded, ClampLookaheadOnlyShrinks) {
  Engine::Options o;
  o.nranks = 4;
  o.shards = 2;
  o.lookahead = sim::us(2);
  Engine e(o, [](sim::Context&) {});
  EXPECT_EQ(e.lookahead(), sim::us(2));
  e.clamp_lookahead(sim::us(3));  // larger: no-op
  EXPECT_EQ(e.lookahead(), sim::us(2));
  e.clamp_lookahead(sim::ns(700));
  EXPECT_EQ(e.lookahead(), sim::ns(700));
  e.run();
}

}  // namespace
