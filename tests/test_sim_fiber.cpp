// Unit tests for the stackful-fiber primitive underneath the engine:
// switching, argument passing, stack reclamation, the slab stack pool, and
// the overflow checks (red zone at switch-out, canary on return and reuse).
//
// Under ASan and TSan: the switch annotations around every switch, and the
// planted overflows with the sanitizers' own switch hooks running on the
// departing stack. Under TSan the map-limit test skips: TSan tracks each
// fiber as a thread and allows 8128.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/fiber.hpp"

namespace {

using casper::sim::Fiber;
using casper::sim::StackPool;

struct PingPong {
  Fiber main;  // adopted
  std::unique_ptr<Fiber> worker;
  std::vector<int> log;
};

void pingpong_entry(void* arg) {
  auto& pp = *static_cast<PingPong*>(arg);
  pp.log.push_back(1);
  Fiber::switch_to(*pp.worker, pp.main);
  pp.log.push_back(3);
  Fiber::switch_to(*pp.worker, pp.main, /*from_exiting=*/true);
}

TEST(Fiber, SwitchRoundTripPreservesOrderAndLocals) {
  StackPool pool(64 * 1024);
  PingPong pp;
  pp.worker = std::make_unique<Fiber>(&pingpong_entry, &pp, pool);
  pp.log.push_back(0);
  Fiber::switch_to(pp.main, *pp.worker);  // runs until first switch back
  pp.log.push_back(2);
  Fiber::switch_to(pp.main, *pp.worker);  // runs to exit
  pp.log.push_back(4);
  EXPECT_EQ(pp.log, (std::vector<int>{0, 1, 2, 3, 4}));
}

struct Counter {
  Fiber main;
  std::unique_ptr<Fiber> worker;
  int n = 0;
  int target = 0;
};

void counter_entry(void* arg) {
  auto& c = *static_cast<Counter*>(arg);
  while (c.n < c.target) {
    ++c.n;
    const bool last = c.n == c.target;
    Fiber::switch_to(*c.worker, c.main, last);
  }
}

TEST(Fiber, ManySwitchesOnSmallStack) {
  StackPool pool(32 * 1024);
  Counter c;
  c.target = 100000;
  c.worker = std::make_unique<Fiber>(&counter_entry, &c, pool);
  for (int i = 0; i < c.target; ++i) Fiber::switch_to(c.main, *c.worker);
  EXPECT_EQ(c.n, c.target);
}

TEST(Fiber, SuspendedFiberCanBeDestroyed) {
  // A fiber abandoned mid-execution must be reclaimable without a hang —
  // the regression the pthread engine could not guarantee.
  StackPool pool(32 * 1024);
  Counter c;
  c.target = 1000;
  c.worker = std::make_unique<Fiber>(&counter_entry, &c, pool);
  Fiber::switch_to(c.main, *c.worker);  // worker now suspended at n == 1
  EXPECT_EQ(c.n, 1);
  c.worker.reset();  // its stack goes back to the pool; nothing to wait for
}

TEST(Fiber, NeverStartedFiberCanBeDestroyed) {
  StackPool pool(32 * 1024);
  Counter c;
  c.target = 1;
  c.worker = std::make_unique<Fiber>(&counter_entry, &c, pool);
  c.worker.reset();
  EXPECT_EQ(c.n, 0);
}

TEST(StackPool, StacksAreDisjointAlignedAndReused) {
  StackPool pool(Fiber::kMinStackBytes + 1);  // rounds up to whole pages
  const std::size_t bytes = pool.stack_bytes();
  EXPECT_EQ(bytes % 4096, 0u);
  EXPECT_GT(bytes, Fiber::kMinStackBytes);
  std::vector<char*> los;
  for (int i = 0; i < 200; ++i) los.push_back(pool.take());  // > one slab
  EXPECT_GT(pool.slabs(), 1u);
  std::vector<char*> sorted = los;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const auto lo = reinterpret_cast<std::uintptr_t>(sorted[i]);
    EXPECT_EQ(lo % 16, 0u);
    EXPECT_EQ((lo + bytes) % 16, 0u);
    if (i + 1 < sorted.size()) {
      EXPECT_LE(lo + bytes, reinterpret_cast<std::uintptr_t>(sorted[i + 1]));
    }
  }
  // A returned stack is the next one handed out.
  pool.put(los[17], 17);
  EXPECT_EQ(pool.take(), los[17]);
  for (char* lo : los) pool.put(lo, 0);

  // Through fibers: a finished fiber's stack serves the next fiber.
  Counter c;
  c.target = 1;
  c.worker = std::make_unique<Fiber>(&counter_entry, &c, pool);
  char* first = c.worker->stack_lo();
  EXPECT_EQ(c.worker->stack_bytes(), bytes);
  Fiber::switch_to(c.main, *c.worker);  // runs to exit
  EXPECT_EQ(c.n, 1);
  c.worker.reset();
  c.worker = std::make_unique<Fiber>(&counter_entry, &c, pool);
  EXPECT_EQ(c.worker->stack_lo(), first);
  c.worker.reset();
  const std::size_t slabs = pool.slabs();
  std::vector<std::unique_ptr<Fiber>> more;
  for (int i = 0; i < 8; ++i) {
    more.push_back(std::make_unique<Fiber>(&counter_entry, &c, pool));
  }
  EXPECT_EQ(pool.slabs(), slabs);  // all from returned stacks
}

std::size_t count_maps() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

struct Tally {
  Fiber main;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::size_t running = 0;  // index of the fiber switched to
  std::size_t ran = 0;
};

void tally_entry(void* arg) {
  auto& t = *static_cast<Tally*>(arg);
  ++t.ran;
  Fiber::switch_to(*t.fibers[t.running], t.main, /*from_exiting=*/true);
}

TEST(Fiber, MoreLiveFibersThanHalfTheMapLimit) {
  // With a kernel mapping per stack plus one per guard page, this many live
  // fibers hit vm.max_map_count. Slab stacks add a handful of mappings.
#if CASPER_TSAN_FIBERS
  GTEST_SKIP() << "ThreadSanitizer counts each fiber as a thread, max 8128";
#endif
  std::ifstream f("/proc/sys/vm/max_map_count");
  std::size_t limit = 0;
  if (!(f >> limit) || limit == 0) GTEST_SKIP() << "max_map_count unreadable";
  if (limit > (1u << 20)) GTEST_SKIP() << "max_map_count " << limit;
  const std::size_t n = limit / 2 + 1;
  StackPool pool(Fiber::kMinStackBytes);
  Tally t;
  const std::size_t maps_before = count_maps();
  t.fibers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.fibers.push_back(std::make_unique<Fiber>(&tally_entry, &t, pool,
                                               static_cast<int>(i)));
  }
  const std::size_t maps_after = count_maps();
  // The slabs, plus what the allocator maps for the Fiber objects (more
  // under ASan). One mapping per stack would be n.
  EXPECT_LT(maps_after, maps_before + 256) << n << " live fibers";
  EXPECT_LT(pool.slabs(), 16u);
  for (t.running = 0; t.running < n; ++t.running) {
    Fiber::switch_to(t.main, *t.fibers[t.running]);
  }
  EXPECT_EQ(t.ran, n);
}

// Overflow checks. Each planted overflow must abort naming the fiber's id.
struct Overflow {
  Fiber main;
  std::unique_ptr<Fiber> worker;
};

// The stack pointer itself. Under ASan a frame's locals (and what
// __builtin_frame_address reports) need not be on the fiber's stack.
__attribute__((always_inline)) inline const char* stack_pointer() {
#if defined(__x86_64__)
  const char* sp;
  asm volatile("movq %%rsp, %0" : "=r"(sp));
  return sp;
#else
  return static_cast<const char*>(__builtin_frame_address(0));
#endif
}

// Recurses until the stack pointer lies below `floor`, then switches away
// from there. The write after the call keeps the recursion from becoming a
// loop.
void descend_then_switch(Overflow& o, const char* floor) {
  volatile char pad[64];
  pad[0] = 1;
  if (stack_pointer() >= floor) {
    descend_then_switch(o, floor);
  } else {
    Fiber::switch_to(*o.worker, o.main);
  }
  pad[1] = pad[0];
}

void red_zone_entry(void* arg) {
  auto& o = *static_cast<Overflow*>(arg);
  descend_then_switch(o, o.worker->stack_lo() + Fiber::kRedZoneBytes / 2);
  Fiber::switch_to(*o.worker, o.main, true);
}

TEST(FiberDeath, StackOverflowAbortsNamingRank) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        // The sanitizers' switch hooks run on the departing stack, below
        // the planted stack pointer. Out of the pool's first slot, whose
        // spare page is the slab's guard, they land in unused stack.
        StackPool pool(32 * 1024);
        pool.take();
        Overflow o;
        o.worker = std::make_unique<Fiber>(&red_zone_entry, &o, pool, 7);
        Fiber::switch_to(o.main, *o.worker);
      },
      "stack overflow on rank 7: it switched away");
}

void canary_entry(void* arg) {
  auto& o = *static_cast<Overflow*>(arg);
  // What an excursion past the stack's low end leaves behind after it has
  // unwound: the sp check at switch-out cannot see it.
  *reinterpret_cast<volatile char*>(o.worker->stack_lo() + 8) = 1;
  Fiber::switch_to(*o.worker, o.main, true);
}

TEST(FiberDeath, OverwrittenCanaryAbortsWhenTheFiberFinishes) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        StackPool pool(32 * 1024);
        Overflow o;
        o.worker = std::make_unique<Fiber>(&canary_entry, &o, pool, 9);
        Fiber::switch_to(o.main, *o.worker);  // runs to exit
        o.worker.reset();
      },
      "stack overflow on rank 9: the canary");
}

TEST(FiberDeath, OverwrittenFreeStackAbortsOnReuse) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        StackPool pool(32 * 1024);
        char* lo = pool.take();
        pool.put(lo, 5);
        lo[63] = 1;
        pool.take();
      },
      "canary of a free stack last used by rank 5");
}

}  // namespace
