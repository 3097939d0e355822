// sim::BytePool / sim::PoolBuf: contents survive growth and moves, small
// buffers stay inline and never reach the pool, and every pool block is
// released exactly once. mpi::AmArena / mpi::AmQueue: op nodes are
// cache-line aligned and the inbox queue is FIFO.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "mpi/am.hpp"
#include "sim/pool.hpp"

namespace {

using casper::mpi::AmArena;
using casper::mpi::AmNode;
using casper::mpi::AmQueue;
using casper::sim::BytePool;
using casper::sim::PoolBuf;

constexpr std::size_t kInline = PoolBuf::kInline;

/// Fill `b` with n bytes of a recognizable pattern starting at `seed`.
void fill(PoolBuf& b, std::size_t n, int seed) {
  b.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.data()[i] = static_cast<std::byte>(seed + static_cast<int>(i));
  }
}

/// The first n bytes hold the pattern `fill` wrote from `seed`.
bool starts_with(const PoolBuf& b, std::size_t n, int seed) {
  if (b.size() < n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (b.data()[i] != static_cast<std::byte>(seed + static_cast<int>(i))) {
      return false;
    }
  }
  return true;
}

bool holds(const PoolBuf& b, std::size_t n, int seed) {
  return b.size() == n && starts_with(b, n, seed);
}

TEST(PoolBuf, ResizeAcrossInlineBoundaryKeepsContents) {
  BytePool pool;
  PoolBuf b(&pool);
  fill(b, kInline, 7);
  b.resize(kInline + 1);  // inline -> pooled block
  EXPECT_EQ(pool.fresh_blocks(), 1u);
  b.resize(kInline);
  EXPECT_TRUE(holds(b, kInline, 7));
  b.resize(3 * BytePool::kMinBlock);  // pooled -> larger pooled block
  b.resize(kInline);
  EXPECT_TRUE(holds(b, kInline, 7));

  PoolBuf heap;  // unbound: grows on the global heap, same contract
  fill(heap, kInline, 3);
  heap.resize(100);
  heap.resize(kInline);
  EXPECT_TRUE(holds(heap, kInline, 3));
}

TEST(PoolBuf, MovesKeepBytesAndLeaveSourceEmpty) {
  BytePool pool;
  for (const std::size_t n : {std::size_t{8}, kInline, std::size_t{40}}) {
    PoolBuf a(&pool);
    fill(a, n, 11);
    PoolBuf b(std::move(a));
    EXPECT_TRUE(holds(b, n, 11)) << n << " bytes, move-construct";
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): contract

    PoolBuf c(&pool);
    fill(c, 64, 99);  // the destination's own block is released
    c = std::move(b);
    EXPECT_TRUE(holds(c, n, 11)) << n << " bytes, move-assign";
    EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): contract

    // A moved-from buffer is reusable, and no longer shares storage with
    // the buffer its bytes moved to.
    fill(a, n, 5);
    fill(b, n, 6);
    EXPECT_TRUE(holds(a, n, 5));
    EXPECT_TRUE(holds(c, n, 11)) << n << " bytes, after reusing the sources";
  }
}

TEST(PoolBuf, SelfMoveAssignIsANoOp) {
  BytePool pool;
  for (const std::size_t n : {std::size_t{4}, std::size_t{48}}) {
    PoolBuf a(&pool);
    fill(a, n, 21);
    PoolBuf& alias = a;
    a = std::move(alias);
    EXPECT_TRUE(holds(a, n, 21)) << n << " bytes";
  }
}

TEST(PoolBuf, SmallBuffersNeverTouchThePool) {
  BytePool pool;
  {
    PoolBuf a(&pool);
    fill(a, 8, 1);
    PoolBuf b(&pool);
    b.assign(a.data(), a.size());
    fill(b, kInline, 2);
    PoolBuf c(std::move(b));
    a = std::move(c);
    a.reset();
    fill(a, 1, 3);
  }
  EXPECT_EQ(pool.fresh_blocks(), 0u);
  EXPECT_EQ(pool.reuses(), 0u);
  EXPECT_EQ(pool.bytes_reused(), 0u);
}

TEST(PoolBuf, GrownBufferReleasesItsBlockExactlyOnce) {
  BytePool pool;
  {
    PoolBuf a(&pool);
    fill(a, 8, 1);
    a.resize(kInline + 1);  // inline -> one pooled block
    PoolBuf b(std::move(a));  // the block moves; a owns nothing now
    PoolBuf c(&pool);
    c = std::move(b);
  }  // a, b and c destruct: one release of the one block
  EXPECT_EQ(pool.fresh_blocks(), 1u);

  // Exactly one block sits on the free list: the first reacquire reuses it,
  // the second needs a fresh block.
  PoolBuf x(&pool);
  x.resize(kInline + 1);
  EXPECT_EQ(pool.reuses(), 1u);
  PoolBuf y(&pool);
  y.resize(kInline + 1);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.fresh_blocks(), 2u);
}

TEST(PoolBuf, BindOnlyWhileInline) {
  BytePool first;
  BytePool second;
  PoolBuf a(&first);
  fill(a, 32, 0);  // block from `first`
  a.bind(&second);  // ignored: the block must go back where it came from
  a.reset();
  PoolBuf again(&first);
  again.resize(32);
  EXPECT_EQ(first.reuses(), 1u);
  EXPECT_EQ(second.fresh_blocks() + second.reuses(), 0u);
}

TEST(PoolBuf, ResetReturnsToInlineStorage) {
  BytePool pool;
  PoolBuf a(&pool);
  fill(a, 8, 4);
  a.resize(40);  // inline -> block
  EXPECT_EQ(pool.fresh_blocks(), 1u);
  EXPECT_TRUE(starts_with(a, 8, 4));
  a.reset();  // the block goes back, the storage is inline again
  EXPECT_TRUE(a.empty());
  fill(a, kInline, 9);
  EXPECT_TRUE(holds(a, kInline, 9));
  EXPECT_EQ(pool.fresh_blocks(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
  a.resize(40);  // the released block is reused
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_TRUE(starts_with(a, kInline, 9));
}

TEST(PoolBuf, ShrinkingResizeKeepsItsBlock) {
  BytePool pool;
  PoolBuf a(&pool);
  fill(a, 100, 2);
  const std::byte* block = a.data();
  a.resize(4);  // at or under kInline, but the block stays
  EXPECT_EQ(a.data(), block);
  EXPECT_TRUE(holds(a, 4, 2));
  a.resize(100);  // regrows inside the same block: no pool traffic
  EXPECT_EQ(a.data(), block);
  EXPECT_EQ(pool.fresh_blocks(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
  a.clear();
  EXPECT_EQ(a.data(), block);
}

TEST(PoolBuf, MovesCarryInlineBytesAndBlocks) {
  BytePool pool;
  // A small size held in a block moves the block, not inline bytes.
  PoolBuf a(&pool);
  fill(a, 100, 6);
  a.resize(3);
  const std::byte* block = a.data();
  PoolBuf b(std::move(a));
  EXPECT_EQ(b.data(), block);
  EXPECT_TRUE(holds(b, 3, 6));
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): contract
  fill(a, kInline, 1);  // the source is inline again: no pool traffic
  EXPECT_EQ(pool.fresh_blocks(), 1u);

  // Inline contents move by value: the destination's storage is its own.
  PoolBuf c(&pool);
  c = std::move(a);
  EXPECT_TRUE(holds(c, kInline, 1));
  EXPECT_NE(c.data(), a.data());  // NOLINT(bugprone-use-after-move)
  fill(a, kInline, 50);
  EXPECT_TRUE(holds(c, kInline, 1));
  EXPECT_EQ(pool.fresh_blocks(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
}

TEST(PoolBuf, BindTakesEffectAgainOnceInline) {
  BytePool first;
  BytePool second;
  PoolBuf a(&first);
  fill(a, 32, 0);
  a.bind(&second);  // ignored while the block from `first` is held
  a.reset();        // back to `first`, and inline again
  a.bind(&second);  // honored now
  fill(a, 32, 0);
  EXPECT_EQ(first.fresh_blocks(), 1u);
  EXPECT_EQ(second.fresh_blocks(), 1u);
  a.reset();
  PoolBuf b(&second);
  b.resize(32);
  EXPECT_EQ(second.reuses(), 1u) << "the block went back to `second`";
}

TEST(PoolBufDeath, ContentsOf4GiBAbortBeforeAllocating) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PoolBuf a;
        a.resize(PoolBuf::kMaxSize + 1);
      },
      "exceed the limit");
}

TEST(AmArena, NodesAreCacheLineAligned) {
  AmArena arena;
  std::vector<AmNode*> nodes;
  for (std::size_t i = 0; i < 2 * AmArena::kChunk + 1; ++i) {
    nodes.push_back(arena.alloc());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(nodes.back()) % 64, 0u);
  }
  EXPECT_EQ(arena.nodes(), 3 * AmArena::kChunk);
  for (AmNode* n : nodes) arena.free(n);
}

TEST(AmQueue, PopsNodesInPushOrder) {
  // Bursts of pushes with partial drains: the queue empties, refills and
  // holds more than one arena chunk, and every pop returns the oldest node.
  AmArena arena;
  AmQueue q;
  std::deque<AmNode*> model;
  std::uint64_t next_id = 0;
  for (int round = 0; round < 8; ++round) {
    const int burst = round % 4 == 3 ? 300 : 100;
    for (int i = 0; i < burst; ++i) {
      AmNode* n = arena.alloc();
      n->op.opid = ++next_id;
      q.push_back(n);
      model.push_back(n);
    }
    ASSERT_EQ(q.size(), model.size());
    const std::size_t drain =
        round % 2 == 0 ? model.size() / 2 : model.size();
    for (std::size_t i = 0; i < drain; ++i) {
      ASSERT_FALSE(q.empty());
      AmNode* n = q.pop_front();
      ASSERT_EQ(n, model.front()) << "round " << round << " pop " << i;
      ASSERT_EQ(n->op.opid, model.front()->op.opid);
      model.pop_front();
      arena.free(n);
    }
    ASSERT_EQ(q.size(), model.size());
    ASSERT_EQ(q.empty(), model.empty());
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
