// sim::BytePool / sim::PoolBuf: contents survive growth and moves, small
// buffers stay inline and never reach the pool, and every pool block is
// released exactly once.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/pool.hpp"

namespace {

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

bool holds(const PoolBuf& b, std::size_t n, int seed) {
  if (b.size() != n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (b.data()[i] != static_cast<std::byte>(seed + static_cast<int>(i))) {
      return false;
    }
  }
  return true;
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

}  // namespace
