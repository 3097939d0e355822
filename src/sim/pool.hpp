// Size-classed free-list arena for transient byte buffers.
//
// The RMA hot path stages every payload, scratch and acknowledgment buffer
// through short-lived allocations; with std::vector<std::byte> each op paid
// one malloc/free per buffer. BytePool recycles blocks in power-of-two size
// classes (the pooled-slot pattern of the engine's event SlotPool):
// after a short warm-up the working set of block sizes is resident and
// acquire/release are two vector operations, no heap traffic.
//
// Single-threaded by default: a pool belongs to one simulation, and with a
// single-shard engine no synchronization is needed. Sharded engines run one
// worker thread per shard and PoolBufs can migrate across shards with the
// messages that carry them, so set_thread_safe(true) arms a mutex around the
// freelists; the unsharded path keeps paying only one predictable branch.
// PoolBuf contents of up to PoolBuf::kInline bytes stay in the buffer and
// never reach the pool, its counters or its mutex. Blocks are returned
// uncleared; callers fully overwrite what they read back (PoolBuf::resize
// preserves existing contents on growth, like std::vector).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace casper::sim {

class BytePool {
 public:
  /// Smallest block handed out; class c holds blocks of kMinBlock << c bytes.
  static constexpr std::size_t kMinBlock = 64;
  static constexpr int kClasses = 16;  // up to 2 MiB pooled; larger = direct

  BytePool() = default;
  ~BytePool() {
    for (auto& fl : free_)
      for (std::byte* p : fl) ::operator delete(p);
  }
  BytePool(const BytePool&) = delete;
  BytePool& operator=(const BytePool&) = delete;

  /// Arm (or disarm) the freelist mutex. Call before worker threads share the
  /// pool (sharded engine); must not be toggled while blocks are in flight.
  void set_thread_safe(bool on) { locked_ = on; }

  /// A block of capacity >= n; *cap receives the actual block capacity
  /// (needed to release it into the right class). n == 0 returns null.
  std::byte* acquire(std::size_t n, std::size_t* cap) {
    if (n == 0) {
      *cap = 0;
      return nullptr;
    }
    const int c = cls_of(n);
    if (c < 0) {  // oversized: direct, uncached — no shared state touched
      *cap = n;
      return static_cast<std::byte*>(::operator new(n));
    }
    *cap = kMinBlock << c;
    std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
    if (locked_) lk.lock();
    auto& fl = free_[c];
    if (!fl.empty()) {
      std::byte* p = fl.back();
      fl.pop_back();
      ++reuses_;
      bytes_reused_ += n;
      return p;
    }
    ++fresh_;
    return static_cast<std::byte*>(::operator new(kMinBlock << c));
  }

  void release(std::byte* p, std::size_t cap) noexcept {
    if (p == nullptr) return;
    const int c = cls_of(cap);
    if (c < 0 || (kMinBlock << c) != cap) {  // oversized block: free directly
      ::operator delete(p);
      return;
    }
    std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
    if (locked_) lk.lock();
    free_[c].push_back(p);
  }

  /// Payload bytes served from recycled blocks (the obs counter).
  std::uint64_t bytes_reused() const { return bytes_reused_; }
  std::uint64_t reuses() const { return reuses_; }
  std::uint64_t fresh_blocks() const { return fresh_; }

 private:
  /// Smallest class whose block holds n bytes; -1 if larger than the pool.
  static int cls_of(std::size_t n) {
    std::size_t b = kMinBlock;
    for (int c = 0; c < kClasses; ++c, b <<= 1)
      if (n <= b) return c;
    return -1;
  }

  std::vector<std::byte*> free_[kClasses];
  std::uint64_t bytes_reused_ = 0;
  std::uint64_t reuses_ = 0;
  std::uint64_t fresh_ = 0;
  std::mutex mu_;
  bool locked_ = false;
};

/// A movable byte buffer drawing storage from a BytePool. Behaves like a
/// minimal std::vector<std::byte>: resize preserves contents, clear keeps
/// capacity. Up to kInline bytes live in the buffer itself and never touch
/// the pool (single-element RMA payloads, CAS operand pairs, 8-byte acks).
/// Larger contents take a pool block; unbound (no pool) instances fall back
/// to the global heap, so a default-constructed PoolBuf is always usable —
/// binding is an optimization, not a requirement. Destruction returns the
/// block to the pool.
///
/// 32 bytes, because every in-flight op carries one: the inline bytes share
/// storage with the block pointer, and `cap_ == kInline` says which one is
/// live (a block is always larger than kInline). Contents are limited to
/// kMaxSize bytes.
class PoolBuf {
 public:
  static constexpr std::size_t kInline = 16;
  static constexpr std::size_t kMaxSize = UINT32_MAX;

  PoolBuf() = default;
  explicit PoolBuf(BytePool* pool) : pool_(pool) {}
  PoolBuf(PoolBuf&& o) noexcept { take(o); }
  PoolBuf& operator=(PoolBuf&& o) noexcept {
    if (this != &o) {
      dealloc();
      take(o);
    }
    return *this;
  }
  PoolBuf(const PoolBuf&) = delete;
  PoolBuf& operator=(const PoolBuf&) = delete;
  ~PoolBuf() { dealloc(); }

  /// Attach to a pool. A held block must be released to its own source, so
  /// binding is only allowed while the storage is inline.
  void bind(BytePool* pool) {
    if (is_inline()) pool_ = pool;
  }

  std::byte* data() { return is_inline() ? store_.bytes : store_.block; }
  const std::byte* data() const {
    return is_inline() ? store_.bytes : store_.block;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void resize(std::size_t n) {
    if (n > cap_) grow(n);
    size_ = static_cast<std::uint32_t>(n);
  }
  void clear() { size_ = 0; }
  /// Empty the buffer and return any held block now.
  void reset() noexcept { dealloc(); }

  void assign(const void* src, std::size_t n) {
    resize(n);
    if (n != 0) std::memcpy(data(), src, n);
  }

  std::span<const std::byte> span() const { return {data(), size_}; }
  operator std::span<const std::byte>() const { return span(); }

 private:
  union Store {
    std::byte* block;         ///< live when cap_ > kInline
    std::byte bytes[kInline];  ///< live when cap_ == kInline
  };

  bool is_inline() const { return cap_ == kInline; }

  /// Steal o's storage and leave it empty. The whole store is copied
  /// unconditionally, block pointer or inline bytes alike: moves run once
  /// per hop of every queued op, and a branch around the copy cost more
  /// than the 16-byte copy itself.
  void take(PoolBuf& o) noexcept {
    pool_ = o.pool_;
    store_ = o.store_;
    size_ = o.size_;
    cap_ = o.cap_;
    o.size_ = 0;
    o.cap_ = kInline;
  }
  void grow(std::size_t n) {
    if (n > kMaxSize) {
      std::fprintf(stderr, "sim::PoolBuf: %zu bytes exceed the limit %zu\n", n,
                   kMaxSize);
      std::abort();
    }
    std::size_t ncap = 0;
    std::byte* nd = pool_ != nullptr
                        ? pool_->acquire(n, &ncap)
                        : (ncap = n, static_cast<std::byte*>(::operator new(n)));
    if (size_ != 0) std::memcpy(nd, data(), size_);
    dealloc();
    store_.block = nd;
    cap_ = static_cast<std::uint32_t>(ncap);
  }
  void dealloc() noexcept {
    size_ = 0;
    if (is_inline()) return;
    if (pool_ != nullptr)
      pool_->release(store_.block, cap_);
    else
      ::operator delete(store_.block);
    cap_ = kInline;
  }

  BytePool* pool_ = nullptr;
  Store store_{};
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;  ///< kInline, or the block's capacity
};

static_assert(sizeof(PoolBuf) == 32, "PoolBuf is a quarter of an op node");

}  // namespace casper::sim
