// Active messages: the software path of RMA operations, plus point-to-point
// message records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <sanitizer/asan_interface.h>  // (un)poison macros: no-ops without ASan

#include "mpi/types.hpp"
#include "sim/pool.hpp"

namespace casper::mpi {

class WinImpl;
struct OriginTargetState;

/// RMA operation kinds carried by active messages.
enum class OpKind : std::uint8_t {
  Put,
  Get,
  Acc,          // accumulate
  GetAcc,       // get_accumulate (fetches old value, then applies op)
  Fao,          // fetch_and_op: single-element GetAcc
  Cas,          // compare_and_swap: single element
  LockReq,      // passive-target lock request
  LockRelease,  // passive-target unlock
};

/// Accumulate-class kinds read-modify-write target memory, atomically per
/// basic element, so one processing entity must serve each target byte.
inline bool accumulate_class(OpKind k) {
  return k == OpKind::Acc || k == OpKind::GetAcc || k == OpKind::Fao ||
         k == OpKind::Cas;
}

/// The fixed-size fields of an active message: everything but the payload.
/// Split out of AmOp so an arena node is cleared, or a wire copy cloned, with
/// one assignment. Every in-flight op carries one, so the field order packs
/// it into 88 bytes with no padding (DESIGN.md, "Per-op record budget").
struct AmHeader {
  std::uint64_t opid = 0;
  WinImpl* win = nullptr;
  /// The origin's entry this op settles against: an RMA op's ack decrements
  /// its `outstanding`, a LockReq's grant and a LockRelease's ack land in
  /// it. Fault forwarding may rewrite target_comm_rank to a successor ghost;
  /// the op still settles against the entry the origin issued it from.
  OriginTargetState* acct = nullptr;
  // origin-side result destination for Get/GetAcc/Fao/Cas
  void* origin_result = nullptr;

  /// Bytes (disp * disp_unit resolved at issue). 32 bits suffice because
  /// window creation requires every segment to be under kMaxSegmentBytes.
  std::uint32_t target_disp = 0;
  int origin_world = -1;
  int target_world = -1;
  int origin_comm_rank = -1;
  int target_comm_rank = -1;

  // data description (target side) and origin-side result description
  int target_count = 0;
  int origin_count = 0;
  Datatype target_dt;
  Datatype origin_dt;

  OpKind kind = OpKind::Put;
  AccOp op = AccOp::Replace;
  LockType lock_type = LockType::Shared;  // lock protocol
  /// The memory this op touches lives in a different NUMA domain than the
  /// processing entity (Casper: a ghost serving a remote-domain user's
  /// segment); processing pays the cross-domain memory penalty.
  bool cross_numa = false;
};

/// Window segments must be smaller than this, so every byte displacement
/// fits AmHeader::target_disp.
inline constexpr std::size_t kMaxSegmentBytes = std::size_t{1} << 32;

/// A software-path operation delivered to a target rank's inbox (or handled
/// by that rank's progress agent). Executed target-side with a processing
/// cost; an acknowledgment (optionally carrying fetched data) returns to the
/// origin on completion.
struct AmOp : AmHeader {
  /// Put/Acc/GetAcc/Fao/Cas: the packed origin data (Cas: [compare | new];
  /// single elements), drawn from the runtime's buffer pool. After commit
  /// it holds what the ack carries back: the fetched bytes, or nothing.
  sim::PoolBuf payload;
};

/// An op's one record, from issue to ack: the op plus an intrusive link for
/// the target's inbox. Nodes live in an AmArena and never move, so events
/// carry a node pointer and a poller that yields mid-service keeps a valid
/// reference to the op it is serving. Exactly two cache lines: `next` leads
/// the first, so AmQueue::pop_front reads the line the serve path reads
/// next anyway.
struct alignas(64) AmNode {
  AmNode* next = nullptr;
  AmOp op;
};

static_assert(sizeof(AmNode) == 128 && alignof(AmNode) == 64,
              "an op node is two cache lines");

/// Chunked node arena with a LIFO free list, one per engine shard. An RMA
/// op's node is allocated at issue and freed when its ack lands, both on
/// the origin's shard; a lock message's node is allocated at delivery and
/// freed after service, both on the target's shard. So the arena needs no
/// lock. Memory tracks the peak number of nodes live at once on the shard,
/// rounded up to one chunk. Under ASan a free node's op is poisoned, so a
/// node used after its free is reported as a use-after-poison.
class AmArena {
 public:
  static constexpr std::size_t kChunk = 256;

  AmArena() = default;
  AmArena(AmArena&&) = default;
  ~AmArena() {
    for (const auto& c : chunks_)
      ASAN_UNPOISON_MEMORY_REGION(c.get(), kChunk * sizeof(AmNode));
  }

  /// A node whose op has default fields and an empty payload.
  AmNode* alloc() {
    if (free_ == nullptr) grow();
    AmNode* n = free_;
    free_ = n->next;
    ASAN_UNPOISON_MEMORY_REGION(&n->op, sizeof(AmOp));
    return n;
  }
  /// Return a node; its payload block goes back to the pool now.
  void free(AmNode* n) noexcept {
    n->op.payload.reset();
    static_cast<AmHeader&>(n->op) = AmHeader{};
    ASAN_POISON_MEMORY_REGION(&n->op, sizeof(AmOp));
    n->next = free_;
    free_ = n;
  }
  /// Nodes allocated so far (live or free).
  std::size_t nodes() const { return chunks_.size() * kChunk; }

 private:
  void grow() {
    chunks_.push_back(std::make_unique<AmNode[]>(kChunk));
    AmNode* c = chunks_.back().get();
    for (std::size_t i = kChunk; i-- > 0;) free(&c[i]);
  }

  std::vector<std::unique_ptr<AmNode[]>> chunks_;
  AmNode* free_ = nullptr;
};

/// Intrusive FIFO of arena nodes: a rank's software-op inbox. It owns no
/// storage; a served node goes on with its ack or back to its arena.
class AmQueue {
 public:
  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return size_; }

  void push_back(AmNode* n) {
    n->next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = n;
    tail_ = n;
    ++size_;
  }
  AmNode* pop_front() {
    AmNode* n = head_;
    head_ = n->next;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    return n;
  }

 private:
  AmNode* head_ = nullptr;
  AmNode* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// A passive-target lock request or release on the wire. It gets an inbox
/// node only at delivery, on the target's shard.
struct LockMsg {
  WinImpl* win = nullptr;
  OriginTargetState* acct = nullptr;  ///< where the grant / release ack lands
  std::uint64_t opid = 0;
  int origin_comm_rank = -1;
  int target_comm_rank = -1;
  OpKind kind = OpKind::LockReq;  ///< LockReq or LockRelease
  LockType lock_type = LockType::Shared;
};

/// A two-sided message in flight / queued unexpected.
struct P2pMsg {
  int src_world = -1;
  int tag = 0;
  int comm_id = -1;
  std::vector<std::byte> data;
};

}  // namespace casper::mpi
