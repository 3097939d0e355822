// Active messages: the software path of RMA operations, plus point-to-point
// message records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mpi/types.hpp"
#include "sim/pool.hpp"
#include "sim/time.hpp"

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

/// A software-path operation delivered to a target rank's inbox (or handled
/// by that rank's progress agent). Executed target-side with a processing
/// cost; an acknowledgment (optionally carrying fetched data) returns to the
/// origin on completion.
///
/// Fields are ordered by alignment (8-byte, 4-byte, then 1-byte) so the op
/// packs into 152 bytes: the agent path's event closures carry a whole AmOp
/// plus a few scalars and must stay inside sim::EventFn's inline buffer.
struct AmOp {
  std::uint64_t opid = 0;
  WinImpl* win = nullptr;
  /// The origin's entry this op settles against: an RMA op's ack decrements
  /// its `outstanding`, a LockReq's grant and a LockRelease's ack land in
  /// it. Fault forwarding may rewrite target_comm_rank to a successor ghost;
  /// the op still settles against the entry the origin issued it from.
  OriginTargetState* acct = nullptr;
  std::size_t target_disp = 0;  // bytes (disp * disp_unit resolved at issue)
  // origin-side result destination for Get/GetAcc/Fao/Cas
  void* origin_result = nullptr;
  sim::Time delivered = 0;

  // payload for Put/Acc/GetAcc/Fao/Cas (packed origin data), drawn from the
  // runtime's buffer pool. Cas: payload = [compare | new]; single elements.
  sim::PoolBuf payload;

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
  /// Arrived while the target was busy outside the MPI runtime: it will be
  /// drained late and pays the in-application progress penalty.
  bool busy_arrival = false;
  /// The memory this op touches lives in a different NUMA domain than the
  /// processing entity (Casper: a ghost serving a remote-domain user's
  /// segment); processing pays the cross-domain memory penalty.
  bool cross_numa = false;
};
static_assert(sizeof(AmOp) <= 152,
              "agent-path closures carrying an AmOp must fit sim::EventFn");

/// A queued software op: the op plus its inbox link. Nodes live in an
/// AmArena and never move, so a poller that yields mid-service keeps a valid
/// reference to the op it is serving.
struct AmNode {
  AmOp op;
  AmNode* next = nullptr;
};

/// Chunked node arena with a LIFO free list, one per engine shard. Nodes are
/// allocated at delivery and freed after service, both on the target rank's
/// shard, so the arena needs no lock. Memory tracks the peak number of ops
/// queued at once on the shard, rounded up to one chunk.
class AmArena {
 public:
  static constexpr std::size_t kChunk = 256;

  AmNode* alloc(AmOp&& op) {
    if (free_ == nullptr) grow();
    AmNode* n = free_;
    free_ = n->next;
    n->op = std::move(op);
    return n;
  }
  /// Return a served node; its payload block goes back to the pool now.
  void free(AmNode* n) noexcept {
    n->op.payload.reset();
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
/// storage; popped nodes go back to their arena after service.
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

/// Origin-side description of an RMA operation after packing: everything
/// needed to inject it onto the wire. Ops issued before a (delayed) lock is
/// granted are queued in this form and injected when the grant arrives.
struct OpDesc {
  OpKind kind = OpKind::Put;
  AccOp op = AccOp::Replace;
  bool cross_numa = false;  ///< processing crosses a NUMA domain (see AmOp)
  sim::PoolBuf payload;     // packed origin data (Put/Acc/GetAcc/Fao);
                            // for Cas: [compare | desired]
  std::size_t tdisp_bytes = 0;
  int tcount = 0;
  Datatype tdt;
  void* origin_result = nullptr;  // Get/GetAcc/Fao/Cas destination
  int ocount = 0;
  Datatype odt;
};

/// A two-sided message in flight / queued unexpected.
struct P2pMsg {
  int src_world = -1;
  int tag = 0;
  int comm_id = -1;
  std::vector<std::byte> data;
};

}  // namespace casper::mpi
