// Active messages: the software path of RMA operations, plus point-to-point
// message records.
#pragma once

#include <cstdint>
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
struct AmOp {
  OpKind kind = OpKind::Put;
  std::uint64_t opid = 0;
  int origin_world = -1;
  int target_world = -1;
  WinImpl* win = nullptr;
  int origin_comm_rank = -1;
  int target_comm_rank = -1;
  /// The origin's entry this op settles against: an RMA op's ack decrements
  /// its `outstanding`, a LockReq's grant and a LockRelease's ack land in
  /// it. Fault forwarding may rewrite target_comm_rank to a successor ghost;
  /// the op still settles against the entry the origin issued it from.
  OriginTargetState* acct = nullptr;

  // data description (target side)
  std::size_t target_disp = 0;  // bytes (disp * disp_unit resolved at issue)
  int target_count = 0;
  Datatype target_dt;
  AccOp op = AccOp::Replace;

  // payload for Put/Acc/GetAcc/Fao/Cas (packed origin data), drawn from the
  // runtime's buffer pool. Cas: payload = [compare | new]; single elements.
  sim::PoolBuf payload;

  // origin-side result description for Get/GetAcc/Fao/Cas
  void* origin_result = nullptr;
  int origin_count = 0;
  Datatype origin_dt;

  // lock protocol
  LockType lock_type = LockType::Shared;

  sim::Time delivered = 0;
  /// Arrived while the target was busy outside the MPI runtime: it will be
  /// drained late and pays the in-application progress penalty.
  bool busy_arrival = false;
  /// The memory this op touches lives in a different NUMA domain than the
  /// processing entity (Casper: a ghost serving a remote-domain user's
  /// segment); processing pays the cross-domain memory penalty.
  bool cross_numa = false;
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
