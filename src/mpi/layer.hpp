// The MPI call surface an application sees, as one abstract class.
//
// Application code calls Env methods, which forward to the installed Layer.
// The default layer is Pmpi (pmpi.hpp), which forwards every call into the
// minimpi runtime, like an MPI library's PMPI_* entry points. Casper derives
// from Pmpi and overrides only the calls it intercepts, exactly as the real
// Casper redefines a few MPI_* symbols and calls PMPI_* underneath.
#pragma once

#include <cstddef>
#include <functional>

#include "mpi/comm.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "mpi/win.hpp"

namespace casper::mpi {

class Env;

/// One RMA call as a descriptor: kind and op, origin operand(s), result
/// buffer, target coordinates. The builders are the one place that maps each
/// MPI call's arguments onto it. Pmpi's six RMA calls each build one and pass
/// it to Pmpi::rma, where an interception layer retargets a copy for
/// Runtime::p_rma.
struct RmaArgs {
  OpKind kind = OpKind::Put;
  AccOp op = AccOp::Replace;
  const void* origin_addr = nullptr;
  const void* origin_addr2 = nullptr;  // compare_and_swap "desired" operand
  int ocount = 0;
  Datatype odt{};
  void* result_addr = nullptr;  // Get/GetAcc/Fao/Cas destination
  int rcount = 0;
  Datatype rdt{};
  int target = -1;        // comm rank of the window's communicator
  std::size_t tdisp = 0;  // in units of the target's disp_unit
  int tcount = 0;
  Datatype tdt{};

  static RmaArgs put(const void* o, int oc, Datatype odt, int target,
                     std::size_t tdisp, int tc, Datatype tdt) {
    return {.kind = OpKind::Put, .origin_addr = o, .ocount = oc, .odt = odt,
            .target = target, .tdisp = tdisp, .tcount = tc, .tdt = tdt};
  }
  static RmaArgs get(void* o, int oc, Datatype odt, int target,
                     std::size_t tdisp, int tc, Datatype tdt) {
    return {.kind = OpKind::Get, .result_addr = o, .rcount = oc, .rdt = odt,
            .target = target, .tdisp = tdisp, .tcount = tc, .tdt = tdt};
  }
  static RmaArgs accumulate(const void* o, int oc, Datatype odt, int target,
                            std::size_t tdisp, int tc, Datatype tdt,
                            AccOp op) {
    RmaArgs a = put(o, oc, odt, target, tdisp, tc, tdt);
    a.kind = OpKind::Acc;
    a.op = op;
    return a;
  }
  static RmaArgs get_accumulate(const void* o, int oc, Datatype odt,
                                void* res, int rc, Datatype rdt, int target,
                                std::size_t tdisp, int tc, Datatype tdt,
                                AccOp op) {
    return {.kind = OpKind::GetAcc, .op = op, .origin_addr = o, .ocount = oc,
            .odt = odt, .result_addr = res, .rcount = rc, .rdt = rdt,
            .target = target, .tdisp = tdisp, .tcount = tc, .tdt = tdt};
  }
  static RmaArgs fetch_and_op(const void* value, void* result, Dt dt,
                              int target, std::size_t tdisp, AccOp op) {
    RmaArgs a = get_accumulate(value, 1, contig(dt), result, 1, contig(dt),
                               target, tdisp, 1, contig(dt), op);
    a.kind = OpKind::Fao;
    return a;
  }
  static RmaArgs compare_and_swap(const void* expected, const void* desired,
                                  void* result, Dt dt, int target,
                                  std::size_t tdisp) {
    RmaArgs a = get_accumulate(expected, 1, contig(dt), result, 1, contig(dt),
                               target, tdisp, 1, contig(dt), AccOp::Replace);
    a.kind = OpKind::Cas;
    a.origin_addr2 = desired;
    return a;
  }

  bool operator==(const RmaArgs&) const = default;

  /// MPI's size rule: the target layout moves exactly the origin's bytes
  /// (the result buffer's, for GET).
  bool sizes_match() const {
    return data_bytes(tcount, tdt) == (kind == OpKind::Get
                                           ? data_bytes(rcount, rdt)
                                           : data_bytes(ocount, odt));
  }
};

/// Abstract MPI call surface subject to interception.
class Layer {
 public:
  virtual ~Layer() = default;

  // --- lifecycle -----------------------------------------------------------
  /// Runs when a rank thread starts; responsible for invoking `user_main`
  /// (or an internal service loop instead) and for finalization handshakes.
  virtual void on_rank_start(Env& env,
                             const std::function<void(Env&)>& user_main) = 0;
  /// The communicator handed to the application as "the world".
  virtual Comm comm_world(Env& env) = 0;

  // --- communicator management --------------------------------------------
  virtual Comm comm_split(Env& env, const Comm& comm, int color, int key) = 0;
  virtual Comm comm_dup(Env& env, const Comm& comm) = 0;

  // --- point-to-point ------------------------------------------------------
  virtual void send(Env& env, const void* buf, int count, Dt dt, int dest,
                    int tag, const Comm& comm) = 0;
  virtual Status recv(Env& env, void* buf, int count, Dt dt, int src, int tag,
                      const Comm& comm) = 0;
  virtual Request isend(Env& env, const void* buf, int count, Dt dt, int dest,
                        int tag, const Comm& comm) = 0;
  virtual Request irecv(Env& env, void* buf, int count, Dt dt, int src,
                        int tag, const Comm& comm) = 0;
  virtual Status wait(Env& env, const Request& req) = 0;
  virtual bool test(Env& env, const Request& req) = 0;
  virtual void waitall(Env& env, Request* reqs, int n) = 0;

  // --- collectives ---------------------------------------------------------
  virtual void barrier(Env& env, const Comm& comm) = 0;
  virtual void bcast(Env& env, void* buf, int count, Dt dt, int root,
                     const Comm& comm) = 0;
  virtual void reduce(Env& env, const void* send, void* recv, int count,
                      Dt dt, AccOp op, int root, const Comm& comm) = 0;
  virtual void allreduce(Env& env, const void* send, void* recv, int count,
                         Dt dt, AccOp op, const Comm& comm) = 0;
  virtual void allgather(Env& env, const void* send, int count, Dt dt,
                         void* recv, const Comm& comm) = 0;
  virtual void alltoall(Env& env, const void* send, int count, Dt dt,
                        void* recv, const Comm& comm) = 0;
  virtual void gather(Env& env, const void* send, int count, Dt dt,
                      void* recv, int root, const Comm& comm) = 0;
  virtual void scatter(Env& env, const void* send, int count, Dt dt,
                       void* recv, int root, const Comm& comm) = 0;

  // --- window management ---------------------------------------------------
  virtual Win win_allocate(Env& env, std::size_t bytes, std::size_t disp_unit,
                           const Info& info, const Comm& comm,
                           void** base) = 0;
  virtual Win win_allocate_shared(Env& env, std::size_t bytes,
                                  std::size_t disp_unit, const Info& info,
                                  const Comm& comm, void** base) = 0;
  virtual Win win_create(Env& env, void* base, std::size_t bytes,
                         std::size_t disp_unit, const Info& info,
                         const Comm& comm) = 0;
  virtual void win_free(Env& env, Win& win) = 0;

  // --- RMA communication ---------------------------------------------------
  virtual void put(Env& env, const void* origin, int ocount, Datatype odt,
                   int target, std::size_t tdisp, int tcount, Datatype tdt,
                   const Win& win) = 0;
  virtual void get(Env& env, void* origin, int ocount, Datatype odt,
                   int target, std::size_t tdisp, int tcount, Datatype tdt,
                   const Win& win) = 0;
  virtual void accumulate(Env& env, const void* origin, int ocount,
                          Datatype odt, int target, std::size_t tdisp,
                          int tcount, Datatype tdt, AccOp op,
                          const Win& win) = 0;
  virtual void get_accumulate(Env& env, const void* origin, int ocount,
                              Datatype odt, void* result, int rcount,
                              Datatype rdt, int target, std::size_t tdisp,
                              int tcount, Datatype tdt, AccOp op,
                              const Win& win) = 0;
  virtual void fetch_and_op(Env& env, const void* value, void* result, Dt dt,
                            int target, std::size_t tdisp, AccOp op,
                            const Win& win) = 0;
  virtual void compare_and_swap(Env& env, const void* expected,
                                const void* desired, void* result, Dt dt,
                                int target, std::size_t tdisp,
                                const Win& win) = 0;

  // --- RMA synchronization -------------------------------------------------
  virtual void win_fence(Env& env, unsigned mode_assert, const Win& win) = 0;
  virtual void win_post(Env& env, const Group& group, unsigned mode_assert,
                        const Win& win) = 0;
  virtual void win_start(Env& env, const Group& group, unsigned mode_assert,
                         const Win& win) = 0;
  virtual void win_complete(Env& env, const Win& win) = 0;
  virtual void win_wait(Env& env, const Win& win) = 0;
  virtual void win_lock(Env& env, LockType type, int target,
                        unsigned mode_assert, const Win& win) = 0;
  virtual void win_unlock(Env& env, int target, const Win& win) = 0;
  virtual void win_lock_all(Env& env, unsigned mode_assert,
                            const Win& win) = 0;
  virtual void win_unlock_all(Env& env, const Win& win) = 0;
  virtual void win_flush(Env& env, int target, const Win& win) = 0;
  virtual void win_flush_all(Env& env, const Win& win) = 0;
  virtual void win_flush_local(Env& env, int target, const Win& win) = 0;
  virtual void win_flush_local_all(Env& env, const Win& win) = 0;
  virtual void win_sync(Env& env, const Win& win) = 0;
};

}  // namespace casper::mpi
